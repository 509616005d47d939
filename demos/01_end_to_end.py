"""End-to-end walkthrough: synthetic city -> graph teacher -> distilled student.

Generates a small synthetic takeaway-ordering city, builds the
spatial-temporal knowledge graph, pretrains the graph teacher, distills its
soft labels into the sequence student, and reports ranking quality on the
held-out last purchase of every user.

Run:  python3 demos/01_end_to_end.py
"""

import numpy as np

from stkd import (SubgraphProvider, SyntheticConfig, TeacherSignal,
                  TrainConfig, build_sequences, build_stkg,
                  compute_soft_labels, distill, evaluate, generate_synthetic,
                  graph_stats, ingest_events, pretrain_teacher)

# --- 1. a synthetic city with planted habits -------------------------------
# Every user favors a handful of shops inside their home region, popular
# shops get extra traffic, and some shop pairs are frequently co-purchased.
# `noise` replaces a fraction of purchases with uniform picks.
synth = SyntheticConfig(n_users=120, n_takeaways=200, n_regions=8,
                        events_per_user=24, noise=0.25, seed=7)
events = generate_synthetic(synth)
events, vocab, report = ingest_events(events)
dropped = report.n_malformed + report.n_dropped_geohash
print(f"events: {len(events)} rows kept, {dropped} dropped")
print(f"vocab:  {vocab.n_users} users, {vocab.n_takeaways} takeaways, "
      f"{vocab.n_regions} regions")

# --- 2. sliding windows with a leave-one-out split -------------------------
# Last purchase per user -> test, second-to-last -> validation, rest -> train.
dataset = build_sequences(events, vocab, n=8)
print(f"windows: {len(dataset)} total, "
      f"{dataset.rows('train').size} train / "
      f"{dataset.rows('valid').size} valid / "
      f"{dataset.rows('test').size} test")

# --- 3. the spatial-temporal knowledge graph --------------------------------
# Users, takeaways, and attribute values are entities; purchases (with time
# buckets), locations, distances, categories, and co-purchases are typed
# edges, stored with reverse direction so sampling can walk both ways.
stkg = build_stkg(events, vocab)
stats = graph_stats(stkg)
mean_degree = stkg.indptr[-1] / stkg.n_entities
print(f"graph:  {stats.n_entities} entities, {stats.n_triples} triples, "
      f"{stats.n_relations} relation types, mean degree {mean_degree:.1f}")

cfg = TrainConfig(epochs=3, batch_size=128, n=8, d=32, heads=2, layers=2,
                  gnn_layers=2, fanouts=(8, 8), seed=0, lr=0.01,
                  dropout=0.1, alpha=0.2, temperature=3.0, patience=2)

# --- 4. pretrain the graph teacher ------------------------------------------
# The teacher scores the next takeaway from a sampled neighborhood around
# the window's items and user, trained with cross-entropy on train windows.
# Its user and takeaway tables are sized by the graph; the provider refuses
# a dataset and a graph built over different vocabularies.
provider = SubgraphProvider(dataset, stkg, cfg.fanouts, cfg.seed)
teacher = pretrain_teacher(cfg, dataset, stkg, provider=provider)
print(f"teacher: best val NDCG@10 {teacher.best_metric:.3f} at epoch "
      f"{teacher.best_epoch} ({teacher.train_seconds:.1f}s)")

# --- 5. cache soft labels and distill into the student ----------------------
# The student is a causal transformer over (takeaway, region, distance
# bucket) embeddings, sized by the dataset's vocabulary; its objective
# blends cross-entropy on the true next item with KL against the teacher's
# softened distribution.
rows, probs = compute_soft_labels(teacher.params, provider, dataset)
signal = TeacherSignal(rows, probs)
student = distill(cfg, dataset, signal=signal)
print(f"student: best val NDCG@10 {student.best_metric:.3f} at epoch "
      f"{student.best_epoch} ({student.train_seconds:.1f}s)")

# --- 6. evaluate on the held-out purchases ----------------------------------
# Each test window ranks the true next takeaway against 100 sampled
# never-purchased negatives; we report hit rate and NDCG at several cutoffs.
report = evaluate(student.params, dataset, cfg, split="test",
                  train_seconds=teacher.train_seconds + student.train_seconds)
print("test metrics (100 negatives per instance):")
for k in sorted(report.hr):
    print(f"  HR@{k:<3} {report.hr[k]:.3f}   NDCG@{k:<3} {report.ndcg[k]:.3f}")
print(f"prediction time: {report.predict_seconds * 1e3:.1f}ms for "
      f"{report.counts['n_instances']} instances")
