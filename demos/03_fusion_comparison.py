"""Why distill instead of bolting the teacher onto the student?

An alternative to distillation is feature fusion: run the graph teacher at
prediction time, pool its node states into one vector, and combine that
vector with the student's sequence state (add / concatenate / multiply).
Fusion keeps the teacher in the serving path forever; distillation pays the
teacher cost once, at training time.

This script trains all four wirings on the same data and seed, then prints
what each one had to do at inference: how many teacher forward passes and
neighborhood samples it triggered, and how long producing the scores took.
The distilled path triggers none and is the fastest.

Run:  python3 demos/03_fusion_comparison.py
"""

from stkd import (FUSION_STRATEGIES, SyntheticConfig, TrainConfig,
                  ablate_fusion, build_sequences, build_stkg,
                  generate_synthetic, ingest_events)

synth = SyntheticConfig(n_users=120, n_takeaways=200, n_regions=8,
                        events_per_user=24, noise=0.25, seed=5)
events, vocab, _ = ingest_events(generate_synthetic(synth))
dataset = build_sequences(events, vocab, n=8)
stkg = build_stkg(events, vocab)

cfg = TrainConfig(epochs=2, batch_size=128, n=8, d=32, heads=2, layers=1,
                  gnn_layers=2, fanouts=(6, 6), seed=0, lr=0.01, alpha=0.2,
                  temperature=3.0, patience=2)

reports = ablate_fusion(cfg, dataset, stkg)

print(f"{'strategy':<9} {'HR@10':>7} {'NDCG@10':>9} {'teacher fwd':>12} "
      f"{'nbr samples':>12} {'predict ms':>11}")
for strategy in FUSION_STRATEGIES:
    r = reports[strategy]
    print(f"{strategy:<9} {r.hr[10]:>7.3f} {r.ndcg[10]:>9.3f} "
          f"{r.counts.get('teacher_forwards', 0):>12} "
          f"{r.counts.get('subgraph_samples', 0):>12} "
          f"{r.predict_seconds * 1e3:>11.1f}")

stkd_ms = reports["stkd"].predict_seconds * 1e3
slowest = max(reports[s].predict_seconds * 1e3
              for s in ("add", "cat", "multi"))
print(f"\ndistilled serving is {slowest / stkd_ms:.0f}x faster than the "
      f"slowest fusion wiring and never touches the graph at inference.")
