"""Ablation study: which ingredients earn their keep?

Trains the student under six configurations on one synthetic city and
compares held-out HR@10 / NDCG@10:

  full      distillation + both spatial signals
  no_kd     drop the teacher (pure next-item cross-entropy)
  no_sp     drop all spatial machinery (regions, distance buckets, and the
            spatial projection are zeroed and frozen)
  no_sp_kd  drop both -> a plain causal transformer over item ids
  no_c      drop only the region (city-area) embedding
  no_f      drop only the distance-bucket (fence) embedding

All variants share the same data, seed, and pretrained teacher, so the
differences are attributable to the removed ingredient alone.

Run:  python3 demos/02_ablation_study.py
"""

from stkd import (ABLATION_VARIANTS, SyntheticConfig, TrainConfig, ablate,
                  build_sequences, build_stkg, generate_synthetic,
                  ingest_events)

synth = SyntheticConfig(n_users=200, n_takeaways=500, n_regions=12,
                        events_per_user=40, noise=0.3, seed=0,
                        favorites_per_region=5, head_rate=0.25,
                        n_copurchase_pairs=30, follow_prob=0.8)
events, vocab, _ = ingest_events(generate_synthetic(synth))
dataset = build_sequences(events, vocab, n=6)
stkg = build_stkg(events, vocab)
print(f"world: {vocab.n_users} users / {vocab.n_takeaways} takeaways / "
      f"{stkg.n_entities} graph entities")

cfg = TrainConfig(epochs=3, batch_size=128, n=6, d=32, heads=2, layers=2,
                  gnn_layers=2, fanouts=(8, 8), seed=0, lr=0.01, dropout=0.1,
                  alpha=0.2, temperature=3.0, patience=2)

reports = ablate(cfg, dataset, stkg, variants=ABLATION_VARIANTS)

print(f"\n{'variant':<10} {'HR@10':>7} {'NDCG@10':>9} {'train s':>9}")
for variant in ABLATION_VARIANTS:
    r = reports[variant]
    print(f"{variant:<10} {r.hr[10]:>7.3f} {r.ndcg[10]:>9.3f} "
          f"{r.train_seconds:>9.1f}")

full, bare = reports["full"], reports["no_sp_kd"]
print(f"\nfull vs plain transformer: HR@10 {full.hr[10]:.3f} vs "
      f"{bare.hr[10]:.3f} "
      f"({(full.hr[10] - bare.hr[10]) * 100:+.1f} points)")
