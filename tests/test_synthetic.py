"""Synthetic generator: determinism, planted patterns, noise behavior."""

import json

import numpy as np
import pytest

from stkd.errors import ConfigError
from stkd.events import ingest_events
from stkd.geo import is_valid_geohash6
from stkd.synthetic import (SyntheticConfig, copurchase_pairs,
                            generate_synthetic, region_geohashes,
                            write_synthetic)


def pooled_follow_stats(lines, pairs):
    """((#A followed by its B) / (#A with successor), pooled base rate of Bs)."""
    by_user = {}
    for ln in lines:
        r = json.loads(ln)
        by_user.setdefault(r["user_id"], []).append(int(r["takeaway_id"][1:]))
    follow_of = {a: b for a, b, _ in pairs}
    tails = {b for _, b, _ in pairs}
    n_a = hits = total = tail_buys = 0
    for seq in by_user.values():
        for cur, nxt in zip(seq, seq[1:]):
            total += 1
            if nxt in tails:
                tail_buys += 1
            if cur in follow_of:
                n_a += 1
                if nxt == follow_of[cur]:
                    hits += 1
    base = tail_buys / max(1, total) / max(1, len(tails))
    return hits / max(1, n_a), base


def test_same_seed_is_byte_identical():
    cfg = SyntheticConfig(n_users=20, n_takeaways=60, n_regions=4,
                          events_per_user=15, seed=9)
    a = "".join(generate_synthetic(cfg))
    b = "".join(generate_synthetic(SyntheticConfig(
        n_users=20, n_takeaways=60, n_regions=4, events_per_user=15, seed=9)))
    assert a == b
    c = "".join(generate_synthetic(SyntheticConfig(
        n_users=20, n_takeaways=60, n_regions=4, events_per_user=15, seed=10)))
    assert a != c


def test_events_are_well_formed_and_chronological():
    cfg = SyntheticConfig(n_users=10, n_takeaways=40, n_regions=4,
                          events_per_user=12, seed=3)
    lines = generate_synthetic(cfg)
    assert len(lines) == 10 * 12
    last_ts = {}
    for ln in lines:
        r = json.loads(ln)
        assert is_valid_geohash6(r["user_geohash6"])
        assert is_valid_geohash6(r["shop_geohash6"])
        assert r["timestamp"] > 0
        u = r["user_id"]
        if u in last_ts:
            assert r["timestamp"] > last_ts[u], "per-user timestamps must increase"
        last_ts[u] = r["timestamp"]
    events, vocab, report = ingest_events(lines)
    assert report.n_malformed == 0 and report.n_dropped_geohash == 0
    assert vocab.n_users == 10


def test_region_grid_produces_distinct_cells():
    codes = region_geohashes(12)
    assert len(set(codes)) == 12
    assert all(is_valid_geohash6(c) for c in codes)


def test_zero_noise_follow_probability_matches_config():
    cfg = SyntheticConfig(n_users=300, n_takeaways=120, n_regions=6,
                          events_per_user=40, seed=2, noise=0.0,
                          follow_prob=0.7)
    lines = generate_synthetic(cfg)
    p_follow, _ = pooled_follow_stats(lines, copurchase_pairs(cfg))
    # pooled over ~thousands of A purchases; binomial CI well inside +-0.05
    assert abs(p_follow - 0.7) < 0.05, p_follow


def test_full_noise_destroys_planted_lift():
    cfg = SyntheticConfig(n_users=400, n_takeaways=100, n_regions=5,
                          events_per_user=50, seed=4, noise=1.0)
    lines = generate_synthetic(cfg)
    p_follow, base = pooled_follow_stats(lines, copurchase_pairs(cfg))
    lift = p_follow / max(base, 1e-9)
    assert 0.4 < lift < 2.5, (p_follow, base, lift)


def test_planted_lift_is_large_at_low_noise():
    cfg = SyntheticConfig(n_users=200, n_takeaways=100, n_regions=5,
                          events_per_user=40, seed=5, noise=0.1)
    lines = generate_synthetic(cfg)
    p_follow, base = pooled_follow_stats(lines, copurchase_pairs(cfg))
    assert p_follow / max(base, 1e-9) > 10


def test_weekday_noon_purchases_happen_at_work():
    cfg = SyntheticConfig(n_users=30, n_takeaways=60, n_regions=6,
                          events_per_user=30, seed=6, noise=0.0)
    lines = generate_synthetic(cfg)
    noon_regions, other_regions = {}, {}
    for ln in lines:
        r = json.loads(ln)
        hour = (r["timestamp"] % 86400) // 3600
        weekday = (r["timestamp"] // 86400 + 3) % 7  # Monday = 0
        is_work_noon = 12 <= hour < 19 and weekday < 5
        bucket = noon_regions if is_work_noon else other_regions
        bucket.setdefault(r["user_id"], set()).add(r["user_geohash6"])
    # each user works in exactly one region and lives in exactly one other
    for u, regions in noon_regions.items():
        assert len(regions) == 1, (u, regions)
        if u in other_regions:
            assert regions.isdisjoint(other_regions[u])
    for u, regions in other_regions.items():
        assert len(regions) == 1, (u, regions)


def test_infeasible_configs_raise():
    with pytest.raises(ConfigError):
        SyntheticConfig(noise=1.5).validate()
    with pytest.raises(ConfigError):
        SyntheticConfig(follow_prob=-0.1).validate()
    with pytest.raises(ConfigError):
        SyntheticConfig(n_users=0).validate()
    with pytest.raises(ConfigError):
        SyntheticConfig(n_takeaways=5, n_regions=4,
                        favorites_per_region=3).validate()


def test_write_synthetic_round_trips(tmp_path):
    cfg = SyntheticConfig(n_users=5, n_takeaways=30, n_regions=3,
                          events_per_user=8, n_copurchase_pairs=15, seed=1)
    path = str(tmp_path / "events.jsonl")
    n = write_synthetic(cfg, path)
    assert n == 40
    events, _, report = ingest_events(path)
    assert report.n_events == 40


def test_copurchase_pairs_must_fit_the_vocabulary():
    # heads and tails are distinct takeaways: at most n_takeaways // 2 pairs
    for n_pairs in (-1, 16):
        with pytest.raises(ConfigError, match="n_copurchase_pairs"):
            SyntheticConfig(n_takeaways=31, n_regions=3,
                            n_copurchase_pairs=n_pairs)
    for n_pairs in (0, 15):
        cfg = SyntheticConfig(n_takeaways=31, n_regions=3,
                              n_copurchase_pairs=n_pairs)
        pairs = copurchase_pairs(cfg)
        assert len(pairs) <= n_pairs
        items = [item for a, b, _ in pairs for item in (a, b)]
        assert len(set(items)) == len(items)
    assert copurchase_pairs(SyntheticConfig(n_copurchase_pairs=0)) == []

