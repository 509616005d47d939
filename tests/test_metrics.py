"""Ranking metrics against a brute-force sort-and-scan oracle."""

import numpy as np
import pytest

from stkd.errors import InvalidArgumentError
from stkd.metrics import (hit_rate_at_k, ndcg_at_k, rank_of_target,
                          sample_negatives)


def oracle_rank(target_score, negative_scores):
    """Independent oracle: sort all scores descending (ties keep the target
    first) and scan for the target's position."""
    scored = [(float(s), 1) for s in negative_scores] + [(float(target_score), 0)]
    # sort by score desc; the tiebreak key 0 puts the target ahead of equals
    scored.sort(key=lambda p: (-p[0], p[1]))
    for pos, (_, is_neg) in enumerate(scored):
        if not is_neg:
            return pos + 1
    raise AssertionError("target missing")


def test_rank_matches_oracle_on_random_vectors():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n_neg = int(rng.integers(1, 120))
        negs = rng.standard_normal(n_neg)
        if rng.random() < 0.3:  # force ties sometimes
            negs[rng.integers(0, n_neg)] = 0.5
            target = 0.5
        else:
            target = float(rng.standard_normal())
        got = rank_of_target(target, negs)
        assert got == oracle_rank(target, negs)


def test_rank_tie_resolves_in_targets_favor():
    assert rank_of_target(1.0, np.array([1.0, 1.0, 1.0])) == 1
    assert rank_of_target(1.0, np.array([2.0, 1.0, 0.5])) == 2


def test_rank_extremes():
    negs = np.arange(100, dtype=float)
    assert rank_of_target(1000.0, negs) == 1
    assert rank_of_target(-1.0, negs) == 101


def test_hit_rate_threshold():
    assert hit_rate_at_k(10, 10) == 1.0
    assert hit_rate_at_k(11, 10) == 0.0
    assert hit_rate_at_k(1, 1) == 1.0


def test_ndcg_values():
    # rank 1 -> 1/log2(2) = 1; rank 2 -> 1/log2(3)
    assert ndcg_at_k(1, 10) == 1.0
    assert abs(ndcg_at_k(2, 10) - 1.0 / np.log2(3.0)) < 1e-12
    assert ndcg_at_k(11, 10) == 0.0
    got = ndcg_at_k(7, 10)
    assert abs(got - 1.0 / np.log2(8.0)) < 1e-15


def test_metric_argument_validation():
    with pytest.raises(InvalidArgumentError):
        hit_rate_at_k(0, 10)
    with pytest.raises(InvalidArgumentError):
        ndcg_at_k(1, 0)


def test_negative_sampling_excludes_history_target_and_pad():
    purchased = np.array([3, 7, 7, 9])
    negs, truncated = sample_negatives(user_id=5, target=4, purchased=purchased,
                                       n_takeaways=300, n_negatives=100, seed=0)
    assert negs.shape == (100,)
    assert not truncated
    assert len(set(negs.tolist())) == 100
    forbidden = {0, 3, 4, 7, 9}
    assert not forbidden & set(negs.tolist())
    assert negs.min() >= 1 and negs.max() <= 300


def test_negative_sampling_deterministic_per_user():
    purchased = np.array([1, 2])
    a, _ = sample_negatives(8, 5, purchased, 500, 100, seed=11)
    b, _ = sample_negatives(8, 5, purchased, 500, 100, seed=11)
    np.testing.assert_array_equal(a, b)
    c, _ = sample_negatives(9, 5, purchased, 500, 100, seed=11)
    assert not np.array_equal(a, c)
    d, _ = sample_negatives(8, 5, purchased, 500, 100, seed=12)
    assert not np.array_equal(a, d)


def test_negative_sampling_small_pool_returns_all_and_flags():
    purchased = np.array([1, 2, 3])
    negs, truncated = sample_negatives(1, 4, purchased, n_takeaways=10,
                                       n_negatives=100, seed=0)
    assert truncated
    assert sorted(negs.tolist()) == [5, 6, 7, 8, 9, 10]


def test_negative_sampling_exact_pool_not_flagged():
    # pool of exactly n_negatives items -> use all, no truncation flag
    negs, truncated = sample_negatives(1, 1, np.array([], dtype=int),
                                       n_takeaways=6, n_negatives=5, seed=0)
    assert not truncated
    assert sorted(negs.tolist()) == [2, 3, 4, 5, 6]


def test_negative_sampling_validation():
    with pytest.raises(InvalidArgumentError):
        sample_negatives(1, 0, np.array([]), 10)
    with pytest.raises(InvalidArgumentError):
        sample_negatives(1, 11, np.array([]), 10)
    with pytest.raises(InvalidArgumentError):
        sample_negatives(1, 3, np.array([]), 10, n_negatives=0)


def test_means_from_a_rank_array():
    ranks = np.array([1, 2, 6, 11, 3])
    hr5 = np.mean([1.0 if r <= 5 else 0.0 for r in ranks])
    ndcg10 = np.mean([1.0 / np.log2(r + 1) if r <= 10 else 0.0 for r in ranks])
    assert hit_rate_at_k(ranks, 5).mean() == pytest.approx(hr5, abs=1e-15)
    assert ndcg_at_k(ranks, 10).mean() == pytest.approx(ndcg10, abs=1e-15)
    # the array forms are the scalar calls, element by element
    for k in (1, 5, 10):
        assert hit_rate_at_k(ranks, k).tolist() == [hit_rate_at_k(int(r), k)
                                                    for r in ranks]
        assert ndcg_at_k(ranks, k).tolist() == [ndcg_at_k(int(r), k)
                                                for r in ranks]
    with pytest.raises(InvalidArgumentError):
        ndcg_at_k(np.array([3, 0, 1]), 10)


def test_batch_rank_with_target_padding():
    # a batch ranks row by row, and padding a short row with its own
    # target's score never moves its rank
    rng = np.random.default_rng(7)
    negs = rng.standard_normal((6, 9))
    targets = rng.standard_normal(6)
    negs[2, 4:] = targets[2]
    negs[5, :] = targets[5]         # an empty pool, all padding
    got = rank_of_target(targets, negs)
    assert got.tolist() == [rank_of_target(t, n)
                            for t, n in zip(targets, negs)]
    assert got[2] == rank_of_target(targets[2], negs[2, :4])
    assert got[5] == 1
