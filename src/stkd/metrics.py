"""Ranking metrics (HR@k, NDCG@k) under sampled negative evaluation.

Each evaluation instance scores the held-out target item against a fixed
set of sampled negatives.  The rank counts how many negatives score
*strictly* higher than the target, so ties resolve in the target's favor:

    rank = 1 + |{j : score(neg_j) > score(target)}|

    HR@k   = 1            if rank <= k else 0
    NDCG@k = 1/log2(rank+1) if rank <= k else 0

``rank_of_target``, ``hit_rate_at_k`` and ``ndcg_at_k`` take one instance
or a whole batch: a ``(b,)`` target vector against a ``(b, m)`` negative
table gives a ``(b,)`` rank array, and the metrics map a rank array
elementwise.  A table row may repeat its own target's score as padding:
that never scores strictly above the target, so it never moves the rank.

Negatives are drawn uniformly without replacement from the items the user
has never purchased (excluding the target and the padding id 0), using a
dedicated per-user random stream so evaluation is reproducible and
independent of iteration order.
"""

from __future__ import annotations

import numpy as np

from .config import STREAM_NEGATIVES, rng_for
from .errors import InvalidArgumentError

__all__ = [
    "rank_of_target",
    "hit_rate_at_k",
    "ndcg_at_k",
    "sample_negatives",
]


def rank_of_target(target_score, negative_scores):
    """1-based rank of the target among itself plus the negatives: an int
    for one instance, a ``(b,)`` array for ``(b,)`` targets against
    ``(b, m)`` negatives."""
    target_score = np.asarray(target_score)
    ranks = 1 + np.count_nonzero(
        np.asarray(negative_scores) > target_score[..., None], axis=-1)
    return int(ranks) if target_score.ndim == 0 else ranks


def _checked_ranks(rank, k: int) -> np.ndarray:
    rank = np.asarray(rank)
    if k < 1 or np.any(rank < 1):
        raise InvalidArgumentError(
            f"rank and k must be >= 1, got rank={rank} k={k}")
    return rank


def hit_rate_at_k(rank, k: int):
    """1.0 where ``rank <= k``, else 0.0; elementwise over a rank array."""
    return np.where(_checked_ranks(rank, k) <= k, 1.0, 0.0)[()]


def ndcg_at_k(rank, k: int):
    """``1 / log2(rank + 1)`` where ``rank <= k``, else 0.0; elementwise
    over a rank array."""
    rank = _checked_ranks(rank, k)
    return np.where(rank <= k, 1.0 / np.log2(rank + 1.0), 0.0)[()]


def sample_negatives(
    user_id: int,
    target: int,
    purchased: np.ndarray,
    n_takeaways: int,
    n_negatives: int = 100,
    seed: int = 0,
) -> tuple[np.ndarray, bool]:
    """Draw negatives for one user's evaluation instance.

    Returns ``(negatives, truncated)`` where ``truncated`` is True when the
    candidate pool holds fewer than ``n_negatives`` items; in that case every
    candidate is returned.
    """
    if target < 1 or target > n_takeaways:
        raise InvalidArgumentError(
            f"target {target} outside item range 1..{n_takeaways}")
    if n_negatives < 1:
        raise InvalidArgumentError(f"n_negatives must be >= 1, got {n_negatives}")
    # pool: ids 1..n_takeaways minus the target and the purchased ids;
    # purchased ids outside that range are ignored
    pool = np.ones(n_takeaways + 1, dtype=bool)
    pool[0] = False
    pool[target] = False
    bought = np.asarray(purchased, dtype=np.int64).ravel()
    pool[bought[(bought >= 1) & (bought <= n_takeaways)]] = False
    candidates = np.flatnonzero(pool)
    if candidates.size <= n_negatives:
        return candidates, candidates.size < n_negatives
    rng = rng_for(seed, STREAM_NEGATIVES, user_id)
    picked = rng.choice(candidates, size=n_negatives, replace=False)
    picked.sort()
    return picked, False
