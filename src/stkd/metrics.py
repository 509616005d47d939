"""Ranking metrics (HR@k, NDCG@k) under sampled negative evaluation.

Each evaluation instance scores the held-out target item against a fixed
set of sampled negatives.  The rank counts how many negatives score
*strictly* higher than the target, so ties resolve in the target's favor:

    rank = 1 + |{j : score(neg_j) > score(target)}|

    HR@k   = 1            if rank <= k else 0
    NDCG@k = 1/log2(rank+1) if rank <= k else 0

Negatives are drawn uniformly without replacement from the items the user
has never purchased (excluding the target and the padding id 0), using a
dedicated per-user random stream so evaluation is reproducible and
independent of iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import STREAM_NEGATIVES, rng_for
from .errors import InvalidArgumentError

__all__ = [
    "rank_of_target",
    "hit_rate_at_k",
    "ndcg_at_k",
    "sample_negatives",
    "MetricAccumulator",
]


def rank_of_target(target_score: float, negative_scores: np.ndarray) -> int:
    """1-based rank of the target among itself plus the negatives."""
    negative_scores = np.asarray(negative_scores)
    return 1 + int(np.count_nonzero(negative_scores > target_score))


def hit_rate_at_k(rank: int, k: int) -> float:
    if rank < 1 or k < 1:
        raise InvalidArgumentError(f"rank and k must be >= 1, got rank={rank} k={k}")
    return 1.0 if rank <= k else 0.0


def ndcg_at_k(rank: int, k: int) -> float:
    if rank < 1 or k < 1:
        raise InvalidArgumentError(f"rank and k must be >= 1, got rank={rank} k={k}")
    if rank > k:
        return 0.0
    return 1.0 / np.log2(rank + 1.0)


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


@dataclass
class MetricAccumulator:
    """Streaming mean of HR@k and NDCG@k over evaluation instances."""

    k_list: tuple[int, ...] = (5, 10, 20)
    n_instances: int = 0
    n_truncated: int = 0
    _hr: dict[int, float] = field(default_factory=dict)
    _ndcg: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for k in self.k_list:
            if k < 1:
                raise InvalidArgumentError(f"cutoff k must be >= 1, got {k}")
            self._hr.setdefault(k, 0.0)
            self._ndcg.setdefault(k, 0.0)

    def add(self, rank: int, truncated: bool = False) -> None:
        self.n_instances += 1
        if truncated:
            self.n_truncated += 1
        for k in self.k_list:
            self._hr[k] += hit_rate_at_k(rank, k)
            self._ndcg[k] += ndcg_at_k(rank, k)

    def hr(self, k: int) -> float:
        if self.n_instances == 0:
            return 0.0
        return self._hr[k] / self.n_instances

    def ndcg(self, k: int) -> float:
        if self.n_instances == 0:
            return 0.0
        return self._ndcg[k] / self.n_instances

    def as_dict(self) -> dict:
        return {
            "n_instances": self.n_instances,
            "n_truncated": self.n_truncated,
            "hr": {str(k): self.hr(k) for k in self.k_list},
            "ndcg": {str(k): self.ndcg(k) for k in self.k_list},
        }
