"""Fixed-length purchase sequences with leave-one-out train/valid/test splits.

Per user, the final purchase is the test target, the second-to-last the
validation target, and every earlier purchase yields one training pair
(prefix -> next item). Prefixes are truncated to the most recent `n` items and
left-padded with 0, so the most recent purchase is always the rightmost
non-pad position. Region and distance-bucket features ride along item-aligned.

``training_purchases`` is the one statement of how many leading purchases
of a user training sees; the graph builder hides the rest by the same rule.
A dataset carries the takeaway and region vocabulary sizes it was built
against (format 3), so the student is sized from the dataset alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import read_json, read_npz, write_json, write_npz
from .errors import ConsistencyError
from .events import PurchaseEvent, Vocab
from .geo import bucketize_distance, geohash6_centroid, spherical_distance

DATASET_FORMAT_VERSION = 3

SPLIT_TRAIN, SPLIT_VALID, SPLIT_TEST = 0, 1, 2
SPLIT_NAMES = {"train": SPLIT_TRAIN, "valid": SPLIT_VALID, "test": SPLIT_TEST}

# Distance buckets are stored shifted by +1 inside sequence arrays so that 0
# can mean padding, exactly like item and region ids.
DIST_PAD_OFFSET = 1

_ARRAYS = ("user", "items", "regions", "dists", "target", "split",
           "purchased_indptr", "purchased_items")


@dataclass
class SequenceDataset:
    """Columnar sample store: row i is one (prefix -> target) example."""

    n: int
    n_takeaways: int      # takeaway vocabulary size (ids 1..n_takeaways)
    n_regions: int        # shop-region vocabulary size (ids 1..n_regions)
    user: np.ndarray      # (N,) int64 dense user ids
    items: np.ndarray     # (N, n) int64 takeaway ids, 0 = pad
    regions: np.ndarray   # (N, n) int64 shop-region ids, 0 = pad
    dists: np.ndarray     # (N, n) int64 distance-bucket ids + 1, 0 = pad
    target: np.ndarray    # (N,) int64, never 0
    split: np.ndarray     # (N,) int8 in {0 train, 1 valid, 2 test}
    purchased_indptr: np.ndarray   # (n_users + 2,) CSR over user id
    purchased_items: np.ndarray    # all items ever bought, grouped by user
    n_skipped_users: int = 0
    vocab_hash: str = ""

    def __len__(self) -> int:
        return self.items.shape[0]

    def rows(self, split: str | int) -> np.ndarray:
        code = SPLIT_NAMES[split] if isinstance(split, str) else split
        return np.flatnonzero(self.split == code)

    def purchased_by(self, user_id: int) -> np.ndarray:
        lo, hi = self.purchased_indptr[user_id], self.purchased_indptr[user_id + 1]
        return self.purchased_items[lo:hi]

    def save(self, path) -> None:
        write_npz(path, "dataset", DATASET_FORMAT_VERSION,
                  {name: getattr(self, name) for name in _ARRAYS},
                  {"n": self.n, "n_takeaways": self.n_takeaways,
                   "n_regions": self.n_regions,
                   "n_skipped_users": self.n_skipped_users,
                   "vocab_hash": self.vocab_hash})

    @classmethod
    def load(cls, path, expected_vocab_hash: str | None = None
             ) -> "SequenceDataset":
        arrays, meta = read_npz(path, {"dataset": DATASET_FORMAT_VERSION},
                                expected_vocab_hash)
        return cls(**meta, **arrays)


def event_features(ev: PurchaseEvent, vocab: Vocab) -> tuple[int, int, int]:
    """(takeaway id, shop-region id, stored distance-bucket id) for one event."""
    item = vocab.takeaways[ev.takeaway_id]
    region = vocab.regions[ev.shop_geohash6]
    km = spherical_distance(geohash6_centroid(ev.user_geohash6),
                            geohash6_centroid(ev.shop_geohash6))
    return item, region, bucketize_distance(km) + DIST_PAD_OFFSET


def _pad_left(seq: list[int], n: int) -> list[int]:
    take = seq[-n:] if len(seq) > n else seq
    return [0] * (n - len(take)) + take


def training_purchases(p: int) -> int:
    """How many leading purchases of a user with ``p`` purchases training
    sees: all but the validation and test targets, which exist only for
    ``p >= 3``."""
    return p - 2 if p >= 3 else p


def build_sequences(events: list[PurchaseEvent], vocab: Vocab, n: int,
                    max_train_per_user: int = 0) -> SequenceDataset:
    """Split each user's purchase history into leave-one-out samples.

    Users with fewer than 2 purchases are skipped (counted); users with
    exactly 2 contribute a single training pair and sit out of valid/test.
    max_train_per_user > 0 keeps only that many most-recent training pairs.
    """
    if n < 1:
        raise ConsistencyError(f"sequence length must be >= 1, got {n}")
    per_user: dict[int, list[tuple[int, int, int]]] = {}
    purchased: dict[int, set[int]] = {}
    for ev in events:
        uid = vocab.users[ev.user_id]
        feats = event_features(ev, vocab)
        per_user.setdefault(uid, []).append(feats)
        purchased.setdefault(uid, set()).add(feats[0])

    rows_user, rows_items, rows_regions, rows_dists = [], [], [], []
    rows_target, rows_split = [], []
    n_skipped = 0

    def emit(uid, hist, target_idx, split_code):
        prefix = hist[:target_idx]
        rows_user.append(uid)
        rows_items.append(_pad_left([h[0] for h in prefix], n))
        rows_regions.append(_pad_left([h[1] for h in prefix], n))
        rows_dists.append(_pad_left([h[2] for h in prefix], n))
        rows_target.append(hist[target_idx][0])
        rows_split.append(split_code)

    for uid in sorted(per_user):
        hist = per_user[uid]
        p = len(hist)
        if p < 2:
            n_skipped += 1
            continue
        seen = training_purchases(p)
        train_targets = list(range(1, seen))
        if max_train_per_user > 0:
            train_targets = train_targets[-max_train_per_user:]
        for j in train_targets:
            emit(uid, hist, j, SPLIT_TRAIN)
        if seen < p:
            emit(uid, hist, p - 2, SPLIT_VALID)
            emit(uid, hist, p - 1, SPLIT_TEST)

    n_users = vocab.n_users
    indptr = np.zeros(n_users + 2, dtype=np.int64)
    all_items: list[int] = []
    for uid in range(1, n_users + 1):
        got = sorted(purchased.get(uid, ()))
        all_items.extend(got)
        indptr[uid + 1] = indptr[uid] + len(got)

    N = len(rows_user)
    ds = SequenceDataset(
        n=n, n_takeaways=vocab.n_takeaways, n_regions=vocab.n_regions,
        user=np.asarray(rows_user, dtype=np.int64).reshape(N),
        items=np.asarray(rows_items, dtype=np.int64).reshape(N, n),
        regions=np.asarray(rows_regions, dtype=np.int64).reshape(N, n),
        dists=np.asarray(rows_dists, dtype=np.int64).reshape(N, n),
        target=np.asarray(rows_target, dtype=np.int64).reshape(N),
        split=np.asarray(rows_split, dtype=np.int8).reshape(N),
        purchased_indptr=indptr,
        purchased_items=np.asarray(all_items, dtype=np.int64),
        n_skipped_users=n_skipped,
        vocab_hash=vocab.content_hash())
    _check_dataset(ds)
    return ds


def _check_dataset(ds: SequenceDataset) -> None:
    if len(ds) == 0:
        return
    if np.any(ds.target == 0):
        raise ConsistencyError("a sample target is the padding id 0")
    pad = ds.items == 0
    if np.any((ds.regions == 0) != pad) or np.any((ds.dists == 0) != pad):
        raise ConsistencyError("padding positions disagree across feature arrays")


def save_vocab(vocab: Vocab, path) -> None:
    write_json(path, vocab.to_dict(), indent=None)


def load_vocab(path) -> Vocab:
    return Vocab.from_dict(read_json(path))
