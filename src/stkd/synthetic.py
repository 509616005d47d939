"""Seeded synthetic purchase-log generator with planted spatial-temporal patterns.

Each user holds a home and a work region; weekday-noon purchases happen at
work, everything else at home. Purchases arrive in same-day sessions within
one region and time slot. Inside a session the user mostly buys from a small
set of personal favorites local to the current region; with probability
`noise` a purchase is replaced by a uniformly random takeaway from anywhere.
`n_copurchase_pairs` seeded co-purchase pairs (A, B), each within one region,
plant a sequential dependency: right after buying A, the user buys B in the
same region and slot with probability `follow_prob` (scaled down by noise).

Identical config + seed always produces byte-identical JSONL output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .artifacts import write_lines
from .config import STREAM_SYNTH, rng_for
from .errors import ConfigError
from .geo import encode_geohash

# Monday 2023-01-02 00:00:00 UTC, so day index 0 is a Monday.
BASE_TIMESTAMP = 1672617600
SLOT_HOURS = {"morning": 9, "noon": 12, "evening": 19}
SLOT_NAMES = ("morning", "noon", "evening")
N_CATEGORIES = 6            # an item's category is its id modulo this
N_BRANDS = 12               # an item's brand is its id modulo this
SESSION_LEN = (2, 3)        # purchases per active day, inclusive


@dataclass
class SyntheticConfig:
    """Knobs for the generator; every probability lives in [0, 1]."""

    n_users: int = 100
    n_takeaways: int = 300
    n_regions: int = 8
    events_per_user: int = 40
    favorites_per_region: int = 3           # per (user, region) favorite pool
    noise: float = 0.1                      # chance a purchase is uniform random
    n_copurchase_pairs: int = 20
    follow_prob: float = 0.8                # P(B right after A) before noise scaling
    head_rate: float = 0.25                 # chance a signal purchase picks a pair head
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("n_users", "n_takeaways", "n_regions", "events_per_user",
                     "favorites_per_region"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_takeaways < self.n_regions * self.favorites_per_region:
            raise ConfigError("not enough takeaways to give every region a "
                              "favorites pool")
        # a pair's head and tail are two distinct takeaways, used once each
        if not 0 <= self.n_copurchase_pairs <= self.n_takeaways // 2:
            raise ConfigError(
                f"n_copurchase_pairs must lie in [0, n_takeaways // 2 = "
                f"{self.n_takeaways // 2}], got {self.n_copurchase_pairs}")
        for name in ("noise", "follow_prob", "head_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.noise + (1.0 - self.noise) * self.head_rate > 1.0 + 1e-9:
            raise ConfigError("noise and head_rate combine above probability 1")


def region_geohashes(n_regions: int) -> list[str]:
    """n distinct geohash6 cells on a grid in the Wuhan area."""
    width = max(1, int(np.ceil(np.sqrt(n_regions))))
    codes = []
    for i in range(n_regions):
        lat = 30.50 + (i // width) * 0.02
        lon = 114.30 + (i % width) * 0.02
        codes.append(encode_geohash(lat, lon, 6))
    if len(set(codes)) != n_regions:
        raise ConfigError(f"region grid produced duplicate geohash cells "
                          f"for n_regions={n_regions}")
    return codes


def item_region(item: int, n_regions: int) -> int:
    """Home region index of a takeaway (0-based)."""
    return item % n_regions


def _draw_pairs(cfg: SyntheticConfig) -> tuple[list[tuple[int, int, float]],
                                                np.random.Generator]:
    """Co-purchase pairs (A, B, p): A, B share a home region; heads/tails
    disjoint.  Drawn first from the generator's stream, within a budget of
    50 draws per pair asked for, so a crowded region can leave fewer.
    Returns the pairs and the stream, which the events go on drawing from."""
    cfg.validate()
    rng = rng_for(cfg.seed, STREAM_SYNTH)
    pairs: list[tuple[int, int, float]] = []
    used: set[int] = set()
    attempts = 0
    while len(pairs) < cfg.n_copurchase_pairs and attempts < cfg.n_copurchase_pairs * 50:
        attempts += 1
        a = int(rng.integers(0, cfg.n_takeaways))
        region = item_region(a, cfg.n_regions)
        b = int(rng.integers(0, cfg.n_takeaways // cfg.n_regions)) * cfg.n_regions + region
        if b >= cfg.n_takeaways or a == b or a in used or b in used:
            continue
        used.add(a)
        used.add(b)
        pairs.append((a, b, cfg.follow_prob))
    return pairs, rng


def copurchase_pairs(cfg: SyntheticConfig) -> list[tuple[int, int, float]]:
    """The co-purchase pairs ``generate_synthetic`` plants for ``cfg``."""
    return _draw_pairs(cfg)[0]


def _event_line(cfg: SyntheticConfig, regions: list[str], user: int,
                item: int, ts: int, user_region: int) -> str:
    """One JSONL event; aoi tags the shop's area, user_region the buyer's."""
    rec = {
        "user_id": f"u{user:05d}",
        "takeaway_id": f"t{item:05d}",
        "timestamp": ts,
        "user_geohash6": regions[user_region],
        "shop_geohash6": regions[item_region(item, cfg.n_regions)],
        "category": f"c{item % N_CATEGORIES}",
        "brand": f"b{item % N_BRANDS}",
        "aoi": regions[item_region(item, cfg.n_regions)],
        "user_region": regions[user_region],
    }
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


def generate_synthetic(cfg: SyntheticConfig):
    """Yield JSONL event lines (with trailing newline) for the configured world."""
    pairs, rng = _draw_pairs(cfg)
    regions = region_geohashes(cfg.n_regions)
    follow_of: dict[int, tuple[int, float]] = {a: (b, p) for a, b, p in pairs}

    # per-region item pools and per-(user, region) favorites
    region_pool = [[t for t in range(cfg.n_takeaways)
                    if item_region(t, cfg.n_regions) == r]
                   for r in range(cfg.n_regions)]
    heads_in_region = [[a for a in follow_of if item_region(a, cfg.n_regions) == r]
                       for r in range(cfg.n_regions)]

    lines = []
    for u in range(cfg.n_users):
        home = int(rng.integers(0, cfg.n_regions))
        work = int(rng.integers(0, cfg.n_regions))
        if cfg.n_regions > 1:
            while work == home:
                work = int(rng.integers(0, cfg.n_regions))
        favorites = {}
        for r in (home, work):
            pool = region_pool[r]
            k = min(cfg.favorites_per_region, len(pool))
            favorites[r] = [pool[i] for i in rng.choice(len(pool), size=k,
                                                        replace=False)]
        day = int(rng.integers(0, 7))
        emitted = 0
        pending_follow: int | None = None
        while emitted < cfg.events_per_user:
            slot = SLOT_NAMES[int(rng.integers(0, 3))]
            weekday = day % 7
            region = work if (slot == "noon" and weekday < 5) else home
            minute = int(rng.integers(0, 30))
            session = int(rng.integers(SESSION_LEN[0], SESSION_LEN[1] + 1))
            for s in range(session):
                if emitted >= cfg.events_per_user:
                    break
                if pending_follow is not None:
                    item = pending_follow
                    pending_follow = None
                elif rng.random() < cfg.noise:
                    item = int(rng.integers(0, cfg.n_takeaways))
                elif heads_in_region[region] and rng.random() < cfg.head_rate:
                    item = heads_in_region[region][
                        int(rng.integers(0, len(heads_in_region[region])))]
                else:
                    favs = favorites[region]
                    item = favs[int(rng.integers(0, len(favs)))]
                if item in follow_of:
                    b, p = follow_of[item]
                    if rng.random() < p * (1.0 - cfg.noise):
                        pending_follow = b
                ts = (BASE_TIMESTAMP + day * 86400
                      + SLOT_HOURS[slot] * 3600 + minute * 60)
                minute += int(rng.integers(10, 30))
                lines.append(_event_line(cfg, regions, u, item, ts, region))
                emitted += 1
            if pending_follow is not None and emitted < cfg.events_per_user:
                # the follow-up lands in the same region and slot a bit later
                ts = (BASE_TIMESTAMP + day * 86400
                      + SLOT_HOURS[slot] * 3600 + minute * 60)
                lines.append(_event_line(cfg, regions, u, pending_follow,
                                         ts, region))
                emitted += 1
                pending_follow = None
            day += 1 + int(rng.integers(0, 2))
    return lines


def write_synthetic(cfg: SyntheticConfig, path: str) -> int:
    """Generate and write the event log; returns the number of events."""
    lines = generate_synthetic(cfg)
    write_lines(path, lines)
    return len(lines)
