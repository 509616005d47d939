"""Spatial-temporal knowledge graph: build, store, sample.

Entities are users, takeaways, and attribute values packed into one id space:
users occupy [0, |U|), takeaways [|U|, |U|+|V|) (so the takeaway block doubles
as the teacher's item-embedding table), attribute values follow. Relations are
time buckets (weekday x hour, 168), distance buckets (16), and one relation
per attribute field. Triples are stored undirected (both directions carry the
relation id) in CSR form.

User-takeaway triples come only from purchases visible to training, by the
leave-one-out rule of :func:`stkd.sequences.training_purchases`: for users
with at least three purchases the last two (the validation and test targets)
are excluded. Attribute triples come from every cleaned event.

A training sample's neighborhood is drawn hop by hop from its own generator,
seeded by (seed, sid): each hop draws for all its entities above the fanout
with one ``rng.integers`` call (Floyd's algorithm), and for fanouts up to 200
those are exactly the draws of one ``rng.choice(..., replace=False)`` per
entity in frontier order.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_npz, write_npz
from .config import STREAM_SUBGRAPH, rng_for
from .errors import ConsistencyError
from .events import PurchaseEvent, Vocab
from .geo import bucketize_distance, geohash6_centroid, spherical_distance
from .sequences import training_purchases

GRAPH_FORMAT_VERSION = 3

N_TIME_BUCKETS = 7 * 24  # weekday x hour-of-day, UTC


def time_bucket(timestamp: int) -> int:
    """Weekday(0=Monday)*24 + hour, computed in UTC."""
    tm = time.gmtime(timestamp)
    return tm.tm_wday * 24 + tm.tm_hour


class Stkg:
    """Immutable typed graph over users, takeaways, and attribute values."""

    def __init__(self, n_users: int, n_takeaways: int,
                 attr_entities: list[tuple[str, str]],
                 relations: list[str],
                 indptr: np.ndarray, neighbors: np.ndarray, rels: np.ndarray,
                 family_counts: dict[str, int], vocab_hash: str = ""):
        self.n_users = n_users
        self.n_takeaways = n_takeaways
        self.attr_entities = attr_entities
        self.relations = relations
        self.indptr = indptr
        self.neighbors = neighbors
        self.rels = rels
        self.family_counts = family_counts
        self.vocab_hash = vocab_hash

    @property
    def n_entities(self) -> int:
        return self.n_users + self.n_takeaways + len(self.attr_entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    @property
    def n_triples(self) -> int:
        return int(self.neighbors.shape[0]) // 2

    def user_entity(self, user_id: int) -> int:
        return user_id - 1

    def takeaway_entity(self, item_id: int) -> int:
        return self.n_users + item_id - 1

    def degree(self, entity: int) -> int:
        return int(self.indptr[entity + 1] - self.indptr[entity])

    def neighborhood(self, entity: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[entity], self.indptr[entity + 1]
        return self.neighbors[lo:hi], self.rels[lo:hi]

    def save(self, path) -> None:
        write_npz(path, "graph", GRAPH_FORMAT_VERSION,
                  {"indptr": self.indptr, "neighbors": self.neighbors,
                   "rels": self.rels},
                  {"n_users": self.n_users, "n_takeaways": self.n_takeaways,
                   "attr_entities": self.attr_entities,
                   "relations": self.relations,
                   "family_counts": self.family_counts,
                   "vocab_hash": self.vocab_hash})

    @classmethod
    def load(cls, path, expected_vocab_hash: str | None = None) -> "Stkg":
        """Read a graph file; :func:`stkd.artifacts.read_npz` says what it
        refuses."""
        arrays, meta = read_npz(path, {"graph": GRAPH_FORMAT_VERSION},
                                expected_vocab_hash)
        meta["attr_entities"] = [tuple(key) for key in meta["attr_entities"]]
        return cls(**meta, **arrays)


def build_stkg(events: list[PurchaseEvent], vocab: Vocab) -> Stkg:
    """Assemble the four triple families and index them as an undirected CSR.

    Raises ConsistencyError if an event references a key missing from vocab.
    """
    n_users, n_takeaways = vocab.n_users, vocab.n_takeaways
    attr_index: dict[tuple[str, str], int] = {}
    relations: list[str] = []
    relation_index: dict[str, int] = {}

    def rel_id(key: str) -> int:
        if key not in relation_index:
            relation_index[key] = len(relations)
            relations.append(key)
        return relation_index[key]

    def attr_entity(field_name: str, value: str) -> int:
        key = (field_name, value)
        if key not in attr_index:
            attr_index[key] = n_users + n_takeaways + len(attr_index)
        return attr_index[key]

    def check(key, table, kind):
        if key not in table:
            raise ConsistencyError(f"{kind} {key!r} not registered in vocab")
        return table[key]

    counts = Counter(check(ev.user_id, vocab.users, "user") for ev in events)
    seen = Counter()

    triples: set[tuple[int, int, int]] = set()
    family = {"time": 0, "dist": 0, "attr": 0}

    for ev in events:
        uid = check(ev.user_id, vocab.users, "user")
        iid = check(ev.takeaway_id, vocab.takeaways, "takeaway")
        u_ent = uid - 1
        v_ent = n_users + iid - 1

        seen[uid] += 1
        if seen[uid] <= training_purchases(counts[uid]):
            t = (u_ent, rel_id(f"time:{time_bucket(ev.timestamp)}"), v_ent)
            if t not in triples:
                triples.add(t)
                family["time"] += 1
            km = spherical_distance(geohash6_centroid(ev.user_geohash6),
                                    geohash6_centroid(ev.shop_geohash6))
            t = (u_ent, rel_id(f"dist:{bucketize_distance(km)}"), v_ent)
            if t not in triples:
                triples.add(t)
                family["dist"] += 1

        # Attribute triples come from every cleaned event. Fields named
        # "user_..." describe the user; everything else describes the takeaway.
        for fname in sorted(ev.attributes):
            head = u_ent if fname.startswith("user_") else v_ent
            t = (head, rel_id(f"attr:{fname}"),
                 attr_entity(fname, ev.attributes[fname]))
            if t not in triples:
                triples.add(t)
                family["attr"] += 1

    n_entities = n_users + n_takeaways + len(attr_index)
    if triples:
        arr = np.array(sorted(triples), dtype=np.int64)
        src = np.concatenate([arr[:, 0], arr[:, 2]])
        dst = np.concatenate([arr[:, 2], arr[:, 0]])
        rel = np.concatenate([arr[:, 1], arr[:, 1]])
        order = np.lexsort((rel, dst, src))
        src, dst, rel = src[order], dst[order], rel[order]
        indptr = np.zeros(n_entities + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        indptr = np.cumsum(indptr)
    else:
        src = dst = rel = np.zeros(0, dtype=np.int64)
        indptr = np.zeros(n_entities + 1, dtype=np.int64)

    return Stkg(n_users=n_users, n_takeaways=n_takeaways,
                attr_entities=sorted(attr_index,
                                     key=lambda k: attr_index[k]),
                relations=relations,
                indptr=indptr, neighbors=dst, rels=rel,
                family_counts=family, vocab_hash=vocab.content_hash())


@dataclass
class Subgraph:
    """Per-sample neighborhood: local node table plus sampled directed edges."""

    nodes: np.ndarray            # (N,) global entity ids in insertion order
    centers: np.ndarray          # (n,) local index per position, -1 for PAD
    user_index: int              # local index of the user node
    edges: np.ndarray            # (E, 3) rows of (parent_local, rel, child_local)
    n_cold: int = 0

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.shape[0])


def _floyd_picks(rng: np.random.Generator, degs: np.ndarray,
                 s: int) -> np.ndarray:
    """Sorted picks of ``s`` distinct edges out of each of ``degs`` (every
    degree above ``s``), one row per degree, from one ``rng.integers`` call.

    Row by row this is Floyd's algorithm (Bentley & Floyd, CACM 1987): step
    ``t`` draws from ``[0, deg - s + t]`` and takes ``deg - s + t`` itself
    when the draw is already taken.  The ``s - 1`` draws from ``[0, s - 1]``
    down to ``[0, 1]`` that follow are numpy's shuffle of the picks; they
    are drawn only to keep the stream where it was, and dropped.  For
    ``s <= 200`` these are the draws of ``rng.choice(deg, s, replace=False)``,
    so each row equals its sorted picks and the stream ends where that call
    leaves it.  (Above that, numpy shuffles a full range instead when
    ``deg > 10,000`` and ``s > deg // 50``.)
    """
    # step-major: row t holds every entity's bound (and then pick) at step t
    highs = np.empty((2 * s - 1, degs.size), dtype=np.int64)
    highs[:s] = degs - s + 1 + np.arange(s)[:, None]
    highs[s:] = np.arange(s, 1, -1)[:, None]
    picks = np.ascontiguousarray(rng.integers(0, highs.T).T[:s])
    tops = highs[:s] - 1
    for t in range(1, s):
        np.copyto(picks[t], tops[t],
                  where=np.logical_or.reduce(picks[:t] == picks[t]))
    picks.sort(axis=0)
    return picks.T


def _first_seen(values: np.ndarray) -> np.ndarray:
    """The distinct ``values`` in order of first appearance."""
    return values[np.sort(np.unique(values, return_index=True)[1])]


def sample_subgraph(item_ids: np.ndarray, user_id: int, stkg: Stkg,
                    fanouts: tuple[int, int], seed: int, sid: int) -> Subgraph:
    """Sample a depth-m neighborhood around a sequence's items plus its user.

    Each distinct non-pad center samples min(s1, degree) neighbors uniformly
    without replacement; every newly reached node is expanded once at the next
    depth with fanout s_l. The user node is never expanded. Centers with zero
    degree become isolated nodes (counted as cold). Local ids follow first
    appearance: centers, the user, then each hop's new children.

    Draws come from the generator ``rng_for(seed, STREAM_SUBGRAPH, sid)``, so
    the sample is deterministic in (seed, sid). Each hop draws for all its
    entities above the fanout at once (:func:`_floyd_picks`); for fanouts up
    to 200 these are the draws of one ``rng.choice(degree, s, replace=False)``
    per entity in frontier order.

    Raises ConsistencyError for a fanout below 1, a non-pad item outside
    ``1..n_takeaways`` or a user outside ``1..n_users``.
    """
    if any(s < 1 for s in fanouts):
        raise ConsistencyError(f"fanouts must be positive, got {fanouts}")
    items = np.asarray(item_ids, dtype=np.int64)
    outside = items[(items < 0) | (items > stkg.n_takeaways)]
    if outside.size:
        raise ConsistencyError(f"takeaway id {outside[0]} outside the graph")
    if not (1 <= user_id <= stkg.n_users):
        raise ConsistencyError(f"user id {user_id} outside the graph")
    rng = rng_for(seed, STREAM_SUBGRAPH, sid)

    real = items != 0
    ents = stkg.takeaway_entity(items[real])
    frontier = _first_seen(ents)
    user_ent = stkg.user_entity(user_id)
    user_index = frontier.size
    nodes = [frontier, np.array([user_ent], dtype=np.int64)]
    n_nodes = user_index + 1
    local = np.full(stkg.n_entities, -1, dtype=np.int64)
    local[frontier] = np.arange(user_index)
    local[user_ent] = user_index
    centers = np.full(items.shape[0], -1, dtype=np.int64)
    centers[real] = local[ents]
    edges = [np.zeros((0, 3), dtype=np.int64)]
    n_cold = 0
    for s in fanouts:
        lo = stkg.indptr[frontier]
        deg = stkg.indptr[frontier + 1] - lo
        n_cold += int(np.count_nonzero(deg == 0))
        # every edge of an entity up to the fanout, Floyd's picks above it
        take = np.minimum(deg, s)
        pos = np.arange(take.sum()) + np.repeat(lo - np.cumsum(take) + take,
                                                take)
        big = deg > s
        if big.any():
            pos[np.repeat(big, take)] = (
                lo[big, None] + _floyd_picks(rng, deg[big], s)).ravel()
        children = stkg.neighbors[pos]
        parents = np.repeat(local[frontier], take)
        frontier = _first_seen(children[local[children] < 0])
        local[frontier] = n_nodes + np.arange(frontier.size)
        n_nodes += frontier.size
        nodes.append(frontier)
        edges.append(np.stack([parents, stkg.rels[pos], local[children]],
                              axis=1))
    return Subgraph(nodes=np.concatenate(nodes), centers=centers,
                    user_index=user_index, edges=np.concatenate(edges),
                    n_cold=n_cold)


@dataclass
class GraphStats:
    """Counts mirroring the graph's composition, plus a degree histogram."""

    n_entities: int = 0
    n_users: int = 0
    n_takeaways: int = 0
    n_attr_values: int = 0
    n_relations: int = 0
    n_triples: int = 0
    triples_by_family: dict = field(default_factory=dict)
    degree_histogram: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def graph_stats(stkg: Stkg) -> GraphStats:
    degrees = np.diff(stkg.indptr)
    hist = (np.bincount(degrees.astype(np.int64)).tolist()
            if degrees.size else [])
    return GraphStats(
        n_entities=stkg.n_entities,
        n_users=stkg.n_users,
        n_takeaways=stkg.n_takeaways,
        n_attr_values=len(stkg.attr_entities),
        n_relations=stkg.n_relations,
        n_triples=stkg.n_triples,
        triples_by_family=dict(stkg.family_counts),
        degree_histogram=hist)
