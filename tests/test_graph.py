"""Knowledge graph build, stats, persistence, and subgraph sampling."""

import json
import time

import numpy as np
import pytest

from stkd.config import STREAM_SUBGRAPH, rng_for
from stkd.errors import ConsistencyError
from stkd.events import ingest_events
from stkd.geo import bucketize_distance, geohash6_centroid, spherical_distance
from stkd.graph import (GraphStats, Stkg, Subgraph, _floyd_picks, build_stkg,
                        graph_stats, sample_subgraph, time_bucket)
from stkd.sequences import build_sequences
from stkd.synthetic import SyntheticConfig, generate_synthetic

REGION_A, REGION_B, REGION_C = "wt3mb5", "wt3q8y", "u09tvw"
MONDAY_0 = 1672617600  # 2023-01-02 00:00:00 UTC


def line(user="u1", item="t1", ts=MONDAY_0, ugh=REGION_A, sgh=REGION_B, **attrs):
    return json.dumps({"user_id": user, "takeaway_id": item, "timestamp": ts,
                       "user_geohash6": ugh, "shop_geohash6": sgh, **attrs}) + "\n"


def build(lines):
    events, vocab, _ = ingest_events(lines)
    return build_stkg(events, vocab), events, vocab


def test_time_bucket_is_weekday_cross_hour_utc():
    assert time_bucket(MONDAY_0) == 0
    assert time_bucket(MONDAY_0 + 13 * 3600) == 13
    # Sunday 23:00 -> bucket 167, the largest
    assert time_bucket(MONDAY_0 + 6 * 86400 + 23 * 3600) == 167
    assert time.gmtime(MONDAY_0).tm_wday == 0


def test_single_event_no_attributes_yields_two_triples():
    g, _, _ = build([line()])
    assert g.n_triples == 2
    assert g.family_counts == {"time": 1, "dist": 1, "attr": 0}
    # one time relation and one distance relation registered
    kinds = {r.split(":")[0] for r in g.relations}
    assert kinds == {"time", "dist"}


def test_fixture_counts_match_enumeration_oracle():
    lines = [
        line(user="u1", item="t1", ts=MONDAY_0 + 3600, category="c1", brand="b1"),
        line(user="u1", item="t2", ts=MONDAY_0 + 7200, category="c2", brand="b1"),
        line(user="u1", item="t1", ts=MONDAY_0 + 90000, category="c1", brand="b1"),
        line(user="u2", item="t2", ts=MONDAY_0 + 3600, category="c2", brand="b1",
             sgh=REGION_C),
        line(user="u2", item="t3", ts=MONDAY_0 + 7200, category="c3", brand="b2"),
    ]
    g, events, vocab = build(lines)

    # independent recount: users u1, u2 have 3 and 2 purchases; u1's last two
    # are held out, so only their first purchase feeds time/dist triples.
    visible = {"u1": 1, "u2": 2}
    seen = {"u1": 0, "u2": 0}
    time_triples, dist_triples, attr_triples = set(), set(), set()
    for ev in events:
        if seen[ev.user_id] < visible[ev.user_id]:
            km = spherical_distance(geohash6_centroid(ev.user_geohash6),
                                    geohash6_centroid(ev.shop_geohash6))
            time_triples.add((ev.user_id, time_bucket(ev.timestamp),
                              ev.takeaway_id))
            dist_triples.add((ev.user_id, bucketize_distance(km),
                              ev.takeaway_id))
        seen[ev.user_id] += 1
        for f, v in ev.attributes.items():
            attr_triples.add((ev.takeaway_id, f, v))
    assert g.family_counts["time"] == len(time_triples)
    assert g.family_counts["dist"] == len(dist_triples)
    assert g.family_counts["attr"] == len(attr_triples)
    assert g.n_triples == len(time_triples) + len(dist_triples) + len(attr_triples)


def test_duplicate_triples_are_deduplicated():
    # same user, item, time bucket, and regions twice -> one time + one dist
    g, _, _ = build([line(ts=MONDAY_0 + 60), line(ts=MONDAY_0 + 120)])
    assert g.family_counts["time"] == 1
    assert g.family_counts["dist"] == 1


def test_heldout_purchases_contribute_no_user_item_triples():
    # u buys t1..t4: t3 (valid) and t4 (test) must not touch the user node
    lines = [line(item=f"t{k}", ts=MONDAY_0 + k * 3600) for k in range(1, 5)]
    g, _, vocab = build(lines)
    u_ent = g.user_entity(vocab.users["u1"])
    nbrs, _ = g.neighborhood(u_ent)
    linked_items = {int(x) - g.n_users + 1 for x in nbrs if x >= g.n_users}
    assert linked_items == {vocab.takeaways["t1"], vocab.takeaways["t2"]}


@pytest.mark.parametrize("purchases", [2, 3, 18])
def test_graph_and_sequences_hide_the_same_purchases(purchases):
    # build_stkg and build_sequences (both through training_purchases)
    # must hide the same purchases: a user's time:/dist: edges reach exactly
    # the takeaways its training rows read, as prefix items or targets
    events, vocab, _ = ingest_events(generate_synthetic(SyntheticConfig(
        n_users=20, n_takeaways=40, n_regions=4, events_per_user=purchases,
        seed=purchases)))
    g = build_stkg(events, vocab)
    ds = build_sequences(events, vocab, n=4)
    first_item = {}
    for ev in events:
        first_item.setdefault(vocab.users[ev.user_id],
                              vocab.takeaways[ev.takeaway_id])
    train = ds.rows("train")
    for uid in range(1, vocab.n_users + 1):
        nbrs, rels = g.neighborhood(g.user_entity(uid))
        joined = {int(x) - g.n_users + 1 for x, r in zip(nbrs, rels)
                  if g.relations[r].split(":")[0] in ("time", "dist")}
        mine = train[ds.user[train] == uid]
        if mine.size:
            read = set(ds.items[mine].ravel()) | set(ds.target[mine])
            assert joined == read - {0}, uid
        else:
            # three purchases: valid and test targets only, no training row
            assert purchases == 3 and joined == {first_item[uid]}, uid


def test_user_prefixed_attributes_attach_to_the_user():
    g, _, vocab = build([line(user_region=REGION_A, category="c9")])
    u_ent = g.user_entity(vocab.users["u1"])
    v_ent = g.takeaway_entity(vocab.takeaways["t1"])
    rel_names = dict(enumerate(g.relations))
    u_rels = {rel_names[int(r)] for r in g.neighborhood(u_ent)[1]}
    v_rels = {rel_names[int(r)] for r in g.neighborhood(v_ent)[1]}
    assert "attr:user_region" in u_rels and "attr:user_region" not in v_rels
    assert "attr:category" in v_rels and "attr:category" not in u_rels


def test_adjacency_stores_both_directions_with_relation():
    lines = [line(user=f"u{k % 3}", item=f"t{k % 4}", ts=MONDAY_0 + k * 3600,
                  category=f"c{k % 2}") for k in range(12)]
    g, _, _ = build(lines)
    # exhaustive symmetry check over every stored directed edge
    forward = set()
    for ent in range(g.n_entities):
        nbrs, rels = g.neighborhood(ent)
        for nb, r in zip(nbrs, rels):
            forward.add((ent, int(r), int(nb)))
    assert forward, "graph should not be empty"
    for h, r, t in forward:
        assert (t, r, h) in forward
    assert len(forward) == 2 * g.n_triples


def test_unregistered_key_raises_consistency_error():
    events, vocab, _ = ingest_events([line()])
    del vocab.takeaways["t1"]
    with pytest.raises(ConsistencyError, match="takeaway"):
        build_stkg(events, vocab)


def test_graph_stats_empty_and_recount():
    empty, _, _ = build([])
    s = graph_stats(empty)
    assert s.n_entities == 0 and s.n_triples == 0 and s.n_relations == 0
    lines = [line(user=f"u{k % 2}", item=f"t{k % 3}", ts=MONDAY_0 + k * 3600,
                  brand=f"b{k % 2}") for k in range(8)]
    g, _, _ = build(lines)
    s = graph_stats(g)
    assert s.n_entities == g.n_users + g.n_takeaways + s.n_attr_values
    assert s.n_triples == g.n_triples
    assert sum(s.triples_by_family.values()) == s.n_triples
    degrees = np.diff(g.indptr)
    assert sum(i * c for i, c in enumerate(s.degree_histogram)) == 2 * g.n_triples
    assert max(degrees) + 1 == len(s.degree_histogram)
    json.loads(s.to_json())


def test_synthetic_entity_count_arithmetic():
    cfg = SyntheticConfig(n_users=30, n_takeaways=80, n_regions=4,
                          events_per_user=20, seed=7)
    lines = generate_synthetic(cfg)
    events, vocab, _ = ingest_events(lines)
    g = build_stkg(events, vocab)
    distinct_attr_values = {(f, v) for ev in events
                            for f, v in ev.attributes.items()}
    assert g.n_entities == vocab.n_users + vocab.n_takeaways + len(distinct_attr_values)


def test_graph_round_trips_through_file(tmp_path):
    # "" is a legal attribute value and must survive fixed-width storage
    lines = [line(user=f"u{k % 3}", item=f"t{k % 5}", ts=MONDAY_0 + k * 7200,
                  category=("", "c1")[k % 2], user_region=REGION_A)
             for k in range(15)]
    g, _, _ = build(lines)
    assert ("category", "") in g.attr_entities
    path = str(tmp_path / "graph.npz")
    g.save(path)
    back = Stkg.load(path)
    assert back.n_users == g.n_users and back.n_takeaways == g.n_takeaways
    assert back.relations == g.relations
    assert back.attr_entities == g.attr_entities
    np.testing.assert_array_equal(back.indptr, g.indptr)
    np.testing.assert_array_equal(back.neighbors, g.neighbors)
    np.testing.assert_array_equal(back.rels, g.rels)
    assert back.family_counts == g.family_counts
    assert back.vocab_hash == g.vocab_hash


# ---------------------------------------------------------------------------
# subgraph sampling
# ---------------------------------------------------------------------------

def small_world():
    cfg = SyntheticConfig(n_users=40, n_takeaways=100, n_regions=5,
                          events_per_user=25, seed=11)
    events, vocab, _ = ingest_events(generate_synthetic(cfg))
    g = build_stkg(events, vocab)
    return g, vocab


def test_low_degree_center_takes_all_neighbors():
    g, vocab = build([line(user="u1", item="t1")])[0], None
    # t1's entity has exactly 2 neighbors (u via time, u via dist)
    items = np.array([0, 0, 1])
    sg = sample_subgraph(items, 1, g, fanouts=(5, 5), seed=0, sid=0)
    depth1 = sg.edges[sg.edges[:, 0] == sg.centers[2]]
    assert len(depth1) == 2
    assert {int(e[2]) for e in depth1} == {sg.user_index}


def test_all_pad_sequence_has_zero_edges():
    g, vocab = small_world()
    sg = sample_subgraph(np.zeros(8, dtype=np.int64), 3, g,
                         fanouts=(5, 5), seed=0, sid=1)
    assert sg.edges.shape == (0, 3)
    assert np.all(sg.centers == -1)
    assert sg.n_nodes == 1  # just the user


def test_every_sampled_edge_exists_in_source_graph():
    g, vocab = small_world()
    rng = np.random.default_rng(0)
    adj = set()
    for ent in range(g.n_entities):
        nbrs, rels = g.neighborhood(ent)
        for nb, r in zip(nbrs, rels):
            adj.add((ent, int(r), int(nb)))
    for sid in range(50):
        items = rng.integers(0, g.n_takeaways + 1, size=6)
        user = int(rng.integers(1, g.n_users + 1))
        sg = sample_subgraph(items, user, g, fanouts=(4, 3), seed=9, sid=sid)
        for p, r, c in sg.edges:
            assert (int(sg.nodes[p]), int(r), int(sg.nodes[c])) in adj


def test_node_count_bound_holds():
    g, _ = small_world()
    rng = np.random.default_rng(1)
    for fanouts in [(5, 5), (10, 10), (15, 15), (20, 20)]:
        for sid in range(10):
            items = rng.integers(0, g.n_takeaways + 1, size=12)
            user = int(rng.integers(1, g.n_users + 1))
            sg = sample_subgraph(items, user, g, fanouts, seed=3, sid=sid)
            s1, s2 = fanouts
            assert sg.n_nodes <= 12 * (1 + s1 + s1 * s2) + 1


def test_same_seed_bitwise_identical_different_seed_differs():
    g, _ = small_world()
    items = np.array([3, 7, 11, 0, 19, 23])
    a = sample_subgraph(items, 5, g, (3, 3), seed=42, sid=77)
    b = sample_subgraph(items, 5, g, (3, 3), seed=42, sid=77)
    assert a.nodes.tobytes() == b.nodes.tobytes()
    assert a.edges.tobytes() == b.edges.tobytes()
    c = sample_subgraph(items, 5, g, (3, 3), seed=43, sid=77)
    d = sample_subgraph(items, 5, g, (3, 3), seed=42, sid=78)
    assert (a.edges.tobytes() != c.edges.tobytes()
            or a.edges.tobytes() != d.edges.tobytes())


def test_cold_item_is_isolated_and_counted():
    # t9 appears only as u1's final (test) purchase and carries no attributes,
    # so it has zero triples; sampling around it yields an isolated node.
    lines = [line(item=f"t{k}", ts=MONDAY_0 + k * 3600) for k in range(1, 4)]
    lines.append(line(item="t9", ts=MONDAY_0 + 9 * 3600))
    g, _, vocab = build(lines)
    ent = g.takeaway_entity(vocab.takeaways["t9"])
    assert g.degree(ent) == 0
    items = np.array([vocab.takeaways["t9"]])
    sg = sample_subgraph(items, 1, g, (5, 5), seed=0, sid=0)
    assert sg.n_cold == 1
    assert not np.any(sg.edges[:, 0] == sg.centers[0])


def test_duplicate_items_share_one_node():
    g, vocab = small_world()
    items = np.array([5, 5, 5, 0])
    sg = sample_subgraph(items, 2, g, (3, 3), seed=0, sid=0)
    assert sg.centers[0] == sg.centers[1] == sg.centers[2]
    assert sg.centers[3] == -1


def test_bad_fanouts_rejected():
    g, _ = small_world()
    with pytest.raises(ConsistencyError):
        sample_subgraph(np.array([1]), 1, g, (0, 5), seed=0, sid=0)


@pytest.mark.parametrize("item", ["n_takeaways + 1", -3])
def test_item_outside_the_takeaway_block_rejected(item):
    # n_takeaways + 1 would land on the first attribute entity, -3 on a user
    g, _ = small_world()
    item = g.n_takeaways + 1 if item == "n_takeaways + 1" else item
    with pytest.raises(ConsistencyError, match="takeaway id"):
        sample_subgraph(np.array([0, 4, item]), 1, g, (3, 3), seed=0, sid=0)


# ---------------------------------------------------------------------------
# the whole-hop sampler against the per-entity loop it replaced
# ---------------------------------------------------------------------------

def reference_sample(item_ids, user_id, stkg, fanouts, seed, sid):
    """One ``rng.choice`` per frontier entity, local ids by first sight."""
    rng = rng_for(seed, STREAM_SUBGRAPH, sid)
    nodes, local, n_cold = [], {}, 0

    def add_node(ent):
        if ent not in local:
            local[ent] = len(nodes)
            nodes.append(ent)
        return local[ent]

    centers = np.full(item_ids.shape[0], -1, dtype=np.int64)
    frontier = []
    for pos, item in enumerate(item_ids):
        if item == 0:
            continue
        ent = stkg.takeaway_entity(int(item))
        known = ent in local
        centers[pos] = add_node(ent)
        if not known:
            frontier.append(ent)
    user_ent = stkg.user_entity(user_id)
    user_index = add_node(user_ent)
    expanded = {user_ent}
    edge_rows = []
    for s in fanouts:
        next_frontier = []
        for ent in frontier:
            if ent in expanded:
                continue
            expanded.add(ent)
            nbrs, rels = stkg.neighborhood(ent)
            deg = nbrs.shape[0]
            if deg == 0:
                n_cold += 1
                continue
            if deg <= s:
                picked = np.arange(deg)
            else:
                picked = rng.choice(deg, size=s, replace=False)
                picked.sort()
            for k in picked:
                child = int(nbrs[k])
                if child not in local:
                    next_frontier.append(child)
                edge_rows.append((local[ent], int(rels[k]), add_node(child)))
        frontier = next_frontier
    edges = (np.array(edge_rows, dtype=np.int64) if edge_rows
             else np.zeros((0, 3), dtype=np.int64))
    return Subgraph(nodes=np.array(nodes, dtype=np.int64), centers=centers,
                    user_index=user_index, edges=edges, n_cold=n_cold)


def assert_same_subgraph(a, b):
    for name in ("nodes", "centers", "edges"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.user_index == b.user_index and a.n_cold == b.n_cold


def cold_world():
    lines = [line(item=f"t{k}", ts=MONDAY_0 + k * 3600) for k in range(1, 4)]
    lines.append(line(item="t9", ts=MONDAY_0 + 9 * 3600))
    g, _, vocab = build(lines)
    return g, vocab.takeaways["t9"]


@pytest.mark.parametrize("fanouts", [(1, 1), (2, 2), (8, 8), (20, 20),
                                     (3, 30)])
def test_sampler_is_bitwise_the_per_entity_loop(fanouts):
    events, vocab, _ = ingest_events(generate_synthetic(SyntheticConfig(
        n_users=40, n_takeaways=100, n_regions=5, events_per_user=25,
        seed=11)))
    g = build_stkg(events, vocab)
    ds = build_sequences(events, vocab, n=8)
    cases = [(ds.items[row], int(ds.user[row]), row)
             for row in range(0, len(ds), 3)]
    cases += [
        (np.array([0, 0, 0, 7, 9, 7]), 2, 1),        # pad first, repeated
        (np.array([5, 5, 5, 5]), 3, 2),              # one item, four times
        (np.array([0, 0, 0, 12]), 4, 3),             # a single item
        (np.array([g.n_takeaways, 1, 0, 1]), 5, 4),  # both ends of the block
        (np.zeros(6, dtype=np.int64), 6, 5),         # all pad
    ]
    user_as_child = 0
    for items, user, sid in cases:
        got = sample_subgraph(items, user, g, fanouts, seed=7, sid=sid)
        assert_same_subgraph(
            got, reference_sample(items, user, g, fanouts, seed=7, sid=sid))
        user_as_child += int(np.any(got.edges[:, 2] == got.user_index))
    assert user_as_child > 0

    g, cold = cold_world()
    for items in (np.array([0, cold]), np.array([cold, 1, 2, cold])):
        got = sample_subgraph(items, 1, g, fanouts, seed=7, sid=0)
        assert got.n_cold == 1
        assert_same_subgraph(
            got, reference_sample(items, 1, g, fanouts, seed=7, sid=0))


@pytest.mark.parametrize("s, deg", [
    (s, deg) for s in (1, 2, 8, 20, 200)
    for deg in (s + 1, 30, 361, 10000, 10001, 20000) if deg > s])
def test_floyd_picks_are_rng_choice_draws(s, deg):
    # pins the parity to the installed numpy's Generator.choice
    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        want = np.sort(a.choice(deg, s, replace=False))
        got = _floyd_picks(b, np.array([deg]), s)
        assert got.shape == (1, s)
        assert np.array_equal(got[0], want)
        assert a.integers(2**31) == b.integers(2**31)


def test_floyd_picks_draw_rows_in_order():
    degs = np.array([9, 40, 9, 361, 12, 9])
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    want = np.stack([np.sort(a.choice(d, 8, replace=False)) for d in degs])
    assert np.array_equal(_floyd_picks(b, degs, 8), want)
    assert a.integers(2**31) == b.integers(2**31)
