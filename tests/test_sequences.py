"""Leave-one-out sequence building: split rule, padding, features, cache."""

import json

import numpy as np

from stkd.events import ingest_events
from stkd.geo import bucketize_distance, geohash6_centroid, spherical_distance
from stkd.sequences import (DIST_PAD_OFFSET, SPLIT_TEST, SPLIT_TRAIN,
                            SPLIT_VALID, SequenceDataset, build_sequences,
                            load_vocab, save_vocab)

REGION_A, REGION_B = "wt3mb5", "wt3q8y"


def lines_for(purchases):
    """purchases: list of (user, item, ts, user_gh, shop_gh)."""
    out = []
    for u, t, ts, ugh, sgh in purchases:
        out.append(json.dumps({
            "user_id": u, "takeaway_id": t, "timestamp": ts,
            "user_geohash6": ugh, "shop_geohash6": sgh}) + "\n")
    return out


def dataset(purchases, n=4, **kw):
    events, vocab, _ = ingest_events(lines_for(purchases))
    return build_sequences(events, vocab, n=n, **kw), vocab


def test_three_purchases_yield_valid_and_test_only():
    ds, vocab = dataset([("u", "a", 1, REGION_A, REGION_A),
                         ("u", "b", 2, REGION_A, REGION_A),
                         ("u", "c", 3, REGION_A, REGION_A)])
    assert len(ds) == 2
    va, te = ds.rows("valid"), ds.rows("test")
    assert len(ds.rows("train")) == 0 and len(va) == 1 and len(te) == 1
    a, b, c = vocab.takeaways["a"], vocab.takeaways["b"], vocab.takeaways["c"]
    np.testing.assert_array_equal(ds.items[va[0]], [0, 0, 0, a])
    assert ds.target[va[0]] == b
    np.testing.assert_array_equal(ds.items[te[0]], [0, 0, a, b])
    assert ds.target[te[0]] == c


def test_five_purchases_yield_two_train_pairs():
    rows = [("u", x, i + 1, REGION_A, REGION_A)
            for i, x in enumerate("abcde")]
    ds, vocab = dataset(rows)
    tr = ds.rows("train")
    assert len(tr) == 2 and len(ds.rows("valid")) == 1 and len(ds.rows("test")) == 1
    ids = {k: vocab.takeaways[k] for k in "abcde"}
    np.testing.assert_array_equal(ds.items[tr[0]], [0, 0, 0, ids["a"]])
    assert ds.target[tr[0]] == ids["b"]
    np.testing.assert_array_equal(ds.items[tr[1]], [0, 0, ids["a"], ids["b"]])
    assert ds.target[tr[1]] == ids["c"]
    assert ds.target[ds.rows("valid")[0]] == ids["d"]
    assert ds.target[ds.rows("test")[0]] == ids["e"]


def test_two_purchases_train_only_one_skipped():
    ds, _ = dataset([("u1", "a", 1, REGION_A, REGION_A),
                     ("u1", "b", 2, REGION_A, REGION_A),
                     ("u2", "c", 5, REGION_A, REGION_A)])
    assert len(ds.rows("train")) == 1
    assert len(ds.rows("valid")) == 0 and len(ds.rows("test")) == 0
    assert ds.n_skipped_users == 1


def test_truncation_keeps_most_recent_items():
    rows = [("u", f"i{k}", k + 1, REGION_A, REGION_A) for k in range(10)]
    ds, vocab = dataset(rows, n=3)
    te = ds.rows("test")[0]
    want = [vocab.takeaways[f"i{k}"] for k in (6, 7, 8)]
    np.testing.assert_array_equal(ds.items[te], want)
    assert ds.target[te] == vocab.takeaways["i9"]


def test_train_cap_keeps_most_recent_pairs():
    rows = [("u", f"i{k}", k + 1, REGION_A, REGION_A) for k in range(8)]
    ds, vocab = dataset(rows, n=8, max_train_per_user=2)
    tr = ds.rows("train")
    assert len(tr) == 2
    # uncapped train targets would be i1..i5; the cap keeps the two most recent
    assert ds.target[tr[0]] == vocab.takeaways["i4"]
    assert ds.target[tr[1]] == vocab.takeaways["i5"]


def test_no_split_leakage_within_user():
    rows = [("u", f"i{k}", k + 1, REGION_A, REGION_A) for k in range(9)]
    ds, _ = dataset(rows, n=16)
    tr, va, te = ds.rows("train"), ds.rows("valid"), ds.rows("test")
    # every split's prefix length differs, so no training target sits at the
    # validation or test boundary position
    train_lens = {(ds.items[i] != 0).sum() for i in tr}
    assert (ds.items[va[0]] != 0).sum() not in train_lens
    assert (ds.items[te[0]] != 0).sum() not in train_lens


def test_distance_feature_matches_direct_computation():
    ds, vocab = dataset([("u", "a", 1, REGION_A, REGION_B),
                         ("u", "b", 2, REGION_A, REGION_A),
                         ("u", "c", 3, REGION_B, REGION_A)])
    km = spherical_distance(geohash6_centroid(REGION_A),
                            geohash6_centroid(REGION_B))
    expected = bucketize_distance(km) + DIST_PAD_OFFSET
    te = ds.rows("test")[0]
    # first prefix item was bought across regions, second locally
    np.testing.assert_array_equal(ds.dists[te][-2:],
                                  [expected, 0 + DIST_PAD_OFFSET])
    np.testing.assert_array_equal(
        ds.regions[te][-2:],
        [vocab.regions[REGION_B], vocab.regions[REGION_A]])


def test_padding_alignment_enforced():
    ds, _ = dataset([("u", "a", 1, REGION_A, REGION_A),
                     ("u", "b", 2, REGION_A, REGION_A),
                     ("u", "c", 3, REGION_A, REGION_A)])
    pad = ds.items == 0
    assert np.array_equal(ds.regions == 0, pad)
    assert np.array_equal(ds.dists == 0, pad)
    assert np.all(ds.target != 0)


def test_purchased_sets_cover_all_events():
    ds, vocab = dataset([("u1", "a", 1, REGION_A, REGION_A),
                         ("u1", "b", 2, REGION_A, REGION_A),
                         ("u1", "a", 3, REGION_A, REGION_A),
                         ("u2", "c", 1, REGION_A, REGION_A),
                         ("u2", "a", 2, REGION_A, REGION_A)])
    u1, u2 = vocab.users["u1"], vocab.users["u2"]
    assert set(ds.purchased_by(u1)) == {vocab.takeaways["a"], vocab.takeaways["b"]}
    assert set(ds.purchased_by(u2)) == {vocab.takeaways["a"], vocab.takeaways["c"]}


def test_dataset_cache_round_trip(tmp_path):
    rows = [("u", f"i{k}", k + 1, REGION_A, REGION_B) for k in range(6)]
    ds, vocab = dataset(rows, n=5)
    path = str(tmp_path / "cache.npz")
    ds.save(path)
    back = SequenceDataset.load(path)
    assert back.n == ds.n and back.vocab_hash == ds.vocab_hash
    assert (back.n_takeaways, back.n_regions) == (6, 2) == (vocab.n_takeaways,
                                                            vocab.n_regions)
    for f in ("user", "items", "regions", "dists", "target", "split",
              "purchased_indptr", "purchased_items"):
        np.testing.assert_array_equal(getattr(back, f), getattr(ds, f))


def test_vocab_json_round_trip(tmp_path):
    rows = [("u", "a", 1, REGION_A, REGION_B)]
    events, vocab, _ = ingest_events(lines_for(rows))
    path = str(tmp_path / "vocab.json")
    save_vocab(vocab, path)
    assert load_vocab(path).content_hash() == vocab.content_hash()


def test_ingest_to_sequences_is_deterministic():
    rows = [("u%d" % (k % 3), "i%d" % (k % 5), 100 + k, REGION_A, REGION_B)
            for k in range(30)]
    ds1, _ = dataset(rows, n=6)
    ds2, _ = dataset(rows, n=6)
    assert ds1.items.tobytes() == ds2.items.tobytes()
    assert ds1.target.tobytes() == ds2.target.tobytes()
    assert ds1.split.tobytes() == ds2.split.tobytes()
