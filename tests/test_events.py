"""Event ingest: parsing, cleaning, ordering, vocabulary construction."""

import json

import numpy as np
import pytest

from stkd.cli import main
from stkd.errors import DataQualityError
from stkd.events import Vocab, ingest_events, parse_event_line


def line(user="u1", item="t1", ts=1000, ugh="wt3mb5", sgh="wt3q8y", **attrs):
    rec = {"user_id": user, "takeaway_id": item, "timestamp": ts,
           "user_geohash6": ugh, "shop_geohash6": sgh, **attrs}
    return json.dumps(rec) + "\n"


def test_empty_input_gives_empty_results():
    events, vocab, report = ingest_events([])
    assert events == []
    assert vocab.n_users == 0 and vocab.n_takeaways == 0 and vocab.n_regions == 0
    assert report.n_events == 0


def test_blank_geohash_events_are_dropped():
    events, vocab, report = ingest_events([
        line(item="t1", ts=1),
        line(item="t2", ts=2, sgh=""),
        line(item="t3", ts=3),
    ])
    assert [e.takeaway_id for e in events] == ["t1", "t3"]
    assert report.n_dropped_geohash == 1
    assert "t2" not in vocab.takeaways


def test_invalid_geohash_and_bad_records_are_counted():
    events, _, report = ingest_events([
        line(ts=1),
        "not json at all\n",
        json.dumps({"user_id": "u1"}) + "\n",          # missing fields
        line(ts=0),                                      # timestamp must be > 0
        line(ts=3, ugh="wtamb!"),                        # invalid geohash chars
        line(ts=4),
    ])
    assert len(events) == 2
    assert report.n_malformed == 3
    assert report.n_dropped_geohash == 1


def test_majority_malformed_raises_data_quality_error():
    lines = ["garbage\n", "junk\n", "worse\n", line(ts=1)]
    with pytest.raises(DataQualityError, match="3 of 4"):
        ingest_events(lines)


def test_per_user_sort_matches_scripted_oracle():
    # 10 events over 2 users, interleaved, shuffled timestamps with a tie.
    raw = [
        ("a", "t1", 50), ("b", "t2", 30), ("a", "t3", 10), ("b", "t4", 30),
        ("a", "t5", 50), ("b", "t6", 70), ("a", "t7", 20), ("b", "t8", 10),
        ("a", "t9", 50), ("b", "t10", 5),
    ]
    lines = [line(user=u, item=t, ts=ts) for u, t, ts in raw]
    events, _, _ = ingest_events(lines)

    # oracle: group by user in first-appearance order, stable-sort by timestamp
    first_seen = {}
    for u, _, _ in raw:
        first_seen.setdefault(u, len(first_seen))
    oracle = sorted(raw, key=lambda r: (first_seen[r[0]], r[2]))
    assert [(e.user_id, e.takeaway_id, e.timestamp) for e in events] == oracle
    # the tie between t2 and t4 (both ts=30, user b) keeps input order
    b_items = [e.takeaway_id for e in events if e.user_id == "b"]
    assert b_items.index("t2") < b_items.index("t4")


def test_vocab_ids_are_dense_from_one():
    events, vocab, _ = ingest_events([
        line(user="u1", item="tA", ts=1),
        line(user="u2", item="tB", ts=2, ugh="wt3q8y", sgh="wt3mb5"),
        line(user="u1", item="tA", ts=3),
    ])
    assert sorted(vocab.users.values()) == [1, 2]
    assert sorted(vocab.takeaways.values()) == [1, 2]
    assert 0 not in vocab.takeaways.values()
    assert sorted(vocab.regions.values()) == [1, 2]


def test_attributes_are_registered_per_field():
    _, vocab, _ = ingest_events([
        line(ts=1, category="c1", brand="b9"),
        line(ts=2, category="c2", brand="b9"),
    ])
    assert set(vocab.attributes) == {"category", "brand"}
    assert len(vocab.attributes["category"]) == 2
    assert len(vocab.attributes["brand"]) == 1


def test_vocab_hash_tracks_content():
    _, v1, _ = ingest_events([line(ts=1)])
    _, v2, _ = ingest_events([line(ts=1)])
    _, v3, _ = ingest_events([line(ts=1), line(item="t2", ts=2)])
    assert v1.content_hash() == v2.content_hash()
    assert v1.content_hash() != v3.content_hash()


def test_vocab_round_trips_through_dict():
    _, vocab, _ = ingest_events([line(ts=1, category="c3")])
    clone = Vocab.from_dict(json.loads(json.dumps(vocab.to_dict())))
    assert clone.content_hash() == vocab.content_hash()


def test_parse_event_line_handles_edge_cases():
    assert parse_event_line("{bad") is None
    assert parse_event_line(json.dumps(["not", "a", "dict"])) is None
    assert parse_event_line(json.dumps({"user_id": "u"})) is None
    ev = parse_event_line(line(ts=5, category="c9").strip())
    assert ev.timestamp == 5 and ev.attributes == {"category": "c9"}


# ---------------------------------------------------------------------------
# awkward corpora through the whole command chain
# ---------------------------------------------------------------------------

CHAIN = ("prepare", "build-graph", "pretrain", "distill", "evaluate")
CELLS = ["wt3mb5", "wt3q8y", "wt3mbh", "wt3q8z"]


def corpus(n_users=8, per_user=6, seed=0):
    """A well-formed corpus: every user buys ``per_user`` takeaways out of
    10, at distinct rising timestamps."""
    rng = np.random.default_rng(seed)
    return [line(user=f"u{u}", item=f"t{rng.integers(10)}", ts=1000 + 60 * j,
                 ugh=CELLS[u % 4], sgh=CELLS[int(rng.integers(4))],
                 category=f"c{u % 3}")
            for u in range(n_users) for j in range(per_user)]


def run_chain(tmp_path, capsys, lines):
    """Each command in turn until one fails; returns the exit codes and the
    failing command's stderr. Any exit but 0, or 2 with ``error:``, fails."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "events.jsonl").write_text("".join(lines), encoding="utf-8")
    train = tmp_path / "train.json"
    train.write_text(json.dumps({
        "epochs": 1, "batch_size": 16, "n": 4, "d": 8, "heads": 2,
        "layers": 1, "gnn_layers": 1, "fanouts": [2, 2], "n_negatives": 5,
        "alpha": 0.2, "out_dir": str(out)}), encoding="utf-8")
    codes = []
    for command in CHAIN:
        codes.append(main([command, "--config", str(train)]))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 2), (command, err)
        if codes[-1]:
            assert err.startswith("error:"), (command, err)
            return codes, err
    return codes, ""


def test_chain_skips_a_malformed_minority(tmp_path, capsys):
    lines = corpus()
    bad = ["{\"user_id\": \"u1\", \"takeaway_id\"\n", "[1, 2, 3]\n", "null\n",
           json.dumps({"user_id": "u2", "takeaway_id": "t1"}) + "\n",
           line(user="u3", ts="noon"), line(user="u4", ts=-5),
           line(user="u5", ts=None), "\x00\xff garbage\n"]
    for i, b in enumerate(bad):
        lines.insert(5 * i + 3, b)
    codes, _ = run_chain(tmp_path, capsys, lines)
    assert codes == [0] * len(CHAIN)


def test_chain_stops_on_a_malformed_majority(tmp_path, capsys):
    lines = corpus(n_users=2, per_user=2) + ["{oops\n"] * 5
    codes, err = run_chain(tmp_path, capsys, lines)
    assert codes == [2] and "malformed" in err


def test_chain_drops_invalid_geohashes(tmp_path, capsys):
    lines = corpus()
    for i, (ugh, sgh) in enumerate([("", "wt3q8y"), ("wt3mb", "wt3q8y"),
                                    ("wt3mba", "wt3q8y"), ("wt3mb5", "ilo000"),
                                    ("wt3mb5", "wt3q8y0"), ("WT3MB5", " ")]):
        lines.insert(4 * i + 1, line(user=f"u{i}", item="t99", ts=5000 + i,
                                     ugh=ugh, sgh=sgh))
    codes, _ = run_chain(tmp_path, capsys, lines)
    assert codes == [0] * len(CHAIN)
    vocab = json.loads((tmp_path / "out" / "vocab.json").read_text("utf-8"))
    assert "t99" not in vocab["takeaways"]


def test_chain_runs_on_equal_timestamps(tmp_path, capsys):
    lines = [line(user=f"u{u}", item=f"t{(u + j) % 7}", ts=1000,
                  ugh=CELLS[u % 4], sgh=CELLS[j % 4])
             for u in range(6) for j in range(5)]
    codes, _ = run_chain(tmp_path, capsys, lines)
    assert codes == [0] * len(CHAIN)


@pytest.mark.parametrize("per_user", [1, 2])
def test_chain_runs_when_users_have_one_or_two_events(tmp_path, capsys,
                                                      per_user):
    short = [line(user=f"s{u}", item=f"t{u + j}", ts=2000 + j, ugh=CELLS[u % 4])
             for u in range(6) for j in range(per_user)]
    codes, _ = run_chain(tmp_path, capsys, corpus() + short)
    assert codes == [0] * len(CHAIN)


def test_chain_stops_when_no_user_has_a_second_event(tmp_path, capsys):
    codes, err = run_chain(tmp_path, capsys, corpus(per_user=1))
    assert codes == [2] and "no training rows" in err
    assert not (tmp_path / "out" / "dataset.npz").exists()
    assert not (tmp_path / "out" / "vocab.json").exists()


def test_chain_stops_when_every_line_is_dropped(tmp_path, capsys):
    lines = [line(user=f"u{u}", item=f"t{j}", ts=1000 + j, ugh="nowhere")
             for u in range(4) for j in range(4)]
    codes, err = run_chain(tmp_path, capsys, lines)
    assert codes == [2] and "no training rows" in err


@pytest.mark.parametrize("seed", range(4))
def test_chain_survives_fuzzed_lines(tmp_path, capsys, seed):
    # random damage to a third of the lines: truncation, a dropped or
    # retyped field, a swapped geohash, a repeated timestamp
    rng = np.random.default_rng(seed)
    lines = corpus(n_users=10, seed=seed)
    for i in rng.choice(len(lines), size=len(lines) // 3, replace=False):
        rec = json.loads(lines[i])
        kind = rng.integers(5)
        if kind == 0:
            lines[i] = lines[i][:int(rng.integers(1, len(lines[i]) - 1))] + "\n"
            continue
        key = str(rng.choice(sorted(rec)))
        if kind == 1:
            del rec[key]
        elif kind == 2:
            rec[key] = [None, 1.5, "", {"x": 1}, -1][int(rng.integers(5))]
        elif kind == 3:
            rec["shop_geohash6"] = rec["user_geohash6"][::-1]
        else:
            rec["timestamp"] = 1000
        lines[i] = json.dumps(rec) + "\n"
    codes, _ = run_chain(tmp_path, capsys, lines)
    assert codes == [0] * len(CHAIN)
