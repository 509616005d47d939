"""Command-line interface: full artifact chain plus error surfaces."""

import json

import numpy as np
import pytest

from stkd.cli import build_parser, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    synth = root / "synth.json"
    synth.write_text(json.dumps({
        "n_users": 30, "n_takeaways": 60, "n_regions": 6,
        "events_per_user": 18, "noise": 0.2, "seed": 3}), encoding="utf-8")
    train = root / "train.json"
    train.write_text(json.dumps({
        "epochs": 2, "batch_size": 64, "n": 8, "d": 16, "heads": 2,
        "layers": 1, "gnn_layers": 2, "fanouts": [4, 4], "seed": 0,
        "lr": 0.01, "alpha": 0.2, "temperature": 3.0, "patience": 2,
        "out_dir": str(out)}), encoding="utf-8")
    return root, out, str(synth), str(train)


def run(capsys, *argv) -> dict:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out.strip().splitlines()[-1])


def test_full_command_chain(workspace, capsys):
    root, out, synth, train = workspace

    gen = run(capsys, "gen-synth", "--config", synth, "--out-dir", str(out))
    assert gen["events"] == 540
    assert gen["copurchase_pairs"] == 20      # as many as the default asks
    assert (out / "events.jsonl").exists()

    prep = run(capsys, "prepare", "--config", train)
    assert prep["rows"] > 0 and prep["malformed"] == 0
    assert (out / "dataset.npz").exists() and (out / "vocab.json").exists()

    graph = run(capsys, "build-graph", "--config", train)
    assert graph["n_triples"] > 0
    assert (out / "graph.npz").exists()

    pre = run(capsys, "pretrain", "--config", train)
    assert not pre["aborted"]
    assert (out / "teacher.npz").exists()
    assert (out / "soft_labels.npz").exists()

    dist = run(capsys, "distill", "--config", train)
    assert not dist["aborted"] and dist["variant"] == "full"
    assert (out / "student.npz").exists()

    ev = run(capsys, "evaluate", "--config", train, "--split", "test",
             "--k", "5,10,20")
    assert set(ev["hr"]) == {"5", "10", "20"}
    assert 0.0 <= ev["hr"]["10"] <= 1.0
    assert (out / "metrics_test.json").exists()


def test_distill_variant_flag(workspace, capsys):
    root, out, synth, train = workspace
    dist = run(capsys, "distill", "--config", train, "--variant", "no_kd")
    assert dist["variant"] == "no_kd"


def test_evaluate_k_override(workspace, capsys):
    root, out, synth, train = workspace
    # restore the default full-variant student for later tests
    run(capsys, "distill", "--config", train)
    ev = run(capsys, "evaluate", "--config", train, "--split", "valid",
             "--k", "3,7")
    assert set(ev["hr"]) == {"3", "7"}
    assert (out / "metrics_valid.json").exists()


@pytest.mark.parametrize("cutoffs", ["5,x", "0,10", ","])
def test_evaluate_bad_k_reports_error(workspace, capsys, cutoffs):
    root, out, synth, train = workspace
    code = main(["evaluate", "--config", train, "--k", cutoffs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "--k" in captured.err or "k_list" in captured.err


def test_ablate_command(workspace, capsys):
    root, out, synth, train = workspace
    summary = run(capsys, "ablate", "--config", train,
                  "--variant", "full", "--variant", "no_kd")
    assert set(summary) == {"full", "no_kd"}
    assert (out / "ablation_full.json").exists()
    assert (out / "ablation_no_kd.json").exists()


def test_ablate_fusion_command(workspace, capsys):
    root, out, synth, train = workspace
    summary = run(capsys, "ablate-fusion", "--config", train,
                  "--strategy", "stkd", "--strategy", "add")
    assert summary["stkd"]["teacher_forwards"] == 0
    assert summary["add"]["teacher_forwards"] > 0
    assert (out / "fusion_stkd.json").exists()
    assert (out / "fusion_add.json").exists()


def test_sweep_command(workspace, capsys):
    root, out, synth, train = workspace
    summary = run(capsys, "sweep", "--config", train,
                  "--strategy", "temperature")
    taus = (1.0, 3.0, 5.0, 7.0, 9.0)
    assert set(summary) == {f"temperature={t}" for t in taus}
    for label, row in summary.items():
        assert set(row) == {"hr@10", "ndcg@10"}
    for t in taus:
        assert (out / f"sweep_temperature_{t}.json").exists()


def test_sweep_axis_is_one_value():
    parse = build_parser().parse_args
    assert parse(["sweep"]).strategy == "temperature"
    assert parse(["sweep", "--strategy", "fanouts"]).strategy == "fanouts"


def test_prepare_writes_the_configured_dataset_path(workspace, capsys,
                                                    tmp_path):
    """Every later stage reads ``dataset_path``, so ``prepare`` writes the
    dataset there and not to ``<out>/dataset.npz``."""
    root, out, synth, train = workspace
    alt = tmp_path / "alt"
    cfg = json.loads((root / "train.json").read_text())
    cfg.update(out_dir=str(alt), dataset_path=str(tmp_path / "elsewhere" /
                                                  "ds.npz"))
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(cfg), encoding="utf-8")
    run(capsys, "gen-synth", "--config", synth, "--out-dir", str(alt))
    prep = run(capsys, "prepare", "--config", str(moved))
    assert (tmp_path / "elsewhere" / "ds.npz").exists()
    assert not (alt / "dataset.npz").exists()
    dist = run(capsys, "distill", "--config", str(moved), "--variant", "no_kd")
    assert not dist["aborted"]
    assert prep["rows"] > 0


def test_seed_override_changes_artifacts(workspace, capsys, tmp_path):
    root, out, synth, train = workspace
    alt = tmp_path / "alt"
    gen0 = run(capsys, "gen-synth", "--config", synth, "--out-dir", str(alt),
               "--seed", "9")
    assert gen0["seed"] == 9
    first = (alt / "events.jsonl").read_bytes()
    assert first != (out / "events.jsonl").read_bytes()


def test_unknown_variant_rejected(workspace, capsys):
    root, out, synth, train = workspace
    with pytest.raises(SystemExit):
        main(["distill", "--config", train, "--variant", "bogus"])
    capsys.readouterr()


def test_missing_input_reports_error(tmp_path, capsys):
    code = main(["prepare", "--out-dir", str(tmp_path / "none")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_vocab_hash_guard(workspace, capsys, tmp_path):
    """A student checkpoint trained on other data is refused at evaluate."""
    root, out, synth, train = workspace
    other = tmp_path / "other"
    run(capsys, "gen-synth", "--config", synth, "--seed", "7",
        "--out-dir", str(other))
    cfg = json.loads((root / "train.json").read_text())
    cfg["out_dir"] = str(other)
    other_train = tmp_path / "other_train.json"
    other_train.write_text(json.dumps(cfg), encoding="utf-8")
    run(capsys, "prepare", "--config", str(other_train))
    # swap in the first workspace's student checkpoint
    (other / "student.npz").write_bytes((out / "student.npz").read_bytes())
    code = main(["evaluate", "--config", str(other_train)])
    captured = capsys.readouterr()
    assert code == 2
    assert "vocabulary" in captured.err


@pytest.mark.parametrize("command, key, name", [
    ("pretrain", "graph_path", "graph.npz"),
    ("distill", "dataset_path", "dataset.npz")])
def test_foreign_prepared_artifact_refused(workspace, capsys, tmp_path,
                                          command, key, name):
    """A graph or dataset built from another corpus is refused, because it
    is bound to that corpus's vocabulary."""
    root, out, synth, train = workspace
    other = tmp_path / "other"
    run(capsys, "gen-synth", "--config", synth, "--seed", "7",
        "--out-dir", str(other))
    run(capsys, "prepare", "--config", train, "--out-dir", str(other))
    run(capsys, "build-graph", "--config", train, "--out-dir", str(other))
    cfg = json.loads((root / "train.json").read_text())
    cfg[key] = str(other / name)
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(cfg), encoding="utf-8")
    code = main([command, "--config", str(mixed)])
    captured = capsys.readouterr()
    assert code == 2
    assert "vocabulary" in captured.err


def test_malformed_train_config_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"epochs": 2, "n": ', encoding="utf-8")
    code = main(["prepare", "--config", str(bad),
                 "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "malformed JSON" in captured.err


def test_unknown_synthetic_config_key_reports_error(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"n_userz": 10}), encoding="utf-8")
    code = main(["gen-synth", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "n_userz" in captured.err


def _copy_of_workspace(out, dest):
    """A private copy of the chained artifacts, for tests that damage one."""
    dest.mkdir()
    for path in out.iterdir():
        if path.is_file():
            (dest / path.name).write_bytes(path.read_bytes())
    return dest


def test_distill_with_kd_needs_soft_labels(workspace, capsys, tmp_path):
    """The soft-label cache is the only route from the teacher to the
    student: without it, distillation with alpha > 0 stops."""
    root, out, synth, train = workspace
    alt = _copy_of_workspace(out, tmp_path / "alt")
    (alt / "soft_labels.npz").unlink()
    (alt / "student.npz").unlink()
    code = main(["distill", "--config", train, "--out-dir", str(alt)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "missing input file" in captured.err
    assert not (alt / "student.npz").exists()


@pytest.mark.parametrize("command, values", [
    ("prepare", {"epochs": "2"}),
    ("gen-synth", {"n_users": "5"}),
    ("prepare", {"cache_soft_labels": False}),
    ("prepare", {"fanouts": ["a", 4]}),
    ("prepare", {"fanouts": [2.5, 4]}),
    ("prepare", {"fanouts": [True, 4]}),
    ("prepare", {"k_list": [5, "10"]}),
    # keys the generator no longer has, each with a value it once accepted
    ("gen-synth", {"session_len": [2, 3]}),
    ("gen-synth", {"n_brands": 12}),
    ("gen-synth", {"n_categories": 6}),
    ("gen-synth", {"copurchase_pairs": [[1, 2, 0.5]]}),
    ("gen-synth", {"copurchase_pairs": []}),
    ("prepare", {"heads": 0}),
    ("prepare", {"batch_size": 0}),
    ("prepare", {"n": 0}),
    ("prepare", {"d": 0}),
    ("prepare", {"layers": 0}),
    ("prepare", {"gnn_layers": 0}),
    ("prepare", {"n_negatives": 0}),
    ("prepare", {"epochs": -1}),
    # more co-purchase pairs than distinct heads and tails allow, or fewer
    # than none
    ("gen-synth", {"n_copurchase_pairs": -1}),
    ("gen-synth", {"n_copurchase_pairs": 151})])
def test_bad_config_entry_reports_error(tmp_path, capsys, command, values):
    """A wrongly typed value (or list entry), a size below 1, or an unknown
    key (also one that a config once had) in a config file exits 2 and names
    the key."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(values), encoding="utf-8")
    code = main([command, "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert next(iter(values)) in captured.err


def test_vocab_without_id_maps_reports_error(workspace, capsys, tmp_path):
    root, out, synth, train = workspace
    alt = _copy_of_workspace(out, tmp_path / "alt")
    (alt / "vocab.json").write_text(json.dumps({"users": {}}),
                                    encoding="utf-8")
    code = main(["build-graph", "--config", train, "--out-dir", str(alt)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "takeaways" in captured.err
