"""tools/stage_rss.py: every stage runs in its own process and reports a peak."""

import importlib.util
import json
from pathlib import Path

import pytest

from stkd.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_rss.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("stkd_stage_rss", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_rss_runs_each_stage_on_a_toy_world(tmp_path, capsys):
    out = tmp_path / "out"
    synth, train = tmp_path / "synth.json", tmp_path / "train.json"
    synth.write_text(json.dumps({"n_users": 20, "n_takeaways": 40,
                                 "n_regions": 4, "events_per_user": 8,
                                 "seed": 1}), encoding="utf-8")
    train.write_text(json.dumps({"epochs": 1, "batch_size": 64, "n": 4,
                                 "d": 8, "heads": 2, "layers": 1,
                                 "fanouts": [2, 2]}), encoding="utf-8")
    for argv in (["gen-synth", "--config", str(synth)],
                 ["prepare", "--config", str(train)],
                 ["build-graph", "--config", str(train)]):
        assert main(argv + ["--out-dir", str(out)]) == 0
    capsys.readouterr()

    tool = _load_tool()
    assert tool.main(["--out-dir", str(out), "--config", str(train)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["stage", "peak_rss_mb", "seconds"]
    rows = {line.split()[0]: float(line.split()[1]) for line in lines[1:]}
    assert list(rows) == ["import", "pretrain", "distill", "evaluate_valid",
                          "evaluate_test"]
    # each peak is one process's own: a stage holds at least the imports
    assert all(mb > 0 for mb in rows.values())
    assert min(rows.values()) == rows["import"]
    for name in ("teacher.npz", "soft_labels.npz", "student.npz",
                 "metrics_valid.json", "metrics_test.json"):
        assert (out / name).exists(), name

    # a stage that fails ends the tool
    with pytest.raises(SystemExit, match="pretrain"):
        tool.main(["--out-dir", str(tmp_path / "empty")])
