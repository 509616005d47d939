"""The artifact codec: typed refusal of bad files, atomic writes, and a guard
that no other module reads or writes files on its own."""

import ast
import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest

import stkd
from stkd import artifacts
from stkd.checkpoint import load_student, load_teacher, save_checkpoint
from stkd.cli import main
from stkd.errors import ConsistencyError
from stkd.graph import Stkg
from stkd.pipeline import load_soft_labels, save_soft_labels
from stkd.sequences import SequenceDataset
from stkd.student import StudentParams
from stkd.teacher import TeacherParams

HASH = "a" * 64
KINDS = ("dataset", "graph", "teacher", "student", "soft_labels")
HEADER = ("__kind__", "__version__", "__meta__")


def write_artifact(kind: str, path: Path) -> None:
    """A small real artifact of ``kind``, written by its public writer."""
    if kind == "dataset":
        SequenceDataset(
            n=3, n_takeaways=3, n_regions=1, user=np.array([1, 1]),
            items=np.array([[0, 0, 1], [0, 1, 2]]),
            regions=np.array([[0, 0, 1], [0, 1, 1]]),
            dists=np.array([[0, 0, 2], [0, 2, 3]]),
            target=np.array([2, 3]), split=np.array([0, 1], dtype=np.int8),
            purchased_indptr=np.array([0, 0, 3]),
            purchased_items=np.array([1, 2, 3]), vocab_hash=HASH).save(path)
    elif kind == "graph":
        # user 0 -time:0- takeaway 1, takeaway 2 -attr:category- value 3
        Stkg(n_users=1, n_takeaways=2, attr_entities=[("category", "c1")],
             relations=["time:0", "attr:category"],
             indptr=np.array([0, 1, 2, 3, 4]), neighbors=np.array([1, 0, 3, 2]),
             rels=np.array([0, 0, 1, 1]),
             family_counts={"time": 1, "dist": 0, "attr": 1},
             vocab_hash=HASH).save(path)
    elif kind == "teacher":
        p = TeacherParams(n_entities=12, n_relations=5, n=4, d=8, n_users=3,
                          n_takeaways=6, seed=2)
        save_checkpoint(path, p, p.build_config(), HASH)
    elif kind == "student":
        p = StudentParams(n_takeaways=6, n_regions=3, n=4, d=8, seed=5)
        save_checkpoint(path, p, p.build_config(), HASH)
    else:
        save_soft_labels(path, np.array([0, 1]), np.full((2, 7), 1 / 7), HASH)


LOADERS = {"dataset": SequenceDataset.load, "graph": Stkg.load,
           "teacher": load_teacher, "student": load_student,
           "soft_labels": load_soft_labels}

# The header entries each kind carried before it gained __kind__; the
# student's parent layout is its format 2 instead (see ``per_head_student``).
PARENT_HEADER = {
    "dataset": {"format_version": np.int64(1),
                "vocab_hash": np.bytes_(HASH.encode())},
    "graph": {"format_version": np.int64(2),
              "vocab_hash": np.bytes_(HASH.encode())},
    "teacher": {"__format_version__": np.array(1),
                "__config__": np.array("{}"), "__vocab_hash__": np.array(HASH)},
    "soft_labels": {"format_version": np.array(1),
                    "vocab_hash": np.array(HASH)},
}


def rewrite(path: Path, edit) -> None:
    """Rewrite an artifact's entries through ``edit(payload) -> payload``."""
    with np.load(path, allow_pickle=False) as z:
        payload = {k: z[k] for k in z.files}
    np.savez(path, **edit(payload))


def first_array(payload: dict) -> str:
    return json.loads(str(payload["__meta__"]))["arrays"][0]


def next_version(payload):
    payload["__version__"] = payload["__version__"] + 1
    return payload


def per_head_student(payload):
    """A student checkpoint as format 2 wrote it: one (d, d_head) entry per
    head (``b0_Wq0``, ``b0_Wq1``, ...) for each block's Wq, Wk and Wv."""
    meta = json.loads(str(payload["__meta__"]))
    arrays = {}
    for name in meta["arrays"]:
        if name.endswith(("_Wq", "_Wk", "_Wv")):
            arrays.update({f"{name}{i}": w
                           for i, w in enumerate(payload[name])})
        else:
            arrays[name] = payload[name]
    meta["arrays"] = list(arrays)
    return {"__kind__": payload["__kind__"], "__version__": np.int64(2),
            "__meta__": np.str_(json.dumps(meta, sort_keys=True)), **arrays}


def parent_layout(payload, kind):
    if kind == "student":
        return per_head_student(payload)
    arrays = {k: v for k, v in payload.items() if k not in HEADER}
    return {**arrays, **PARENT_HEADER[kind]}


PARENT_ERROR = {**{kind: "__kind__" for kind in PARENT_HEADER},
                "student": "student format version 2 unsupported"}


def entry_removed(payload):
    del payload[first_array(payload)]
    return payload


def object_array(payload):
    name = first_array(payload)
    payload[name] = np.array(payload[name].tolist(), dtype=object)
    return payload


# case -> (damage(path, kind), pattern the error message must match, or a
# pattern per kind)
CASES = {
    "truncated": (lambda path, kind: path.write_bytes(
        path.read_bytes()[:path.stat().st_size // 2]), "unreadable"),
    "not_npz": (lambda path, kind: path.write_bytes(b"not an archive\n" * 9),
                "unreadable"),
    "other_kind": (lambda path, kind: write_artifact(
        KINDS[(KINDS.index(kind) + 1) % len(KINDS)], path), "artifact"),
    "next_version": (lambda path, kind: rewrite(path, next_version),
                     "version"),
    "parent_layout": (lambda path, kind: rewrite(
        path, lambda p: parent_layout(p, kind)), PARENT_ERROR),
    "entry_removed": (lambda path, kind: rewrite(path, entry_removed),
                      "not a file in the archive"),
    "object_array": (lambda path, kind: rewrite(path, object_array),
                     "unreadable"),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kind", KINDS)
def test_damaged_artifact_is_refused(tmp_path, kind, case):
    path = tmp_path / f"{kind}.npz"
    write_artifact(kind, path)
    LOADERS[kind](path, HASH)          # intact, it loads
    damage, pattern = CASES[case]
    if isinstance(pattern, dict):
        pattern = pattern[kind]
    damage(path, kind)
    with pytest.raises(ConsistencyError, match=pattern):
        LOADERS[kind](path)


def test_teacher_and_student_checkpoints_do_not_swap(tmp_path):
    write_artifact("student", tmp_path / "teacher.npz")
    with pytest.raises(ConsistencyError, match="student artifact"):
        load_teacher(tmp_path / "teacher.npz")
    write_artifact("teacher", tmp_path / "student.npz")
    with pytest.raises(ConsistencyError, match="teacher artifact"):
        load_student(tmp_path / "student.npz")


def distilled_workspace(tmp_path, capsys):
    """A tiny corpus taken through distill and evaluate; returns the output
    directory and the train config path."""
    out = tmp_path / "out"
    synth, train = tmp_path / "synth.json", tmp_path / "train.json"
    synth.write_text(json.dumps({"n_users": 20, "n_takeaways": 40,
                                 "n_regions": 4, "events_per_user": 8,
                                 "seed": 1}), encoding="utf-8")
    train.write_text(json.dumps({"epochs": 1, "batch_size": 64, "n": 4,
                                 "d": 8, "heads": 2, "layers": 1,
                                 "alpha": 0.0, "out_dir": str(out)}),
                     encoding="utf-8")
    for argv in (["gen-synth", "--config", str(synth), "--out-dir", str(out)],
                 ["prepare", "--config", str(train)],
                 ["distill", "--config", str(train)],
                 ["evaluate", "--config", str(train)]):
        assert main(argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    return out, train


def format_2_dataset(payload):
    """A dataset as format 2 wrote it: no vocabulary sizes in its meta."""
    meta = json.loads(str(payload["__meta__"]))
    del meta["n_takeaways"], meta["n_regions"]
    return {**payload, "__version__": np.int64(2),
            "__meta__": np.str_(json.dumps(meta, sort_keys=True))}


def test_a_format_2_dataset_is_refused(tmp_path, capsys):
    out, train = distilled_workspace(tmp_path, capsys)
    rewrite(out / "dataset.npz", format_2_dataset)
    with pytest.raises(ConsistencyError,
                       match=r"format version 2 unsupported \(expected 3\)"):
        SequenceDataset.load(out / "dataset.npz")
    assert main(["distill", "--config", str(train)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dataset.npz" in err
    assert "format version 2 unsupported (expected 3)" in err


def test_evaluate_refuses_truncated_student(tmp_path, capsys):
    out, train = distilled_workspace(tmp_path, capsys)
    student = out / "student.npz"
    student.write_bytes(student.read_bytes()[:student.stat().st_size // 2])
    assert main(["evaluate", "--config", str(train)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "student.npz" in err


def test_evaluate_refuses_a_per_head_student(tmp_path, capsys):
    out, train = distilled_workspace(tmp_path, capsys)
    rewrite(out / "student.npz", per_head_student)
    assert main(["evaluate", "--config", str(train)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "student.npz" in err
    assert "format version 2 unsupported (expected 3)" in err


def test_evaluate_refuses_a_student_config_with_an_unknown_key(tmp_path,
                                                              capsys):
    out, train = distilled_workspace(tmp_path, capsys)

    def add_key(payload):
        meta = json.loads(str(payload["__meta__"]))
        meta["config"]["extra"] = 1
        payload["__meta__"] = np.str_(json.dumps(meta, sort_keys=True))
        return payload

    rewrite(out / "student.npz", add_key)
    assert main(["evaluate", "--config", str(train)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "student.npz" in err
    assert "unknown=['extra']" in err


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------

class DiskFull:
    """A file that takes ``budget`` bytes, then fails like a full disk."""

    def __init__(self, fh, budget: int, written: list):
        self._fh, self._left, self._written = fh, budget, written

    def write(self, data):
        if len(data) > self._left:
            self._fh.write(data[:self._left])
            self._fh.flush()
            self._left = 0
            self._written.append(os.path.getsize(self._fh.name))
            raise OSError(errno.ENOSPC, "No space left on device")
        self._left -= len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


WRITERS = {
    "npz": lambda path: artifacts.write_npz(
        path, "dataset", 1, {"a": np.arange(100)}, {"vocab_hash": HASH}),
    "json": lambda path: artifacts.write_json(path, {"key": "x" * 200}),
    "jsonl": lambda path: artifacts.write_lines(path, ["{}\n"] * 100),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous contents\n")
    written = []
    monkeypatch.setattr(
        artifacts, "open",
        lambda *a, **kw: DiskFull(open(*a, **kw), 64, written), raising=False)
    with pytest.raises(OSError, match="No space"):
        WRITERS[writer](path)
    assert written[0] == 64            # the temp file held partial bytes
    assert path.read_bytes() == b"previous contents\n"
    assert os.listdir(tmp_path) == ["artifact"]
    monkeypatch.undo()
    WRITERS[writer](path)              # and a write that succeeds replaces it
    assert path.read_bytes() != b"previous contents\n"
    assert os.listdir(tmp_path) == ["artifact"]


# ---------------------------------------------------------------------------
# nothing else touches the disk
# ---------------------------------------------------------------------------

NUMPY_FILE_IO = {"save", "savez", "savez_compressed", "load"}
WRITE_MODE = set("wax+")


def _writes_in_mode(call: ast.Call) -> bool:
    """``open``/``io.open``/``Path.open``/``os.fdopen`` with a write mode."""
    func = call.func
    if not (isinstance(func, ast.Name) and func.id == "open"
            or isinstance(func, ast.Attribute)
            and func.attr in ("open", "fdopen")):
        return False
    modes = [*call.args[:2], *(kw.value for kw in call.keywords
                               if kw.arg == "mode")]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and set(m.value) <= set("rwxabt+") and set(m.value) & WRITE_MODE
               for m in modes)


def file_io_calls(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, call) for every call that writes a file or reads an npz."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
                and func.attr in NUMPY_FILE_IO):
            found.append((node.lineno, f"np.{func.attr}"))
        elif (isinstance(func, ast.Attribute)
              and func.attr in ("write_text", "write_bytes")):
            found.append((node.lineno, f".{func.attr}"))
        elif _writes_in_mode(node):
            found.append((node.lineno, "open for writing"))
    return found


def test_only_the_artifact_module_does_file_io():
    package = Path(stkd.__file__).parent
    offenders = [f"{path.name}:{line} {call}"
                 for path in sorted(package.glob("*.py"))
                 if path.name != "artifacts.py"
                 for line, call in file_io_calls(
                     ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == [], ("route these through stkd.artifacts: "
                             + ", ".join(offenders))
