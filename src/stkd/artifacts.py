"""The on-disk formats: every file the package writes or reads goes through here.

npz artifacts (``dataset``, ``graph``, ``teacher``, ``student``,
``soft_labels``) are uncompressed ``np.savez`` archives holding the named
arrays plus three header entries:

* ``__kind__`` — which artifact the file holds;
* ``__version__`` — the kind's format version, bumped on any layout change;
* ``__meta__`` — JSON with the scalars, string lists, the array names and
  the ``vocab_hash`` of the vocabulary the artifact was built against.

Reading never unpickles.  A file of another kind or version, with a missing
entry or an object array, or torn or not an npz at all raises
:class:`ConsistencyError`; a vocabulary other than the expected one raises
:class:`VocabMismatchError`.  A missing file raises ``FileNotFoundError``.

Every writer, JSON and JSONL included, writes a temp file beside the target
and moves it over the target with ``os.replace``, so an interrupted write
leaves the previous file (or none) and never a partial one.  There is no
fsync: the guarantee is against interrupted commands, and a torn file is
refused on read anyway.
"""

from __future__ import annotations

import contextlib
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, VocabMismatchError

__all__ = ["write_npz", "read_npz", "write_json", "read_json", "write_lines"]


@contextlib.contextmanager
def _replacing(path):
    """A binary temp file beside ``path`` that replaces it on success and is
    removed on failure."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_npz(path, kind: str, version: int, arrays: dict, meta: dict) -> None:
    """Write ``arrays`` and the header for ``kind`` at ``version``; ``meta``
    must be JSON-serializable and carry ``vocab_hash``."""
    header = {"__kind__": np.str_(kind), "__version__": np.int64(version),
              "__meta__": np.str_(json.dumps({**meta, "arrays": list(arrays)},
                                             sort_keys=True))}
    with _replacing(path) as fh:
        np.savez(fh, **header, **arrays)


def read_npz(path, versions: dict[str, int],
             expected_vocab_hash: str | None = None):
    """Read an artifact of one of the kinds in ``versions``, at that kind's
    format version; returns ``(arrays, meta)``."""
    wanted = " or ".join(versions)
    try:
        with np.load(path, allow_pickle=False) as z:
            if "__kind__" not in z.files:
                raise ConsistencyError(f"{path}: not a {wanted} file (no "
                                       "__kind__ entry: an older format?)")
            kind = str(z["__kind__"])
            if kind not in versions:
                raise ConsistencyError(
                    f"{path}: holds a {kind} artifact, expected {wanted}")
            found = int(z["__version__"])
            if found != versions[kind]:
                raise ConsistencyError(
                    f"{path}: {kind} format version {found} unsupported "
                    f"(expected {versions[kind]}); rebuild it")
            meta = json.loads(str(z["__meta__"]))
            arrays = {name: z[name] for name in meta.pop("arrays")}
            stored = meta["vocab_hash"]
    except FileNotFoundError:
        raise
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        # torn or foreign bytes, a missing entry, or numpy refusing an
        # object array
        raise ConsistencyError(
            f"{path}: unreadable {wanted} file: {exc!r}") from exc
    if expected_vocab_hash is not None and stored != expected_vocab_hash:
        raise VocabMismatchError(
            f"{path}: {kind} was built against vocabulary {stored[:12]}… but "
            f"the data on hand hashes to {expected_vocab_hash[:12]}…; "
            "rebuild or re-train it")
    return arrays, meta


def write_json(path, obj, indent: int | None = 2) -> None:
    """Write ``obj`` as sorted-key JSON plus a newline."""
    text = json.dumps(obj, indent=indent, sort_keys=True) + "\n"
    with _replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def read_json(path, error: type[Exception] = ConsistencyError) -> dict:
    """Read a JSON object; malformed text or another top-level type raises
    ``error``."""
    raw = Path(path).read_bytes()
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise error(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: expected a JSON object, got "
                    f"{type(data).__name__}")
    return data


def write_lines(path, lines: list[str]) -> None:
    """Write text lines (each ending in a newline), e.g. a JSONL log."""
    with _replacing(path) as fh:
        fh.write("".join(lines).encode("utf-8"))
