"""Versioned model checkpoints.

A checkpoint is a ``teacher`` or ``student`` artifact (see
:mod:`stkd.artifacts`): every parameter array, plus in its meta the JSON echo
of the builder kwargs needed to rebuild the parameter object with matching
shapes and the content hash of the vocabulary the model was trained against.
Loading refuses to proceed when the caller supplies a different hash, because
item/region ids would silently mean different things.  A loaded model only
predicts: its parameters do not require gradients, so its forward passes
record no autodiff tape.
"""

from __future__ import annotations

import inspect

from .artifacts import read_npz, write_npz
from .errors import ConsistencyError
from .student import StudentParams
from .teacher import TeacherParams

# Student format 3 holds each block's Wq/Wk/Wv as one (heads, d, d_head)
# array (``b0_Wq``); format 2 kept one (d, d_head) array per head (``b0_Wq0``).
CHECKPOINT_FORMAT_VERSIONS = {"teacher": 2, "student": 3}

_KINDS = {TeacherParams: "teacher", StudentParams: "student"}

__all__ = [
    "CHECKPOINT_FORMAT_VERSIONS",
    "save_checkpoint",
    "load_arrays",
    "load_teacher",
    "load_student",
]


def save_checkpoint(path, params, config: dict, vocab_hash: str) -> None:
    """Write ``params`` (a Teacher/Student parameter object) to ``path``."""
    kind = _KINDS[type(params)]
    write_npz(path, kind, CHECKPOINT_FORMAT_VERSIONS[kind],
              {name: t.data for name, t in params.as_dict().items()},
              {"config": config, "vocab_hash": vocab_hash})


def load_arrays(path, expected_vocab_hash: str | None = None,
                kinds: tuple[str, ...] = ("teacher", "student")):
    """Read a checkpoint of one of ``kinds``; returns ``(arrays, config,
    vocab_hash)``."""
    arrays, meta = read_npz(
        path, {kind: CHECKPOINT_FORMAT_VERSIONS[kind] for kind in kinds},
        expected_vocab_hash)
    return arrays, meta["config"], meta["vocab_hash"]


def _restore(params, arrays, path) -> None:
    """Fill ``params``, built without drawing an initialization, from the
    checkpoint's arrays."""
    want = params.as_dict()
    missing = sorted(set(want) - set(arrays))
    extra = sorted(set(arrays) - set(want))
    if missing or extra:
        raise ConsistencyError(
            f"{path}: parameter set mismatch (missing={missing}, extra={extra})")
    for name, tensor in want.items():
        if arrays[name].shape != tensor.data.shape:
            raise ConsistencyError(
                f"{path}: shape mismatch for {name}: "
                f"{arrays[name].shape} vs {tensor.data.shape}")
        tensor.data[:] = arrays[name]
        tensor.requires_grad = False


def _load(cls, path, expected_vocab_hash):
    """Rebuild a ``cls`` parameter object from a checkpoint of its kind.  A
    config whose keys are not the constructor's raises ConsistencyError
    naming the missing and the unknown ones."""
    arrays, config, vocab_hash = load_arrays(path, expected_vocab_hash,
                                             (_KINDS[cls],))
    want = set(inspect.signature(cls).parameters) - {"_draw"}
    missing, extra = sorted(want - set(config)), sorted(set(config) - want)
    if missing or extra:
        raise ConsistencyError(
            f"{path}: model config mismatch (missing={missing}, "
            f"unknown={extra})")
    params = cls(**config, _draw=False)
    _restore(params, arrays, path)
    return params, config, vocab_hash


def load_teacher(path, expected_vocab_hash: str | None = None):
    """Rebuild a :class:`TeacherParams` from a checkpoint."""
    return _load(TeacherParams, path, expected_vocab_hash)


def load_student(path, expected_vocab_hash: str | None = None):
    """Rebuild a :class:`StudentParams` from a checkpoint."""
    return _load(StudentParams, path, expected_vocab_hash)
