"""Checkpoint round trips, version gating, and vocabulary-hash refusal."""

import numpy as np
import pytest

from stkd.checkpoint import (load_arrays, load_student, load_teacher,
                             save_checkpoint)
from stkd.errors import ConsistencyError, VocabMismatchError
from stkd.student import StudentParams
from stkd.teacher import TeacherParams

HASH_A = "a" * 64
HASH_B = "b" * 64


def test_student_round_trip_bitwise(tmp_path):
    p = StudentParams(n_takeaways=6, n_regions=3, n=4, d=8, seed=5)
    rng = np.random.default_rng(0)
    for t in p.as_dict().values():
        t.data[:] = rng.standard_normal(t.data.shape)
    path = tmp_path / "student.npz"
    save_checkpoint(path, p, p.build_config(), HASH_A)
    q, config, vocab_hash = load_student(path, expected_vocab_hash=HASH_A)
    assert vocab_hash == HASH_A
    assert config == p.build_config()
    for name, t in p.as_dict().items():
        np.testing.assert_array_equal(t.data, q.as_dict()[name].data)


def test_teacher_round_trip_bitwise(tmp_path):
    p = TeacherParams(n_entities=12, n_relations=5, n=4, d=8,
                      n_users=3, n_takeaways=6, seed=2)
    path = tmp_path / "teacher.npz"
    save_checkpoint(path, p, p.build_config(), HASH_A)
    q, config, _ = load_teacher(path, expected_vocab_hash=HASH_A)
    assert config["n_entities"] == 12
    for name, t in p.as_dict().items():
        np.testing.assert_array_equal(t.data, q.as_dict()[name].data)


def test_vocab_mismatch_refused(tmp_path):
    p = StudentParams(n_takeaways=6, n_regions=3, n=4, d=8)
    path = tmp_path / "m.npz"
    save_checkpoint(path, p, p.build_config(), HASH_A)
    with pytest.raises(VocabMismatchError):
        load_student(path, expected_vocab_hash=HASH_B)
    # no expectation supplied -> load succeeds and reports the stored hash
    _, _, vocab_hash = load_student(path)
    assert vocab_hash == HASH_A


def test_unversioned_file_rejected(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, weights=np.zeros(3))
    with pytest.raises(ConsistencyError):
        load_arrays(path)


def test_parameter_set_mismatch_detected(tmp_path):
    p = StudentParams(n_takeaways=6, n_regions=3, n=4, d=8)
    path = tmp_path / "m.npz"
    save_checkpoint(path, p, p.build_config(), HASH_A)
    with np.load(path) as z:
        payload = {k: z[k] for k in z.files}
    del payload["W_SP"]
    np.savez(path, **payload)
    with pytest.raises(ConsistencyError, match="W_SP"):
        load_student(path)
