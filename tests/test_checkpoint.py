"""Checkpoint round trips, version gating, and vocabulary-hash refusal."""

import re

import numpy as np
import pytest

from stkd.checkpoint import (load_arrays, load_student, load_teacher,
                             save_checkpoint)
from stkd.errors import ConsistencyError, VocabMismatchError
from stkd.student import StudentParams, predict_scores
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


@pytest.mark.parametrize("edit, named", [
    (lambda c: {**c, "extra": 1}, "missing=[], unknown=['extra']"),
    (lambda c: {k: v for k, v in c.items() if k != "seed"},
     "missing=['seed'], unknown=[]"),
])
def test_a_config_with_other_keys_is_refused(tmp_path, edit, named):
    for params, load in (
            (TeacherParams(n_entities=12, n_relations=5, n=4, d=8, n_users=3,
                           n_takeaways=6, seed=2), load_teacher),
            (StudentParams(n_takeaways=6, n_regions=3, n=4, d=8, seed=5),
             load_student)):
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, edit(params.build_config()), HASH_A)
        with pytest.raises(ConsistencyError, match=re.escape(named)):
            load(path)


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


def test_loaded_model_only_predicts(tmp_path):
    p = StudentParams(n_takeaways=6, n_regions=3, n=4, d=8, seed=5)
    path = tmp_path / "student.npz"
    save_checkpoint(path, p, p.build_config(), HASH_A)
    q, _, _ = load_student(path)
    assert not any(t.requires_grad for t in q.as_dict().values())
    x = np.array([[0, 2, 5, 1], [3, 4, 6, 2]])
    x_c, x_f = np.minimum(x, 3), np.minimum(x, 2)
    probs, logits = predict_scores(x, x_c, x_f, q)
    for t in (probs, logits):
        assert t._parents == () and not t.requires_grad
    # the same numbers as the model that was saved, where the tape runs
    want, _ = predict_scores(x, x_c, x_f, p)
    assert want._parents
    assert probs.data.tobytes() == want.data.tobytes()
    t_p = TeacherParams(n_entities=12, n_relations=5, n=4, d=8,
                        n_users=3, n_takeaways=6, seed=2)
    save_checkpoint(tmp_path / "teacher.npz", t_p, t_p.build_config(), HASH_A)
    t_q, _, _ = load_teacher(tmp_path / "teacher.npz")
    assert not any(t.requires_grad for t in t_q.as_dict().values())
