"""Adam optimizer: frozen reference trajectory and edge-case behavior."""

import numpy as np
import pytest

from stkd import optim
from stkd.errors import ConfigError
from stkd.optim import Adam
from stkd.tensor import Tensor

# Reference trajectory computed independently (scalar parameter starting at
# 1.0; lr=0.001, beta1=0.9, beta2=0.98, eps=1e-8; gradient sequence below).
GRADS = [0.5, -0.25, 1.0, 0.0, 2.0]
EXPECTED = [
    0.99900000002,
    0.99873289231322437,
    0.99807837843646219,
    0.99753962856525702,
    0.99684916913697119,
]


def _scalar_step(opt: Adam, param: Tensor, g) -> None:
    param.grad = np.array(g, dtype=float).reshape(param.data.shape)
    opt.step()


def test_adam_matches_reference_trajectory():
    param = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"p": param})
    for g, want in zip(GRADS, EXPECTED):
        _scalar_step(opt, param, g)
        assert abs(param.data[0] - want) < 1e-15, (param.data[0], want)


def test_first_step_magnitude_is_lr():
    # With bias correction, |step 1| = lr * |g|/(|g|+eps): close to lr at any
    # gradient scale where |g| >> eps.
    for g in (1e-4, 1.0, 1e6):
        param = Tensor(np.array([0.0]), requires_grad=True)
        _scalar_step(Adam({"p": param}), param, g)
        assert abs(abs(param.data[0]) - 0.001) < 1e-6


def test_zero_lr_is_bitwise_noop_but_moments_advance():
    param = Tensor(np.array([1.2345678901234567]), requires_grad=True)
    before = param.data.copy()
    opt = Adam({"p": param}, lr=0.0)
    _scalar_step(opt, param, 3.0)
    assert param.data.tobytes() == before.tobytes()
    assert opt.m["p"][0] != 0.0 and opt.v["p"][0] != 0.0 and opt.t == 1


def test_zero_gradient_never_moves_parameter():
    param = Tensor(np.array([0.5, -0.5]), requires_grad=True)
    before = param.data.copy()
    opt = Adam({"p": param})
    for _ in range(10):
        _scalar_step(opt, param, [0.0, 0.0])
    assert param.data.tobytes() == before.tobytes()
    assert np.all(opt.m["p"] == 0.0) and np.all(opt.v["p"] == 0.0)


def test_adam_class_respects_frozen_rows():
    table = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
    table.data[0] = 0.0
    opt = Adam({"emb": table}, lr=0.1, freeze_rows={"emb": [0]})
    for _ in range(3):
        table.grad = np.ones_like(table.data)
        opt.step()
    # the frozen row's moments stay 0, so its update is exactly +0.0
    assert np.all(opt.m["emb"][0] == 0.0) and np.all(opt.v["emb"][0] == 0.0)
    assert table.data[0].tobytes() == np.zeros(3).tobytes()
    assert np.all(table.data[1:] != np.arange(3, 12, dtype=float).reshape(3, 3))


def test_adam_leaves_a_parameter_it_was_not_given():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"a": a}, lr=0.1)
    a.grad = np.array([1.0])
    b.grad = np.array([1.0])
    opt.step()
    assert a.data[0] != 1.0
    assert b.data[0] == 1.0
    assert set(opt.m) == set(opt.v) == {"a"}


def test_adam_class_missing_grad_treated_as_zero():
    a = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam({"a": a}, lr=0.5)
    opt.step()
    assert a.data[0] == 2.0


def test_adam_rejects_bad_hyperparameters():
    a = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ConfigError):
        Adam({"a": a}, lr=-0.1)
    # the betas are constants, not options
    with pytest.raises(TypeError):
        Adam({"a": a}, beta1=0.9)


def test_adam_default_hyperparameters():
    a = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"a": a})
    assert opt.lr == 0.001 and optim.BETA1 == 0.9 and optim.BETA2 == 0.98
    assert optim.EPS == 1e-8
