"""The gradient checker itself: accepts correct gradients, flags planted bugs."""

import numpy as np

from stkd import tensor as T
from stkd.tensor import Tensor

from gradcheck import finite_diff_check


def test_passes_on_correct_gradient():
    a = Tensor(np.random.default_rng(0).standard_normal((3, 3)), requires_grad=True)
    report = finite_diff_check(lambda q: T.tsum(q["a"] * q["a"]), {"a": a},
                               rel_tol=1e-4)
    assert report.passed
    assert report.max_rel_err < 1e-6
    assert "PASS" in str(report)


def test_detects_planted_wrong_gradient():
    class BadSquare:
        """y = sum(x^2) forward, but backward reports dy/dx = x (half the truth)."""

        def __call__(self, q):
            x = q["x"]
            out = Tensor((x.data ** 2).sum())
            out.requires_grad = True
            out._parents = (x,)

            def backward(g):
                if x.grad is None:
                    x.grad = np.zeros_like(x.data)
                x.grad += g * x.data  # should be 2*x

            out._backward = backward
            return out

    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    report = finite_diff_check(BadSquare(), {"x": x}, rel_tol=1e-4)
    assert not report.passed
    assert report.max_rel_err > 0.4  # relative error ~0.5
    assert "FAIL" in str(report)


def test_subsampled_coordinates_are_deterministic():
    a = Tensor(np.random.default_rng(1).standard_normal(50), requires_grad=True)
    f = lambda q: T.tsum(T.sigmoid(q["a"]))
    r1 = finite_diff_check(f, {"a": a}, max_coords=10,
                           rng=np.random.default_rng(42))
    r2 = finite_diff_check(f, {"a": a}, max_coords=10,
                           rng=np.random.default_rng(42))
    assert r1.max_rel_err == r2.max_rel_err
    assert r1.passed


def test_report_names_worst_parameter():
    a = Tensor(np.array([[0.3, -0.7]]), requires_grad=True)
    b = Tensor(np.array([2.0]), requires_grad=True)
    report = finite_diff_check(
        lambda q: T.tsum(T.tanh(q["a"])) + T.tsum(q["b"] * q["b"]),
        {"a": a, "b": b})
    assert report.worst_param in {"a", "b"}
    assert set(report.per_param) == {"a", "b"}
