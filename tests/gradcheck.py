"""Finite-difference verification of reverse-mode gradients.

Central differences with per-coordinate step h = 1e-5 * (|x_i| + 1), compared
against the analytic gradient by max relative error. Run everything in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from stkd.tensor import Tensor


@dataclass
class GradCheckReport:
    """Worst-case relative error per parameter and overall pass/fail."""

    rel_tol: float
    atol: float = 1e-8
    max_rel_err: float = 0.0
    worst_param: str = ""
    worst_index: tuple = ()
    per_param: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.rel_tol

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"gradcheck {status}: max_rel_err={self.max_rel_err:.3e} "
                f"(tol={self.rel_tol:.1e}) at {self.worst_param}{self.worst_index}")


def _rel_err(analytic: float, numeric: float, atol: float) -> float:
    # Central differences of f(x +- h) cannot resolve derivatives whose effect
    # on f sits below float64 rounding; treat both-tiny values as agreeing.
    if max(abs(analytic), abs(numeric)) < atol:
        return 0.0
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric))


def finite_diff_check(f, params: dict[str, Tensor], rel_tol: float = 1e-4,
                      atol: float = 1e-8, max_coords: int | None = None,
                      rng: np.random.Generator | None = None) -> GradCheckReport:
    """Check d f / d params for a scalar-valued f(params_dict) -> Tensor.

    f is re-evaluated from scratch at each probe, so it must be a pure function
    of the parameter values. If max_coords is given, a random subset of
    coordinates per parameter is probed (rng required for reproducibility).
    """
    out = f(params)
    for p in params.values():
        p.grad = None
    out.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    report = GradCheckReport(rel_tol=rel_tol, atol=atol)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = np.arange(n)
        worst = 0.0
        for c in coords:
            orig = flat[c]
            h = 1e-5 * (abs(orig) + 1.0)
            flat[c] = orig + h
            f_plus = float(f(params).data)
            flat[c] = orig - h
            f_minus = float(f(params).data)
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = _rel_err(float(analytic[name].reshape(-1)[c]), numeric, atol)
            if err > worst:
                worst = err
            if err > report.max_rel_err:
                report.max_rel_err = err
                report.worst_param = name
                report.worst_index = tuple(np.unravel_index(int(c), p.data.shape))
        report.per_param[name] = worst
    return report
