"""Adam optimizer with bias correction and per-parameter frozen-row masks."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.98
EPS = 1e-8


class Adam:
    """Adam (Kingma & Ba, ICLR 2015) over a dict of named Tensor parameters,
    updated in place by ``step()``:

    m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2
    p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + EPS)

    with b1 = BETA1 and b2 = BETA2.

    A parameter without a gradient takes a zero one.  `freeze_rows[name]`
    lists row indices whose gradient is zeroed before the update: their
    moments stay 0, so their update is exactly +0.0 and a padding row that
    starts at zero stays there.  A parameter left out of ``params`` is
    constant.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001,
                 freeze_rows: dict[str, list[int]] | None = None):
        if lr < 0:
            raise ConfigError(f"learning rate must be >= 0, got {lr}")
        self.params = params
        self.lr = lr
        self.freeze_rows = freeze_rows or {}
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.t = 0

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for n, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if n in self.freeze_rows:
                g = g.copy()
                g[self.freeze_rows[n]] = 0.0
            m, v = self.m[n], self.v[n]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            if self.lr != 0.0:
                p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
