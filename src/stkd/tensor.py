"""Reverse-mode autodiff over dense numpy arrays.

Every model in this package builds its forward pass from the primitives here;
`Tensor.backward()` then fills `.grad` on any tensor created with
`requires_grad=True`. Gradient scatter/accumulation is index-ordered, so runs
are reproducible under a fixed seed.

What the tape keeps: each taped op's output, its parents and the arrays its
backward closure reads (inputs, index arrays, saved activations), until the
root is dropped.  A gradient buffer is allocated by the first gradient that
reaches a tensor, and an intermediate's is freed as soon as its backward has
passed it on, so after `backward()` only the leaves (parameters and other
tensors built with `requires_grad=True`) hold `.grad`.  `segment_sum` over
gathered rows keeps the per-row sums it adds up off the tape altogether.

An op records itself on the tape only if an input requires a gradient, and
only while the tape is on. Inside a `no_tape()` block the same primitives
compute the same values but link nothing, so each intermediate is freed as
soon as the next op has read it; evaluation, soft labels and serving run
there, and so does anything built from parameters that do not require
gradients (a loaded checkpoint). `backward()` refuses a root that was built
that way, since no gradient could reach a parameter from it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import config
from .errors import InvalidArgumentError

# Floor for a softmax normalizer (a row with no valid entry sums to 0) and
# for probabilities whose log must stay finite.
CLAMP = 1e-12
# Added to the variance in ``layer_norm``.
LN_EPS = 1e-6


class Tensor:
    """Dense real array plus optional gradient buffer and tape linkage."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=config.dtype())
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self) -> None:
        """Backpropagate from a scalar output through the recorded tape."""
        if self.data.size != 1:
            raise InvalidArgumentError("backward() requires a scalar tensor")
        if not self.requires_grad:
            raise InvalidArgumentError(
                "backward() from a tensor that does not require grad: it was "
                "built inside no_tape() or from constants only")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        # buffers are allocated by the first gradient that reaches them, and
        # an intermediate's is freed once it has been passed on
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_taping = True


@contextmanager
def no_tape():
    """Run ops without recording the tape; the previous state comes back on
    exit, also after an exception and when blocks nest."""
    global _taping
    previous, _taping = _taping, False
    try:
        yield
    finally:
        _taping = previous


def _link(out: Tensor, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    if _taping and any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:       # a constant: nothing reads its gradient
        return
    if t.grad is None:
        # the first gradient is copied, not aliased: ``add`` hands one array
        # to both parents, and each buffer is accumulated into in place
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / arithmetic primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _link(out, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _link(out, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _link(out, (a, b), backward, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data / b.data)

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _link(out, (a, b), backward, "div")


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0))

    def backward(g):
        _accum(a, g * (a.data > 0))

    return _link(out, (a,), backward, "relu")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = Tensor(s)

    def backward(g):
        _accum(a, g * s * (1.0 - s))

    return _link(out, (a,), backward, "sigmoid")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    t = np.tanh(a.data)
    out = Tensor(t)

    def backward(g):
        _accum(a, g * (1.0 - t * t))

    return _link(out, (a,), backward, "tanh")


# ---------------------------------------------------------------------------
# linear algebra / shape
# ---------------------------------------------------------------------------

def _weight_grad(a: np.ndarray, g: np.ndarray, shape) -> np.ndarray:
    """The gradient of ``b`` (of ``shape``) in ``a @ b``: a^T g, summed over
    the batch axes ``b`` is broadcast along.

    When ``a`` is in turn broadcast along every batch axis ``b`` keeps (a
    2-D weight applied to a batch, or (b, 1, n, d) @ (heads, d, d_head)),
    this is one GEMM: the summed axes join the contraction and the kept ones
    the output columns, so no stack of per-matrix products is built.
    """
    lead = g.ndim - 2
    a_shape = (1,) * (g.ndim - a.ndim) + a.shape
    b_shape = (1,) * (g.ndim - len(shape)) + tuple(shape)
    kept = [i for i in range(lead) if b_shape[i] != 1]
    summed = [i for i in range(lead) if b_shape[i] == 1]
    if not summed or any(a_shape[i] != 1 for i in kept):
        return _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), shape)
    k = a.shape[-1]
    a2 = a.reshape(-1, k)             # (summed..., n) rows of a
    g2 = g.transpose(summed + [lead] + kept + [lead + 1]).reshape(
        a2.shape[0], -1)              # the same rows; (kept..., m) columns
    out = (a2.T @ g2).reshape((k,) + tuple(g.shape[i] for i in kept)
                              + (g.shape[-1],))
    return np.moveaxis(out, 0, -2).reshape(shape)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(np.matmul(a.data, b.data))

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        _accum(a, _unbroadcast(ga, a.data.shape))
        _accum(b, _weight_grad(a.data, g, b.data.shape))

    return _link(out, (a, b), backward, "matmul")


def tsum(a, axis=None) -> Tensor:
    """Sum over ``axis``, or over everything when it is None."""
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis))

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _link(out, (a,), backward, "sum")


def tmean(a) -> Tensor:
    """Mean over every entry."""
    a = as_tensor(a)
    return div(tsum(a), float(a.data.size))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape))

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _link(out, (a,), backward, "reshape")


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.swapaxes(a.data, ax1, ax2))

    def backward(g):
        _accum(a, np.swapaxes(g, ax1, ax2))

    return _link(out, (a,), backward, "swapaxes")


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis if axis >= 0 else g.ndim + axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _link(out, tuple(tensors), backward, "concat")


def rows(a, start: int, stop: int) -> Tensor:
    """Contiguous row slice a[start:stop] with scatter-back gradient."""
    a = as_tensor(a)
    out = Tensor(a.data[start:stop])

    def backward(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        _accum(a, full)

    return _link(out, (a,), backward, "rows")


# ---------------------------------------------------------------------------
# indexed gathers (embedding lookups and friends)
# ---------------------------------------------------------------------------

def _scatter_add(idx: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """out[idx[j]] += values[j] on an (n, *tail) array of zeros, where
    ``values`` is ``idx.shape + tail``.

    One flat ``np.bincount`` over the (row, column) cells: it adds in float64
    and in ascending position order, so the result is bitwise that of
    ``np.add.at`` on zeros, without its per-element dispatch.
    """
    idx = np.asarray(idx, dtype=np.intp)
    tail = values.shape[idx.ndim:]
    d = int(np.prod(tail, dtype=np.intp))
    if idx.size == 0 or d == 0:
        return np.zeros((n,) + tail, dtype=values.dtype)
    cells = (idx.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
    out = np.bincount(cells, weights=values.reshape(-1), minlength=n * d)
    return out.astype(values.dtype, copy=False).reshape((n,) + tail)


def _checked_rows(table, ids) -> tuple[Tensor, np.ndarray]:
    """``table`` as a tensor and ``ids`` as an array of its row indices;
    raises IndexError for an id outside the table."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"row index out of range [0, {table.data.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}")
    return table, ids


def take_rows(table, ids) -> Tensor:
    """Embedding lookup: table[ids].

    ids may be any integer ndarray; gradient is scatter-added per index in
    ascending flat position order (deterministic).
    """
    table, ids = _checked_rows(table, ids)
    out = Tensor(table.data[ids])

    def backward(g):
        _accum(table, _scatter_add(ids, g, table.data.shape[0]))

    return _link(out, (table,), backward, "take_rows")


def take_at(a, idx) -> Tensor:
    """Per-row element pick: out[i] = a[i, idx[i]] for 2-D a."""
    a = as_tensor(a)
    idx = np.asarray(idx)
    rows_ = np.arange(a.data.shape[0])
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[1]):
        raise IndexError(f"column index out of range [0, {a.data.shape[1]})")
    out = Tensor(a.data[rows_, idx])

    def backward(g):
        flat = rows_ * a.data.shape[1] + idx
        _accum(a, _scatter_add(flat, g, a.data.size).reshape(a.data.shape))

    return _link(out, (a,), backward, "take_at")


def take_positions(a, pos) -> Tensor:
    """Per-batch row pick: out[b] = a[b, pos[b], :] for 3-D a."""
    a = as_tensor(a)
    pos = np.asarray(pos)
    batch = np.arange(a.data.shape[0])
    out = Tensor(a.data[batch, pos])

    def backward(g):
        n = a.data.shape[1]
        ga = _scatter_add(batch * n + pos, g, a.data.shape[0] * n)
        _accum(a, ga.reshape(a.data.shape))

    return _link(out, (a,), backward, "take_positions")


def segment_sum(x, segments, num_segments: int) -> Tensor:
    """Sum rows of x into num_segments buckets keyed by `segments`.

    ``x`` is a tensor, or a non-empty list of ``(table, ids)`` tuples that
    stands for ``take_rows(t0, i0) + take_rows(t1, i1) + ...``: each row is
    then gathered and added left to right in one buffer that the tape never
    holds, so only the output and the index arrays stay on it.  The values
    and gradients are bitwise those of the gather-and-add chain.
    """
    segments = np.asarray(segments)
    if not (isinstance(x, list) and x
            and all(isinstance(pair, tuple) for pair in x)):
        x = as_tensor(x)
        out = Tensor(_scatter_add(segments, x.data, num_segments))

        def backward(g):
            _accum(x, g[segments])

        return _link(out, (x,), backward, "segment_sum")

    pairs = [_checked_rows(table, ids) for table, ids in x]
    (first, first_ids), rest = pairs[0], pairs[1:]
    buf = first.data[first_ids]         # a gather is a fresh array
    for table, ids in rest:
        buf += table.data[ids]
    out = Tensor(_scatter_add(segments, buf, num_segments))

    def backward(g):
        g = g[segments]
        for table, ids in pairs:
            _accum(table, _scatter_add(ids, g, table.data.shape[0]))

    return _link(out, tuple(table for table, _ in pairs), backward,
                 "segment_sum")


# ---------------------------------------------------------------------------
# softmax family and losses
# ---------------------------------------------------------------------------

def masked_softmax(scores, valid=None) -> Tensor:
    """Numerically stable softmax over the last axis, with an optional
    boolean mask that broadcasts to ``scores``.

    Masked entries get probability exactly 0; rows with no valid entry come
    out all-zero.
    """
    scores = as_tensor(scores)
    if scores.data.shape[-1] == 0:
        raise InvalidArgumentError("softmax over an empty axis")
    if valid is None:
        vmask = np.ones(scores.data.shape, dtype=bool)
    else:
        vmask = np.broadcast_to(np.asarray(valid, dtype=bool), scores.data.shape)
    # one fresh array, updated in place (as in ``log_softmax``)
    y = np.where(vmask, scores.data, -np.inf)
    m = y.max(axis=-1, keepdims=True)
    y -= np.where(np.isfinite(m), m, 0.0)
    np.exp(y, out=y)
    np.copyto(y, 0.0, where=~vmask)
    y /= np.maximum(y.sum(axis=-1, keepdims=True), CLAMP)
    out = Tensor(y)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accum(scores, y * (g - inner))

    return _link(out, (scores,), backward, "softmax")


def log_softmax(scores, valid, temperature: float = 1.0) -> Tensor:
    """log(softmax(scores / temperature)) over the last axis, in log space.

    The valid entries are shifted by their maximum and normalized by one log
    of the summed exponentials, so the result stays exact where the
    probabilities themselves underflow.  ``valid`` is a boolean mask that
    broadcasts to ``scores``; masked entries come out 0 and get no gradient,
    and every row needs at least one valid entry.
    """
    if temperature <= 0:
        raise InvalidArgumentError(f"temperature must be positive, got {temperature}")
    scores = as_tensor(scores)
    vmask = np.broadcast_to(np.asarray(valid, dtype=bool), scores.data.shape)
    if not vmask.any(axis=-1).all():      # an empty axis included
        raise InvalidArgumentError("log_softmax over a row with no valid entry")
    # one fresh array, updated in place: full-width temporaries cost more
    # than the arithmetic at vocabulary width
    y = np.where(vmask, scores.data, -np.inf)
    y /= temperature
    y -= y.max(axis=-1, keepdims=True)
    e = np.exp(y)
    total = e.sum(axis=-1, keepdims=True)
    y -= np.log(total)
    np.copyto(y, 0.0, where=~vmask)
    out = Tensor(y)

    def backward(g):
        g = np.where(vmask, g, 0.0)
        g -= e * (g.sum(axis=-1, keepdims=True) / total)
        g /= temperature
        _accum(scores, g)

    return _link(out, (scores,), backward, "log_softmax")


def batch_cross_entropy(log_probs, targets) -> Tensor:
    """Mean of -log_probs[i, targets[i]] over a batch."""
    return -tmean(take_at(log_probs, np.asarray(targets)))


# ---------------------------------------------------------------------------
# normalization / regularization
# ---------------------------------------------------------------------------

def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    c = x.data - x.data.mean(axis=-1, keepdims=True)
    # np.var's own arithmetic, on the centred array this needs anyway
    var = (c * c).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = c * inv
    y = xhat * gain.data
    y += bias.data
    out = Tensor(y)

    def backward(g):
        reduce_axes = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=reduce_axes))
        _accum(bias, g.sum(axis=reduce_axes))
        gy = g * gain.data
        gx = inv * (gy - gy.mean(axis=-1, keepdims=True)
                    - xhat * (gy * xhat).mean(axis=-1, keepdims=True))
        _accum(x, gx)

    return _link(out, (x, gain, bias), backward, "layer_norm")


def dropout(x, rate: float, rng: np.random.Generator,
            shape: tuple[int, ...] | None = None, index=()) -> Tensor:
    """Inverted dropout; call only in training mode.

    The mask is drawn for an array of ``shape`` (default: x's own) and x is
    that array's part ``index``: ``(slice(None), slice(lo, hi))`` for a span
    of sequence positions, ``(arange(b), rows)`` for one position per
    sequence.  So the random stream, and the masks of the positions x holds,
    are the ones dropout on the whole array would use.
    """
    x = as_tensor(x)
    if rate <= 0.0:
        return x
    draw = rng.random(x.data.shape if shape is None else shape)[index]
    keep = (draw >= rate).astype(x.data.dtype) / (1.0 - rate)
    out = Tensor(x.data * keep)

    def backward(g):
        _accum(x, g * keep)

    return _link(out, (x,), backward, "dropout")
