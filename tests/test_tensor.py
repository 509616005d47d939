"""Numerics core: forward-value oracles and per-primitive gradient checks."""

import ast
from pathlib import Path

import numpy as np
import pytest

from stkd import tensor as T
from stkd.errors import InvalidArgumentError

from gradcheck import finite_diff_check

RNG = np.random.default_rng(7)
TOL = 1e-4


def check(f, params, tol=TOL):
    report = finite_diff_check(f, params, rel_tol=tol)
    assert report.passed, str(report)


def sumsq(y):
    """sum(y * y): a smooth scalar loss that checks y's own gradient."""
    return T.tsum(y * y)


def p(shape, scale=1.0, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    return T.Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


# ---------------------------------------------------------------------------
# forward oracles (frozen independent values)
# ---------------------------------------------------------------------------

def test_softmax_matches_reference_values():
    # Reference computed with scipy.special.softmax on [1,2,3]/3.
    out = T.masked_softmax(T.Tensor(np.array([1.0, 2.0, 3.0]) / 3.0))
    expected = [0.23023721634819047, 0.32132191985276876, 0.44844086379904069]
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)
    assert abs(out.data.sum() - 1.0) < 1e-12
    # the same reference through log_softmax's temperature
    log_out = T.log_softmax(T.Tensor([1.0, 2.0, 3.0]), True, temperature=3.0)
    np.testing.assert_allclose(log_out.data, np.log(expected), rtol=1e-12)


def test_softmax_shift_invariance():
    v = RNG.standard_normal(9)
    a = T.masked_softmax(T.Tensor(v)).data
    b = T.masked_softmax(T.Tensor(v + 123.456)).data
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_softmax_extreme_scores_stay_finite():
    out = T.masked_softmax(T.Tensor([1e4, -1e4, 0.0])).data
    assert np.all(np.isfinite(out))
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        T.masked_softmax(T.Tensor(np.zeros((2, 0))))
    with pytest.raises(InvalidArgumentError):
        T.masked_softmax(T.Tensor(np.zeros(0)))


def test_masked_softmax_zeroes_masked_entries():
    x = T.Tensor([[1.0, 5.0, 2.0], [3.0, 1.0, 4.0]])
    valid = np.array([[True, False, True], [True, True, True]])
    y = T.masked_softmax(x, valid).data
    assert y[0, 1] == 0.0
    np.testing.assert_allclose(y.sum(axis=-1), [1.0, 1.0], atol=1e-12)
    # masked-out entry never influences the valid ones
    x2 = T.Tensor([[1.0, -999.0, 2.0], [3.0, 1.0, 4.0]])
    y2 = T.masked_softmax(x2, valid).data
    np.testing.assert_allclose(y, y2, atol=1e-15)


def test_masked_softmax_all_masked_row_is_zero():
    x = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    valid = np.array([[False, False], [True, True]])
    y = T.masked_softmax(x, valid).data
    assert np.all(y[0] == 0.0)
    assert abs(y[1].sum() - 1.0) < 1e-12


def test_log_softmax_equals_log_of_masked_softmax():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 9)) * 4.0
    valid = rng.random((6, 9)) < 0.7
    valid[:, 0] = True
    for tau in (1.0, 2.5):
        got = T.log_softmax(T.Tensor(x), valid, temperature=tau).data
        want = np.log(T.masked_softmax(T.Tensor(x / tau), valid).data[valid])
        np.testing.assert_allclose(got[valid], want, rtol=0, atol=1e-12)


def test_log_softmax_masked_entries_are_exact_zeros():
    x = T.Tensor([[1.0, 5.0, 2.0], [3.0, -1e4, 4.0]], requires_grad=True)
    valid = np.array([[True, False, True], [True, True, True]])
    y = T.log_softmax(x, valid)
    assert y.data[0, 1] == 0.0
    # masked entries neither feed the valid ones nor receive gradient
    x2 = T.Tensor([[1.0, -999.0, 2.0], [3.0, -1e4, 4.0]])
    np.testing.assert_array_equal(y.data, T.log_softmax(x2, valid).data)
    T.tsum(y).backward()
    assert x.grad[0, 1] == 0.0
    assert np.all(np.isfinite(x.grad))


def test_log_softmax_extreme_scores_stay_finite():
    x = T.Tensor([1e4, -1e4, 0.0], requires_grad=True)
    y = T.log_softmax(x, True)
    assert np.all(np.isfinite(y.data))
    np.testing.assert_allclose(y.data, [0.0, -2e4, -1e4], rtol=1e-15)
    T.tsum(y * y).backward()
    assert np.all(np.isfinite(x.grad))


def test_log_softmax_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        T.log_softmax(T.Tensor(np.zeros((2, 0))), True)
    with pytest.raises(InvalidArgumentError):
        T.log_softmax(T.Tensor([[1.0, 2.0], [3.0, 4.0]]),
                      np.array([[True, True], [False, False]]))
    with pytest.raises(InvalidArgumentError):
        T.log_softmax(T.Tensor([1.0, 2.0]), True, temperature=0.0)
    with pytest.raises(InvalidArgumentError):
        T.log_softmax(T.Tensor([1.0, 2.0]), True, temperature=-1.0)


def test_cross_entropy_matches_reference():
    # -log(0.7) computed independently.
    out = T.batch_cross_entropy(T.Tensor(np.log([[0.1, 0.7, 0.2]])), [1])
    assert abs(out.item() - 0.35667494393873245) < 1e-12


def test_cross_entropy_is_exact_far_below_the_old_floor():
    # p(target) = 1 / (1 + e^40) ~ 4e-18, below the 1e-12 floor the loss
    # used to clamp at (which gave 27.63 and no gradient)
    x = T.Tensor([[0.0, 40.0]], requires_grad=True)
    out = T.batch_cross_entropy(T.log_softmax(x, True), [0])
    assert abs(out.item() - 40.0) < 1e-12
    out.backward()
    np.testing.assert_allclose(x.grad, [[-1.0, 1.0]], atol=1e-12)
    with pytest.raises(IndexError):
        T.batch_cross_entropy(T.Tensor(np.log([[0.5, 0.5]])), [2])


def test_layer_norm_forward_matches_reference():
    x = T.Tensor([[1.0, 2.0, 3.0, 4.0]])
    y = T.layer_norm(x, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))
    expected = [-1.34164025, -0.44721342, 0.44721342, 1.34164025]
    np.testing.assert_allclose(y.data[0], expected, atol=1e-7)
    assert abs(y.data.mean()) < 1e-9


# ---------------------------------------------------------------------------
# gradient checks, one per primitive
# ---------------------------------------------------------------------------

def test_grad_add_mul_broadcast():
    a, b = p((3, 4), seed=0), p((1, 4), seed=1)
    check(lambda q: T.tsum(q["a"] * 2.0 + q["b"] * q["a"]), {"a": a, "b": b})


def test_grad_sub_div():
    a, b = p((2, 3), seed=2), p((2, 3), seed=3)
    b.data = np.abs(b.data) + 0.5
    check(lambda q: T.tsum(T.div(T.sub(q["a"], 1.5), q["b"])), {"a": a, "b": b})


def test_grad_matmul_2d():
    a, b = p((4, 3), seed=5), p((3, 2), seed=6)
    check(lambda q: T.tsum(q["a"] @ q["b"]), {"a": a, "b": b})


def test_grad_matmul_batched():
    a, b = p((2, 3, 4), seed=7), p((2, 4, 2), seed=8)
    check(lambda q: T.tsum(q["a"] @ q["b"]), {"a": a, "b": b})


def test_grad_matmul_broadcast_weight():
    a, b = p((2, 3, 4), seed=9), p((4, 5), seed=10)
    check(lambda q: sumsq(q["a"] @ q["b"]), {"a": a, "b": b})


@pytest.mark.parametrize("a_shape, b_shape", [
    ((5, 6, 8), (8, 4)),            # a 2-D weight applied to a batch
    ((5, 1, 6, 8), (2, 8, 4)),      # per-head weights on a shared input
    ((4, 6, 8), (1, 8, 4)),
    ((3, 2, 6, 8), (2, 8, 4)),      # both batched: per-matrix products
    ((1, 6, 8), (3, 8, 4)),
    ((6, 8), (3, 8, 4)),
])
def test_matmul_weight_grad_is_the_sum_of_per_matrix_products(a_shape,
                                                              b_shape):
    rng = np.random.default_rng(len(a_shape) * 10 + len(b_shape))
    a = T.Tensor(rng.standard_normal(a_shape), requires_grad=True)
    b = T.Tensor(rng.standard_normal(b_shape), requires_grad=True)
    out = a @ b
    g = rng.standard_normal(out.data.shape)
    T.tsum(out * g).backward()
    stacked = np.matmul(np.swapaxes(a.data, -1, -2), g)
    want = stacked.sum(axis=tuple(range(stacked.ndim - len(b_shape))))
    want = want.sum(axis=tuple(i for i, s in enumerate(b_shape[:-2])
                               if s == 1), keepdims=True)
    assert b.grad.shape == b_shape
    np.testing.assert_allclose(b.grad, want, rtol=0,
                               atol=1e-13 * np.abs(want).max())


def test_grad_relu():
    a = p((4, 4), seed=11)
    check(lambda q: T.tsum(T.relu(q["a"])), {"a": a})


def test_grad_sigmoid_tanh_exp():
    a = p((3, 3), seed=12)
    check(lambda q: T.tsum(T.sigmoid(q["a"]) + T.tanh(q["a"])), {"a": a})


def test_grad_log_softmax_masked_and_temperature():
    a = p((3, 5), seed=13)
    valid = np.array([[1, 1, 0, 1, 1], [1, 1, 1, 1, 1], [0, 1, 1, 0, 1]], bool)
    w = T.Tensor(np.random.default_rng(24).standard_normal((3, 5)))
    for tau in (1.0, 2.5):
        check(lambda q, tau=tau: T.tsum(
            w * T.log_softmax(q["a"], valid, temperature=tau)), {"a": a})


def test_grad_sum_mean_axes():
    a = p((3, 4), seed=14)
    check(lambda q: sumsq(T.tsum(q["a"], axis=0)), {"a": a})
    check(lambda q: sumsq(T.tsum(q["a"], axis=1)), {"a": a})
    check(lambda q: sumsq(T.tmean(q["a"]) * q["a"]), {"a": a})


def test_grad_reshape_swapaxes_concat():
    a, b = p((2, 6), seed=15), p((2, 2), seed=16)
    def f(q):
        r = T.reshape(q["a"], (2, 3, 2))
        s = T.swapaxes(r, 1, 2)
        c = T.concat([T.reshape(s, (2, 6)), q["b"]], axis=1)
        return sumsq(c)
    check(f, {"a": a, "b": b})


def test_grad_rows_slice():
    a = p((5, 3), seed=17)
    check(lambda q: sumsq(T.rows(q["a"], 1, 4)), {"a": a})


def test_grad_take_rows_with_repeats():
    table = p((6, 3), seed=18)
    ids = np.array([[0, 2, 2], [5, 0, 1]])
    check(lambda q: sumsq(T.take_rows(q["t"], ids)), {"t": table})


def test_take_rows_range_check():
    table = T.Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        T.take_rows(table, np.array([3]))
    with pytest.raises(IndexError):
        T.take_rows(table, np.array([-1]))


def test_grad_take_at_take_positions():
    a = p((4, 5), seed=20)
    idx = np.array([0, 4, 2, 2])
    check(lambda q: sumsq(T.take_at(q["a"], idx)), {"a": a})
    b = p((3, 4, 2), seed=21)
    pos = np.array([3, 0, 2])
    check(lambda q: sumsq(T.take_positions(q["b"], pos)), {"b": b})


def test_grad_segment_sum():
    x = p((7, 3), seed=22)
    seg = np.array([0, 1, 1, 2, 0, 2, 2])
    out = T.segment_sum(x, seg, 4)
    # segment 3 receives nothing
    assert np.all(out.data[3] == 0.0)
    np.testing.assert_allclose(out.data[0], x.data[0] + x.data[4], atol=1e-12)
    check(lambda q: sumsq(T.segment_sum(q["x"], seg, 4)), {"x": x})


def _pairs_and_chain(a_shape, b_shape, ids_a, ids_b, seg, n, seed):
    """segment_sum of the gathered-rows pairs and of the gather-and-add chain
    over one pair of tables each, with a weighted loss through each;
    returns ((value, grad a, grad b) fused, the same chained)."""
    rng = np.random.default_rng(seed)
    a_data = rng.standard_normal(a_shape) * 10.0 ** rng.integers(-6, 6, a_shape)
    b_data = rng.standard_normal(b_shape)
    w = T.Tensor(rng.standard_normal((n,) + a_shape[1:]))
    results = []
    for fused in (True, False):
        a = T.Tensor(a_data.copy(), requires_grad=True)
        b = T.Tensor(b_data.copy(), requires_grad=True)
        if fused:
            out = T.segment_sum([(a, ids_a), (b, ids_b)], seg, n)
        else:
            out = T.segment_sum(T.take_rows(a, ids_a) + T.take_rows(b, ids_b),
                                seg, n)
        T.tsum(out * w * out).backward()
        results.append((out.data, a.grad, b.grad))
    return results


@pytest.mark.parametrize("ids_a, ids_b, seg, n", [
    # repeated ids in both tables; segment 3 receives nothing
    ([0, 2, 2, 4, 0, 1, 2], [1, 1, 0, 2, 2, 1, 0], [0, 1, 1, 2, 0, 2, 2], 4),
    # one id for every row, all into one segment, and empty trailing segments
    ([3] * 6, [0] * 6, [1] * 6, 5),
    # zero rows: every segment empty and no gradient reaches either table
    ([], [], [], 3),
])
def test_segment_sum_of_gathered_pairs_is_bitwise_the_chain(ids_a, ids_b,
                                                            seg, n):
    ids_a, ids_b, seg = (np.array(v, dtype=np.int64)
                         for v in (ids_a, ids_b, seg))
    fused, chained = _pairs_and_chain((5, 3), (3, 3), ids_a, ids_b, seg, n,
                                      seed=n + ids_a.size)
    for name, got, want in zip(("value", "grad a", "grad b"), fused, chained):
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert not fused[0][np.setdiff1d(np.arange(n), seg)].any()


def test_grad_segment_sum_of_gathered_pairs():
    a, b = p((5, 3), seed=60), p((3, 3), seed=61)
    ids_a = np.array([0, 2, 2, 4, 0, 1])
    ids_b = np.array([1, 1, 0, 2, 2, 1])
    seg = np.array([0, 1, 1, 2, 0, 2])
    check(lambda q: sumsq(T.segment_sum([(q["a"], ids_a), (q["b"], ids_b)],
                                        seg, 4)), {"a": a, "b": b})
    with pytest.raises(IndexError):
        T.segment_sum([(a, ids_a), (b, ids_b + 1)], seg, 4)


@pytest.mark.parametrize("ids_shape, tail, n", [
    ((500,), (7,), 40),          # 1-D ids, many repeats
    ((500,), (), 40),            # scalar values per id
    ((12, 9), (5,), 6),          # 2-D ids (a batch of sequences)
    ((4, 6, 3), (2, 3), 11),     # 3-D ids, 2-D rows
    ((0,), (5,), 8),             # empty index
    ((3, 0), (4,), 2),           # empty along a later axis
    ((10,), (0,), 3),            # zero-width rows
])
def test_scatter_add_is_bitwise_np_add_at(ids_shape, tail, n):
    rng = np.random.default_rng(sum(ids_shape) + n)
    ids = rng.integers(0, n, size=ids_shape)
    values = rng.standard_normal(ids_shape + tail) * 10.0 ** rng.integers(
        -8, 8, size=ids_shape + tail)
    want = np.zeros((n,) + tail)
    np.add.at(want, ids, values)
    got = T._scatter_add(ids, values, n)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_grad_softmax_masked_and_temperature():
    a = p((3, 5), seed=23)
    valid = np.array([[1, 1, 0, 1, 1], [1, 1, 1, 1, 1], [0, 1, 1, 0, 1]], bool)
    w = T.Tensor(np.random.default_rng(24).standard_normal((3, 5)))
    for tau in (1.0, 3.0):
        check(lambda q, tau=tau: T.tsum(
            w * T.masked_softmax(q["a"] / tau, valid)), {"a": a})


def test_grad_layer_norm():
    x, g, b = p((2, 3, 4), seed=25), p((4,), seed=26), p((4,), seed=27)
    w = T.Tensor(np.random.default_rng(28).standard_normal((2, 3, 4)))
    check(lambda q: T.tsum(w * T.layer_norm(q["x"], q["g"], q["b"])),
          {"x": x, "g": g, "b": b})


def test_grad_batch_losses():
    a = p((4, 6), seed=31)
    targets = np.array([0, 5, 2, 2])
    check(lambda q: T.batch_cross_entropy(T.log_softmax(q["a"], True),
                                          targets), {"a": a})


def test_grad_accumulates_across_reuse():
    # A tensor consumed twice must receive the sum of both contributions.
    a = p((3,), seed=33)
    out = T.tsum(a * a) + T.tsum(a * 3.0)
    out.backward()
    np.testing.assert_allclose(a.grad, 2.0 * a.data + 3.0, atol=1e-12)


def _eager_backward(out):
    """The sweep ``Tensor.backward`` used to run: the same tape order, but
    every tape node gets a zero buffer before any gradient flows."""
    topo, seen, stack = [], set(), [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((q, False) for q in node._parents if id(q) not in seen)
    for node in topo:
        node.grad = np.zeros_like(node.data)
    out.grad = np.ones_like(out.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def test_backward_allocates_gradients_only_where_they_flow():
    table, w = p((5, 3), seed=40), p((3, 4), seed=41)
    const = T.Tensor(np.random.default_rng(42).standard_normal((4, 4)))
    h = T.take_rows(table, [0, 2, 2, 4])
    side = T.tanh(h @ w)                 # a branch the loss never reads
    mixed = T.concat([T.segment_sum(h, [1, 0, 1, 3], 4), h], axis=1)
    loss = (T.tsum(T.relu(h @ w) * const)
            + T.tsum(T.log_softmax(mixed @ T.concat([w, w], axis=0), True)))
    loss.backward()
    assert const.grad is None and side.grad is None
    lazy = {"table": table.grad.copy(), "w": w.grad.copy()}
    _eager_backward(loss)
    for name, t in (("table", table), ("w", w)):
        assert np.array_equal(lazy[name], t.grad), name


def _tape_nodes(out):
    """Every tensor reachable from ``out`` through the tape."""
    nodes, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_backward_frees_every_intermediate_gradient():
    params = [p((5, 4), seed=55), p((4, 6), seed=56), p((6,), seed=57),
              p((6,), seed=58)]
    loss = _every_op(*params)[-1]
    loss.backward()
    nodes = _tape_nodes(loss)
    taped = [t for t in nodes if t._backward is not None]
    assert len(taped) > 10
    assert all(t.grad is None for t in taped)
    lazy = [t.grad.copy() for t in params]
    _eager_backward(loss)
    for i, (got, t) in enumerate(zip(lazy, params)):
        assert got.tobytes() == t.grad.tobytes(), i


def test_dropout_scaling_and_grad_mask():
    x = T.Tensor(np.ones((1000,)), requires_grad=True)
    rng = np.random.default_rng(0)
    y = T.dropout(x, 0.25, rng)
    kept = y.data > 0
    np.testing.assert_allclose(y.data[kept], 1.0 / 0.75, atol=1e-12)
    assert abs(kept.mean() - 0.75) < 0.05
    T.tsum(y).backward()
    np.testing.assert_allclose(x.grad[~kept], 0.0, atol=0)
    # rate 0 short-circuits to the identity
    assert T.dropout(x, 0.0, rng) is x


def test_dropout_on_gathered_rows_keeps_the_full_draw():
    x = np.random.default_rng(2).standard_normal((3, 5, 4))
    # one position per sequence, and a span of positions
    for index in ((np.arange(3), np.array([4, 0, 2])),
                  (slice(None), slice(1, 4))):
        full_rng, part_rng = (np.random.default_rng(9),
                              np.random.default_rng(9))
        want = T.dropout(T.Tensor(x), 0.4, full_rng).data[index]
        got = T.dropout(T.Tensor(x[index]), 0.4, part_rng, x.shape,
                        index).data
        assert got.tobytes() == want.tobytes()
        # the stream continues where dropout on the full array leaves it
        assert full_rng.random() == part_rng.random()


# ---------------------------------------------------------------------------
# the tape switch
# ---------------------------------------------------------------------------

def _every_op(table, w, gain, bias):
    """A small forward through the primitives the models run; returns every
    intermediate, the scalar loss last."""
    h = T.take_rows(table, [3, 0, 3, 1])
    z = T.layer_norm(h @ w, gain, bias)
    att = T.masked_softmax(z @ T.swapaxes(z, 0, 1) * 0.5,
                           np.tril(np.ones((4, 4), dtype=bool)))
    mixed = T.concat([att @ z, T.segment_sum(z, [1, 0, 1, 2], 4)], axis=1)
    logp = T.log_softmax(T.relu(mixed) - T.tanh(mixed), np.arange(12) > 0,
                         temperature=2.0)
    loss = T.batch_cross_entropy(logp, [1, 5, 11, 2])
    return [h, z, att, mixed, logp, loss]


def _tapes() -> bool:
    return bool((p((2,), seed=50) * 2.0)._parents)


def test_no_tape_computes_the_same_values_and_links_nothing():
    params = [p((5, 4), seed=51), p((4, 6), seed=52), p((6,), seed=53),
              p((6,), seed=54)]
    taped = _every_op(*params)
    with T.no_tape():
        free = _every_op(*params)
    for a, b in zip(taped, free):
        assert a.requires_grad and a._parents
        assert b.data.tobytes() == a.data.tobytes()
        assert b._parents == () and b._backward is None
        assert not b.requires_grad
    # no gradient could reach a parameter from such a root
    with pytest.raises(InvalidArgumentError, match="require grad"):
        free[-1].backward()
    with pytest.raises(InvalidArgumentError, match="require grad"):
        T.tsum(T.Tensor(np.ones(3))).backward()
    taped[-1].backward()
    assert all(t.grad is not None for t in params)


def test_no_tape_restores_the_tape_after_a_raise_and_when_nested():
    assert _tapes()
    with pytest.raises(ValueError):
        with T.no_tape():
            raise ValueError("inside the block")
    assert _tapes()
    with T.no_tape():
        with T.no_tape():
            assert not _tapes()
        assert not _tapes()
    assert _tapes()


# ---------------------------------------------------------------------------
# no dead primitives
# ---------------------------------------------------------------------------

def _referenced_tensor_names(pkg: Path) -> set[str]:
    """Names the package uses from stkd.tensor: ``T.<name>`` and
    ``tensor.<name>`` attributes and ``from .tensor import <name>`` anywhere,
    plus every bare name loaded inside tensor.py itself."""
    used = set()
    for path in pkg.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("T", "tensor")):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "tensor":
                used.update(alias.name for alias in node.names)
            elif (path.name == "tensor.py" and isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.id)
    return used


def test_every_public_primitive_is_used_by_the_package():
    # a primitive that only tests call is dead code: delete it or use it
    source = Path(T.__file__)
    public = {node.name for node in ast.parse(source.read_text()).body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")}
    unused = public - _referenced_tensor_names(source.parent)
    assert not unused, f"stkd/tensor.py primitives no package code uses: " \
                       f"{sorted(unused)}"
