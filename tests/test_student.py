"""Sequence student: embeddings, causal attention, prediction, losses."""

import copy

import numpy as np
import pytest

from stkd import tensor as T
from stkd.config import STREAM_INIT_STUDENT, rng_for
from stkd.errors import (ConfigError, InvalidArgumentError, InvalidSampleError)
from stkd.student import (StudentParams, _attention_mask, attention_block,
                          embed_sequence, encode, joint_loss, kd_loss,
                          predict_logits, predict_scores, rec_loss, recommend,
                          score_items, spatial_position_embedding)
from stkd.tensor import Tensor

from gradcheck import finite_diff_check


def micro(n_takeaways=6, n_regions=4, n=4, d=8, heads=2, layers=2, seed=0,
          dropout=0.0):
    return StudentParams(n_takeaways=n_takeaways, n_regions=n_regions, n=n,
                         d=d, heads=heads, layers=layers, dropout=dropout,
                         seed=seed)


def test_dimension_checks():
    with pytest.raises(ConfigError):
        micro(d=8, heads=3)
    with pytest.raises(ConfigError):
        micro(n=0)
    with pytest.raises(ConfigError):
        micro(heads=0)
    p = micro(d=8, heads=2)
    assert p.d_head == 4


def test_spatial_embedding_pad_rows_are_zero():
    p = micro()
    out = spatial_position_embedding(np.zeros((1, 4), dtype=int),
                                     np.zeros((1, 4), dtype=int), p)
    np.testing.assert_allclose(out.data, 0.0, atol=0)


def test_spatial_embedding_identity_map():
    p = micro()
    p.W_SP.data[:] = np.eye(p.d)
    x_c = np.array([[1, 2, 0, 3]])
    x_f = np.array([[2, 1, 0, 4]])
    out = spatial_position_embedding(x_c, x_f, p)
    want = p.region_emb.data[x_c[0]] + p.dist_emb.data[x_f[0]]
    np.testing.assert_allclose(out.data[0], want, atol=1e-15)


def test_spatial_embedding_matches_scripted_oracle():
    p = micro()
    x_c = np.array([[2, 1, 3, 0]])
    x_f = np.array([[1, 4, 2, 0]])
    got = spatial_position_embedding(x_c, x_f, p).data[0]
    want = (p.region_emb.data[x_c[0]] + p.dist_emb.data[x_f[0]]) @ p.W_SP.data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_spatial_embedding_range_check():
    p = micro(n_regions=3)
    with pytest.raises(IndexError):
        spatial_position_embedding(np.array([[9]]), np.array([[0]]), p)


def test_embedding_reduces_to_items_when_others_zeroed():
    p = micro()
    p.region_emb.data[:] = 0.0
    p.dist_emb.data[:] = 0.0
    p.pos_emb.data[:] = 0.0
    x = np.array([[0, 1, 2, 3]])
    out = embed_sequence(x, x, x, p)
    np.testing.assert_allclose(out.data[0], p.item_emb.data[x[0]], atol=1e-15)


def test_embedding_locality_in_distance_feature():
    p = micro()
    x = np.array([[0, 1, 2, 3]])
    x_c = np.array([[0, 1, 1, 2]])
    a = embed_sequence(x, x_c, np.array([[0, 1, 2, 3]]), p).data
    b = embed_sequence(x, x_c, np.array([[0, 1, 5, 3]]), p).data
    diff = np.abs(a - b).sum(axis=-1)[0]
    assert diff[2] > 0
    np.testing.assert_allclose(diff[[0, 1, 3]], 0.0, atol=0)


def test_causality_future_perturbation_invariance():
    p = micro(n_takeaways=10, n=6)
    x1 = np.array([[0, 3, 5, 2, 7, 1]])
    x2 = np.array([[0, 3, 5, 2, 9, 4]])  # positions 4..5 changed
    fc = np.array([[0, 1, 2, 1, 2, 1]])
    h1 = encode(x1, fc, fc, p).data
    h2 = encode(x2, fc, fc, p).data
    np.testing.assert_allclose(h1[0, :4], h2[0, :4], atol=1e-12)
    assert np.abs(h1[0, 4:] - h2[0, 4:]).max() > 0


def test_single_real_position_sees_only_itself():
    p = micro(n_takeaways=10, n=4)
    a = encode(np.array([[0, 0, 0, 5]]), np.zeros((1, 4), int),
               np.zeros((1, 4), int), p).data[0, 3]
    b = encode(np.array([[0, 0, 0, 5]]), np.zeros((1, 4), int),
               np.zeros((1, 4), int), p).data[0, 3]
    np.testing.assert_allclose(a, b, atol=0)
    # leading pads never contribute: their keys are masked everywhere
    probs1, _ = predict_scores(np.array([[0, 0, 0, 5]]),
                               np.zeros((1, 4), int), np.zeros((1, 4), int), p)
    probs2, _ = predict_scores(np.array([[0, 0, 0, 5]]),
                               np.zeros((1, 4), int), np.zeros((1, 4), int), p)
    np.testing.assert_allclose(probs1.data, probs2.data, atol=0)


def test_prediction_anchored_at_last_real_position():
    # trailing content after the last real item cannot change the prediction
    p = micro(n_takeaways=10, n=4)
    zc = np.zeros((1, 4), int)
    probs_trailing_pad, _ = predict_scores(np.array([[0, 3, 5, 0]]), zc, zc, p)
    h = encode(np.array([[0, 3, 5, 9]]), zc, zc, p)
    anchor_row = T.take_positions(h, np.array([2]))
    probs_ref, _ = score_items(anchor_row, p)
    np.testing.assert_allclose(probs_trailing_pad.data, probs_ref.data,
                               atol=1e-12)


def test_prediction_is_valid_distribution_with_zero_pad_mass():
    p = micro()
    probs, _ = predict_scores(np.array([[0, 1, 2, 3], [4, 5, 6, 1]]),
                              np.zeros((2, 4), int), np.zeros((2, 4), int), p)
    np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs.data[:, 0] == 0.0)
    assert np.all(probs.data >= 0.0)


def test_all_pad_sequence_rejected():
    p = micro()
    with pytest.raises(InvalidSampleError):
        predict_scores(np.zeros((1, 4), int), np.zeros((1, 4), int),
                       np.zeros((1, 4), int), p)


def test_engineered_anchor_argmax():
    p = micro(n_takeaways=6, d=8)
    p.item_emb.data[:] = 0.0
    p.item_emb.data[1:7, :6] = np.eye(6)   # orthogonal item rows
    h_star = Tensor((10.0 * p.item_emb.data[4])[None, :])
    probs, _ = score_items(h_star, p)
    assert int(np.argmax(probs.data[0])) == 4


def test_recommend_returns_sorted_topk():
    p = micro(n_takeaways=10, n=4)
    out = recommend(np.array([0, 0, 2, 7]), np.zeros(4, int), np.zeros(4, int),
                    p, k=5)
    assert len(out) == 5
    probs = [prob for _, prob in out]
    assert probs == sorted(probs, reverse=True)
    assert all(i != 0 for i, _ in out)


def test_dropout_only_active_in_training_mode():
    p = micro(dropout=0.5)
    x = np.array([[0, 1, 2, 3]])
    zc = np.zeros((1, 4), int)
    a = encode(x, zc, zc, p).data
    b = encode(x, zc, zc, p).data
    np.testing.assert_allclose(a, b, atol=0)
    t1 = encode(x, zc, zc, p, train=True, seed=1, step=0).data
    t2 = encode(x, zc, zc, p, train=True, seed=1, step=1).data
    assert np.abs(t1 - t2).max() > 0
    t1b = encode(x, zc, zc, p, train=True, seed=1, step=0).data
    np.testing.assert_allclose(t1, t1b, atol=0)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_kd_loss_zero_for_identical_logits():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal(7)
    for tau in (1.0, 3.0, 5.0, 7.0, 9.0):
        out = kd_loss(logits.copy(), Tensor(logits.copy()), tau)
        assert abs(float(out.data)) < 1e-12, tau


def test_kd_loss_matches_scripted_oracle():
    # frozen from scipy: softmax(logits[1:]/3) each side, KL * 9
    t = np.array([9.9, 0.8, -0.3, 1.7, 0.2, -1.1])
    s = np.array([-5.0, 0.1, 0.9, -0.4, 1.2, 0.3])
    out = kd_loss(t, Tensor(s), 3.0)
    assert abs(float(out.data) - 0.96751129653487611) < 1e-9


def test_kd_loss_ignores_pad_column():
    t = np.array([9.9, 0.8, -0.3, 1.7, 0.2, -1.1])
    s = np.array([-5.0, 0.1, 0.9, -0.4, 1.2, 0.3])
    t2, s2 = t.copy(), s.copy()
    t2[0], s2[0] = -123.0, 456.0
    a = float(kd_loss(t, Tensor(s), 3.0).data)
    b = float(kd_loss(t2, Tensor(s2), 3.0).data)
    assert abs(a - b) < 1e-12


def test_kd_softening_converges_with_temperature():
    t = np.array([9.9, 0.8, -0.3, 1.7, 0.2, -1.1])
    s = np.array([-5.0, 0.1, 0.9, -0.4, 1.2, 0.3])
    taus = [3.0, 5.0, 7.0, 9.0, 15.0, 30.0]
    scaled = [float(kd_loss(t, Tensor(s), tau).data) for tau in taus]
    raw_kl = [v / tau ** 2 for v, tau in zip(scaled, taus)]
    # the softened KL itself vanishes monotonically ...
    assert all(a > b for a, b in zip(raw_kl, raw_kl[1:]))
    assert raw_kl[-1] < 0.01 * raw_kl[0]
    # ... while the tau^2-scaled loss decreases toward a positive constant
    assert all(a >= b for a, b in zip(scaled, scaled[1:]))
    assert scaled[-1] > 0


def test_kd_loss_nonnegative_and_batched():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((5, 9))
    s = rng.standard_normal((5, 9))
    out = kd_loss(t, Tensor(s), 3.0)
    assert float(out.data) >= -1e-12
    rows = [float(kd_loss(t[i], Tensor(s[i]), 3.0).data) for i in range(5)]
    assert abs(float(out.data) - np.mean(rows)) < 1e-12


def test_kd_loss_validation():
    with pytest.raises(InvalidArgumentError):
        kd_loss(np.zeros(4), Tensor(np.zeros(4)), 0.0)
    with pytest.raises(InvalidArgumentError):
        kd_loss(np.zeros(4), Tensor(np.zeros(5)), 1.0)


def test_rec_loss_one_hot_and_uniform():
    one_hot = np.zeros(8)
    one_hot[3] = 50.0
    assert float(rec_loss(Tensor(one_hot), 3).data) <= 1e-9
    uniform = np.zeros(101)          # the pad column 0 is not a candidate
    out = float(rec_loss(Tensor(uniform), 17).data)
    assert abs(out - np.log(100.0)) < 1e-12
    with pytest.raises(InvalidArgumentError):
        rec_loss(Tensor(uniform), 0)
    with pytest.raises(IndexError):
        rec_loss(Tensor(uniform), 101)


def test_rec_loss_equals_numerics_cross_entropy():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal(9)
    probs = np.exp(logits[1:]) / np.exp(logits[1:]).sum()
    a = float(rec_loss(Tensor(logits), 4).data)
    assert abs(a - -np.log(probs[3])) < 1e-12


def test_rec_loss_is_exact_far_below_the_old_floor():
    # target logit 40 below the best: p(target) ~ 4e-18, under the 1e-12
    # floor that used to pin the loss at 27.63 with an all-zero gradient
    logits = Tensor([[0.0, 0.0, 40.0]], requires_grad=True)
    loss = rec_loss(logits, [1])
    assert abs(float(loss.data) - 40.0) < 1e-12
    loss.backward()
    np.testing.assert_allclose(logits.grad, [[0.0, -1.0, 1.0]], atol=1e-12)


def test_kd_loss_is_exact_far_below_the_old_floor():
    # at t=1 the teacher puts 0.9933 on item 1, where the student's
    # probability is e^-90; the floored loss read 27.41 with a largest
    # gradient entry of 5e-42
    student = Tensor([[0.0, -60.0, 30.0]], requires_grad=True)
    loss = kd_loss(np.array([[0.0, 5.0, 0.0]]), student, 1.0)
    p1 = 1.0 / (1.0 + np.exp(-5.0))
    want = p1 * (np.log(p1) + 90.0) + (1.0 - p1) * np.log(1.0 - p1)
    assert abs(float(loss.data) - want) < 1e-10
    assert abs(float(loss.data) - 89.357) < 1e-3
    loss.backward()
    np.testing.assert_allclose(student.grad, [[0.0, -p1, p1]], atol=1e-12)


def test_joint_loss_arithmetic_and_endpoints():
    kd, rec = Tensor(np.array(1.0)), Tensor(np.array(2.0))
    assert float(joint_loss(kd, rec, 0.2).data) == pytest.approx(1.8, abs=1e-15)
    assert joint_loss(kd, rec, 0.0) is rec
    assert joint_loss(kd, rec, 1.0) is kd
    for alpha in (0.25, 0.5, 0.75):
        got = float(joint_loss(kd, rec, alpha).data)
        assert abs(got - (alpha * 1.0 + (1 - alpha) * 2.0)) < 1e-15
    with pytest.raises(InvalidArgumentError):
        joint_loss(kd, rec, -0.1)
    with pytest.raises(InvalidArgumentError):
        joint_loss(kd, rec, 1.1)


def test_alpha_one_stops_gradient_through_rec_path():
    p = micro()
    x = np.array([[0, 1, 2, 3]])
    zc = np.zeros((1, 4), int)
    teacher_logits = np.random.default_rng(2).standard_normal((1, 7))

    _, logits = predict_scores(x, zc, zc, p)
    kd = kd_loss(teacher_logits, logits, 3.0)
    rec = rec_loss(logits, np.array([5]))
    loss = joint_loss(kd, rec, 1.0)
    for t in p.as_dict().values():
        t.grad = None
    loss.backward()
    grad_kd_only = {k: (v.grad.copy() if v.grad is not None else None)
                    for k, v in p.as_dict().items()}

    probs2, logits2 = predict_scores(x, zc, zc, p)
    kd2 = kd_loss(teacher_logits, logits2, 3.0)
    for t in p.as_dict().values():
        t.grad = None
    kd2.backward()
    for k, v in p.as_dict().items():
        a, b = grad_kd_only[k], v.grad
        if a is None and b is None:
            continue
        np.testing.assert_allclose(a, b, atol=0, err_msg=k)


def test_zeroed_spatial_tables_make_spatial_inputs_irrelevant():
    p = micro(n_takeaways=10, n_regions=6)
    p.region_emb.data[:] = 0.0
    p.dist_emb.data[:] = 0.0
    p.W_SP.data[:] = 0.0
    x = np.array([[0, 3, 1, 7]])
    a, _ = predict_scores(x, np.array([[0, 1, 2, 3]]),
                          np.array([[0, 4, 5, 6]]), p)
    b, _ = predict_scores(x, np.array([[0, 6, 6, 6]]),
                          np.array([[0, 1, 1, 1]]), p)
    np.testing.assert_allclose(a.data, b.data, atol=0)


def test_fusion_strategies_change_scores():
    p = micro(n_takeaways=10)
    x = np.array([[0, 1, 2, 3]])
    zc = np.zeros((1, 4), int)
    r = Tensor(np.random.default_rng(3).standard_normal((1, p.d)))
    base, _ = predict_scores(x, zc, zc, p)
    for strategy in ("add", "cat", "multi"):
        fused, _ = predict_scores(x, zc, zc, p, fused=r, fusion=strategy)
        assert np.abs(fused.data - base.data).max() > 0, strategy
    with pytest.raises(InvalidArgumentError):
        predict_scores(x, zc, zc, p, fused=r, fusion="bogus")


@pytest.mark.parametrize("fusion", ["stkd", "cat"])
def test_predict_logits_are_the_logits_of_predict_scores(fusion):
    # training reads these logits, serving scores through predict_scores;
    # the arithmetic must match (test_anchor_rows_match_the_full_encoder
    # covers the training-mode anchor)
    p = micro(n_takeaways=10, dropout=0.3)
    x = np.array([[0, 1, 2, 3], [4, 5, 6, 1]])
    zc = np.zeros((2, 4), int)
    r = (Tensor(np.random.default_rng(4).standard_normal((2, p.d)))
         if fusion != "stkd" else None)
    _, want = predict_scores(x, zc, zc, p, fused=r, fusion=fusion)
    got = predict_logits(x, zc, zc, p, fused=r, fusion=fusion)
    np.testing.assert_array_equal(got.data, want.data)


def test_student_gradients_match_finite_differences():
    # micro model d=8, n=4, |V|=6, K=2, L=2; joint loss, subsampled coords
    p = micro(n_takeaways=6, n_regions=4, n=4, d=8, heads=2, layers=2, seed=3)
    rng = np.random.default_rng(7)
    for t in p.as_dict().values():
        t.data[:] = rng.standard_normal(t.data.shape) * 0.4
    for name, rows_ in p.pad_frozen_rows().items():
        getattr(p, name).data[rows_] = 0.0
    x = np.array([[0, 2, 5, 1], [3, 1, 4, 6]])
    x_c = np.array([[0, 1, 3, 2], [2, 2, 1, 4]])
    x_f = np.array([[0, 2, 1, 5], [3, 1, 1, 2]])
    targets = np.array([4, 2])
    teacher_logits = rng.standard_normal((2, 7))

    def loss_fn(q):
        _, logits = predict_scores(x, x_c, x_f, p)
        kd = kd_loss(teacher_logits, logits, 3.0)
        rec = rec_loss(logits, targets)
        return joint_loss(kd, rec, 0.2)

    report = finite_diff_check(loss_fn, p.as_dict(), rel_tol=1e-4,
                               max_coords=6, rng=np.random.default_rng(0))
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# every head in one pass
# ---------------------------------------------------------------------------

def per_head_block(h, blk, mask, rows=None):
    """The block with one (d, d_head) weight list entry per head: one
    attention pass per head, heads concatenated before ``Wo``."""
    x_norm = T.layer_norm(h, blk["ln1_g"], blk["ln1_b"])
    head_outs = []
    scale = 1.0 / np.sqrt(blk["Wq"][0].data.shape[-1])
    for Wq, Wk, Wv in zip(blk["Wq"], blk["Wk"], blk["Wv"]):
        q = x_norm @ Wq
        k = x_norm @ Wk
        v = x_norm @ Wv
        scores = (q @ T.swapaxes(k, -1, -2)) * scale
        att = T.masked_softmax(scores, mask)
        head_outs.append(att @ v)
    heads = T.concat(head_outs, axis=-1)
    if rows is not None:
        heads = T.take_positions(heads, rows)
        h = T.take_positions(h, rows)
    a = h + heads @ blk["Wo"]
    a_norm = T.layer_norm(a, blk["ln2_g"], blk["ln2_b"])
    return a + (T.relu(a_norm @ blk["ffn_W1"] + blk["ffn_b1"])
                @ blk["ffn_W2"] + blk["ffn_b2"])


def test_head_arrays_take_the_per_head_draws():
    # a (heads, d, d_head) draw reads the stream as heads (d, d_head) draws,
    # so Wq[h] is the array a per-head list held as its h-th entry
    p = micro(d=8, heads=4, layers=1, seed=3)
    rng = rng_for(3, STREAM_INIT_STUDENT)

    def draw(*shape):
        return np.clip(rng.normal(0.0, 0.02, size=shape), -0.04, 0.04)

    for name in ("item_emb", "region_emb", "dist_emb", "W_SP", "pos_emb"):
        draw(*getattr(p, name).data.shape)
    for key in ("Wq", "Wk", "Wv"):
        for i in range(4):
            np.testing.assert_array_equal(p.blocks[0][key].data[i], draw(8, 2))
    np.testing.assert_array_equal(p.blocks[0]["Wo"].data, draw(8, 8))


@pytest.mark.parametrize("anchor", [False, True])
@pytest.mark.parametrize("b", [1, 5])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_one_pass_block_matches_the_per_head_loop(heads, b, anchor):
    p = micro(n_takeaways=9, n=6, d=8, heads=heads, layers=1, seed=heads)
    rng = np.random.default_rng(10 * heads + b)
    blk = p.blocks[0]
    for t in blk.values():
        t.data[:] = rng.standard_normal(t.data.shape) * 0.4
    assert blk["Wq"].data.shape == (heads, 8, 8 // heads)
    # per-head weights are the slices Wq[h], as separate leaves
    ref = {key: ([Tensor(t.data[i].copy(), requires_grad=True)
                  for i in range(heads)] if key in ("Wq", "Wk", "Wv")
                 else Tensor(t.data.copy(), requires_grad=True))
           for key, t in blk.items()}
    x = np.array([[0, 0, 3, 5, 2, 7], [4, 1, 9, 2, 6, 8], [0, 2, 5, 0, 0, 0],
                  [0, 0, 0, 0, 0, 6], [1, 0, 3, 0, 8, 0]])[:b]
    mask = _attention_mask(x)
    rows = (x.shape[1] - 1 - np.argmax((x != 0)[:, ::-1], axis=1)
            if anchor else None)
    h_data = rng.standard_normal((b, 6, 8))
    h, h_ref = (Tensor(h_data, requires_grad=True) for _ in range(2))
    got = attention_block(h, blk, mask, rows=rows)
    want = per_head_block(h_ref, ref, mask, rows=rows)
    assert got.data.tobytes() == want.data.tobytes()

    weights = rng.standard_normal(got.data.shape)
    T.tsum(got * weights).backward()
    T.tsum(want * weights).backward()
    pairs = [(h.grad, h_ref.grad, "h")]
    for key, t in blk.items():
        g = ref[key]
        pairs.append((t.grad, np.stack([w.grad for w in g])
                      if isinstance(g, list) else g.grad, key))
    for g, g_ref, name in pairs:
        assert g.shape == g_ref.shape, name
        assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max(), name


# ---------------------------------------------------------------------------
# the last block computes only the anchor rows
# ---------------------------------------------------------------------------

def reference_logits(x, x_c, x_f, p, train, seed, step, fused, fusion):
    """Every position through every block, then the anchor rows."""
    h = encode(x, x_c, x_f, p, train=train, seed=seed, step=step)
    real = x != 0
    h_star = T.take_positions(h, x.shape[1] - 1 - np.argmax(real[:, ::-1], 1))
    if fusion == "add":
        h_star = h_star + fused
    elif fusion == "multi":
        h_star = h_star * fused
    elif fusion == "cat":
        h_star = T.concat([h_star, fused], axis=-1) @ p.W_cat
    return h_star @ T.swapaxes(p.item_emb, 0, 1)


def _grads(p, logits, teacher_logits, targets):
    for t in p.as_dict().values():
        t.grad = None
    loss = joint_loss(kd_loss(teacher_logits, logits, 3.0),
                      rec_loss(logits, targets), 0.2)
    loss.backward()
    return {k: v.grad for k, v in p.as_dict().items()}


@pytest.mark.parametrize("fusion", ["stkd", "add", "cat", "multi"])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("b", [1, 5])
def test_anchor_rows_match_the_full_encoder(b, train, layers, fusion):
    p = micro(n_takeaways=9, n_regions=4, n=6, d=8, heads=2, layers=layers,
              seed=layers, dropout=0.3)
    rng = np.random.default_rng(10 * layers + b)
    for t in p.as_dict().values():
        t.data[:] = rng.standard_normal(t.data.shape) * 0.4
    for name, rows_ in p.pad_frozen_rows().items():
        getattr(p, name).data[rows_] = 0.0
    # pad-first rows, a trailing pad (anchor not last), one real item only
    x = np.array([[0, 0, 3, 5, 2, 7], [4, 1, 9, 2, 6, 8], [0, 2, 5, 0, 0, 0],
                  [0, 0, 0, 0, 0, 6], [1, 0, 3, 0, 8, 0]])[:b]
    x_c = rng.integers(1, 5, size=x.shape) * (x != 0)
    x_f = rng.integers(1, 17, size=x.shape) * (x != 0)
    fused = (Tensor(rng.standard_normal((b, p.d)), requires_grad=True)
             if fusion != "stkd" else None)
    teacher_logits = rng.standard_normal((b, 10))
    targets = rng.integers(1, 10, size=b)
    kw = dict(train=train, seed=4, step=7, fused=fused, fusion=fusion)

    want = reference_logits(x, x_c, x_f, p, **kw)
    want_grads = _grads(p, want, teacher_logits, targets)
    got = predict_logits(x, x_c, x_f, p, **kw)
    got_grads = _grads(p, got, teacher_logits, targets)

    if b >= 2:
        np.testing.assert_array_equal(got.data, want.data)
    else:   # one anchor row goes through BLAS's one-row path
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-14)
    assert got_grads.keys() == want_grads.keys()
    for name, g in got_grads.items():
        if want_grads[name] is None:
            assert g is None, name
        else:
            np.testing.assert_allclose(g, want_grads[name], rtol=0,
                                       atol=1e-12, err_msg=name)

    # batches whose span is trimmed: a pad column that leads every row,
    # then pads after every anchor; only the attention normalizer sums over
    # fewer zero terms, so they agree to a stated tolerance, not bitwise
    lead = np.array([[0, 0, 3, 5, 2, 7], [0, 0, 0, 4, 0, 8], [0, 0, 2, 5, 0, 0],
                     [0, 0, 0, 0, 0, 6], [0, 0, 1, 0, 8, 0]])[:max(b, 2)]
    trail = np.array([[0, 3, 5, 0, 0, 0], [2, 0, 4, 1, 0, 0],
                      [0, 0, 6, 0, 0, 0], [1, 2, 0, 0, 0, 0],
                      [0, 0, 0, 7, 0, 0]])[:b]
    for x in (lead, trail):
        x_c = rng.integers(1, 5, size=x.shape) * (x != 0)
        x_f = rng.integers(1, 17, size=x.shape) * (x != 0)
        m = x.shape[0]
        kw["fused"] = (Tensor(rng.standard_normal((m, p.d)))
                       if fusion != "stkd" else None)
        teacher_logits = rng.standard_normal((m, 10))
        targets = rng.integers(1, 10, size=m)
        want = reference_logits(x, x_c, x_f, p, **kw)
        want_grads = _grads(p, want, teacher_logits, targets)
        got = predict_logits(x, x_c, x_f, p, **kw)
        got_grads = _grads(p, got, teacher_logits, targets)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-12,
                                   atol=1e-13)
        assert got_grads.keys() == want_grads.keys()
        for name, g in got_grads.items():
            if want_grads[name] is None:
                assert g is None, name
            else:
                np.testing.assert_allclose(g, want_grads[name], rtol=0,
                                           atol=1e-12, err_msg=name)


def test_trimmed_forward_keeps_the_dropout_stream(monkeypatch):
    # the masks dropout applies at every kept position, and where the
    # generator stands afterwards, are those of the untrimmed forward
    p = micro(n_takeaways=9, n=6, d=8, layers=2, seed=2, dropout=0.3)
    x = np.array([[0, 0, 3, 5, 0, 0], [0, 0, 0, 4, 2, 0]])
    zc = np.zeros(x.shape, int)
    anchors = np.array([3, 4])
    real = T.dropout
    calls = []

    def recording(t, rate, rng, *a):
        # the mask, read by dropping out ones with a copy of the generator
        ones = Tensor(np.ones(t.data.shape))
        calls.append((real(ones, rate, copy.deepcopy(rng), *a).data, rng))
        return real(t, rate, rng, *a)

    monkeypatch.setattr(T, "dropout", recording)
    encode(x, zc, zc, p, train=True, seed=5, step=3)
    full, calls[:] = calls[:], []
    encode(x, zc, zc, p, train=True, seed=5, step=3, rows=anchors)
    trimmed = calls
    assert len(trimmed) == len(full) == 1 + 2 * len(p.blocks)
    span = (slice(None), slice(2, 5))
    for i, ((mask, _), (want, _)) in enumerate(zip(trimmed, full)):
        at = span if i < len(full) - 2 else (np.arange(2), anchors)
        assert mask.tobytes() == want[at].tobytes(), i
    assert trimmed[-1][1].random() == full[-1][1].random()


def test_encode_returns_anchor_rows_only_when_asked():
    p = micro(n_takeaways=10, n=4, dropout=0.5)
    x = np.array([[0, 3, 5, 2], [1, 2, 0, 0]])
    zc = np.zeros((2, 4), int)
    assert encode(x, zc, zc, p).data.shape == (2, 4, p.d)
    got = encode(x, zc, zc, p, rows=np.array([3, 1]))
    assert got.data.shape == (2, p.d)


# ---------------------------------------------------------------------------
# recommend
# ---------------------------------------------------------------------------

def test_recommend_rejects_k_below_one():
    p = micro(n_takeaways=5)
    zc = np.zeros(4, int)
    for k in (0, -1):
        with pytest.raises(InvalidArgumentError):
            recommend(np.array([0, 1, 2, 3]), zc, zc, p, k=k)


def test_recommend_k_beyond_vocabulary_returns_every_item_once():
    p = micro(n_takeaways=5)
    zc = np.zeros(4, int)
    out = recommend(np.array([0, 1, 2, 3]), zc, zc, p, k=10)
    assert sorted(i for i, _ in out) == [1, 2, 3, 4, 5]
    probs = [prob for _, prob in out]
    assert probs == sorted(probs, reverse=True)


def test_recommend_serves_one_sequence():
    p = micro(n_takeaways=6)
    x = np.array([[0, 1, 2, 3], [4, 5, 6, 1]])
    zc = np.zeros((2, 4), int)
    with pytest.raises(InvalidArgumentError):
        recommend(x, zc, zc, p)
    window = recommend(x[1], zc[1], zc[1], p)
    assert recommend(x[1:], zc[1:], zc[1:], p) == window


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8])
def test_recommend_ties_at_the_cut_follow_id_order(k):
    p = micro(n_takeaways=8)
    rng = np.random.default_rng(5)
    p.item_emb.data[1:] = rng.standard_normal((8, p.d))
    p.item_emb.data[[2, 4, 5, 7]] = p.item_emb.data[3]   # items 2-5, 7 tie
    x, zc = np.array([0, 1, 6, 3]), np.zeros(4, int)
    probs, _ = predict_scores(x, zc, zc, p)
    row = probs.data[0]
    assert len(set(row[[2, 3, 4, 5, 7]])) == 1
    want = np.argsort(-row[1:], kind="stable")[:k] + 1
    out = recommend(x, zc, zc, p, k=k)
    assert [i for i, _ in out] == want.tolist()
    assert [prob for _, prob in out] == row[want].tolist()
