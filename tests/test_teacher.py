"""Graph teacher: message passing, gating, readout, and pretraining."""

import numpy as np
import pytest

from stkd.errors import ConfigError, InvalidSampleError
from stkd.gradcheck import finite_diff_check
from stkd.graph import Subgraph
from stkd.instrument import Counters
from stkd.teacher import (TeacherParams, gnn_forward, pretrain_loss,
                          pretrain_step, soft_labels, teacher_forward,
                          teacher_optimizer, user_gate)
from stkd.tensor import Tensor


def subgraph(nodes, centers, user_index, edges):
    return Subgraph(nodes=np.asarray(nodes, dtype=np.int64),
                    centers=np.asarray(centers, dtype=np.int64),
                    user_index=user_index,
                    edges=(np.asarray(edges, dtype=np.int64).reshape(-1, 3)
                           if len(edges) else np.zeros((0, 3), dtype=np.int64)))


def micro_params(n_entities=5, n_relations=3, n=3, d=2, layers=1, seed=0,
                 n_users=1, n_takeaways=3):
    return TeacherParams(n_entities=n_entities, n_relations=n_relations, n=n,
                         d=d, gnn_layers=layers, seed=seed, n_users=n_users,
                         n_takeaways=n_takeaways)


def test_hand_computed_single_neighbor_aggregation():
    # center embedding [0,0], neighbor [1,0], relation [0,1]; combine weight
    # stacks two identity blocks so combine(m, h) = relu(m + h).
    p = micro_params(n_entities=2, n_relations=1, n=1, d=2, layers=1)
    p.entity_emb.data[:] = [[0.0, 0.0], [1.0, 0.0]]
    p.relation_emb.data[:] = [[0.0, 1.0]]
    p.combine_W[0].data[:] = np.vstack([np.eye(2), np.eye(2)])
    p.combine_b[0].data[:] = 0.0
    sg = subgraph(nodes=[0, 1], centers=[0], user_index=1,
                  edges=[[0, 0, 1]])
    H_x, _, real = gnn_forward([sg], p)
    # m = (neighbor + relation) / 2 = [0.5, 0.5]; h_prev = 0 -> relu -> same
    np.testing.assert_allclose(H_x.data[0, 0], [0.5, 0.5], atol=1e-15)


def test_isolated_node_composes_no_neighbor_rule():
    p = micro_params(n_entities=1, n_relations=1, n=1, d=2, layers=2,
                     n_users=0, n_takeaways=1)
    sg = subgraph(nodes=[0], centers=[0], user_index=0, edges=[])
    H_x, _, _ = gnn_forward([sg], p)
    h = p.entity_emb.data[0]
    for l in range(2):
        h = np.maximum(
            np.concatenate([np.zeros(2), h]) @ p.combine_W[l].data
            + p.combine_b[l].data, 0.0)
    np.testing.assert_allclose(H_x.data[0, 0], h, atol=1e-14)


def test_pad_centers_are_zero_rows():
    p = micro_params()
    sg = subgraph(nodes=[0, 4], centers=[-1, 0, -1], user_index=1,
                  edges=[[0, 1, 1]])
    H_x, H_u, real = gnn_forward([sg], p)
    assert np.all(H_x.data[0, 0] == 0.0) and np.all(H_x.data[0, 2] == 0.0)
    assert np.any(H_x.data[0, 1] != 0.0)
    np.testing.assert_array_equal(real[0], [False, True, False])
    assert H_u.data.shape == (1, 2)


def test_aggregation_is_neighbor_order_invariant():
    p = micro_params(n_entities=6, n_relations=4, n=2, d=2)
    e1 = [[0, 1, 2], [0, 3, 3], [0, 0, 4]]
    e2 = [[0, 0, 4], [0, 1, 2], [0, 3, 3]]
    sga = subgraph(nodes=[0, 5, 1, 2, 3], centers=[0, -1], user_index=1, edges=e1)
    sgb = subgraph(nodes=[0, 5, 1, 2, 3], centers=[0, -1], user_index=1, edges=e2)
    Ha, _, _ = gnn_forward([sga], p)
    Hb, _, _ = gnn_forward([sgb], p)
    np.testing.assert_allclose(Ha.data, Hb.data, atol=1e-12)


def test_zeroed_relations_make_labels_irrelevant():
    p = micro_params(n_entities=6, n_relations=4, n=2, d=2)
    p.relation_emb.data[:] = 0.0
    edges_a = [[0, 0, 2], [0, 1, 3]]
    edges_b = [[0, 3, 2], [0, 2, 3]]  # same topology, relabeled relations
    sga = subgraph(nodes=[0, 5, 1, 2], centers=[0, -1], user_index=1, edges=edges_a)
    sgb = subgraph(nodes=[0, 5, 1, 2], centers=[0, -1], user_index=1, edges=edges_b)
    Ha, _, _ = gnn_forward([sga], p)
    Hb, _, _ = gnn_forward([sgb], p)
    np.testing.assert_allclose(Ha.data, Hb.data, atol=1e-15)


def test_gate_half_open_at_zero_weights():
    p = micro_params(n=3, d=2)
    p.gate_W1.data[:] = 0.0
    p.gate_W2.data[:] = 0.0
    H_x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 2)))
    H_u = Tensor(np.random.default_rng(1).standard_normal((1, 2)))
    out = user_gate(H_x, H_u, p)
    np.testing.assert_allclose(out.data, 0.5 * H_x.data, atol=1e-15)
    zero = user_gate(Tensor(np.zeros((1, 3, 2))), H_u, p)
    np.testing.assert_allclose(zero.data, 0.0, atol=0)


def test_gate_matches_scripted_oracle():
    rng = np.random.default_rng(5)
    p = micro_params(n=4, d=3, n_takeaways=3, n_entities=5)
    H_x = Tensor(rng.standard_normal((1, 4, 3)))
    H_u = Tensor(rng.standard_normal((1, 3)))
    got = user_gate(H_x, H_u, p).data[0]
    # scripted elementwise oracle
    col = H_x.data[0] @ p.gate_W1.data + p.gate_W2.data @ H_u.data[0].reshape(3, 1)
    want = H_x.data[0] * (1.0 / (1.0 + np.exp(-col)))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_gate_rejects_wrong_length():
    p = micro_params(n=3, d=2)
    with pytest.raises(ConfigError):
        user_gate(Tensor(np.zeros((1, 5, 2))), Tensor(np.zeros((1, 2))), p)


def test_soft_labels_singleton_and_uniform_attention():
    p = micro_params(n=3, d=2, n_users=1, n_takeaways=3, n_entities=7)
    H = Tensor(np.random.default_rng(2).standard_normal((1, 3, 2)))
    probs, att = soft_labels(H, p, np.array([[False, True, False]]))
    np.testing.assert_allclose(att.data[0], [0.0, 1.0, 0.0], atol=1e-15)
    same = Tensor(np.tile(np.array([[0.3, -0.7]]), (1, 3, 1)))
    _, att2 = soft_labels(same, p, np.ones((1, 3), dtype=bool))
    np.testing.assert_allclose(att2.data[0], [1 / 3] * 3, atol=1e-12)
    assert abs(probs.data[0].sum() - 1.0) < 1e-12
    assert probs.data[0, 0] == 0.0
    assert np.all(probs.data >= 0)


def test_soft_labels_rejects_all_pad():
    p = micro_params(n=2, d=2)
    H = Tensor(np.zeros((1, 2, 2)))
    with pytest.raises(InvalidSampleError):
        soft_labels(H, p, np.zeros((1, 2), dtype=bool))


def test_engineered_one_hot_labels_give_tiny_loss():
    p = micro_params(n=2, d=2, n_users=1, n_takeaways=3, n_entities=4)
    # takeaway rows (entities 1..3): target row aligned with r, others opposed
    p.entity_emb.data[1] = [40.0, 0.0]
    p.entity_emb.data[2] = [-40.0, 0.0]
    p.entity_emb.data[3] = [-40.0, 0.0]
    H = Tensor(np.array([[[1.0, 0.0], [0.0, 0.0]]]))
    probs, _ = soft_labels(H, p, np.array([[True, False]]))
    assert -np.log(probs.data[0, 1]) <= 1e-9


def test_pretrain_loss_equals_scripted_cross_entropy():
    p = micro_params(n=2, d=2, n_users=2, n_takeaways=3, n_entities=8)
    sg = subgraph(nodes=[2, 3, 0], centers=[0, 1], user_index=2,
                  edges=[[0, 0, 2], [1, 1, 2]])
    probs = teacher_forward([sg, sg], p)
    targets = np.array([2, 3])
    want = -np.mean([np.log(probs.data[i, t]) for i, t in enumerate(targets)])
    got = float(pretrain_loss([sg, sg], targets, p).data)
    assert abs(got - want) < 1e-12


def test_pretrain_steps_reduce_loss_on_memorization_fixture():
    rng = np.random.default_rng(3)
    p = micro_params(n_entities=20, n_relations=5, n=4, d=8, layers=2,
                     n_users=4, n_takeaways=10, seed=1)
    subs, targets = [], []
    for i in range(8):
        items = rng.integers(4, 14, size=3)  # takeaway entity block is [4, 14)
        nodes = list(dict.fromkeys(items.tolist() + [i % 4]))
        centers = [nodes.index(it) for it in items] + [-1]
        edges = [[nodes.index(it), int(rng.integers(0, 5)),
                  nodes.index(i % 4)] for it in items]
        subs.append(subgraph(nodes, centers, nodes.index(i % 4), edges))
        targets.append(int(rng.integers(1, 11)))
    opt = teacher_optimizer(p, lr=0.05)
    first = pretrain_step(subs, np.array(targets), p, opt)
    for _ in range(49):
        last = pretrain_step(subs, np.array(targets), p, opt)
    assert last < first, (first, last)
    assert last < 0.5 * first


def test_counters_track_teacher_invocations():
    p = micro_params()
    c = Counters()
    sg = subgraph(nodes=[0, 4], centers=[0, -1, -1], user_index=1, edges=[])
    teacher_forward([sg], p, counters=c)
    teacher_forward([sg], p, counters=c)
    assert c.get("teacher_forwards") == 2
    assert c.get("anything_else") == 0


def test_teacher_gradients_match_finite_differences():
    # 3-node subgraph, full pipeline to the pretraining loss; embeddings are
    # rescaled so activations sit far from relu kinks and zero gradients
    p = micro_params(n_entities=5, n_relations=2, n=2, d=3, layers=2,
                     n_users=1, n_takeaways=4, seed=2)
    rng = np.random.default_rng(8)
    for t in p.as_dict().values():
        t.data[:] = rng.standard_normal(t.data.shape) * 0.6
    sg = subgraph(nodes=[1, 2, 0], centers=[0, 1], user_index=2,
                  edges=[[0, 0, 2], [1, 1, 2], [2, 0, 0]])
    target = np.array([3])

    def loss_fn(q):
        return pretrain_loss([sg], target, p)

    report = finite_diff_check(loss_fn, p.as_dict(), rel_tol=1e-4)
    assert report.passed, str(report)
