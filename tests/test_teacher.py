"""Graph teacher: message passing, gating, readout, and pretraining."""

from collections import Counter

import numpy as np
import pytest

from stkd import teacher
from stkd import tensor as T
from stkd.config import STREAM_SHUFFLE, TrainConfig, rng_for
from stkd.errors import ConfigError, InvalidSampleError
from stkd.events import ingest_events
from stkd.graph import Subgraph, build_stkg
from stkd.pipeline import SubgraphProvider, build_teacher
from stkd.sequences import build_sequences
from stkd.synthetic import SyntheticConfig, generate_synthetic
from stkd.teacher import (TeacherParams, attention_readout, gnn_forward,
                          pretrain_loss, pretrain_step, soft_labels,
                          teacher_forward, teacher_optimizer, user_gate)
from stkd.tensor import Tensor

from gradcheck import finite_diff_check


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
    p = micro_params(n_entities=2, n_relations=1, n=1, d=2, layers=1,
                     n_users=1, n_takeaways=1)
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
    r, att = attention_readout(H, p, np.array([[False, True, False]]))
    np.testing.assert_allclose(att.data[0], [0.0, 1.0, 0.0], atol=1e-15)
    same = Tensor(np.tile(np.array([[0.3, -0.7]]), (1, 3, 1)))
    _, att2 = attention_readout(same, p, np.ones((1, 3), dtype=bool))
    np.testing.assert_allclose(att2.data[0], [1 / 3] * 3, atol=1e-12)
    probs = soft_labels(r, p)
    assert abs(probs.data[0].sum() - 1.0) < 1e-12
    assert probs.data[0, 0] == 0.0
    assert np.all(probs.data >= 0)


def test_soft_labels_rejects_all_pad():
    p = micro_params(n=2, d=2)
    sg = subgraph(nodes=[0, 4], centers=[-1, -1], user_index=1, edges=[])
    with pytest.raises(InvalidSampleError):
        teacher_forward([sg], p)
    with pytest.raises(InvalidSampleError):
        attention_readout(Tensor(np.zeros((1, 2, 2))), p,
                          np.zeros((1, 2), dtype=bool))


def test_engineered_one_hot_labels_give_tiny_loss():
    p = micro_params(n=2, d=2, n_users=1, n_takeaways=3, n_entities=4)
    # takeaway rows (entities 1..3): target row aligned with r, others opposed
    p.entity_emb.data[1] = [40.0, 0.0]
    p.entity_emb.data[2] = [-40.0, 0.0]
    p.entity_emb.data[3] = [-40.0, 0.0]
    H = Tensor(np.array([[[1.0, 0.0], [0.0, 0.0]]]))
    r, _ = attention_readout(H, p, np.array([[True, False]]))
    probs = soft_labels(r, p)
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


def test_teacher_params_require_sizes_that_fit_the_entity_table():
    # with defaulted sizes of 0 the teacher scored an empty vocabulary and
    # returned a column of zeros as its "probabilities"
    with pytest.raises(TypeError):
        TeacherParams(n_entities=5, n_relations=3, n=3, d=2)
    with pytest.raises(TypeError):
        TeacherParams(5, 3, 3, 2, 1, 0, 1, 3)
    for n_users, n_takeaways in ((2, 4), (0, 6), (1, 0), (-1, 3)):
        with pytest.raises(ConfigError, match="entity table"):
            micro_params(n_entities=5, n_users=n_users,
                         n_takeaways=n_takeaways)
    p = micro_params(n_entities=5, n_users=2, n_takeaways=3)
    assert p.item_rows().data.shape == (3, 2)


def test_teacher_forward_is_soft_labels_of_the_readout():
    p = micro_params(n_entities=8, n_users=2, n_takeaways=3, n=2, d=3,
                     layers=2, seed=4)
    sg = subgraph(nodes=[2, 3, 0], centers=[0, 1], user_index=2,
                  edges=[[0, 0, 2], [1, 1, 2]])
    probs = teacher_forward([sg, sg], p)
    want = soft_labels(teacher.teacher_readout([sg, sg], p), p)
    assert probs.data.shape == (2, 4)
    assert probs.data.tobytes() == want.data.tobytes()


def test_counters_track_teacher_invocations():
    p = micro_params()
    c = Counter()
    sg = subgraph(nodes=[0, 4], centers=[0, -1, -1], user_index=1, edges=[])
    teacher_forward([sg], p, counters=c)
    teacher_forward([sg], p, counters=c)
    assert c["teacher_forwards"] == 2
    assert c["anything_else"] == 0


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


# ---------------------------------------------------------------------------
# pruned message passing against the unpruned loop
# ---------------------------------------------------------------------------

def reference_gnn_forward(subgraphs, params, counters=None):
    """The unpruned loop: every layer updates every row of the batch union."""
    nodes, edges, centers, users, n_total = teacher._union_batch(subgraphs)
    h = T.take_rows(params.entity_emb, nodes)
    parents = edges[:, 0]
    denom = np.ones((n_total, 1))
    if edges.shape[0]:
        counts = np.bincount(parents, minlength=n_total)
        denom = np.maximum(2.0 * counts, 1.0).reshape(-1, 1)
    for l in range(params.gnn_layers):
        if edges.shape[0]:
            child_h = T.take_rows(h, edges[:, 2])
            rel_h = T.take_rows(params.relation_emb, edges[:, 1])
            summed = T.segment_sum(child_h + rel_h, parents, n_total)
            m = T.div(summed, Tensor(denom))
        else:
            m = Tensor(np.zeros((n_total, params.d)))
        h = T.relu(T.concat([m, h], axis=1) @ params.combine_W[l]
                   + params.combine_b[l])
    real = centers >= 0
    safe = np.where(real, centers, 0)
    H_x = T.take_rows(h, safe) * Tensor(real[:, :, None].astype(h.data.dtype))
    H_u = T.take_rows(h, users)
    return H_x, H_u, real


def _spread(params, seed):
    # weights far from the tiny init, so relu kinks and sums are exercised
    rng = np.random.default_rng(seed)
    for t in params.as_dict().values():
        t.data[:] = rng.standard_normal(t.data.shape) * 0.5


def _forward_and_grads(subgraphs, targets, params):
    H_x, H_u, real = teacher.gnn_forward(subgraphs, params)
    for t in params.as_dict().values():
        t.grad = None
    pretrain_loss(subgraphs, targets, params).backward()
    grads = {k: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
             for k, t in params.as_dict().items()}
    return H_x.data, H_u.data, real, grads


def assert_matches_reference(subgraphs, targets, params, monkeypatch):
    """H_x, H_u and every pretraining gradient equal the unpruned loop's."""
    got = _forward_and_grads(subgraphs, targets, params)
    with monkeypatch.context() as m:
        m.setattr(teacher, "gnn_forward", reference_gnn_forward)
        want = _forward_and_grads(subgraphs, targets, params)
    np.testing.assert_array_equal(got[2], want[2])
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    for name in want[3]:
        np.testing.assert_allclose(got[3][name], want[3][name], rtol=0,
                                   atol=1e-12, err_msg=name)


def _edge_cases():
    """Entities: users 0-1, takeaways 2-6, other nodes 7-9."""
    # pad-first; centre 0 repeated; the user is centre 0's neighbour; centre
    # 1 is cold; a 4-hop chain 0 -> 3 -> 4 -> 5 -> 3
    a = subgraph(nodes=[2, 3, 0, 7, 8, 9], centers=[-1, 0, 0, 1],
                 user_index=2, edges=[[0, 0, 2], [0, 1, 3], [3, 2, 4],
                                      [4, 0, 5], [5, 1, 3]])
    # a single cold centre and no edge at all
    b = subgraph(nodes=[4, 1], centers=[-1, -1, -1, 0], user_index=1,
                 edges=[])
    # centre 1 is also centre 0's neighbour; the user sits two hops out
    c = subgraph(nodes=[5, 6, 1, 8], centers=[0, 1, 0, -1], user_index=2,
                 edges=[[0, 0, 1], [1, 1, 0], [0, 2, 3], [3, 0, 2]])
    return [a, b, c], np.array([1, 4, 5])


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_pruned_layers_match_unpruned_on_edge_cases(layers, monkeypatch):
    p = micro_params(n_entities=10, n_relations=3, n=4, d=3, layers=layers,
                     n_users=2, n_takeaways=5)
    _spread(p, seed=layers)
    subgraphs, targets = _edge_cases()
    assert_matches_reference(subgraphs, targets, p, monkeypatch)


def test_pruned_row_and_edge_counts_on_edge_cases():
    # union rows: a 0-5, b 6-7, c 8-11 (12 rows, 9 edges)
    p = micro_params(n_entities=10, n_relations=3, n=4, d=3, layers=3,
                     n_users=2, n_takeaways=5)
    c = Counter()
    gnn_forward(_edge_cases()[0], p, c)
    # layer 3 (the readout): 0, 1, 2, 6, 7, 8, 9, 10; layer 2 adds their
    # children 3 and 11; layer 1 adds 4; row 5 is only read as a child
    assert c["gnn_row_updates"] == 11 + 10 + 8
    # edges whose parent the layer updates: 4 + 4, 3 + 4, 2 + 3
    assert c["gnn_edge_messages"] == 8 + 7 + 5


@pytest.fixture(scope="module")
def criterion8_world():
    scfg = SyntheticConfig(n_users=30, n_takeaways=60, n_regions=6,
                           events_per_user=18, noise=0.2, seed=3)
    events, vocab, _ = ingest_events(generate_synthetic(scfg))
    return build_sequences(events, vocab, n=8), build_stkg(events, vocab), vocab


@pytest.mark.parametrize("layers, fanouts", [(1, (2, 2)), (2, (2, 2)),
                                             (3, (2, 2)), (2, (4, 4))])
def test_pruned_layers_match_unpruned_on_first_training_batch(
        criterion8_world, layers, fanouts, monkeypatch):
    # the acceptance gate's determinism world and its first training batch;
    # (2, (4, 4)) is the gate's own teacher
    dataset, stkg, _ = criterion8_world
    cfg = TrainConfig(epochs=2, batch_size=64, n=8, d=16, heads=2, layers=1,
                      gnn_layers=layers, fanouts=fanouts, seed=0, lr=0.01)
    p = build_teacher(cfg, stkg)
    _spread(p, seed=7)
    order = rng_for(cfg.seed, STREAM_SHUFFLE, 0).permutation(
        dataset.rows("train"))
    batch = order[:cfg.batch_size]
    subgraphs = SubgraphProvider(dataset, stkg, cfg.fanouts,
                                 cfg.seed).batch(batch)
    assert_matches_reference(subgraphs, dataset.target[batch], p,
                             monkeypatch)

    c = Counter()
    gnn_forward(subgraphs, p, c)
    union_rows = sum(sg.n_nodes for sg in subgraphs)
    n_edges = sum(sg.edges.shape[0] for sg in subgraphs)
    assert 0 < c["gnn_row_updates"] < union_rows * layers
    assert 0 < c["gnn_edge_messages"] < n_edges * layers


def _chained_segment_sum(segment_sum):
    """``segment_sum`` with a list of gathered-rows pairs taken through the
    chain the teacher ran before the fused form:
    ``segment_sum(take_rows(h, child) + take_rows(relation_emb, rel))``."""
    def chained(x, segments, n):
        if isinstance(x, list):
            (h, child), (rel_table, rel) = x
            x = T.take_rows(h, child) + T.take_rows(rel_table, rel)
        return segment_sum(x, segments, n)

    return chained


def _bitwise(arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_fused_messages_are_bitwise_the_gather_and_add_chain(
        criterion8_world, layers, monkeypatch):
    # outputs and every pretraining gradient, on the edge cases and on the
    # first training batch of the determinism world
    dataset, stkg, _ = criterion8_world
    cfg = TrainConfig(batch_size=64, n=8, d=16, gnn_layers=layers,
                      fanouts=(4, 4), seed=0)
    big = build_teacher(cfg, stkg)
    _spread(big, seed=11)
    batch = dataset.rows("train")[:cfg.batch_size]
    small = micro_params(n_entities=10, n_relations=3, n=4, d=3,
                         layers=layers, n_users=2, n_takeaways=5)
    _spread(small, seed=layers)
    cases = [(*_edge_cases(), small),
             (SubgraphProvider(dataset, stkg, cfg.fanouts, cfg.seed)
              .batch(batch), dataset.target[batch], big)]
    for subgraphs, targets, params in cases:
        got = _forward_and_grads(subgraphs, targets, params)
        with monkeypatch.context() as m:
            m.setattr(T, "segment_sum", _chained_segment_sum(T.segment_sum))
            want = _forward_and_grads(subgraphs, targets, params)
        assert _bitwise(got[:3]) == _bitwise(want[:3])
        for name in want[3]:
            assert got[3][name].tobytes() == want[3][name].tobytes(), name


def _edge_row_tensors(loss, per_edge):
    """The tensors reachable from ``loss`` whose leading axis has one of the
    ``per_edge`` lengths."""
    found, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node.ndim and node.shape[0] in per_edge:
                found.append(node.shape)
            stack.extend(node._parents)
    return found


def test_no_tensor_on_the_pretraining_tape_has_a_row_per_edge(
        criterion8_world, monkeypatch):
    dataset, stkg, _ = criterion8_world
    cfg = TrainConfig(batch_size=64, n=8, d=16, gnn_layers=2, fanouts=(4, 4),
                      seed=0)
    params = build_teacher(cfg, stkg)
    batch = dataset.rows("train")[:cfg.batch_size]
    subgraphs = SubgraphProvider(dataset, stkg, cfg.fanouts,
                                 cfg.seed).batch(batch)
    # the number of edges each layer aggregates, as gnn_forward prunes them
    _, edges, centers, users, n_total = teacher._union_batch(subgraphs)
    _, sizes, pos = teacher._needed_rows(
        edges, np.unique(np.append(centers[centers >= 0], users)), n_total,
        cfg.gnn_layers)
    parent = pos[edges[:, 0]]
    per_edge = {int((parent < sizes[l + 1]).sum())
                for l in range(cfg.gnn_layers)}

    loss = pretrain_loss(subgraphs, dataset.target[batch], params)
    assert _edge_row_tensors(loss, per_edge) == []
    # the gather-and-add chain would put three such tensors per layer there
    with monkeypatch.context() as m:
        m.setattr(T, "segment_sum", _chained_segment_sum(T.segment_sum))
        loss = pretrain_loss(subgraphs, dataset.target[batch], params)
    assert len(_edge_row_tensors(loss, per_edge)) == 3 * cfg.gnn_layers
