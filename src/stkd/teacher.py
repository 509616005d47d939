"""Graph teacher: relation-aware message passing over sampled subgraphs,
user-specific gating, attention readout, and soft-label prediction.

Message passing (per layer, per node): m = sum over sampled children of
(h_child + h_relation) / (2 * deg) — the mean over the multiset holding both
the neighbor and relation embeddings — followed by
h' = relu(concat(m, h) @ W + b). Nodes without sampled children use m = 0.
Only the readout's rows (the real centres and the user) leave the last of L
layers, so layer k updates only the rows within L - k hops of them, as in
GraphSAGE's minibatch algorithm (Hamilton et al. 2017, Alg. 2); the rows it
skips would reach nothing the readout reads.
A gate sigma(H_x W1 + W2 H_u^T) modulates each sequence position by the user
representation, additive attention pools positions into one row r, and
soft labels are softmax(r E_V^T) over the takeaway vocabulary with the padding
column pinned to probability zero.  Pre-training takes its cross-entropy from
the same logits through ``log_softmax``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import tensor as T
from .config import STREAM_INIT_TEACHER, rng_for
from .errors import ConfigError, InvalidSampleError
from .graph import Stkg, Subgraph
from .optim import Adam
from .tensor import Tensor


class TeacherParams:
    """All trainable teacher arrays, keyed for the optimizer."""

    def __init__(self, n_entities: int, n_relations: int, n: int, d: int,
                 gnn_layers: int = 2, seed: int = 0, *, n_users: int,
                 n_takeaways: int, _draw: bool = True):
        if d < 1 or n < 1 or gnn_layers < 1:
            raise ConfigError(f"bad teacher dimensions d={d} n={n} "
                              f"layers={gnn_layers}")
        if not (0 <= n_users and 1 <= n_takeaways
                and n_users + n_takeaways <= n_entities):
            raise ConfigError(
                f"the entity table holds the users, then the takeaways: got "
                f"n_users={n_users}, n_takeaways={n_takeaways} for "
                f"n_entities={n_entities}")
        rng = rng_for(seed, STREAM_INIT_TEACHER) if _draw else None

        def init(*shape):
            if rng is None:       # a checkpoint fills it (``_draw=False``)
                return Tensor(np.empty(shape), requires_grad=True)
            w = rng.normal(0.0, 0.02, size=shape)
            return Tensor(np.clip(w, -0.04, 0.04), requires_grad=True)

        self.n = n
        self.d = d
        self.gnn_layers = gnn_layers
        self.n_users = n_users
        self.n_takeaways = n_takeaways
        self.n_entities = n_entities
        self.n_relations = n_relations
        self.seed = seed
        self.entity_emb = init(max(n_entities, 1), d)
        self.relation_emb = init(max(n_relations, 1), d)
        self.combine_W = [init(2 * d, d) for _ in range(gnn_layers)]
        self.combine_b = [Tensor(np.zeros(d), requires_grad=True)
                          for _ in range(gnn_layers)]
        self.gate_W1 = init(d, 1)
        self.gate_W2 = init(n, d)
        self.att_W = init(d, d)
        self.att_w = init(d, 1)

    def as_dict(self) -> dict[str, Tensor]:
        out = {"entity_emb": self.entity_emb, "relation_emb": self.relation_emb,
               "gate_W1": self.gate_W1, "gate_W2": self.gate_W2,
               "att_W": self.att_W, "att_w": self.att_w}
        for l in range(self.gnn_layers):
            out[f"combine_W{l}"] = self.combine_W[l]
            out[f"combine_b{l}"] = self.combine_b[l]
        return out

    def item_rows(self) -> T.Tensor:
        """E_V: the takeaway block of the entity table, shape (|V|, d)."""
        return T.rows(self.entity_emb,
                      self.n_users, self.n_users + self.n_takeaways)

    def build_config(self) -> dict:
        """Constructor kwargs needed to rebuild an identically-shaped model."""
        return {"n_entities": self.n_entities, "n_relations": self.n_relations,
                "n": self.n, "d": self.d, "gnn_layers": self.gnn_layers,
                "seed": self.seed, "n_users": self.n_users,
                "n_takeaways": self.n_takeaways}


def _union_batch(subgraphs: list[Subgraph]):
    """Concatenate per-sample subgraphs into one disjoint node/edge set."""
    offsets = np.zeros(len(subgraphs), dtype=np.int64)
    total = 0
    for i, sg in enumerate(subgraphs):
        offsets[i] = total
        total += sg.n_nodes
    nodes = np.concatenate([sg.nodes for sg in subgraphs])
    edge_list = []
    for sg, off in zip(subgraphs, offsets):
        if sg.edges.shape[0]:
            e = sg.edges.copy()
            e[:, 0] += off
            e[:, 2] += off
            edge_list.append(e)
    edges = (np.concatenate(edge_list, axis=0) if edge_list
             else np.zeros((0, 3), dtype=np.int64))
    centers = np.stack([np.where(sg.centers >= 0, sg.centers + off, -1)
                        for sg, off in zip(subgraphs, offsets)])
    users = np.array([sg.user_index + off
                      for sg, off in zip(subgraphs, offsets)], dtype=np.int64)
    return nodes, edges, centers, users, total


def _needed_rows(edges: np.ndarray, readout: np.ndarray, n_total: int,
                 layers: int):
    """The rows each layer must compute, as nested prefixes of one order.

    Works backwards from the readout (GraphSAGE's minibatch sets, Hamilton
    et al. 2017, Alg. 2): layer ``layers`` needs the readout rows, and layer
    k-1 needs the rows of layer k plus their children in ``edges``.  Returns
    (order, sizes, pos): the first ``sizes[k]`` entries of ``order`` are the
    union rows layer k needs, and ``pos`` maps a union row to its index in
    ``order``, or to ``len(order)`` for a row no layer needs.
    """
    member = np.zeros(n_total, dtype=bool)
    member[readout] = True
    parts = [readout]
    for _ in range(layers):
        kids = edges[member[edges[:, 0]], 2]
        new = np.unique(kids[~member[kids]])
        member[new] = True
        parts.append(new)
    order = np.concatenate(parts)
    sizes = np.cumsum([part.size for part in parts])[::-1]
    pos = np.full(n_total, order.size)
    pos[order] = np.arange(order.size)
    return order, sizes, pos


def gnn_forward(subgraphs: list[Subgraph], params: TeacherParams,
                counters: Counter | None = None):
    """Run message passing; returns (H_x (b,n,d), H_u (b,d), pad mask (b,n)).

    Each layer updates only the rows that a later layer or the readout reads
    (``_needed_rows``) and aggregates only the edges whose parent it updates,
    so the rows the readout reads come out as if every row were updated.
    """
    if counters is not None:
        counters["teacher_forwards"] += 1
    nodes, edges, centers, users, n_total = _union_batch(subgraphs)
    real = centers >= 0
    order, sizes, pos = _needed_rows(
        edges, np.unique(np.append(centers[real], users)), n_total,
        params.gnn_layers)
    parent = pos[edges[:, 0]]
    child = pos[edges[:, 2]]
    # 2 * degree: the aggregation averages over both neighbor and relation
    # embeddings of each sampled edge; a needed parent keeps all its edges
    counts = np.bincount(parent, minlength=order.size + 1)[:order.size]
    denom = np.maximum(2.0 * counts, 1.0).reshape(-1, 1)

    h = T.take_rows(params.entity_emb, nodes[order])
    for l in range(params.gnn_layers):
        n_out = int(sizes[l + 1])
        kept = parent < n_out           # edge order, and so sum order, kept
        # the per-edge messages h_child + h_relation live only inside the
        # sum: the tape keeps the (n_out, d) result and the edge ids
        summed = T.segment_sum(
            [(h, child[kept]), (params.relation_emb, edges[kept, 1])],
            parent[kept], n_out)
        m = T.div(summed, Tensor(denom[:n_out]))
        h = T.relu(T.concat([m, T.rows(h, 0, n_out)], axis=1)
                   @ params.combine_W[l] + params.combine_b[l])
        if counters is not None:
            counters["gnn_row_updates"] += n_out
            counters["gnn_edge_messages"] += int(kept.sum())

    # a pad position reads row 0, which every layer holds, and is zeroed
    H_x = (T.take_rows(h, np.where(real, pos[centers], 0))
           * Tensor(real[:, :, None].astype(h.data.dtype)))
    H_u = T.take_rows(h, pos[users])
    return H_x, H_u, real


def user_gate(H_x: Tensor, H_u: Tensor, params: TeacherParams) -> Tensor:
    """H'_x = H_x * sigma(H_x W1 + W2 H_u^T), the n x 1 gate broadcast over d."""
    if H_x.data.shape[-1] != params.d or H_u.data.shape[-1] != params.d:
        raise ConfigError(f"gate dimension mismatch: {H_x.data.shape} / "
                          f"{H_u.data.shape} vs d={params.d}")
    if H_x.data.shape[-2] != params.gate_W2.data.shape[0]:
        raise ConfigError(
            f"gate is tied to sequence length {params.gate_W2.data.shape[0]}, "
            f"got {H_x.data.shape[-2]} positions")
    col = H_x @ params.gate_W1                      # (b, n, 1)
    user_term = H_u @ T.swapaxes(params.gate_W2, 0, 1)   # (b, n)
    gate = T.sigmoid(col + T.reshape(user_term, user_term.data.shape + (1,)))
    return H_x * gate


def attention_readout(H_gated: Tensor, params: TeacherParams,
                      pad_mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """Additive-attention pooling over real positions.

    Returns (r (b, d), attention weights (b, n)).  Raises InvalidSampleError
    if any sample has no real position.
    """
    real = np.asarray(pad_mask, dtype=bool)
    if np.any(~real.any(axis=-1)):
        bad = int(np.flatnonzero(~real.any(axis=-1))[0])
        raise InvalidSampleError(f"sample {bad} has no non-pad position")
    scores = T.tanh(H_gated @ params.att_W) @ params.att_w   # (b, n, 1)
    scores = T.reshape(scores, scores.data.shape[:-1])       # (b, n)
    att = T.masked_softmax(scores, real)
    r = T.tsum(T.reshape(att, att.data.shape + (1,)) * H_gated, axis=1)  # (b, d)
    return r, att


def _vocab_logits(r: Tensor, params: TeacherParams):
    """r E_V^T behind a constant padding column 0: returns (logits
    (b, |V|+1), the column mask that leaves the padding column out)."""
    logits = r @ T.swapaxes(params.item_rows(), 0, 1)        # (b, |V|)
    b = logits.data.shape[0]
    full = T.concat([Tensor(np.zeros((b, 1))), logits], axis=1)
    return full, np.arange(params.n_takeaways + 1) > 0


def soft_labels(r: Tensor, params: TeacherParams) -> Tensor:
    """Score the takeaway vocabulary for the readout ``r`` (b, d): returns
    probs (b, |V|+1) with column 0 exactly 0."""
    logits, valid = _vocab_logits(r, params)
    return T.masked_softmax(logits, valid)


def teacher_readout(subgraphs: list[Subgraph], params: TeacherParams,
                    counters: Counter | None = None) -> Tensor:
    """Pooled graph representation r (b, d), which pre-training scores and
    the feature-fusion strategies merge into the student."""
    H_x, H_u, real = gnn_forward(subgraphs, params, counters)
    H_gated = user_gate(H_x, H_u, params)
    r, _ = attention_readout(H_gated, params, real)
    return r


def teacher_forward(subgraphs: list[Subgraph], params: TeacherParams,
                    counters: Counter | None = None) -> Tensor:
    """Full pipeline; returns the soft-label probabilities (b, |V|+1)."""
    return soft_labels(teacher_readout(subgraphs, params, counters), params)


def pretrain_loss(subgraphs: list[Subgraph], targets: np.ndarray,
                  params: TeacherParams,
                  counters: Counter | None = None) -> Tensor:
    """Mean cross-entropy of the vocabulary logits against one-hot targets,
    taken in log space through ``log_softmax``."""
    targets = np.asarray(targets)
    if np.any(targets == 0):
        raise InvalidSampleError("pretraining target is the padding id 0")
    r = teacher_readout(subgraphs, params, counters)
    logits, valid = _vocab_logits(r, params)
    return T.batch_cross_entropy(T.log_softmax(logits, valid), targets)


def pretrain_step(subgraphs: list[Subgraph], targets: np.ndarray,
                  params: TeacherParams, opt: Adam,
                  counters: Counter | None = None) -> float:
    """One optimization step of ``pretrain_loss``."""
    loss = pretrain_loss(subgraphs, targets, params, counters)
    opt.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.data)


def teacher_optimizer(params: TeacherParams, lr: float = 0.001) -> Adam:
    return Adam(params.as_dict(), lr=lr)
