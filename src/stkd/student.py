"""Sequence student: spatially-enhanced embeddings, causal self-attention,
next-item prediction, and the distillation / supervised / joint losses.

The input embedding sums three parts: item embeddings, a learned spatial
position embedding E_SP = (region_emb[x_c] + dist_emb[x_f]) @ W_SP, and an
absolute position table. Blocks are pre-normalization residual transformer
layers; each holds its query, key and value projections as one (heads, d,
d_head) array apiece, so every head is projected, attended and merged in one
pass. Attention is masked so a position sees only itself and earlier *real*
(non-pad) positions. The prediction anchor is the last non-pad position's
row, scored against the tied item-embedding table with the padding column
removed from the distribution. Only that row is ever read, so the anchor
path computes only what reaches it:

- the columns: windows are left-padded (SASRec-style), so a batch runs only
  the span from the first column holding a real item in any row to the last
  anchor. Every query masks the pad columns before it and no anchor's causal
  past reaches the columns after it. Each column keeps its absolute position
  embedding, and dropout draws for the whole (b, n, d) array and keeps the
  span's part, so the masks and the random stream stay those of the whole;
- the rows: the last block's attention reads every column of the span,
  while its output projection, residual, second norm, FFN and dropouts run
  on the anchor rows alone, (b, d) instead of (b, span, d).

``encode`` without ``rows`` still computes all n positions.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import STREAM_DROPOUT, STREAM_INIT_STUDENT, rng_for
from .errors import ConfigError, InvalidArgumentError, InvalidSampleError
from .tensor import Tensor


class StudentParams:
    """All trainable student arrays plus the frozen-row bookkeeping."""

    def __init__(self, n_takeaways: int, n_regions: int, n: int, d: int,
                 heads: int = 2, layers: int = 2, n_dist_buckets: int = 16,
                 dropout: float = 0.1, seed: int = 0, *, _draw: bool = True):
        if min(n_takeaways, n, d, heads, layers) < 1:
            raise ConfigError("model dimensions must be positive")
        if d % heads != 0:
            raise ConfigError(f"d={d} must be divisible by heads={heads}")
        rng = rng_for(seed, STREAM_INIT_STUDENT) if _draw else None

        def init(*shape):
            if rng is None:       # a checkpoint fills it (``_draw=False``)
                return Tensor(np.empty(shape), requires_grad=True)
            w = rng.normal(0.0, 0.02, size=shape)
            return Tensor(np.clip(w, -0.04, 0.04), requires_grad=True)

        self.n = n
        self.d = d
        self.heads = heads
        self.layers = layers
        self.d_head = d // heads
        self.dropout = dropout
        self.n_takeaways = n_takeaways
        self.n_regions = n_regions
        self.n_dist_buckets = n_dist_buckets
        self.seed = seed

        self.item_emb = init(n_takeaways + 1, d)
        self.item_emb.data[0] = 0.0
        self.region_emb = init(n_regions + 1, d)
        self.region_emb.data[0] = 0.0
        self.dist_emb = init(n_dist_buckets + 2, d)
        self.dist_emb.data[0] = 0.0
        self.W_SP = init(d, d)
        self.pos_emb = init(n, d)
        self.blocks = []
        for _ in range(layers):
            blk = {
                "Wq": init(heads, d, self.d_head),
                "Wk": init(heads, d, self.d_head),
                "Wv": init(heads, d, self.d_head),
                "Wo": init(d, d),
                "ln1_g": Tensor(np.ones(d), requires_grad=True),
                "ln1_b": Tensor(np.zeros(d), requires_grad=True),
                "ln2_g": Tensor(np.ones(d), requires_grad=True),
                "ln2_b": Tensor(np.zeros(d), requires_grad=True),
                "ffn_W1": init(d, 4 * d),
                "ffn_b1": Tensor(np.zeros(4 * d), requires_grad=True),
                "ffn_W2": init(4 * d, d),
                "ffn_b2": Tensor(np.zeros(d), requires_grad=True),
            }
            self.blocks.append(blk)
        # an extra fusion projection, used only by the "cat" strategy
        self.W_cat = init(2 * d, d)

    def as_dict(self) -> dict[str, Tensor]:
        out = {"item_emb": self.item_emb, "region_emb": self.region_emb,
               "dist_emb": self.dist_emb, "W_SP": self.W_SP,
               "pos_emb": self.pos_emb, "W_cat": self.W_cat}
        for l, blk in enumerate(self.blocks):
            for key, val in blk.items():
                out[f"b{l}_{key}"] = val
        return out

    def pad_frozen_rows(self) -> dict[str, list[int]]:
        return {"item_emb": [0], "region_emb": [0], "dist_emb": [0]}

    def build_config(self) -> dict:
        """Constructor kwargs needed to rebuild an identically-shaped model."""
        return {"n_takeaways": self.n_takeaways, "n_regions": self.n_regions,
                "n": self.n, "d": self.d, "heads": self.heads,
                "layers": self.layers, "n_dist_buckets": self.n_dist_buckets,
                "dropout": self.dropout, "seed": self.seed}


def spatial_position_embedding(x_c: np.ndarray, x_f: np.ndarray,
                               params: StudentParams) -> Tensor:
    """E_SP = (region_emb[x_c] + dist_emb[x_f]) @ W_SP; pad rows stay zero."""
    e_c = T.take_rows(params.region_emb, np.asarray(x_c))
    e_f = T.take_rows(params.dist_emb, np.asarray(x_f))
    return (e_c + e_f) @ params.W_SP


def embed_sequence(x: np.ndarray, x_c: np.ndarray, x_f: np.ndarray,
                   params: StudentParams, train: bool = False,
                   rng: np.random.Generator | None = None,
                   start: int = 0) -> Tensor:
    """Item + spatial-position + absolute-position embeddings, then dropout.

    ``x`` may hold only columns ``start, start + 1, ...`` of the n-column
    windows: they read their own ``pos_emb`` rows, and dropout draws for the
    whole (b, n, d) array and keeps their part of it.
    """
    x = np.asarray(x)
    b, stop = x.shape[0], start + x.shape[-1]
    e_x = T.take_rows(params.item_emb, x)
    e = (e_x + spatial_position_embedding(x_c, x_f, params)
         + T.rows(params.pos_emb, start, stop))
    if train and params.dropout > 0.0:
        e = T.dropout(e, params.dropout, rng, (b, params.n, params.d),
                      (slice(None), slice(start, stop)))
    return e


def _attention_mask(x: np.ndarray) -> np.ndarray:
    """(b, n, n) boolean: query i may see key j iff j <= i and item j is real."""
    x = np.asarray(x)
    b, n = x.shape
    causal = np.tri(n, dtype=bool)
    key_real = (x != 0)[:, None, :]
    return causal[None, :, :] & key_real


def attention_block(h: Tensor, blk: dict, mask: np.ndarray,
                    train: bool = False, dropout: float = 0.0,
                    rng: np.random.Generator | None = None,
                    rows: np.ndarray | None = None, start: int = 0,
                    length: int | None = None) -> Tensor:
    """Pre-normalization residual block: attention then feed-forward.

    Returns (b, n, d) states, or with ``rows`` (one position of ``h`` per
    sequence) only those positions' states, (b, d): attention still reads
    every position, and the output projection, residual, second norm, FFN
    and both dropouts run on the gathered rows alone.  ``h`` may hold only
    positions ``start, start + 1, ...`` of sequences of ``length`` positions
    (default: all of them); dropout draws for the whole (b, length, d) array
    and keeps the part ``h`` holds.
    """
    b, n, d = h.data.shape
    if mask.shape[-1] != n:
        raise ConfigError(f"mask length {mask.shape[-1]} != sequence length "
                          f"{n}")
    # (b, 1, n, d) @ (heads, d, d_head): every head's projection at once
    x_norm = T.reshape(T.layer_norm(h, blk["ln1_g"], blk["ln1_b"]),
                       (b, 1, n, d))
    q, k, v = (x_norm @ blk[w] for w in ("Wq", "Wk", "Wv"))
    scale = 1.0 / np.sqrt(q.data.shape[-1])
    scores = (q @ T.swapaxes(k, -1, -2)) * scale        # (b, heads, n, n)
    att = T.masked_softmax(scores, mask[:, None])
    heads = T.reshape(T.swapaxes(att @ v, 1, 2), (b, n, d))
    if rows is not None:
        heads = T.take_positions(heads, rows)
        h = T.take_positions(h, rows)
    attn = heads @ blk["Wo"]
    drop = train and dropout > 0.0
    if drop:
        # the whole (b, length, d) draw, and the part h holds
        full = (b, n if length is None else length, d)
        part = ((slice(None), slice(start, start + n)) if rows is None
                else (np.arange(b), rows + start))
        attn = T.dropout(attn, dropout, rng, full, part)
    a = h + attn
    a_norm = T.layer_norm(a, blk["ln2_g"], blk["ln2_b"])
    ffn = T.relu(a_norm @ blk["ffn_W1"] + blk["ffn_b1"]) @ blk["ffn_W2"] \
        + blk["ffn_b2"]
    if drop:
        ffn = T.dropout(ffn, dropout, rng, full, part)
    return a + ffn


def encode(x, x_c, x_f, params: StudentParams, train: bool = False,
           seed: int = 0, step: int = 0,
           rows: np.ndarray | None = None) -> Tensor:
    """Embedding plus all attention blocks; returns (b, n, d) states, or with
    ``rows`` (one position per sequence) only the last block's states at
    those positions, (b, d).

    With ``rows`` only the readable span of columns runs: from the first
    column that holds a real item in any sequence (or the first of
    ``rows``, if earlier) to the last of ``rows``.  Every query masks the
    pad columns before it, and the columns after it lie in no row's causal
    past, so the states at ``rows`` are those of the whole windows; only
    the attention normalizer sums over fewer (zero) terms.
    """
    x = np.atleast_2d(np.asarray(x))
    x_c = np.atleast_2d(np.asarray(x_c))
    x_f = np.atleast_2d(np.asarray(x_f))
    n = x.shape[1]
    rng = rng_for(seed, STREAM_DROPOUT, step) if train else None
    start = 0
    if rows is not None:
        rows = np.asarray(rows)
        start = min(int(x.any(axis=0).argmax()), int(rows.min()))
        stop = int(rows.max()) + 1
        x, x_c, x_f = (a[:, start:stop] for a in (x, x_c, x_f))
        rows = rows - start
    h = embed_sequence(x, x_c, x_f, params, train=train, rng=rng, start=start)
    mask = _attention_mask(x)
    last = len(params.blocks) - 1
    for i, blk in enumerate(params.blocks):
        h = attention_block(h, blk, mask, train=train,
                            dropout=params.dropout, rng=rng,
                            rows=rows if i == last else None, start=start,
                            length=n)
    return h


def _anchor_indices(x: np.ndarray) -> np.ndarray:
    """Index of the last non-pad position per row; error if a row is all-pad."""
    real = x != 0
    if np.any(~real.any(axis=-1)):
        bad = int(np.flatnonzero(~real.any(axis=-1))[0])
        raise InvalidSampleError(f"sample {bad} has no non-pad position")
    n = x.shape[-1]
    return n - 1 - np.argmax(real[:, ::-1], axis=-1)


def _anchor(x, x_c, x_f, params: StudentParams, train: bool, seed: int,
            step: int, fused: Tensor | None, fusion: str) -> Tensor:
    """The prediction anchor h* (b, d): the last non-pad position's state.

    `fused`, when given, is a teacher readout (b, d) merged into the anchor
    according to `fusion`: add, multi (elementwise product), or cat
    (concatenation followed by a linear map back to d).
    """
    x = np.atleast_2d(np.asarray(x))
    h_star = encode(x, x_c, x_f, params, train=train, seed=seed, step=step,
                    rows=_anchor_indices(x))
    if fused is not None:
        if fusion == "add":
            h_star = h_star + fused
        elif fusion == "multi":
            h_star = h_star * fused
        elif fusion == "cat":
            h_star = T.concat([h_star, fused], axis=-1) @ params.W_cat
        else:
            raise InvalidArgumentError(f"unknown fusion strategy {fusion!r}")
    return h_star


def predict_scores(x, x_c, x_f, params: StudentParams,
                   fused: Tensor | None = None,
                   fusion: str = "stkd") -> tuple[Tensor, Tensor]:
    """Inference scores: (probs (b, |V|+1) with pad column 0, raw logits
    (b, |V|+1)); `fused` and `fusion` as in ``_anchor``.  Training reads
    ``predict_logits``."""
    return score_items(_anchor(x, x_c, x_f, params, False, 0, 0,
                               fused, fusion), params)


def predict_logits(x, x_c, x_f, params: StudentParams, train: bool = False,
                   seed: int = 0, step: int = 0,
                   fused: Tensor | None = None,
                   fusion: str = "stkd") -> Tensor:
    """The logits of ``predict_scores`` without its softmax, also in
    training mode (``train``, with its dropout stream keyed by ``seed`` and
    ``step``): both training losses take logits."""
    h_star = _anchor(x, x_c, x_f, params, train, seed, step, fused, fusion)
    return h_star @ T.swapaxes(params.item_emb, 0, 1)


def _item_columns(width: int) -> np.ndarray:
    """Mask over the dense id columns 0..|V| that leaves out the padding id 0."""
    return np.arange(width) > 0


def score_items(h_star: Tensor, params: StudentParams) -> tuple[Tensor, Tensor]:
    """Score an anchor row against the tied item table; pad column masked."""
    logits = h_star @ T.swapaxes(params.item_emb, 0, 1)   # (b, |V|+1)
    probs = T.masked_softmax(logits, _item_columns(logits.data.shape[-1]))
    return probs, logits


def kd_loss(teacher_logits, student_logits: Tensor, temperature: float) -> Tensor:
    """KL(softmax(teacher/t) || softmax(student/t)) * t^2, teacher constant.

    Both logit sets cover dense ids 0..|V| and the padding column 0 is masked
    out of both distributions; both go through ``log_softmax``, so the loss
    and its gradient stay exact however far apart the two models are.
    Accepts (|V|+1,) vectors or (b, |V|+1) batches; batches are averaged.
    """
    t_arr = teacher_logits.data if isinstance(teacher_logits, Tensor) \
        else np.asarray(teacher_logits, dtype=student_logits.data.dtype)
    if t_arr.shape != student_logits.data.shape:
        raise InvalidArgumentError(
            f"logit shape mismatch: {t_arr.shape} vs "
            f"{student_logits.data.shape}")
    if t_arr.ndim == 1:
        t_arr = t_arr[None, :]
        student_logits = T.reshape(student_logits, (1, -1))
    valid = _item_columns(t_arr.shape[-1])
    log_p = T.log_softmax(Tensor(t_arr), valid, temperature).data
    log_q = T.log_softmax(student_logits, valid, temperature)
    p = np.exp(log_p)
    # sum p (log p - log q) as a constant minus the one term on the tape; the
    # pad column has log p = log q = 0, so it adds nothing to either sum
    kl = float(np.sum(p * log_p)) - T.tsum(Tensor(p) * log_q)
    return kl * (temperature ** 2 / t_arr.shape[0])


def rec_loss(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy of softmax(logits), pad column masked, against
    dense targets."""
    targets = np.atleast_1d(np.asarray(targets))
    if np.any(targets == 0):
        raise InvalidArgumentError("target is the padding id 0")
    if logits.data.ndim == 1:
        logits = T.reshape(logits, (1, -1))
    log_probs = T.log_softmax(logits, _item_columns(logits.data.shape[-1]))
    return T.batch_cross_entropy(log_probs, targets)


def joint_loss(kd: Tensor | float, rec: Tensor | float, alpha: float) -> Tensor:
    """alpha * kd + (1 - alpha) * rec; endpoints skip the unused term."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidArgumentError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 0.0:
        return T.as_tensor(rec)
    if alpha == 1.0:
        return T.as_tensor(kd)
    return T.add(T.mul(T.as_tensor(kd), alpha),
                 T.mul(T.as_tensor(rec), 1.0 - alpha))


def recommend(x, x_c, x_f, params: StudentParams, k: int = 10):
    """Top-k (item id, probability) pairs for one sequence (a 1-D window or
    a batch of one), most probable first and ties in id order; min(k, |V|)
    pairs, never the padding id 0."""
    if k < 1:
        raise InvalidArgumentError(f"k must be at least 1, got {k}")
    if np.shape(x)[:-1] not in ((), (1,)):
        raise InvalidArgumentError(
            f"recommend serves one sequence, got shape {np.shape(x)}")
    with T.no_tape():
        probs, _ = predict_scores(x, x_c, x_f, params)
    items = probs.data[0, 1:]                 # column j holds item id j + 1
    k = min(k, items.size)
    # the k-th largest value, then a stable sort of everything at or above
    # it (ties at the cut included): a full stable sort's first k, in O(|V|)
    cut = np.partition(items, items.size - k)[items.size - k]
    above = np.flatnonzero(items >= cut)
    top = above[np.argsort(-items[above], kind="stable")[:k]]
    return [(int(i) + 1, float(items[i])) for i in top]
