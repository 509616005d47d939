"""Two-stage training pipeline, ranked evaluation, ablations, and sweeps.

Stage one pre-trains the graph teacher on the spatial-temporal knowledge
graph and caches its soft labels for every training sample.  Stage two
trains the sequence student on the joint objective

    loss = alpha * kd_loss + (1 - alpha) * rec_loss,

where the teacher enters only through that soft-label cache
(``TeacherSignal``) and both losses take logits through one masked
``log_softmax``.  Both stages run the one epoch
loop ``_fit`` (seeded shuffle, divergence abort, early stopping on
validation NDCG@10, best-snapshot restore) and differ only in the step and
validation closures they hand it.  Evaluation draws each row's sampled
negatives into one table (a fit draws its validation table once, and a
study each split's once for all its arms), ranks the held-out targets
against it one batch at a time, and reports HR@k / NDCG@k with wall-clock
timing split into training and prediction phases.
Every pass that nothing backpropagates through (validation, evaluation,
soft labels, the fusion readout in a training step) runs with the tape off.

The three studies (``ablate``, ``ablate_fusion``, ``sweep``) only name
their arms, each a ``(TrainConfig, variant, fusion)`` triple, and run them
through the one study loop ``_study``.  It alone decides when a teacher
exists (one per ``fanouts`` setting, pre-trained only if an arm reads it
through KD or a fusion readout, with soft labels only if an arm distills)
and charges its training time to exactly the arms that read it.

No stage takes a vocabulary size from its caller: the teacher is sized by
the graph (``Stkg.n_users``, ``Stkg.n_takeaways``) and the student by the
dataset (``SequenceDataset.n_takeaways``, ``n_regions``).  Where a dataset
meets a graph (``SubgraphProvider``, the studies) or a student
(``evaluate``), sizes that disagree raise ``ConsistencyError``."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_npz, write_json, write_npz
from .config import STREAM_SHUFFLE, TrainConfig, rng_for
from .errors import ConsistencyError, InvalidArgumentError
from .graph import Stkg, Subgraph, sample_subgraph
from .metrics import (hit_rate_at_k, ndcg_at_k, rank_of_target,
                      sample_negatives)
from .optim import Adam
from .sequences import SequenceDataset
from .student import (StudentParams, joint_loss, kd_loss, predict_logits,
                      predict_scores, rec_loss)
from .teacher import (TeacherParams, pretrain_step, teacher_forward,
                      teacher_optimizer, teacher_readout)
from .tensor import CLAMP, Tensor, no_tape

SOFT_LABEL_FORMAT_VERSION = 2
SCORE_BATCH = 256       # rows per pass that nothing backpropagates through
FUSION_STRATEGIES = ("stkd", "add", "cat", "multi")
ABLATION_VARIANTS = ("full", "no_kd", "no_sp", "no_sp_kd", "no_c", "no_f")

__all__ = [
    "MetricsReport",
    "SubgraphProvider",
    "TrainResult",
    "pretrain_teacher",
    "compute_soft_labels",
    "save_soft_labels",
    "load_soft_labels",
    "distill",
    "evaluate",
    "ablate",
    "ablate_fusion",
    "sweep",
    "ABLATION_VARIANTS",
    "FUSION_STRATEGIES",
]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class MetricsReport:
    """HR@k / NDCG@k averages plus timing and provenance for one run."""

    hr: dict[int, float]
    ndcg: dict[int, float]
    counts: dict[str, int]
    train_seconds: float
    predict_seconds: float
    config: dict
    seed: int
    split: str = "test"

    def __post_init__(self) -> None:
        ks = sorted(self.hr)
        if ks != sorted(self.ndcg):
            raise ConsistencyError("hr and ndcg must share cutoffs")
        for table in (self.hr, self.ndcg):
            for k, v in table.items():
                if not 0.0 <= v <= 1.0:
                    raise ConsistencyError(f"metric at k={k} outside [0,1]: {v}")
        for lo, hi in zip(ks, ks[1:]):
            if self.hr[hi] < self.hr[lo] or self.ndcg[hi] < self.ndcg[lo]:
                raise ConsistencyError(
                    f"metrics must be non-decreasing in k ({lo} -> {hi})")

    def to_dict(self) -> dict:
        return {
            "hr": {str(k): v for k, v in sorted(self.hr.items())},
            "ndcg": {str(k): v for k, v in sorted(self.ndcg.items())},
            "counts": dict(self.counts),
            "train_seconds": self.train_seconds,
            "predict_seconds": self.predict_seconds,
            "config": self.config,
            "seed": self.seed,
            "split": self.split,
        }

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        return cls(hr={int(k): v for k, v in d["hr"].items()},
                   ndcg={int(k): v for k, v in d["ndcg"].items()},
                   counts=d["counts"], train_seconds=d["train_seconds"],
                   predict_seconds=d["predict_seconds"], config=d["config"],
                   seed=d["seed"], split=d.get("split", "test"))


@dataclass
class TrainResult:
    """Outcome of a pretrain or distill loop."""

    params: object
    best_metric: float
    best_epoch: int
    epochs_run: int
    loss_trace: list[float] = field(default_factory=list)
    train_seconds: float = 0.0
    aborted: bool = False


# ---------------------------------------------------------------------------
# argument checks and batching helpers
# ---------------------------------------------------------------------------

def _check_names(kind: str, names, allowed) -> None:
    for name in names:
        if name not in allowed:
            raise InvalidArgumentError(
                f"unknown {kind} {name!r}; expected one of {allowed}")


def _check_fusion(fusion: str, fusion_readout) -> None:
    _check_names("fusion strategy", (fusion,), FUSION_STRATEGIES)
    if fusion != "stkd" and fusion_readout is None:
        raise InvalidArgumentError(f"fusion {fusion!r} needs a teacher readout")


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, order.size, batch_size):
        yield order[start:start + batch_size]


def _check_graph(dataset: SequenceDataset, stkg: Stkg) -> None:
    """Refuse a graph built over other users or takeaways than ``dataset``
    (its purchase CSR has one slot per user id, plus two)."""
    users = dataset.purchased_indptr.size - 2
    if (users, dataset.n_takeaways) != (stkg.n_users, stkg.n_takeaways):
        raise ConsistencyError(
            f"dataset has {users} users and {dataset.n_takeaways} takeaways, "
            f"graph has {stkg.n_users} and {stkg.n_takeaways}; build both "
            "from one vocabulary")


class SubgraphProvider:
    """Samples the deterministic per-sample subgraph once per row and caches
    it; refuses a dataset and graph whose sizes disagree."""

    def __init__(self, dataset: SequenceDataset, stkg: Stkg,
                 fanouts: tuple[int, int], seed: int,
                 counters: Counter | None = None):
        _check_graph(dataset, stkg)
        self.dataset = dataset
        self.stkg = stkg
        self.fanouts = tuple(fanouts)
        self.seed = seed
        self.counters = counters
        self._cache: dict[int, Subgraph] = {}

    def get(self, row: int) -> Subgraph:
        sg = self._cache.get(row)
        if sg is None:
            sg = sample_subgraph(self.dataset.items[row],
                                 int(self.dataset.user[row]), self.stkg,
                                 self.fanouts, self.seed, row)
            if self.counters is not None:
                self.counters["subgraph_samples"] += 1
            self._cache[row] = sg
        return sg

    def batch(self, rows: np.ndarray) -> list[Subgraph]:
        return [self.get(int(r)) for r in rows]


def _snapshot(params) -> dict[str, np.ndarray]:
    return {k: t.data.copy() for k, t in params.as_dict().items()}


def _restore(params, snapshot: dict[str, np.ndarray]) -> None:
    for k, t in params.as_dict().items():
        t.data[:] = snapshot[k]


def _fit(cfg: TrainConfig, params, dataset: SequenceDataset, step,
         validate) -> TrainResult:
    """The epoch loop both stages share.

    Each epoch runs ``step(batch_rows, i) -> loss`` over the training rows
    in a seeded shuffle (``i`` counts the steps taken so far), then scores
    ``validate() -> NDCG@10``; the loop stops early after ``cfg.patience``
    epochs without improvement.  A non-finite loss aborts the loop.  Either
    way the parameters of the best validated epoch (the initial ones if none
    was) are restored.
    """
    train_rows = dataset.rows("train")
    if train_rows.size == 0:
        raise InvalidArgumentError("dataset has no training rows")
    best = _snapshot(params)
    best_metric, best_epoch, bad_epochs = -np.inf, -1, 0
    trace: list[float] = []
    aborted = False
    epochs_run = 0
    t0 = time.perf_counter()
    for epoch in range(cfg.epochs):
        epochs_run += 1
        order = rng_for(cfg.seed, STREAM_SHUFFLE, epoch).permutation(train_rows)
        for batch in _batches(order, cfg.batch_size):
            loss = step(batch, len(trace))
            trace.append(loss)
            if not np.isfinite(loss):
                aborted = True
                break
        if aborted:
            break
        metric = validate()
        if metric > best_metric:
            best_metric, best_epoch, bad_epochs = metric, epoch, 0
            best = _snapshot(params)
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    train_seconds = time.perf_counter() - t0
    _restore(params, best)
    return TrainResult(params=params, best_metric=max(best_metric, 0.0),
                       best_epoch=best_epoch, epochs_run=epochs_run,
                       loss_trace=trace, train_seconds=train_seconds,
                       aborted=aborted)


# ---------------------------------------------------------------------------
# ranking shared by teacher validation and student evaluation
# ---------------------------------------------------------------------------

def _draw_negatives(dataset: SequenceDataset, split: str, cfg: TrainConfig,
                    drawn=None) -> tuple[np.ndarray, np.ndarray]:
    """Each ``split`` row's ``sample_negatives`` draw, as one
    ``(rows, n_negatives)`` table of item ids and a per-row ``truncated``
    flag; or ``drawn``, the pair a study drew once for every arm, if given.
    A truncated row is padded with its own target, which never scores
    strictly above itself."""
    if drawn is not None:
        return drawn
    rows = dataset.rows(split)
    table = np.repeat(dataset.target[rows, None], cfg.n_negatives, axis=1)
    truncated = np.zeros(rows.size, dtype=bool)
    for i, row in enumerate(rows):
        user = int(dataset.user[row])
        negs, truncated[i] = sample_negatives(
            user, int(dataset.target[row]), dataset.purchased_by(user),
            dataset.n_takeaways, cfg.n_negatives, cfg.seed)
        table[i, :negs.size] = negs
    return table, truncated


def _target_ranks(score_rows, dataset: SequenceDataset, rows: np.ndarray,
                  negatives: np.ndarray) -> tuple[np.ndarray, float]:
    """Each row's rank of its target against its row of ``negatives`` (the
    ``_draw_negatives`` table), and the seconds spent in ``score_rows``.

    ``score_rows(batch_rows) -> (b, |V|+1) ndarray`` produces model scores,
    with the tape off.  Ranking is model-agnostic: per batch of
    ``SCORE_BATCH`` rows, one gather of the target and negative scores and
    one ``rank_of_target`` call.
    """
    ids = np.column_stack((dataset.target[rows], negatives))  # target first
    ranks = np.empty(rows.size, dtype=np.int64)
    seconds = 0.0
    for start in range(0, rows.size, SCORE_BATCH):
        part = slice(start, start + SCORE_BATCH)
        t0 = time.perf_counter()
        with no_tape():
            scores = score_rows(rows[part])
        seconds += time.perf_counter() - t0
        picked = np.take_along_axis(scores, ids[part], axis=1)
        ranks[part] = rank_of_target(picked[:, 0], picked[:, 1:])
    return ranks, seconds


def _means(ranks: np.ndarray, k_list) -> tuple[dict, dict]:
    """HR@k and NDCG@k averaged over ``ranks`` (0 without rows).  NDCG is
    summed left to right in row order, not pairwise, so the means are
    bitwise those of a running per-row sum."""
    n = max(ranks.size, 1)
    hr = {k: float(hit_rate_at_k(ranks, k).sum()) / n for k in k_list}
    ndcg = {k: float(np.cumsum(np.append(0.0, ndcg_at_k(ranks, k)))[-1]) / n
            for k in k_list}
    return hr, ndcg


def _val_ndcg(score_rows, dataset: SequenceDataset,
              negatives: np.ndarray) -> float:
    """NDCG@10 over the validation rows.  A fit draws their ``negatives``
    once, before its first epoch, since a draw depends only on the seed,
    the user and the target."""
    ranks, _ = _target_ranks(score_rows, dataset, dataset.rows("valid"),
                             negatives)
    return _means(ranks, (10,))[1][10]


# ---------------------------------------------------------------------------
# stage one: teacher pre-training
# ---------------------------------------------------------------------------

def build_teacher(cfg: TrainConfig, stkg: Stkg) -> TeacherParams:
    return TeacherParams(n_entities=stkg.n_entities,
                         n_relations=stkg.n_relations, n=cfg.n, d=cfg.d,
                         gnn_layers=cfg.gnn_layers, seed=cfg.seed,
                         n_users=stkg.n_users, n_takeaways=stkg.n_takeaways)


def _teacher_val_ndcg(params: TeacherParams, provider: SubgraphProvider,
                      dataset: SequenceDataset,
                      negatives: np.ndarray) -> float:
    def score_rows(batch):
        return teacher_forward(provider.batch(batch), params,
                               provider.counters).data

    return _val_ndcg(score_rows, dataset, negatives)


def pretrain_teacher(cfg: TrainConfig, dataset: SequenceDataset, stkg: Stkg,
                     provider: SubgraphProvider | None = None, *,
                     _negatives=None) -> TrainResult:
    """Train the graph teacher with early stopping on validation NDCG@10
    (the loop is ``_fit``).  Teacher forwards are counted in
    ``provider.counters``, beside the subgraphs it samples."""
    if provider is None:
        provider = SubgraphProvider(dataset, stkg, cfg.fanouts, cfg.seed)
    params = build_teacher(cfg, stkg)
    opt = teacher_optimizer(params, lr=cfg.lr)

    def step(batch, i):
        return pretrain_step(provider.batch(batch), dataset.target[batch],
                             params, opt, provider.counters)

    negatives, _ = _draw_negatives(dataset, "valid", cfg, _negatives)
    return _fit(cfg, params, dataset, step,
                lambda: _teacher_val_ndcg(params, provider, dataset,
                                          negatives))


# ---------------------------------------------------------------------------
# soft-label cache
# ---------------------------------------------------------------------------

def compute_soft_labels(params: TeacherParams, provider: SubgraphProvider,
                        dataset: SequenceDataset):
    """Teacher probabilities for every training row, ``SCORE_BATCH`` rows
    per forward, counted in ``provider.counters``; returns (rows, probs)."""
    rows = dataset.rows("train")
    out = np.zeros((rows.size, params.n_takeaways + 1))
    with no_tape():
        for start in range(0, rows.size, SCORE_BATCH):
            batch = rows[start:start + SCORE_BATCH]
            probs = teacher_forward(provider.batch(batch), params,
                                    provider.counters)
            out[start:start + batch.size] = probs.data
    return rows.astype(np.int64), out


def save_soft_labels(path, rows: np.ndarray, probs: np.ndarray,
                     vocab_hash: str) -> None:
    write_npz(path, "soft_labels", SOFT_LABEL_FORMAT_VERSION,
              {"rows": rows, "probs": probs}, {"vocab_hash": vocab_hash})


def load_soft_labels(path, expected_vocab_hash: str | None = None):
    """Read a soft-label cache; returns ``(rows, probs, vocab_hash)``."""
    arrays, meta = read_npz(path, {"soft_labels": SOFT_LABEL_FORMAT_VERSION},
                            expected_vocab_hash)
    return arrays["rows"], arrays["probs"], meta["vocab_hash"]


class TeacherSignal:
    """Per-row teacher logits for distillation, read from the soft-label
    cache ``(rows, probs)`` that ``compute_soft_labels`` returns.

    The logits are the log of the cached probabilities: softmax is invariant
    to the shared log-normalizer, so they give back the teacher's
    distribution.  Probabilities are floored at CLAMP first, so the padding
    column (probability 0, masked out of the KD loss) stays finite.
    """

    def __init__(self, rows: np.ndarray, probs: np.ndarray):
        self._index = {int(r): i for i, r in enumerate(rows)}
        self._probs = probs

    def logits(self, rows: np.ndarray) -> np.ndarray:
        try:
            idx = [self._index[int(r)] for r in rows]
        except KeyError as exc:
            raise ConsistencyError(
                f"row {exc.args[0]} missing from the soft-label cache")
        return np.log(np.maximum(self._probs[idx], CLAMP))


# ---------------------------------------------------------------------------
# stage two: distillation / student training
# ---------------------------------------------------------------------------

def build_student(cfg: TrainConfig, dataset: SequenceDataset) -> StudentParams:
    return StudentParams(n_takeaways=dataset.n_takeaways,
                         n_regions=dataset.n_regions, n=cfg.n, d=cfg.d,
                         heads=cfg.heads, layers=cfg.layers,
                         dropout=cfg.dropout, seed=cfg.seed)


def _apply_variant(params: StudentParams, variant: str,
                   fusion: str) -> dict[str, Tensor]:
    """Make the parameter groups a variant removes zero constants (no
    gradient reaches them); returns the parameters left to train.  Those
    hold ``W_cat`` only for the "cat" fusion, the one run that reads it."""
    spatial = ("region_emb", "dist_emb", "W_SP")
    groups = {"no_sp": spatial, "no_sp_kd": spatial, "no_c": ("region_emb",),
              "no_f": ("dist_emb",)}.get(variant, ())
    for name in groups:
        getattr(params, name).data[:] = 0.0
        getattr(params, name).requires_grad = False
    untrained = groups if fusion == "cat" else groups + ("W_cat",)
    return {n: t for n, t in params.as_dict().items() if n not in untrained}


def variant_alpha(cfg: TrainConfig, variant: str) -> float:
    _check_names("variant", (variant,), ABLATION_VARIANTS)
    return 0.0 if variant in ("no_kd", "no_sp_kd") else cfg.alpha


def _student_scores(params: StudentParams, dataset: SequenceDataset,
                    fusion: str = "stkd", fusion_readout=None):
    """``score_rows`` for the student: its probabilities for a batch of
    rows, fused with ``fusion_readout(rows)`` unless ``fusion`` is "stkd"."""
    def score_rows(batch):
        fused = fusion_readout(batch) if fusion != "stkd" else None
        probs, _ = predict_scores(dataset.items[batch], dataset.regions[batch],
                                  dataset.dists[batch], params, fused=fused,
                                  fusion=fusion)
        return probs.data

    return score_rows


def _student_val_ndcg(params: StudentParams, dataset: SequenceDataset,
                      negatives: np.ndarray, fusion: str = "stkd",
                      fusion_readout=None) -> float:
    return _val_ndcg(_student_scores(params, dataset, fusion, fusion_readout),
                     dataset, negatives)


def distill(cfg: TrainConfig, dataset: SequenceDataset,
            signal: TeacherSignal | None = None,
            variant: str = "full", fusion: str = "stkd",
            fusion_readout=None, *, _negatives=None) -> TrainResult:
    """Train the student on the joint objective with early stopping (the
    loop is ``_fit``).

    ``variant`` selects the ablation (the parameter groups it removes and
    the KD blend).  ``fusion`` other than "stkd" replaces distillation with
    feature fusion: ``fusion_readout(rows) -> Tensor (b, d)`` supplies the
    teacher representation merged into the prediction anchor, and the
    objective reduces to the recommendation loss.
    """
    _check_fusion(fusion, fusion_readout)
    alpha = variant_alpha(cfg, variant)     # also rejects an unknown variant
    if fusion != "stkd":
        alpha = 0.0
    if alpha > 0.0 and signal is None:
        raise InvalidArgumentError(
            "alpha > 0 requires teacher soft labels; pass a TeacherSignal")

    params = build_student(cfg, dataset)
    opt = Adam(_apply_variant(params, variant, fusion), lr=cfg.lr,
               freeze_rows=params.pad_frozen_rows())

    def step(batch, i):
        fused = None
        if fusion != "stkd":
            with no_tape():
                fused = fusion_readout(batch)
            if isinstance(fused, Tensor):
                fused = Tensor(fused.data)   # frozen teacher features
        logits = predict_logits(
            dataset.items[batch], dataset.regions[batch],
            dataset.dists[batch], params, train=True, seed=cfg.seed,
            step=i, fused=fused, fusion=fusion)
        rec = rec_loss(logits, dataset.target[batch])
        if alpha > 0.0:
            kd = kd_loss(signal.logits(batch), logits, cfg.temperature)
        else:
            kd = 0.0
        loss = joint_loss(kd, rec, alpha)
        opt.zero_grad()
        loss.backward()
        opt.step()
        return float(loss.data)

    negatives, _ = _draw_negatives(dataset, "valid", cfg, _negatives)
    return _fit(cfg, params, dataset, step,
                lambda: _student_val_ndcg(params, dataset, negatives, fusion,
                                          fusion_readout))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(params: StudentParams, dataset: SequenceDataset,
             cfg: TrainConfig, split: str = "test",
             train_seconds: float = 0.0, fusion: str = "stkd",
             fusion_readout=None, counters: Counter | None = None, *,
             _negatives=None) -> MetricsReport:
    """Rank each held-out target against sampled negatives.

    ``predict_seconds`` accumulates only model forward time (including any
    teacher fusion work); sampling negatives and bookkeeping are excluded.
    A student whose item or region table was sized for another vocabulary
    than ``dataset`` raises ``ConsistencyError``.
    """
    _check_fusion(fusion, fusion_readout)
    sizes = (params.n_takeaways, params.n_regions)
    if sizes != (dataset.n_takeaways, dataset.n_regions):
        raise ConsistencyError(
            f"student has {sizes[0]} takeaways and {sizes[1]} regions, "
            f"dataset has {dataset.n_takeaways} and {dataset.n_regions}")
    rows = dataset.rows(split)
    negatives, truncated = _draw_negatives(dataset, split, cfg, _negatives)
    ranks, predict_seconds = _target_ranks(
        _student_scores(params, dataset, fusion, fusion_readout), dataset,
        rows, negatives)
    hr, ndcg = _means(ranks, cfg.k_list)
    counts = {"n_instances": int(rows.size),
              "n_truncated": int(np.count_nonzero(truncated))}
    if counters is not None:
        counts.update(counters)
    return MetricsReport(hr=hr, ndcg=ndcg, counts=counts,
                         train_seconds=train_seconds,
                         predict_seconds=predict_seconds,
                         config=cfg.to_dict(), seed=cfg.seed, split=split)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def _teacher_and_signal(cfg: TrainConfig, dataset: SequenceDataset,
                        stkg: Stkg, negatives, with_signal: bool):
    """A pre-trained teacher, validated against ``negatives``, and its
    soft-label signal if ``with_signal`` (else None)."""
    provider = SubgraphProvider(dataset, stkg, cfg.fanouts, cfg.seed)
    result = pretrain_teacher(cfg, dataset, stkg, provider=provider,
                              _negatives=negatives)
    if not with_signal:
        return result, None
    rows, probs = compute_soft_labels(result.params, provider, dataset)
    return result, TeacherSignal(rows, probs)


def _study(dataset: SequenceDataset, stkg: Stkg, arms: dict, split: str):
    """One report per arm; ``arms`` maps a label to ``(cfg, variant, fusion)``.

    A teacher is pre-trained once per ``fanouts`` setting, and only if an
    arm reads it: through KD (alpha > 0) or as a fusion readout; its soft
    labels are computed only if an arm of that setting distills from them.
    Its training time is charged to exactly the arms that read it.  Every
    arm evaluates with its own counters, and a fusion arm samples through
    its own provider, so ``counts`` shows what that arm asked of the teacher.
    Each split's negatives are drawn once per seed and shared by every arm
    and teacher that ranks that split, since a draw depends only on the
    seed, the user and the target.  A graph whose sizes disagree with
    ``dataset`` is refused before any arm trains.
    """
    _check_graph(dataset, stkg)
    draws: dict[tuple, tuple] = {}

    def negatives(cfg, split):
        key = (cfg.seed, cfg.n_negatives, split)
        if key not in draws:
            draws[key] = _draw_negatives(dataset, split, cfg)
        return draws[key]

    def distills(cfg, variant, fusion):
        return fusion == "stkd" and variant_alpha(cfg, variant) > 0.0

    kd_fanouts = {arm[0].fanouts for arm in arms.values() if distills(*arm)}
    teachers: dict[tuple[int, ...], tuple] = {}
    reports: dict[str, MetricsReport] = {}
    for label, (cfg, variant, fusion) in arms.items():
        counters = Counter()
        teacher = signal = readout = None
        if fusion != "stkd" or distills(cfg, variant, fusion):
            if cfg.fanouts not in teachers:
                teachers[cfg.fanouts] = _teacher_and_signal(
                    cfg, dataset, stkg, negatives(cfg, "valid"),
                    cfg.fanouts in kd_fanouts)
            teacher, signal = teachers[cfg.fanouts]
        if fusion != "stkd":
            provider = SubgraphProvider(dataset, stkg, cfg.fanouts, cfg.seed,
                                        counters)

            def readout(rows):
                return teacher_readout(provider.batch(rows), teacher.params,
                                       counters)

        result = distill(cfg, dataset, signal=signal, variant=variant,
                         fusion=fusion, fusion_readout=readout,
                         _negatives=negatives(cfg, "valid"))
        seconds = result.train_seconds
        if teacher is not None:
            seconds += teacher.train_seconds
        reports[label] = evaluate(result.params, dataset, cfg, split=split,
                                  train_seconds=seconds, fusion=fusion,
                                  fusion_readout=readout, counters=counters,
                                  _negatives=negatives(cfg, split))
    return reports


def ablate(cfg: TrainConfig, dataset: SequenceDataset, stkg: Stkg,
           variants=ABLATION_VARIANTS, split: str = "test"):
    """One report per ablation variant, sharing seed, data, and teacher."""
    _check_names("variant", variants, ABLATION_VARIANTS)
    arms = {v: (cfg, v, "stkd") for v in variants}
    return _study(dataset, stkg, arms, split)


def ablate_fusion(cfg: TrainConfig, dataset: SequenceDataset, stkg: Stkg,
                  strategies=FUSION_STRATEGIES, split: str = "test"):
    """Compare distillation against feature-fusion alternatives with timing.

    Every strategy's report carries its own instrumentation counters under
    ``counts``, so callers can verify that the distilled path never touches
    the teacher at inference.
    """
    _check_names("fusion strategy", strategies, FUSION_STRATEGIES)
    arms = {s: (cfg, "full", s) for s in strategies}
    return _study(dataset, stkg, arms, split)


TEMPERATURE_GRID = (1.0, 3.0, 5.0, 7.0, 9.0)
FANOUT_GRID = ((5, 5), (10, 10), (15, 15), (20, 20))


def sweep(cfg: TrainConfig, dataset: SequenceDataset, stkg: Stkg,
          parameter: str = "temperature", split: str = "test"):
    """Grid sweep over the distillation temperature or the sampling fanouts.

    The temperature only enters distillation, so one teacher serves that
    whole axis; each fanouts setting pre-trains its own.
    """
    grids = {"temperature": TEMPERATURE_GRID, "fanouts": FANOUT_GRID}
    if parameter not in grids:
        raise InvalidArgumentError(
            f"sweep parameter must be 'temperature' or 'fanouts', "
            f"got {parameter!r}")
    arms = {f"{parameter}={value}":
            (TrainConfig.from_dict({**cfg.to_dict(), parameter: value}),
             "full", "stkd")
            for value in grids[parameter]}
    return _study(dataset, stkg, arms, split)
