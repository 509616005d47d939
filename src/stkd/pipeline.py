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
validation closures they hand it.  Evaluation ranks each user's
held-out target against sampled negatives and reports HR@k / NDCG@k with
wall-clock timing split into training and prediction phases.  Every pass
that nothing backpropagates through (validation, evaluation, soft labels,
the fusion readout in a training step) runs with the tape off.

The three studies (``ablate``, ``ablate_fusion``, ``sweep``) only name
their arms, each a ``(TrainConfig, variant, fusion)`` triple, and run them
through the one study loop ``_study``.  It alone decides when a teacher
exists (one per ``fanouts`` setting, pre-trained only if an arm reads it
through KD or a fusion readout, with soft labels only if an arm distills)
and charges its training time to exactly the arms that read it."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_npz, write_json, write_npz
from .config import STREAM_SHUFFLE, TrainConfig, rng_for
from .errors import ConsistencyError, InvalidArgumentError
from .graph import Stkg, Subgraph, sample_subgraph
from .instrument import Counters
from .metrics import MetricAccumulator, rank_of_target, sample_negatives
from .optim import Adam
from .sequences import SequenceDataset
from .student import (StudentParams, joint_loss, kd_loss, predict_logits,
                      predict_scores, rec_loss)
from .teacher import (TeacherParams, pretrain_step, teacher_forward,
                      teacher_optimizer, teacher_readout)
from .tensor import CLAMP, Tensor, no_tape

SOFT_LABEL_FORMAT_VERSION = 2
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


class SubgraphProvider:
    """Samples the deterministic per-sample subgraph once and caches it."""

    def __init__(self, dataset: SequenceDataset, stkg: Stkg,
                 fanouts: tuple[int, int], seed: int,
                 counters: Counters | None = None):
        self.dataset = dataset
        self.stkg = stkg
        self.fanouts = tuple(fanouts)
        self.seed = seed
        self.counters = counters
        self._cache: dict[int, Subgraph] = {}

    def get(self, row: int) -> Subgraph:
        sid = self.dataset.sid(row)
        sg = self._cache.get(sid)
        if sg is None:
            sg = sample_subgraph(self.dataset.items[row],
                                 int(self.dataset.user[row]), self.stkg,
                                 self.fanouts, self.seed, sid)
            if self.counters is not None:
                self.counters.bump("subgraph_samples")
            self._cache[sid] = sg
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

def _draw_negatives(dataset: SequenceDataset, rows: np.ndarray,
                    n_negatives: int, seed: int,
                    n_takeaways: int) -> list[tuple[np.ndarray, bool]]:
    """Each row's ``sample_negatives`` draw ``(negatives, truncated)``, in
    row order."""
    drawn = []
    for row in rows:
        user = int(dataset.user[row])
        drawn.append(sample_negatives(
            user, int(dataset.target[row]), dataset.purchased_by(user),
            n_takeaways, n_negatives, seed))
    return drawn


def _ranked_metrics(score_rows, dataset: SequenceDataset, rows: np.ndarray,
                    k_list, negatives) -> MetricAccumulator:
    """Accumulate HR/NDCG over ``rows``.

    ``score_rows(batch_rows) -> (b, |V|+1) ndarray`` produces model scores,
    with the tape off; ``negatives`` holds each row's ``_draw_negatives``
    draw, in row order.  Ranking is model-agnostic.
    """
    acc = MetricAccumulator(k_list=tuple(k_list))
    drawn = iter(negatives)
    for batch in _batches(rows, 256):
        with no_tape():
            scores = score_rows(batch)
        for i, row in enumerate(batch):
            negs, truncated = next(drawn)
            target = int(dataset.target[row])
            rank = rank_of_target(scores[i, target], scores[i, negs])
            acc.add(rank, truncated)
    return acc


def _val_ndcg(score_rows, dataset: SequenceDataset, cfg: TrainConfig,
              n_takeaways: int, negatives: list) -> float:
    """NDCG@10 over the validation rows.  A fit hands every epoch's
    validation one ``negatives`` list: the first fills it with the rows'
    draws and the later ones reuse them, since a draw depends only on the
    seed, the user and the target."""
    rows = dataset.rows("valid")
    if rows.size == 0:
        return 0.0
    if not negatives:
        negatives.extend(_draw_negatives(dataset, rows, cfg.n_negatives,
                                         cfg.seed, n_takeaways))
    return _ranked_metrics(score_rows, dataset, rows, (10,),
                           negatives).ndcg(10)


# ---------------------------------------------------------------------------
# stage one: teacher pre-training
# ---------------------------------------------------------------------------

def build_teacher(cfg: TrainConfig, stkg: Stkg, n_users: int,
                  n_takeaways: int) -> TeacherParams:
    return TeacherParams(n_entities=stkg.n_entities,
                         n_relations=stkg.n_relations, n=cfg.n, d=cfg.d,
                         gnn_layers=cfg.gnn_layers, seed=cfg.seed,
                         n_users=n_users, n_takeaways=n_takeaways)


def _teacher_val_ndcg(params: TeacherParams, provider: SubgraphProvider,
                      dataset: SequenceDataset, cfg: TrainConfig,
                      counters: Counters | None, negatives: list) -> float:
    def score_rows(batch):
        return teacher_forward(provider.batch(batch), params, counters).data

    return _val_ndcg(score_rows, dataset, cfg, params.n_takeaways, negatives)


def pretrain_teacher(cfg: TrainConfig, dataset: SequenceDataset, stkg: Stkg,
                     n_users: int, n_takeaways: int,
                     counters: Counters | None = None,
                     provider: SubgraphProvider | None = None) -> TrainResult:
    """Train the graph teacher with early stopping on validation NDCG@10
    (the loop is ``_fit``)."""
    params = build_teacher(cfg, stkg, n_users, n_takeaways)
    opt = teacher_optimizer(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    if provider is None:
        provider = SubgraphProvider(dataset, stkg, cfg.fanouts, cfg.seed,
                                    counters)

    def step(batch, i):
        return pretrain_step(provider.batch(batch), dataset.target[batch],
                             params, opt, counters)

    negatives: list = []            # drawn at the first validation
    return _fit(cfg, params, dataset, step,
                lambda: _teacher_val_ndcg(params, provider, dataset, cfg,
                                          counters, negatives))


# ---------------------------------------------------------------------------
# soft-label cache
# ---------------------------------------------------------------------------

def compute_soft_labels(params: TeacherParams, provider: SubgraphProvider,
                        dataset: SequenceDataset,
                        rows: np.ndarray | None = None,
                        batch_size: int = 256,
                        counters: Counters | None = None):
    """Teacher probabilities for every requested row; returns (rows, probs)."""
    if rows is None:
        rows = dataset.rows("train")
    out = np.zeros((rows.size, params.n_takeaways + 1))
    with no_tape():
        for start in range(0, rows.size, batch_size):
            batch = rows[start:start + batch_size]
            probs = teacher_forward(provider.batch(batch), params, counters)
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

def build_student(cfg: TrainConfig, n_takeaways: int,
                  n_regions: int) -> StudentParams:
    return StudentParams(n_takeaways=n_takeaways, n_regions=n_regions,
                         n=cfg.n, d=cfg.d, heads=cfg.heads, layers=cfg.layers,
                         dropout=cfg.dropout, seed=cfg.seed)


def _apply_variant(params: StudentParams, opt: Adam, variant: str) -> None:
    """Zero and freeze the parameter groups a variant removes."""
    spatial = ("region_emb", "dist_emb", "W_SP")
    groups = {"no_sp": spatial, "no_sp_kd": spatial, "no_c": ("region_emb",),
              "no_f": ("dist_emb",)}.get(variant, ())
    for name in groups:
        getattr(params, name).data[:] = 0.0
        opt.freeze.add(name)


def variant_alpha(cfg: TrainConfig, variant: str) -> float:
    _check_names("variant", (variant,), ABLATION_VARIANTS)
    return 0.0 if variant in ("no_kd", "no_sp_kd") else cfg.alpha


def _student_val_ndcg(params: StudentParams, dataset: SequenceDataset,
                      cfg: TrainConfig, negatives: list,
                      fusion: str = "stkd", fused_rows=None) -> float:
    def score_rows(batch):
        fused = fused_rows(batch) if fused_rows is not None else None
        probs, _ = predict_scores(dataset.items[batch], dataset.regions[batch],
                                  dataset.dists[batch], params, fused=fused,
                                  fusion=fusion)
        return probs.data

    return _val_ndcg(score_rows, dataset, cfg, params.n_takeaways, negatives)


def distill(cfg: TrainConfig, dataset: SequenceDataset, n_takeaways: int,
            n_regions: int, signal: TeacherSignal | None = None,
            variant: str = "full", fusion: str = "stkd",
            fusion_readout=None) -> TrainResult:
    """Train the student on the joint objective with early stopping (the
    loop is ``_fit``).

    ``variant`` selects the ablation (parameter-group freezing and the KD
    blend).  ``fusion`` other than "stkd" replaces distillation with feature
    fusion: ``fusion_readout(rows) -> Tensor (b, d)`` supplies the teacher
    representation merged into the prediction anchor, and the objective
    reduces to the recommendation loss.
    """
    _check_fusion(fusion, fusion_readout)
    alpha = variant_alpha(cfg, variant)     # also rejects an unknown variant
    if fusion != "stkd":
        alpha = 0.0
    if alpha > 0.0 and signal is None:
        raise InvalidArgumentError(
            "alpha > 0 requires teacher soft labels; pass a TeacherSignal")

    params = build_student(cfg, n_takeaways, n_regions)
    opt = Adam(params.as_dict(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
               freeze_rows=params.pad_frozen_rows())
    _apply_variant(params, opt, variant)

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

    negatives: list = []            # drawn at the first validation
    return _fit(cfg, params, dataset, step,
                lambda: _student_val_ndcg(params, dataset, cfg, negatives,
                                          fusion=fusion,
                                          fused_rows=fusion_readout))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(params: StudentParams, dataset: SequenceDataset,
             cfg: TrainConfig, split: str = "test",
             train_seconds: float = 0.0, fusion: str = "stkd",
             fusion_readout=None,
             counters: Counters | None = None) -> MetricsReport:
    """Rank each held-out target against sampled negatives.

    ``predict_seconds`` accumulates only model forward time (including any
    teacher fusion work); sampling negatives and bookkeeping are excluded.
    """
    _check_fusion(fusion, fusion_readout)
    rows = dataset.rows(split)
    timer = {"predict": 0.0}

    def score_rows(batch):
        t0 = time.perf_counter()
        fused = None
        if fusion != "stkd":
            fused = fusion_readout(batch)
        probs, _ = predict_scores(dataset.items[batch], dataset.regions[batch],
                                  dataset.dists[batch], params, fused=fused,
                                  fusion=fusion)
        timer["predict"] += time.perf_counter() - t0
        return probs.data

    acc = _ranked_metrics(score_rows, dataset, rows, cfg.k_list,
                          _draw_negatives(dataset, rows, cfg.n_negatives,
                                          cfg.seed, params.n_takeaways))
    counts = {"n_instances": acc.n_instances, "n_truncated": acc.n_truncated}
    if counters is not None:
        counts.update(counters.snapshot())
    return MetricsReport(hr={k: acc.hr(k) for k in cfg.k_list},
                         ndcg={k: acc.ndcg(k) for k in cfg.k_list},
                         counts=counts, train_seconds=train_seconds,
                         predict_seconds=timer["predict"],
                         config=cfg.to_dict(), seed=cfg.seed, split=split)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def _teacher_and_signal(cfg: TrainConfig, dataset: SequenceDataset,
                        stkg: Stkg, n_users: int, n_takeaways: int,
                        with_signal: bool):
    """A pre-trained teacher, and its soft-label signal if ``with_signal``
    (else None)."""
    provider = SubgraphProvider(dataset, stkg, cfg.fanouts, cfg.seed)
    result = pretrain_teacher(cfg, dataset, stkg, n_users, n_takeaways,
                              provider=provider)
    if not with_signal:
        return result, None
    rows, probs = compute_soft_labels(result.params, provider, dataset)
    return result, TeacherSignal(rows, probs)


def _study(dataset: SequenceDataset, stkg: Stkg, n_users: int,
           n_takeaways: int, n_regions: int, arms: dict, split: str):
    """One report per arm; ``arms`` maps a label to ``(cfg, variant, fusion)``.

    A teacher is pre-trained once per ``fanouts`` setting, and only if an
    arm reads it: through KD (alpha > 0) or as a fusion readout; its soft
    labels are computed only if an arm of that setting distills from them.
    Its training time is charged to exactly the arms that read it.  Every
    arm evaluates with its own counters, and a fusion arm samples through
    its own provider, so ``counts`` shows what that arm asked of the teacher.
    """
    def distills(cfg, variant, fusion):
        return fusion == "stkd" and variant_alpha(cfg, variant) > 0.0

    kd_fanouts = {arm[0].fanouts for arm in arms.values() if distills(*arm)}
    teachers: dict[tuple[int, ...], tuple] = {}
    reports: dict[str, MetricsReport] = {}
    for label, (cfg, variant, fusion) in arms.items():
        counters = Counters()
        teacher = signal = readout = None
        if fusion != "stkd" or distills(cfg, variant, fusion):
            if cfg.fanouts not in teachers:
                teachers[cfg.fanouts] = _teacher_and_signal(
                    cfg, dataset, stkg, n_users, n_takeaways,
                    cfg.fanouts in kd_fanouts)
            teacher, signal = teachers[cfg.fanouts]
        if fusion != "stkd":
            provider = SubgraphProvider(dataset, stkg, cfg.fanouts, cfg.seed,
                                        counters)

            def readout(rows):
                return teacher_readout(provider.batch(rows), teacher.params,
                                       counters)

        result = distill(cfg, dataset, n_takeaways, n_regions, signal=signal,
                         variant=variant, fusion=fusion,
                         fusion_readout=readout)
        seconds = result.train_seconds
        if teacher is not None:
            seconds += teacher.train_seconds
        reports[label] = evaluate(result.params, dataset, cfg, split=split,
                                  train_seconds=seconds, fusion=fusion,
                                  fusion_readout=readout, counters=counters)
    return reports


def ablate(cfg: TrainConfig, dataset: SequenceDataset, stkg: Stkg,
           n_users: int, n_takeaways: int, n_regions: int,
           variants=ABLATION_VARIANTS, split: str = "test"):
    """One report per ablation variant, sharing seed, data, and teacher."""
    _check_names("variant", variants, ABLATION_VARIANTS)
    arms = {v: (cfg, v, "stkd") for v in variants}
    return _study(dataset, stkg, n_users, n_takeaways, n_regions, arms, split)


def ablate_fusion(cfg: TrainConfig, dataset: SequenceDataset, stkg: Stkg,
                  n_users: int, n_takeaways: int, n_regions: int,
                  strategies=FUSION_STRATEGIES, split: str = "test"):
    """Compare distillation against feature-fusion alternatives with timing.

    Every strategy's report carries its own instrumentation counters under
    ``counts``, so callers can verify that the distilled path never touches
    the teacher at inference.
    """
    _check_names("fusion strategy", strategies, FUSION_STRATEGIES)
    arms = {s: (cfg, "full", s) for s in strategies}
    return _study(dataset, stkg, n_users, n_takeaways, n_regions, arms, split)


TEMPERATURE_GRID = (1.0, 3.0, 5.0, 7.0, 9.0)
FANOUT_GRID = ((5, 5), (10, 10), (15, 15), (20, 20))


def sweep(cfg: TrainConfig, dataset: SequenceDataset, stkg: Stkg,
          n_users: int, n_takeaways: int, n_regions: int,
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
    return _study(dataset, stkg, n_users, n_takeaways, n_regions, arms, split)
