"""Workloads and the timed user path of the stkd benchmark.

Every workload drives the real CLI, ``stkd.cli.main([...])``, in-process.
Set-up is gen-synth -> prepare -> build-graph.  A run is rounds of set-up
-> pretrain -> distill -> serve -> evaluate (valid, test) -> serve, each
round in a fresh directory, where serving is ``student.recommend`` and
``student.predict_scores``.  Each round repeats the same deterministic
work, so its outputs must match the first round's bit for bit.  On a
shared host the same work runs up to ~1.8x slower for seconds at a time,
so each timing metric is the median of many measurements spread over the
run (see ``end_to_end``) rather than one long measurement.

The workloads differ in size and in which stage dominates.  The benchmark
seed feeds only the synthetic corpus; the training seed is fixed, so one
corpus always trains to the same numbers.

Every CLI stage, ``recommend`` request and batch-256 call is one operation.
An operation fails on a non-zero exit, an exception, ``aborted: true`` or a
failed output check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from stkd.checkpoint import load_arrays, load_student
from stkd.cli import main as stkd_main
from stkd.pipeline import MetricsReport, load_soft_labels
from stkd.sequences import SequenceDataset, load_vocab
from stkd.student import predict_scores, recommend

MIN_ROUNDS = 3             # an untraced run runs at least this many rounds
SEGMENT_REQUESTS = 500     # per serving segment; a round has 2 segments
SERVE_K = 10
SERVE_BATCH = 256
SEGMENT_BATCHES = 4        # batch-256 calls per serving segment, at least
MIN_BATCH_SECONDS = 0.3    # per segment, batches repeat until this is timed
MIN_STAGE_SECONDS = 1.0    # per round, set-up, distill and evaluate (valid +
                           # test) repeat until this much of each is timed

TRAIN_COMMON = {"batch_size": 128, "heads": 2, "layers": 2, "gnn_layers": 2,
                "seed": 0, "lr": 0.01, "dropout": 0.1, "alpha": 0.2,
                "temperature": 3.0, "epochs": 1, "patience": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict            # SyntheticConfig fields; the seed is the bench's
    train: dict            # TrainConfig fields shared by every stage

    def config(self) -> dict:
        return {**TRAIN_COMMON, **self.train}

    def toy(self) -> "Workload":
        """Same path at a size that runs in seconds (smoke test)."""
        return replace(
            self,
            synth={**self.synth, "n_users": 24, "n_takeaways": 48,
                   "n_regions": 4, "events_per_user": 8},
            train={**self.train, "n": 4, "d": 8, "fanouts": [2, 2]})


WORKLOADS = {w.name: w for w in (
    # demo-01 city: the graph teacher (sampling, message passing, tape
    # backward, Adam over its tape) dominates
    Workload(name="teacher_city",
             synth={"n_users": 120, "n_takeaways": 200, "n_regions": 8,
                    "events_per_user": 24, "noise": 0.25},
             train={"n": 8, "d": 32, "fanouts": [8, 8],
                    "max_train_per_user": 6}),
    # 500 users x 5,000 takeaways (~1,950 bought), one training window per
    # user: ranking against ~1,950-item negative pools, serving, and the
    # student's KD against the dense soft-label cache at that width dominate;
    # the teacher samples narrowly (fanouts 2,2)
    Workload(name="serve_wide",
             synth={"n_users": 500, "n_takeaways": 5000, "n_regions": 16,
                    "events_per_user": 12},
             train={"n": 16, "d": 64, "fanouts": [2, 2],
                    "max_train_per_user": 1}),
)}


class BenchError(RuntimeError):
    """A failure after which the run cannot go on."""


class Ops:
    """Operation accounting: attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {problem}")


def run_stage(ops: Ops, argv: list[str], check=None) -> float:
    """Run one CLI stage; return its wall time.  ``check()`` runs after the
    clock stops and returns a problem string or None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = stkd_main(argv)
    except Exception as exc:          # a crash is a failed operation
        rc = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    name = argv[0]
    if rc != 0:
        ops.record(name, f"exit {rc} {err.getvalue().strip()[:200]}")
        raise BenchError(f"stage {name} failed: {rc}")
    problem = None
    if check is not None:
        try:
            problem = check()
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    ops.record(name, problem)
    return seconds


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_pretrain(out: Path):
    if _read_json(out / "pretrain_report.json")["aborted"]:
        return "pretrain aborted"
    cache = out / "soft_labels.npz"
    if cache.exists():
        _, probs, _ = load_soft_labels(cache)
        if not np.all(probs[:, 0] == 0.0):
            return "soft-label column 0 is not exactly 0"
        if not np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
            return "soft-label rows do not sum to 1"
    return None


def check_distill(out: Path):
    if _read_json(out / "distill_report.json")["aborted"]:
        return "distill aborted"
    return None


def check_evaluate(out: Path, split: str, expected: int):
    report = MetricsReport.from_dict(_read_json(out / f"metrics_{split}.json"))
    if report.counts["n_instances"] != expected:
        return (f"{report.counts['n_instances']} instances ranked, "
                f"expected {expected}")
    return None


def check_recommendation(recs, n_takeaways: int):
    ids = [i for i, _ in recs]
    probs = [p for _, p in recs]
    if len(ids) != SERVE_K or len(set(ids)) != SERVE_K:
        return f"expected {SERVE_K} distinct ids, got {ids}"
    if any(i < 1 or i > n_takeaways for i in ids):
        return f"pad or out-of-range id in {ids}"
    if any(a < b for a, b in zip(probs, probs[1:])):
        return "probabilities not in non-increasing order"
    return None


def check_batch(probs: np.ndarray, rows: int, n_takeaways: int):
    if probs.shape != (rows, n_takeaways + 1):
        return f"shape {probs.shape}"
    if not np.all(np.isfinite(probs)) or not np.all(probs[:, 0] == 0.0):
        return "non-finite scores or non-zero pad column"
    if not np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
        return "rows do not sum to 1"
    return None


# ---------------------------------------------------------------------------
# set-up and timed phase
# ---------------------------------------------------------------------------

def setup(wl: Workload, seed: int, out: Path, ops: Ops) -> float:
    """gen-synth -> prepare -> build-graph into ``out``; returns seconds."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "synth.json").write_text(json.dumps(wl.synth), encoding="utf-8")
    (out / "train.json").write_text(json.dumps(wl.config()), encoding="utf-8")
    d = ["--out-dir", str(out)]
    start = time.perf_counter()
    run_stage(ops, ["gen-synth", "--config", str(out / "synth.json"),
                    "--seed", str(seed), *d])
    cfg = ["--config", str(out / "train.json"), *d]
    run_stage(ops, ["prepare", *cfg])
    run_stage(ops, ["build-graph", *cfg])
    return time.perf_counter() - start


def _traced_calls(tracer) -> dict:
    """Traced calls of the spans that the pretrain report also counts."""
    table = tracer.span_table()
    return {"teacher_forwards": table.get("teacher.gnn", {}).get("calls", 0),
            "subgraph_samples": table.get("graph.sample", {}).get("calls", 0)}


def timed_phase(wl: Workload, seed: int, work: Path, ops: Ops,
                seconds: float | None = None, tracer=None) -> dict:
    """Rounds of set-up -> pretrain -> distill -> serve -> evaluate (valid,
    test) -> serve, each round in a fresh directory.

    With ``seconds`` (untraced runs) rounds repeat while another one fits in
    that much time, and at least MIN_ROUNDS times, and set-up, distill and
    evaluate repeat within a round; without it one round runs with each
    step once, so a traced and an untraced run do identical work.
    Every round does the
    same deterministic work, so its outputs must match round 0's bit for
    bit.  ``res["out"]`` is the last round's artifact directory; earlier
    ones are deleted.
    """
    res = {"rounds": [], "out": None}
    min_stage_s = 0.0 if seconds is None else MIN_STAGE_SECONDS
    min_batch_s = 0.0 if seconds is None else MIN_BATCH_SECONDS

    def repeat(step, min_s: float) -> list:
        """Times of ``step()`` run until ``min_s`` of it is timed (once at
        least); every repeat rewrites the same outputs."""
        times = []
        while not times or sum(times) < min_s:
            times.append(step())
        return times

    setups = itertools.count()

    def fresh_setup() -> float:
        if res["out"] is not None:
            shutil.rmtree(res["out"])
        res["out"] = work / f"setup{next(setups)}"
        return setup(wl, seed, res["out"], ops)

    start = time.perf_counter()
    round_s = []               # wall time of each round so far

    def another_round() -> bool:
        if seconds is None:
            return not round_s
        return (len(round_s) < MIN_ROUNDS
                or time.perf_counter() - start + statistics.median(round_s)
                <= seconds)

    while another_round():
        round_start = time.perf_counter()
        rd: dict = {"setup_s": repeat(fresh_setup, min_stage_s),
                    "segments": []}
        out = res["out"]
        dataset = SequenceDataset.load(out / "dataset.npz")
        vocab = load_vocab(out / "vocab.json")
        eval_rows = np.concatenate([dataset.rows("valid"),
                                    dataset.rows("test")])
        res["n_train"] = int(dataset.rows("train").size)
        res["n_eval"] = int(eval_rows.size)
        cfg = ["--config", str(out / "train.json"), "--out-dir", str(out)]

        before = _traced_calls(tracer) if tracer else None
        rd["pretrain_s"] = run_stage(ops, ["pretrain", *cfg],
                                     lambda: check_pretrain(out))
        rd["pretrain_report"] = _read_json(out / "pretrain_report.json")
        if tracer:
            after = _traced_calls(tracer)
            rd["traced_pretrain_calls"] = {k: after[k] - before[k]
                                           for k in after}
        rd["distill_s"] = repeat(lambda: run_stage(
            ops, ["distill", *cfg], lambda: check_distill(out)), min_stage_s)
        rd["distill_report"] = _read_json(out / "distill_report.json")
        params, _, _ = load_student(out / "student.npz", vocab.content_hash())

        def serve():
            rd["segments"].append(serve_segment(params, dataset, eval_rows,
                                                ops, min_batch_s))
        serve()
        rd["eval_pair_s"] = repeat(lambda: sum(
            run_stage(ops, ["evaluate", *cfg, "--split", split],
                      lambda s=split: check_evaluate(
                          out, s, int(dataset.rows(s).size)))
            for split in ("valid", "test")), min_stage_s)
        rd["metrics_test"] = _read_json(out / "metrics_test.json")
        rd["metrics_valid"] = _read_json(out / "metrics_valid.json")
        serve()
        digests = {seg["digest"] for seg in rd["segments"]}
        ops.record("serve_repeats", None if len(digests) == 1 else
                   f"round {len(res['rounds'])}: serving segments differ")
        rd["serve_digest"] = sorted(digests)
        res["rounds"].append(rd)
        round_s.append(time.perf_counter() - round_start)

    first = _outputs(res["rounds"][0])
    for i, rd in enumerate(res["rounds"][1:], start=1):
        ops.record("round_repeats",
                   None if _outputs(rd) == first
                   else f"round {i} outputs differ from round 0")
    return res


def _outputs(rd: dict) -> dict:
    """The outputs of one round that depend on neither timing nor the
    artifact directory."""
    skip = ("train_seconds", "config")
    pre = {k: v for k, v in rd["pretrain_report"].items() if k not in skip}
    dist = {k: v for k, v in rd["distill_report"].items() if k not in skip}
    return {"pretrain": pre, "distill": dist,
            "test": {k: rd["metrics_test"][k] for k in ("hr", "ndcg")},
            "valid": {k: rd["metrics_valid"][k] for k in ("hr", "ndcg")},
            "serve": rd["serve_digest"]}


def serve_segment(params, dataset: SequenceDataset, eval_rows, ops: Ops,
                  min_batch_seconds: float = 0.0) -> dict:
    """Closed loop, one client: ``recommend(k=10)`` over the first
    SEGMENT_REQUESTS evaluation rows in order (cycled), then
    ``predict_scores`` batches of 256 rows until ``min_batch_seconds`` of
    them is timed, and at least SEGMENT_BATCHES of them."""
    n_tk = params.n_takeaways
    digest = hashlib.sha256()
    latencies = []
    for i in range(SEGMENT_REQUESTS):
        row = int(eval_rows[i % eval_rows.size])
        start = time.perf_counter()
        try:
            recs = recommend(dataset.items[row], dataset.regions[row],
                             dataset.dists[row], params, k=SERVE_K)
        except Exception as exc:
            ops.record("recommend", f"{type(exc).__name__}: {exc}")
            raise BenchError("recommend raised") from exc
        latencies.append(time.perf_counter() - start)
        ops.record("recommend", check_recommendation(recs, n_tk))
        digest.update(repr(recs).encode())

    batches, batch_s = 0, 0.0
    while batches < SEGMENT_BATCHES or batch_s < min_batch_seconds:
        idx = np.take(eval_rows, np.arange(batches * SERVE_BATCH,
                                           (batches + 1) * SERVE_BATCH),
                      mode="wrap")
        start = time.perf_counter()
        try:
            probs, _ = predict_scores(dataset.items[idx], dataset.regions[idx],
                                      dataset.dists[idx], params)
        except Exception as exc:
            ops.record("predict_b256", f"{type(exc).__name__}: {exc}")
            raise BenchError("predict_scores raised") from exc
        batch_s += time.perf_counter() - start
        ops.record("predict_b256", check_batch(probs.data, idx.size, n_tk))
        if batches < SEGMENT_BATCHES:     # every segment serves these
            digest.update(probs.data.tobytes())
        batches += 1

    return {"latencies_s": latencies, "p50_s": statistics.median(latencies),
            "b256_batch_s": batch_s / batches,
            "digest": digest.hexdigest()}


def fingerprint(res: dict) -> dict:
    """Everything a traced run must reproduce bit for bit."""
    def content_hash(path: Path) -> str:
        arrays, config, vocab_hash = load_arrays(path)
        h = hashlib.sha256(json.dumps(config, sort_keys=True).encode())
        h.update(vocab_hash.encode())
        for name in sorted(arrays):
            h.update(name.encode())
            h.update(np.ascontiguousarray(arrays[name]).tobytes())
        return h.hexdigest()

    out = res["out"]
    fp = _outputs(res["rounds"][-1])
    fp["teacher_npz"] = content_hash(out / "teacher.npz")
    fp["student_npz"] = content_hash(out / "student.npz")
    cache = out / "soft_labels.npz"
    if cache.exists():
        _, probs, _ = load_soft_labels(cache)
        fp["soft_labels"] = hashlib.sha256(probs.tobytes()).hexdigest()
    return fp


def round_p99(rd: dict) -> float:
    """99th percentile (nearest rank) of a round's requests: 2 segments,
    so 2 * SEGMENT_REQUESTS = 1,000 requests and 10 beyond it."""
    lat = sorted(x for seg in rd["segments"] for x in seg["latencies_s"])
    return lat[math.ceil(0.99 * len(lat)) - 1]


def upper_quartile(times) -> float:
    """Q3 of a run's measurements of one quantity (the value itself if
    there is only one)."""
    times = list(times)
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[2]


def end_to_end(res: dict, peak_rss_mb: float):
    """The end-to-end metrics of BENCHMARK.json, as (value, unit).

    The shared host runs the same work in a fast mode or a ~1.45x slower
    one, each lasting from one to tens of seconds; the slow mode is the
    common one, and the share of a run spent in each varies from run to
    run.  A median or a mean of a run's measurements follows that share.
    The upper quartile of many measurements spread over the run reads the
    program's speed in the slow mode and stays there unless three quarters
    of the run is fast, so every timing metric but ``setup_s`` is taken
    from the upper quartile of its measurements (stage times,
    evaluation pairs, segment p50s, batch times); throughputs are work over
    that time.  ``setup_s`` is the median set-up.  ``serve_b1_p99_ms`` is
    the lower quartile of the rounds' p99s (1,000 requests each): the host
    also stalls a request for 3-20 ms, in bursts that hit a minority of
    rounds, and a p99 that pools every request of the run lands on the
    stalls or not by chance (see README.md).
    """
    rounds = res["rounds"]
    segments = [seg for r in rounds for seg in r["segments"]]

    def q3(key):
        return upper_quartile(x for r in rounds for x in r[key])

    return {
        "setup_s": (statistics.median(x for r in rounds
                                      for x in r["setup_s"]), "s"),
        "pretrain_samples_per_s": (
            res["n_train"] * rounds[-1]["pretrain_report"]["epochs_run"]
            / upper_quartile(r["pretrain_s"] for r in rounds), "samples/s"),
        "distill_samples_per_s": (
            res["n_train"] * rounds[-1]["distill_report"]["epochs_run"]
            / q3("distill_s"), "samples/s"),
        "eval_instances_per_s": (res["n_eval"] / q3("eval_pair_s"),
                                 "instances/s"),
        "serve_b1_p50_ms": (
            upper_quartile(s["p50_s"] for s in segments) * 1e3, "ms"),
        "serve_b1_p99_ms": (
            statistics.quantiles((round_p99(r) for r in rounds), n=4,
                                 method="inclusive")[0] * 1e3, "ms"),
        "serve_b256_seqs_per_s": (
            SERVE_BATCH / upper_quartile(s["b256_batch_s"] for s in segments),
            "seq/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def quality(res: dict) -> dict:
    """Model quality, bitwise stable for a given corpus: the teacher's best
    validation NDCG@10 and the student's test HR@10 / NDCG@10."""
    last = res["rounds"][-1]
    return {"teacher_val_ndcg10": last["pretrain_report"]["best_ndcg10"],
            "test_hr10": last["metrics_test"]["hr"]["10"],
            "test_ndcg10": last["metrics_test"]["ndcg"]["10"]}
