"""stkd benchmark: one workload, in this process, through the real CLI path.

    python3 benchmarks/run.py --workload teacher_city --seed 7 --seconds 30 \
        --trace 0

Run from the root of a checkout.  With ``--trace 0`` it repeats rounds of
set-up and timed work with tracing off for ``--seconds`` and prints the
end-to-end metrics.  With ``--trace 1`` it runs one round (set-up included) twice,
untraced and then traced, checks that both produced bit-identical results,
and prints the per-layer metrics of the traced run.  Either way the last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds the environment and a summary, and
the full record goes to
``.bench_out/BENCH_<workload>_seed<seed>_trace<t>.json``.

``--scale toy`` runs the same path at a size that finishes in seconds (the
smoke test uses it).  Exit status: 0 with a result, 1 if the run broke off,
2 if the program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

# A fixed BLAS thread count keeps timings comparable and quality numbers
# bitwise; main() sets it before anything imports numpy.
BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"


def blas_threads():
    """The thread count the loaded OpenBLAS reports, else the env setting."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                return {"value": int(func()), "source": sym}
    return {"value": int(BLAS_THREADS), "source": "OPENBLAS_NUM_THREADS"}


def environment(seed: int, load_start) -> dict:
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "seed": seed, "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0]}


def run_untraced(wl, seed, seconds, work, ops):
    from workloads import end_to_end, quality, round_p99, timed_phase
    start = time.perf_counter()
    res = timed_phase(wl, seed, work, ops, seconds=seconds)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = end_to_end(res, peak_rss_mb)
    summary = {"quality": quality(res), "wall_s": wall,
               "train_windows": res["n_train"], "eval_rows": res["n_eval"],
               "rounds": [{k: rd[k] for k in ("setup_s", "pretrain_s",
                                              "distill_s", "eval_pair_s")}
                          | {"p99_s": round_p99(rd),
                             "requests": sum(len(seg["latencies_s"])
                                             for seg in rd["segments"]),
                             "segments": [
                                 {"p50_s": seg["p50_s"],
                                  "b256_batch_s": seg["b256_batch_s"]}
                                 for seg in rd["segments"]]}
                          for rd in res["rounds"]],
               "latencies_s": [seg["latencies_s"] for rd in res["rounds"]
                               for seg in rd["segments"]]}
    return metrics, summary


def run_traced(wl, seed, work, ops, label):
    from tracer import Tracer, per_layer_metrics
    from workloads import fingerprint, quality, timed_phase

    def once(where, tracer=None):
        start = time.perf_counter()
        res = timed_phase(wl, seed, where, ops, tracer=tracer)
        return res, time.perf_counter() - start

    ref, ref_wall = once(work / "untraced")
    ref_fp = fingerprint(ref)
    shutil.rmtree(work / "untraced")

    tracer = Tracer()
    tracer.install()
    try:
        res, wall = once(work / "traced", tracer)
    finally:
        tracer.uninstall()
    fp = fingerprint(res)

    differs = sorted(k for k in set(fp) | set(ref_fp)
                     if fp.get(k) != ref_fp.get(k))
    ops.record("trace_unchanged",
               f"traced run differs in {differs}" if differs else None)
    traced_calls = res["rounds"][0]["traced_pretrain_calls"]
    counters = res["rounds"][0]["pretrain_report"]["counters"]
    want = {k: counters.get(k, 0) for k in traced_calls}
    ops.record("trace_complete", None if traced_calls == want else
               f"traced {traced_calls} vs counters {want}")

    metrics = per_layer_metrics(tracer)
    scores = quality(res)
    metrics["pipeline.teacher_val_ndcg10"] = (scores["teacher_val_ndcg10"],
                                              "ratio")
    metrics["metrics.test_hr10"] = (scores["test_hr10"], "ratio")
    metrics["metrics.test_ndcg10"] = (scores["test_ndcg10"], "ratio")
    metrics["trace.overhead_s"] = (wall - ref_wall, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    table = tracer.span_table()
    evaluate_s = table.get("cli.evaluate", {}).get("total_s", 0.0)
    summary = {
        "untraced_wall_s": ref_wall, "traced_wall_s": wall,
        "first_teacher_batch": tracer.first_batch,
        "eval_negatives_share": (
            tracer.child_seconds("cli.evaluate", "metrics.negatives")
            / evaluate_s if evaluate_s else None),
        "traced_pretrain_calls": traced_calls,
        "pretrain_counters": counters,
        "spans": table}
    tracer.write_spans(OUT / f"spans_{label}.jsonl")
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="an untraced run repeats rounds until this "
                             "much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "stkd" / "__init__.py").is_file():
        print(f"error: no stkd package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, BenchError, Ops
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.scale == "toy":
        wl = wl.toy()

    load_start = os.getloadavg()[0]
    label = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    work = WORK / f"{label}_{os.getpid()}"
    ops = Ops()
    try:
        if args.trace:
            metrics, summary = run_traced(wl, args.seed, work, ops, label)
        else:
            metrics, summary = run_untraced(wl, args.seed, args.seconds, work,
                                            ops)
    except BenchError as exc:
        print(f"error: {exc}; failures: {ops.failures}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed, load_start)
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    ops_line = {"ops_failed_share": {"value": ops.failed / ops.attempted,
                                     "unit": "ratio"},
                "failures": ops.failures}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"BENCH_{label}.json").write_text(
        json.dumps({"workload": wl.name, "scale": args.scale,
                    "environment": env, "ops": ops_line, "summary": summary,
                    **result}, indent=2) + "\n", encoding="utf-8")
    for bulky in ("spans", "latencies_s"):     # in the BENCH file only
        summary.pop(bulky, None)
    print(json.dumps({"environment": env, "ops": ops_line,
                      "summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
