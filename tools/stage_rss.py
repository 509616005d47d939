"""Peak resident memory of each training and evaluation stage, each run in a
fresh ``python -m stkd`` process on prepared artifacts.

    python3 tools/stage_rss.py --out-dir DIR [--config TRAIN_JSON]

DIR holds what ``stkd prepare`` and ``stkd build-graph`` wrote there; the
train config (if given) is passed to every stage.  The stages run in order,
each reading what the one before it wrote: ``pretrain``, ``distill``,
``evaluate --split valid`` and ``evaluate --split test``.  Each prints one
line: the stage, its peak RSS in MB and its wall seconds; an ``import`` line
first gives the same for a process that only imports the CLI.

A stage's peak is the ``ru_maxrss`` of its process alone, as ``os.wait4``
reports it: that is ``RUSAGE_CHILDREN`` for a parent with that one child,
whereas ``getrusage(RUSAGE_CHILDREN)`` itself keeps the largest peak of every
child waited for so far.  ``OPENBLAS_NUM_THREADS`` defaults to 1, so the
BLAS thread buffers are the same from run to run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
STAGES = (("pretrain", ["pretrain"]), ("distill", ["distill"]),
          ("evaluate_valid", ["evaluate", "--split", "valid"]),
          ("evaluate_test", ["evaluate", "--split", "test"]))


def run_stage(args: list[str], env: dict) -> tuple[float, float]:
    """Run ``python ARGS`` with stdout discarded; returns (peak RSS in MB,
    wall seconds).  A process that fails ends the tool with its exit code."""
    argv = [sys.executable, *args]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"stage_rss: {' '.join(args)} exited {code}")
    return usage.ru_maxrss / 1024, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True,
                        help="directory holding the prepared artifacts")
    parser.add_argument("--config", default=None,
                        help="train config JSON passed to every stage")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    common = ["--out-dir", args.out_dir]
    if args.config:
        common += ["--config", args.config]
    runs = [("import", ["-c", "import stkd.cli"])]
    runs += [(name, ["-m", "stkd", *stage, *common]) for name, stage in STAGES]
    print(f"{'stage':<16}{'peak_rss_mb':>12}{'seconds':>10}")
    for name, stage_args in runs:
        mb, seconds = run_stage(stage_args, env)
        print(f"{name:<16}{mb:>12.1f}{seconds:>10.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
