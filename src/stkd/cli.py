"""Command-line entry points for generation, preparation, training, and studies.

Commands share one JSON configuration file (every training-config field is
addressable by key) plus a few overriding flags.  Artifacts land under
``--out-dir`` with fixed names so that successive commands find each other's
outputs without extra plumbing:

    events.jsonl            synthetic or ingested purchase events
    vocab.json              id maps + content hash
    dataset.npz             columnar (prefix -> target) samples with splits
    graph.npz               spatial-temporal knowledge graph (CSR)
    graph_stats.json        graph composition and degree histogram
    teacher.npz             pre-trained graph-teacher checkpoint
    soft_labels.npz         teacher distributions for every training row;
                            ``pretrain`` always writes it and ``distill``
                            with knowledge distillation needs it
    pretrain_report.json    teacher training summary and counters
    student.npz             distilled student checkpoint
    distill_report.json     student training summary and loss trace
    metrics_<split>.json    evaluation report
    ablation_<variant>.json / fusion_<strategy>.json / sweep_<label>.json

Every file is written through :mod:`stkd.artifacts`: atomically replaced,
and, for the npz artifacts, versioned and bound to the hash of
``vocab.json``.  Each command loads the vocabulary first and refuses a
dataset, graph, checkpoint or soft-label cache built against another one; a
torn, stale or foreign artifact, like any bad input, exits 2 with
``error: ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .artifacts import read_json, write_json
from .checkpoint import load_student, save_checkpoint
from .config import TrainConfig, config_from_dict
from .errors import ConfigError, DataQualityError, StkdError
from .events import ingest_events
from .graph import Stkg, build_stkg, graph_stats
from .pipeline import (ABLATION_VARIANTS, FUSION_STRATEGIES, SubgraphProvider,
                       TeacherSignal, ablate, ablate_fusion,
                       compute_soft_labels, distill, evaluate, load_soft_labels,
                       pretrain_teacher, save_soft_labels, sweep,
                       variant_alpha)
from .sequences import (SequenceDataset, build_sequences, load_vocab,
                        save_vocab)
from .synthetic import SyntheticConfig, copurchase_pairs, write_synthetic

__all__ = ["main"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None,
                   help="JSON config file; flags override its values")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("--out-dir", type=str, default=None,
                   help="artifact directory (default: config out_dir)")


def _load_train_config(args) -> TrainConfig:
    if args.config:
        cfg = TrainConfig.from_dict(read_json(args.config, ConfigError))
    else:
        cfg = TrainConfig()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out_dir is not None:
        updates["out_dir"] = args.out_dir
    if updates:
        cfg = TrainConfig.from_dict({**cfg.to_dict(), **updates})
    return cfg


def _out_dir(cfg: TrainConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _events_path(cfg: TrainConfig) -> Path:
    return Path(cfg.events_path) if cfg.events_path else _out_dir(cfg) / "events.jsonl"


def _dataset_path(cfg: TrainConfig) -> Path:
    return Path(cfg.dataset_path) if cfg.dataset_path else _out_dir(cfg) / "dataset.npz"


def _graph_path(cfg: TrainConfig) -> Path:
    return Path(cfg.graph_path) if cfg.graph_path else _out_dir(cfg) / "graph.npz"


def _load_prepared(cfg: TrainConfig):
    vocab = load_vocab(_out_dir(cfg) / "vocab.json")
    dataset = SequenceDataset.load(_dataset_path(cfg), vocab.content_hash())
    return dataset, vocab


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_synth(args) -> int:
    overrides = read_json(args.config, ConfigError) if args.config else {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    scfg = config_from_dict(SyntheticConfig, overrides)
    path = Path(args.out_dir or "out") / "events.jsonl"
    n = write_synthetic(scfg, path)
    print(json.dumps({"events": n,
                      "copurchase_pairs": len(copurchase_pairs(scfg)),
                      "path": str(path), "seed": scfg.seed}))
    return 0


def cmd_prepare(args) -> int:
    cfg = _load_train_config(args)
    out = _out_dir(cfg)
    events, vocab, report = ingest_events(_events_path(cfg))
    dataset = build_sequences(events, vocab, n=cfg.n,
                              max_train_per_user=cfg.max_train_per_user)
    if dataset.rows("train").size == 0:
        raise DataQualityError(f"{_events_path(cfg)} yields no training rows")
    dataset.save(_dataset_path(cfg))
    save_vocab(vocab, out / "vocab.json")
    print(json.dumps({
        "events": report.n_events, "malformed": report.n_malformed,
        "rows": len(dataset), "train": int(dataset.rows("train").size),
        "valid": int(dataset.rows("valid").size),
        "test": int(dataset.rows("test").size),
        "skipped_users": dataset.n_skipped_users,
        "vocab_hash": vocab.content_hash(),
    }))
    return 0


def cmd_build_graph(args) -> int:
    cfg = _load_train_config(args)
    out = _out_dir(cfg)
    events, _, _ = ingest_events(_events_path(cfg))
    vocab = load_vocab(out / "vocab.json")
    stkg = build_stkg(events, vocab)
    stkg.save(_graph_path(cfg))
    stats = graph_stats(stkg)
    write_json(out / "graph_stats.json", stats.__dict__, indent=None)
    print(stats.to_json())
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_train_config(args)
    out = _out_dir(cfg)
    dataset, vocab = _load_prepared(cfg)
    stkg = Stkg.load(_graph_path(cfg), vocab.content_hash())
    counters = Counter()
    provider = SubgraphProvider(dataset, stkg, cfg.fanouts, cfg.seed, counters)
    result = pretrain_teacher(cfg, dataset, stkg, provider=provider)
    save_checkpoint(out / "teacher.npz", result.params,
                    result.params.build_config(), vocab.content_hash())
    rows, probs = compute_soft_labels(result.params, provider, dataset)
    save_soft_labels(out / "soft_labels.npz", rows, probs,
                     vocab.content_hash())
    report = {"best_ndcg10": result.best_metric, "best_epoch": result.best_epoch,
              "epochs_run": result.epochs_run, "aborted": result.aborted,
              "train_seconds": result.train_seconds,
              "final_loss": result.loss_trace[-1] if result.loss_trace else None,
              "counters": dict(counters), "config": cfg.to_dict()}
    write_json(out / "pretrain_report.json", report)
    print(json.dumps({k: report[k] for k in
                      ("best_ndcg10", "best_epoch", "epochs_run", "aborted")}))
    return 0


def cmd_distill(args) -> int:
    cfg = _load_train_config(args)
    out = _out_dir(cfg)
    dataset, vocab = _load_prepared(cfg)
    variant = args.variant or "full"
    signal = None
    if variant_alpha(cfg, variant) > 0.0:
        rows, probs, _ = load_soft_labels(out / "soft_labels.npz",
                                          vocab.content_hash())
        signal = TeacherSignal(rows, probs)
    result = distill(cfg, dataset, signal=signal, variant=variant)
    save_checkpoint(out / "student.npz", result.params,
                    result.params.build_config(), vocab.content_hash())
    report = {"best_ndcg10": result.best_metric, "best_epoch": result.best_epoch,
              "epochs_run": result.epochs_run, "aborted": result.aborted,
              "train_seconds": result.train_seconds, "variant": variant,
              "loss_trace": result.loss_trace, "config": cfg.to_dict()}
    write_json(out / "distill_report.json", report)
    print(json.dumps({k: report[k] for k in
                      ("best_ndcg10", "best_epoch", "epochs_run", "aborted",
                       "variant")}))
    return 0


def _parse_k(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"--k takes comma-separated integer cutoffs, "
                          f"got {text!r}") from None


def cmd_evaluate(args) -> int:
    cfg = _load_train_config(args)
    k_list = _parse_k(args.k)
    if k_list is not None:
        cfg = TrainConfig.from_dict({**cfg.to_dict(), "k_list": k_list})
    out = _out_dir(cfg)
    dataset, vocab = _load_prepared(cfg)
    student, _, _ = load_student(out / "student.npz", vocab.content_hash())
    train_seconds = 0.0
    report_path = out / "distill_report.json"
    if report_path.exists():
        train_seconds = read_json(report_path).get("train_seconds", 0.0)
    report = evaluate(student, dataset, cfg, split=args.split,
                      train_seconds=train_seconds)
    report.save(out / f"metrics_{args.split}.json")
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def _run_study(args, prefix: str, study, summarize, **options) -> int:
    """Run ``study`` on the prepared artifacts, save each report as
    ``<prefix>_<label>.json`` and print ``summarize(report)`` per label."""
    cfg = _load_train_config(args)
    out = _out_dir(cfg)
    dataset, vocab = _load_prepared(cfg)
    stkg = Stkg.load(_graph_path(cfg), vocab.content_hash())
    reports = study(cfg, dataset, stkg, split=args.split, **options)
    summary = {}
    for label, report in reports.items():
        safe = label.replace("=", "_").replace(" ", "").replace(",", "-") \
                    .replace("(", "").replace(")", "")
        report.save(out / f"{prefix}_{safe}.json")
        summary[label] = summarize(report)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _at_10(report) -> dict:
    return {"hr@10": report.hr.get(10), "ndcg@10": report.ndcg.get(10)}


def cmd_ablate(args) -> int:
    def summarize(report):
        return {key: report.to_dict()[key] for key in ("hr", "ndcg")}

    return _run_study(args, "ablation", ablate, summarize,
                      variants=tuple(args.variant or ABLATION_VARIANTS))


def cmd_ablate_fusion(args) -> int:
    def summarize(report):
        return {**_at_10(report), "train_seconds": report.train_seconds,
                "predict_seconds": report.predict_seconds,
                "teacher_forwards": report.counts.get("teacher_forwards", 0),
                "subgraph_samples": report.counts.get("subgraph_samples", 0)}

    return _run_study(args, "fusion", ablate_fusion, summarize,
                      strategies=tuple(args.strategy or FUSION_STRATEGIES))


def cmd_sweep(args) -> int:
    return _run_study(args, "sweep", sweep, _at_10, parameter=args.strategy)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stkd",
        description="spatial-temporal knowledge-distilled takeaway "
                    "recommendation: data prep, training, evaluation, studies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic event corpus")
    _add_common(p)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("prepare", help="ingest events into dataset + vocab")
    _add_common(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("build-graph", help="build the knowledge graph")
    _add_common(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("pretrain", help="pre-train the graph teacher")
    _add_common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("distill", help="train the student (optionally with KD)")
    _add_common(p)
    p.add_argument("--variant", choices=ABLATION_VARIANTS, default=None)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("evaluate", help="ranked evaluation of the student")
    _add_common(p)
    p.add_argument("--split", choices=("train", "valid", "test"),
                   default="test")
    p.add_argument("--k", type=str, default=None,
                   help="comma-separated cutoffs, e.g. 5,10,20")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run ablation variants")
    _add_common(p)
    p.add_argument("--variant", action="append", choices=ABLATION_VARIANTS,
                   default=None, help="repeatable; default: all variants")
    p.add_argument("--split", choices=("train", "valid", "test"),
                   default="test")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("ablate-fusion",
                       help="compare distillation vs feature fusion")
    _add_common(p)
    p.add_argument("--strategy", action="append", choices=FUSION_STRATEGIES,
                   default=None, help="repeatable; default: all strategies")
    p.add_argument("--split", choices=("train", "valid", "test"),
                   default="test")
    p.set_defaults(func=cmd_ablate_fusion)

    p = sub.add_parser("sweep", help="grid sweep over temperature or fanouts")
    _add_common(p)
    p.add_argument("--strategy", choices=("temperature", "fanouts"),
                   default="temperature", help="sweep axis")
    p.add_argument("--split", choices=("train", "valid", "test"),
                   default="test")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StkdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
