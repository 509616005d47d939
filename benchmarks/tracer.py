"""Outside-in tracing for the stkd benchmark.

`Tracer.install()` wraps the public functions of every stkd layer where their
callers look them up: a function imported with ``from .x import y`` is bound
in several module namespaces, so every stkd module attribute that *is* the
original function gets the wrapper.  Methods are wrapped on their class.
Tensor operators (``@``, ``+``, ``*``) resolve the ``stkd.tensor`` module
globals at call time, so wrapping those globals catches them too; the
backward closure of each tensor a wrapped op returns is wrapped as well, so
per-op backward time is recorded under ``Tensor.backward``.

Each wrapper records one span (id, name, start, seconds, parent) in memory;
`write_spans` writes them out when the run ends.  A span's seconds leave out
the time the tracer's own ``after`` hooks spend while it is open, so the
counting work of a child's hook is not charged to its parents.  Wrappers
only observe: they draw no random numbers and touch no array, so a traced
run computes bit-for-bit what an untraced run computes.  `uninstall()`
restores every original binding.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

TRACED_OPS = ("matmul", "take_rows", "segment_sum", "masked_softmax",
              "layer_norm", "concat", "add", "mul")


class Tracer:
    """In-memory span recorder plus the counts measured at layer boundaries."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._hook_s: dict[int, float] = defaultdict(float)  # by open span
        self.counts: dict[str, float] = defaultdict(float)
        self.first_batch: dict[str, int] | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(result, args)`` runs
        outside the span to record counts, and its time is taken out of every
        span still open around it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook_s = self._hook_s

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start - hook_s.pop(sid, 0.0)
                stack.pop()
                spans.append((sid, name, start, seconds, parent))
            if after is not None:
                hook_start = clock()
                after(result, args)
                spent = clock() - hook_start
                for open_sid in stack:
                    hook_s[open_sid] += spent
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _patch_function(self, module, attr: str, name: str, after=None):
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stkd"
                                   or mod_name.startswith("stkd.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, original))

    def _patch_method(self, cls, attr: str, name: str, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, after))
        else:
            new = self.wrap(name, raw, after)
        setattr(cls, attr, new)
        self._patches.append((cls, attr, raw))

    def install(self) -> None:
        from stkd import (checkpoint, cli, events, graph, metrics, optim,
                          pipeline, sequences, student, synthetic, teacher,
                          tensor)
        count = self.counts
        fn, meth = self._patch_function, self._patch_method

        for cmd in ("gen_synth", "prepare", "build_graph", "pretrain",
                    "distill", "evaluate"):
            fn(cli, f"cmd_{cmd}", f"cli.{cmd}")

        def after_generate(lines, _):
            count["synthetic.events"] += len(lines)

        def after_ingest(result, _):
            evs, _, report = result
            count["events.kept"] += len(evs)
            count["events.dropped"] += (report.n_malformed
                                        + report.n_dropped_geohash)

        def after_build_sequences(ds, _):
            count["sequences.rows"] += len(ds)
            count["sequences.skipped_users"] += ds.n_skipped_users

        fn(synthetic, "generate_synthetic", "synthetic.generate",
           after_generate)
        fn(events, "ingest_events", "events.ingest", after_ingest)
        fn(sequences, "build_sequences", "sequences.build",
           after_build_sequences)
        meth(sequences.SequenceDataset, "save", "sequences.save")
        meth(sequences.SequenceDataset, "load", "sequences.load")

        def after_build_stkg(stkg, _):
            count["graph.triples"] += stkg.n_triples

        def after_sample(sg, _):
            count["graph.sampled_nodes"] += sg.n_nodes
            count["graph.sampled_edges"] += sg.edges.shape[0]
            count["graph.cold_nodes"] += sg.n_cold

        fn(graph, "build_stkg", "graph.build", after_build_stkg)
        meth(graph.Stkg, "save", "graph.save")
        meth(graph.Stkg, "load", "graph.load")
        fn(graph, "sample_subgraph", "graph.sample", after_sample)

        def after_save_soft_labels(_, args):
            count["pipeline.soft_label_cache_mb"] += \
                Path(args[0]).stat().st_size / 1e6

        def after_train(result, _):
            count["pipeline.epochs_run"] += result.epochs_run

        meth(pipeline.SubgraphProvider, "get", "pipeline.subgraph_get")
        fn(pipeline, "compute_soft_labels", "pipeline.soft_labels")
        fn(pipeline, "save_soft_labels", "pipeline.soft_labels_save",
           after_save_soft_labels)
        fn(pipeline, "load_soft_labels", "pipeline.soft_labels_load")
        meth(pipeline.TeacherSignal, "logits", "pipeline.teacher_signal")
        fn(pipeline, "_teacher_val_ndcg", "pipeline.validate")
        fn(pipeline, "_student_val_ndcg", "pipeline.validate")
        fn(pipeline, "pretrain_teacher", "pipeline.pretrain_teacher",
           after_train)
        fn(pipeline, "distill", "pipeline.distill", after_train)
        fn(pipeline, "evaluate", "pipeline.evaluate")

        def after_gnn(_, args):
            facts = union_facts(args[0])
            if self.first_batch is None:
                self.first_batch = dict(facts, samples=len(args[0]))
            for key, value in facts.items():
                count[f"teacher.{key}"] += value

        fn(teacher, "gnn_forward", "teacher.gnn", after_gnn)
        fn(teacher, "user_gate", "teacher.gate")
        fn(teacher, "attention_readout", "teacher.readout")
        fn(teacher, "soft_labels", "teacher.score")

        fn(student, "embed_sequence", "student.embed")
        fn(student, "attention_block", "student.block")
        fn(student, "score_items", "student.score")
        fn(student, "kd_loss", "student.kd_loss")
        fn(student, "rec_loss", "student.rec_loss")
        fn(student, "encode", "student.encode")
        fn(student, "predict_scores", "student.predict")
        fn(student, "recommend", "student.recommend")

        for op in TRACED_OPS:
            bwd_name = f"tensor.{op}.bwd"

            def after_op(out, _, bwd_name=bwd_name):
                if out._backward is not None:
                    out._backward = self.wrap(bwd_name, out._backward)

            fn(tensor, op, f"tensor.{op}", after_op)
        meth(tensor.Tensor, "backward", "tensor.backward")

        meth(optim.Adam, "step", "optim.step")
        meth(optim.Adam, "zero_grad", "optim.zero_grad")

        def after_negatives(result, _):
            count["metrics.truncated_pools"] += bool(result[1])

        fn(metrics, "sample_negatives", "metrics.negatives", after_negatives)
        fn(metrics, "rank_of_target", "metrics.rank")

        def after_checkpoint(_, args):
            count["checkpoint.bytes_written"] += Path(args[0]).stat().st_size

        fn(checkpoint, "save_checkpoint", "checkpoint.save", after_checkpoint)
        fn(checkpoint, "load_arrays", "checkpoint.load")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds (inclusive
        minus the time its direct child spans cover)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, _, seconds, parent in self.spans:
            if parent >= 0:
                child_time[parent] += seconds
        table: dict[str, dict[str, float]] = {}
        for sid, name, _, seconds, _ in self.spans:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += seconds
            row["self_s"] += seconds - child_time[sid]
        return table

    def child_seconds(self, parent_name: str, child_name: str) -> float:
        """Inclusive time of ``child_name`` spans nested anywhere under a
        ``parent_name`` span."""
        by_id = {sid: (name, parent) for sid, name, _, _, parent in self.spans}
        total = 0.0
        for _, name, _, seconds, parent in self.spans:
            if name != child_name:
                continue
            while parent >= 0:
                pname, parent = by_id[parent]
                if pname == parent_name:
                    total += seconds
                    break
        return total

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: [id, name, start, seconds, parent id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(list(span)) + "\n")


def union_facts(subgraphs) -> dict[str, int]:
    """Size of one teacher batch's node union and how much of it the readout
    reads (each sample's centre rows and user row) or reaches in one hop."""
    offsets = np.cumsum([0] + [sg.n_nodes for sg in subgraphs[:-1]])
    read = np.unique(np.concatenate([
        np.append(sg.centers[sg.centers >= 0], sg.user_index) + off
        for sg, off in zip(subgraphs, offsets)]))
    edges = np.concatenate([sg.edges + np.array([off, 0, off])
                            for sg, off in zip(subgraphs, offsets)])
    hop = np.union1d(read, edges[np.isin(edges[:, 0], read), 2])
    distinct = np.unique(np.concatenate([sg.nodes for sg in subgraphs]))
    return {"union_rows": int(offsets[-1] + subgraphs[-1].n_nodes),
            "distinct_entities": int(distinct.size),
            "edges": int(edges.shape[0]), "readout_rows": int(read.size),
            "layer1_rows": int(hop.size)}


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
    table = tracer.span_table()
    count = tracer.counts

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    out: dict[str, tuple[float, str]] = {}
    for cmd in ("gen_synth", "prepare", "build_graph", "pretrain",
                "distill", "evaluate"):
        out[f"cli.{cmd}_s"] = (total(f"cli.{cmd}"), "s")

    out["synthetic.generate_s"] = (total("synthetic.generate"), "s")
    out["synthetic.events"] = (count["synthetic.events"], "count")
    out["events.ingest_s"] = (total("events.ingest"), "s")
    out["events.kept"] = (count["events.kept"], "count")
    out["events.dropped"] = (count["events.dropped"], "count")
    out["sequences.build_s"] = (total("sequences.build"), "s")
    out["sequences.rows"] = (count["sequences.rows"], "count")
    out["sequences.skipped_users"] = (count["sequences.skipped_users"], "count")
    out["sequences.save_s"] = (total("sequences.save"), "s")
    out["sequences.load_s"] = (total("sequences.load"), "s")

    out["graph.build_s"] = (total("graph.build"), "s")
    out["graph.triples"] = (count["graph.triples"], "count")
    out["graph.save_s"] = (total("graph.save"), "s")
    out["graph.load_s"] = (total("graph.load"), "s")
    out["graph.sample_s"] = (total("graph.sample"), "s")
    out["graph.sample_calls"] = (calls("graph.sample"), "count")
    out["graph.sampled_nodes"] = (count["graph.sampled_nodes"], "count")
    out["graph.sampled_edges"] = (count["graph.sampled_edges"], "count")
    out["graph.cold_nodes"] = (count["graph.cold_nodes"], "count")

    # only SubgraphProvider.get samples, so every other get is a cache hit
    gets = calls("pipeline.subgraph_get")
    hits = gets - calls("graph.sample")
    out["pipeline.subgraph_gets"] = (gets, "count")
    out["pipeline.subgraph_hit_ratio"] = (hits / gets if gets else 0.0,
                                          "ratio")
    out["pipeline.soft_labels_s"] = (total("pipeline.soft_labels"), "s")
    out["pipeline.soft_labels_save_s"] = (total("pipeline.soft_labels_save"),
                                          "s")
    out["pipeline.soft_labels_load_s"] = (total("pipeline.soft_labels_load"),
                                          "s")
    out["pipeline.soft_label_cache_mb"] = (
        count["pipeline.soft_label_cache_mb"], "MB")
    out["pipeline.teacher_signal_s"] = (total("pipeline.teacher_signal"), "s")
    out["pipeline.validate_s"] = (total("pipeline.validate"), "s")
    out["pipeline.epochs_run"] = (count["pipeline.epochs_run"], "count")

    union = count["teacher.union_rows"]
    out["teacher.gnn_s"] = (total("teacher.gnn"), "s")
    out["teacher.gnn_calls"] = (calls("teacher.gnn"), "count")
    out["teacher.union_rows"] = (union, "count")
    out["teacher.distinct_entities"] = (count["teacher.distinct_entities"],
                                        "count")
    out["teacher.edges"] = (count["teacher.edges"], "count")
    out["teacher.readout_row_ratio"] = (
        count["teacher.readout_rows"] / union if union else 0.0, "ratio")
    out["teacher.gate_s"] = (total("teacher.gate"), "s")
    out["teacher.readout_s"] = (total("teacher.readout"), "s")
    out["teacher.score_s"] = (
        total("teacher.score")
        - tracer.child_seconds("teacher.score", "teacher.readout"), "s")

    out["student.embed_s"] = (total("student.embed"), "s")
    out["student.block_s"] = (total("student.block"), "s")
    out["student.score_s"] = (total("student.score"), "s")
    out["student.kd_loss_s"] = (total("student.kd_loss"), "s")
    out["student.rec_loss_s"] = (total("student.rec_loss"), "s")
    out["student.encode_calls"] = (calls("student.encode"), "count")

    out["tensor.backward_s"] = (total("tensor.backward"), "s")
    out["tensor.backward_calls"] = (calls("tensor.backward"), "count")
    for op in TRACED_OPS:
        out[f"tensor.{op}_calls"] = (calls(f"tensor.{op}"), "count")
        out[f"tensor.{op}_fwd_s"] = (self_s(f"tensor.{op}"), "s")
        out[f"tensor.{op}_bwd_s"] = (self_s(f"tensor.{op}.bwd"), "s")

    out["optim.step_s"] = (total("optim.step"), "s")
    out["optim.zero_grad_s"] = (total("optim.zero_grad"), "s")
    out["optim.steps"] = (calls("optim.step"), "count")

    out["metrics.negatives_s"] = (total("metrics.negatives"), "s")
    out["metrics.negatives_calls"] = (calls("metrics.negatives"), "count")
    out["metrics.truncated_pools"] = (count["metrics.truncated_pools"],
                                      "count")
    out["metrics.rank_s"] = (total("metrics.rank"), "s")

    out["checkpoint.save_s"] = (total("checkpoint.save"), "s")
    out["checkpoint.load_s"] = (total("checkpoint.load"), "s")
    out["checkpoint.bytes_written"] = (count["checkpoint.bytes_written"],
                                       "bytes")
    return out
