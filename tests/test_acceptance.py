"""Acceptance gate: eight end-to-end criteria, one printed line each.

Each test prints `[criterion i/8] <name>: PASS|FAIL (<evidence>)` directly
to the terminal (bypassing capture) so a full run leaves an auditable
scorecard even when everything passes.
"""

import time

import numpy as np
import pytest

from stkd import tensor as T
from stkd.config import TrainConfig
from stkd.events import ingest_events
from stkd.graph import Subgraph, build_stkg, sample_subgraph
from stkd.metrics import ndcg_at_k, rank_of_target
from stkd.optim import Adam
from stkd.pipeline import (SubgraphProvider, TeacherSignal, ablate,
                           ablate_fusion, build_teacher, compute_soft_labels,
                           distill, evaluate, pretrain_teacher)
from stkd.sequences import build_sequences
from stkd.student import (StudentParams, joint_loss, kd_loss, predict_scores,
                          rec_loss)
from stkd.synthetic import SyntheticConfig, generate_synthetic
from stkd.teacher import (TeacherParams, pretrain_loss, pretrain_step,
                          teacher_optimizer)
from stkd.tensor import Tensor

from gradcheck import finite_diff_check


def announce(capsys, index: int, name: str, ok: bool, evidence: str) -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\n[criterion {index}/8] {name}: {verdict} ({evidence})")


def _world(n_users=30, n_takeaways=60, n_regions=6, events_per_user=18,
           noise=0.2, seed=3, n=8):
    scfg = SyntheticConfig(n_users=n_users, n_takeaways=n_takeaways,
                           n_regions=n_regions,
                           events_per_user=events_per_user, noise=noise,
                           seed=seed)
    events, vocab, _ = ingest_events(generate_synthetic(scfg))
    dataset = build_sequences(events, vocab, n=n)
    stkg = build_stkg(events, vocab)
    return dataset, stkg, vocab


# ---------------------------------------------------------------------------
# 1. gradient suite: primitives + teacher + student match finite differences
# ---------------------------------------------------------------------------

def _primitive_cases():
    rng = np.random.default_rng(11)

    def t(*shape, positive=False, name="p"):
        data = rng.standard_normal(shape)
        if positive:
            data = np.abs(data) + 0.5
        return Tensor(data, requires_grad=True, name=name)

    w = Tensor(rng.standard_normal((3, 4)))          # fixed mixing weights
    cases = []

    def case(name, fn, **params):
        cases.append((name, fn, params))

    case("add", lambda p: T.tsum((p["a"] + p["b"]) * w), a=t(3, 4), b=t(3, 4))
    case("sub", lambda p: T.tsum((p["a"] - p["b"]) * w), a=t(3, 4), b=t(3, 4))
    case("mul", lambda p: T.tsum(p["a"] * p["b"] * w), a=t(3, 4), b=t(3, 4))
    case("div", lambda p: T.tsum(T.div(p["a"], p["b"]) * w),
         a=t(3, 4), b=t(3, 4, positive=True))
    case("relu", lambda p: T.tsum(T.relu(p["a"] + 0.1) * w), a=t(3, 4))
    case("sigmoid", lambda p: T.tsum(T.sigmoid(p["a"]) * w), a=t(3, 4))
    case("tanh", lambda p: T.tsum(T.tanh(p["a"]) * w), a=t(3, 4))
    valid = np.array([[True, True, False, True], [True, True, True, True],
                      [False, True, True, True]])
    case("log_softmax", lambda p: T.tsum(
        T.log_softmax(p["a"], valid, temperature=2.5) * w), a=t(3, 4))
    case("matmul", lambda p: T.tsum(p["a"] @ p["b"]), a=t(3, 5), b=t(5, 4))
    case("batched-matmul", lambda p: T.tsum(p["a"] @ p["b"]),
         a=t(2, 3, 5), b=t(2, 5, 4))
    case("tsum-axis", lambda p: T.tsum(T.tsum(p["a"], axis=0) *
                                       Tensor(np.arange(4.0))), a=t(3, 4))
    case("tmean", lambda p: T.tmean(p["a"] * w), a=t(3, 4))
    case("reshape", lambda p: T.tsum(T.reshape(p["a"], (4, 3)) *
                                     Tensor(np.arange(12.0).reshape(4, 3))),
         a=t(3, 4))
    case("swapaxes", lambda p: T.tsum(T.swapaxes(p["a"], 0, 1) *
                                      Tensor(np.arange(12.0).reshape(4, 3))),
         a=t(3, 4))
    case("concat", lambda p: T.tsum(T.concat([p["a"], p["b"]], axis=1) *
                                    Tensor(np.arange(21.0).reshape(3, 7))),
         a=t(3, 4), b=t(3, 3))
    case("rows", lambda p: T.tsum(T.rows(p["a"], 1, 3) *
                                  Tensor(np.arange(8.0).reshape(2, 4))),
         a=t(5, 4))
    case("take_rows", lambda p: T.tsum(
        T.take_rows(p["a"], np.array([0, 2, 2, 1])) *
        Tensor(np.arange(16.0).reshape(4, 4))), a=t(3, 4))
    case("take_at", lambda p: T.tsum(
        T.take_at(p["a"], np.array([1, 0, 3])) *
        Tensor(np.array([1.0, 2.0, 3.0]))), a=t(3, 4))
    case("take_positions", lambda p: T.tsum(
        T.take_positions(p["a"], np.array([1, 0])) *
        Tensor(np.arange(8.0).reshape(2, 4))), a=t(2, 3, 4))
    case("segment_sum", lambda p: T.tsum(
        T.segment_sum(p["a"], np.array([0, 1, 0, 2]), 3) *
        Tensor(np.arange(12.0).reshape(3, 4))), a=t(4, 4))
    case("masked_softmax", lambda p: T.tsum(
        T.masked_softmax(p["a"], valid[:2]) *
        Tensor(np.arange(8.0).reshape(2, 4))), a=t(2, 4))
    case("batch_cross_entropy", lambda p: T.batch_cross_entropy(
        T.log_softmax(p["a"], True), np.array([1, 3])), a=t(2, 5))
    case("layer_norm", lambda p: T.tsum(
        T.layer_norm(p["a"], p["g"], p["b2"]) * w),
        a=t(3, 4), g=t(4,), b2=t(4,))
    return cases


def test_criterion_1_gradient_suite(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    worst_name = ""
    ok = True
    for name, fn, params in _primitive_cases():
        report = finite_diff_check(fn, params, rel_tol=1e-4)
        if report.max_rel_err > worst:
            worst, worst_name = report.max_rel_err, name
        ok = ok and report.passed

    # graph teacher: full forward + pretraining loss on a 3-node subgraph
    # (one user entity, two takeaway entities, four typed edges)
    tparams = TeacherParams(n_entities=10, n_relations=4, n=4, d=8,
                            gnn_layers=2, seed=0, n_users=3, n_takeaways=6)
    rng = np.random.default_rng(5)
    for tt in tparams.as_dict().values():
        tt.data[:] = rng.standard_normal(tt.data.shape) * 0.6
    sg = Subgraph(nodes=np.array([1, 4, 7]),          # user 1, items 1 and 4
                  centers=np.array([-1, -1, 1, 2]),   # two leading pads
                  user_index=0,
                  edges=np.array([[0, 0, 1], [1, 1, 0],
                                  [0, 2, 2], [2, 3, 1]]))
    target = np.array([2])

    def teacher_loss(_p):
        return pretrain_loss([sg], target, tparams)

    teacher_report = finite_diff_check(teacher_loss, tparams.as_dict(),
                                       rel_tol=1e-4, max_coords=4,
                                       rng=np.random.default_rng(0))
    ok = ok and teacher_report.passed

    # sequence student: joint objective on a micro model
    sparams = StudentParams(n_takeaways=6, n_regions=4, n=4, d=8, heads=2,
                            layers=2, dropout=0.0, seed=3)
    for tt in sparams.as_dict().values():
        tt.data[:] = rng.standard_normal(tt.data.shape) * 0.4
    for pname, rows_ in sparams.pad_frozen_rows().items():
        getattr(sparams, pname).data[rows_] = 0.0
    x = np.array([[0, 2, 5, 1], [3, 1, 4, 6]])
    x_c = np.array([[0, 1, 3, 2], [2, 2, 1, 4]])
    x_f = np.array([[0, 2, 1, 5], [3, 1, 1, 2]])
    targets = np.array([4, 2])
    teacher_logits = rng.standard_normal((2, 7))

    def student_loss(_p):
        _, logits = predict_scores(x, x_c, x_f, sparams)
        return joint_loss(kd_loss(teacher_logits, logits, 3.0),
                          rec_loss(logits, targets), 0.2)

    student_report = finite_diff_check(student_loss, sparams.as_dict(),
                                       rel_tol=1e-4, max_coords=4,
                                       rng=np.random.default_rng(1))
    ok = ok and student_report.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    announce(capsys, 1, "gradient suite", ok,
             f"primitives worst {worst:.2e} at {worst_name}; "
             f"teacher {teacher_report.max_rel_err:.2e}; "
             f"student {student_report.max_rel_err:.2e}; {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 2. ranking metrics match a brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_2_metric_oracle(capsys):
    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(1000):
        n_neg = int(rng.integers(1, 130))
        negs = rng.standard_normal(n_neg)
        if rng.random() < 0.25:
            target = float(negs[rng.integers(0, n_neg)])  # forced tie
        else:
            target = float(rng.standard_normal())
        scored = sorted([(-s, 1) for s in negs] + [(-target, 0)])
        oracle = next(i + 1 for i, (_, flag) in enumerate(scored) if flag == 0)
        got = rank_of_target(target, negs)
        for k in (5, 10, 20):
            hr_oracle = 1.0 if oracle <= k else 0.0
            ndcg_oracle = (1.0 / np.log2(oracle + 1.0)) if oracle <= k else 0.0
            if (1.0 if got <= k else 0.0) != hr_oracle:
                mismatches += 1
            if abs(ndcg_at_k(got, k) - ndcg_oracle) > 0.0:
                mismatches += 1
    rank2_err = abs(ndcg_at_k(2, 10) - 1.0 / np.log2(3.0))
    ok = mismatches == 0 and rank2_err <= 1e-12
    announce(capsys, 2, "metric oracle", ok,
             f"0 mismatches in 1000 vectors; rank-2 err {rank2_err:.1e}")
    assert ok


# ---------------------------------------------------------------------------
# 3. loss endpoints
# ---------------------------------------------------------------------------

def test_criterion_3_loss_endpoints(capsys):
    dataset, stkg, vocab = _world()
    cfg_zero = TrainConfig(epochs=1, batch_size=64, n=8, d=16, heads=2,
                           layers=1, seed=0, lr=0.01, alpha=0.0)
    cfg_kd = TrainConfig(epochs=1, batch_size=64, n=8, d=16, heads=2,
                         layers=1, seed=0, lr=0.01, alpha=0.2)
    run_zero = distill(cfg_zero, dataset, variant="full")
    run_nokd = distill(cfg_kd, dataset, variant="no_kd")
    trace_gap = max(abs(a - b) for a, b in
                    zip(run_zero.loss_trace, run_nokd.loss_trace))

    # alpha=1 silences the recommendation path: gradients equal KD-only ones
    sparams = StudentParams(n_takeaways=6, n_regions=4, n=4, d=8, heads=2,
                            layers=2, dropout=0.0, seed=3)
    x = np.array([[0, 1, 2, 3]])
    zc = np.zeros((1, 4), dtype=int)
    teacher_logits = np.random.default_rng(2).standard_normal((1, 7))
    _, logits = predict_scores(x, zc, zc, sparams)
    loss = joint_loss(kd_loss(teacher_logits, logits, 3.0),
                      rec_loss(logits, np.array([5])), 1.0)
    loss.backward()
    joint_grads = {k: (v.grad.copy() if v.grad is not None else None)
                   for k, v in sparams.as_dict().items()}
    for v in sparams.as_dict().values():
        v.grad = None
    _, logits2 = predict_scores(x, zc, zc, sparams)
    kd_loss(teacher_logits, logits2, 3.0).backward()
    rec_grad_leak = 0.0
    for k, v in sparams.as_dict().items():
        a, b = joint_grads[k], v.grad
        if a is None and b is None:
            continue
        rec_grad_leak = max(rec_grad_leak, float(np.abs(a - b).max()))

    rng = np.random.default_rng(7)
    kd_self = 0.0
    for tau in (1.0, 3.0, 5.0, 7.0, 9.0):
        p = rng.standard_normal(9)
        kd_self = max(kd_self, abs(float(kd_loss(p, Tensor(p.copy()), tau).data)))

    ok = trace_gap <= 1e-9 and rec_grad_leak == 0.0 and kd_self <= 1e-12
    announce(capsys, 3, "loss endpoints", ok,
             f"alpha=0 trace gap {trace_gap:.1e}; alpha=1 rec-grad leak "
             f"{rec_grad_leak:.1e}; kd(p,p,tau) max {kd_self:.1e}")
    assert ok


# ---------------------------------------------------------------------------
# 4. subgraph sampling invariants at 10k entities
# ---------------------------------------------------------------------------

def test_criterion_4_sampling_invariants(capsys):
    t0 = time.perf_counter()
    scfg = SyntheticConfig(n_users=4000, n_takeaways=7000, n_regions=12,
                           events_per_user=10, noise=0.2, seed=0,
                           favorites_per_region=3, n_copurchase_pairs=40)
    events, vocab, _ = ingest_events(generate_synthetic(scfg))
    dataset = build_sequences(events, vocab, n=8)
    stkg = build_stkg(events, vocab)
    assert stkg.n_entities >= 10_000, stkg.n_entities

    edge_set = set()
    for src in range(stkg.n_entities):
        lo, hi = stkg.indptr[src], stkg.indptr[src + 1]
        for dst, rel in zip(stkg.neighbors[lo:hi], stkg.rels[lo:hi]):
            edge_set.add((src, int(rel), int(dst)))

    fanouts = (10, 10)
    bound = 8 * (1 + fanouts[0] + fanouts[0] * fanouts[1]) + 1
    rows = dataset.rows("train")[:10_000]
    assert rows.size == 10_000
    max_nodes, bad_edges = 0, 0
    for row in rows:
        sg = sample_subgraph(dataset.items[row], int(dataset.user[row]),
                             stkg, fanouts, seed=0, sid=int(row))
        max_nodes = max(max_nodes, sg.n_nodes)
        if sg.n_nodes > bound:
            break
        for parent, rel, child in sg.edges:
            s = int(sg.nodes[parent])
            d = int(sg.nodes[child])
            if (s, int(rel), d) not in edge_set:
                bad_edges += 1

    redo = rows[::97]
    deterministic = True
    for row in redo:
        a = sample_subgraph(dataset.items[row], int(dataset.user[row]),
                            stkg, fanouts, seed=0, sid=int(row))
        b = sample_subgraph(dataset.items[row], int(dataset.user[row]),
                            stkg, fanouts, seed=0, sid=int(row))
        if not (np.array_equal(a.nodes, b.nodes)
                and np.array_equal(a.edges, b.edges)
                and np.array_equal(a.centers, b.centers)):
            deterministic = False
            break

    elapsed = time.perf_counter() - t0
    ok = (bad_edges == 0 and max_nodes <= bound and deterministic
          and elapsed < 60.0)
    announce(capsys, 4, "sampling invariants", ok,
             f"{rows.size} subgraphs on {stkg.n_entities} entities; "
             f"max nodes {max_nodes} <= bound {bound}; bad edges {bad_edges}; "
             f"deterministic={deterministic}; {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 5. planted-pattern ablation study
# ---------------------------------------------------------------------------

def test_criterion_5_planted_pattern_study(capsys):
    t0 = time.perf_counter()
    variants = ("full", "no_kd", "no_sp", "no_sp_kd")
    hr10 = {v: [] for v in variants}
    for seed in (0, 1, 2):
        scfg = SyntheticConfig(n_users=200, n_takeaways=500, n_regions=12,
                               events_per_user=40, noise=0.3, seed=seed,
                               favorites_per_region=5, head_rate=0.25,
                               n_copurchase_pairs=30, follow_prob=0.8)
        events, vocab, _ = ingest_events(generate_synthetic(scfg))
        dataset = build_sequences(events, vocab, n=6)
        stkg = build_stkg(events, vocab)
        cfg = TrainConfig(epochs=3, batch_size=128, n=6, d=32, heads=2,
                          layers=2, gnn_layers=2, fanouts=(8, 8), seed=seed,
                          lr=0.01, dropout=0.1, alpha=0.2, temperature=3.0,
                          patience=2)
        reports = ablate(cfg, dataset, stkg, variants=variants)
        for v in variants:
            hr10[v].append(reports[v].hr[10])

    med = {v: float(np.median(hr10[v])) for v in variants}
    elapsed = time.perf_counter() - t0
    ok = (med["full"] >= med["no_kd"]
          and med["full"] >= med["no_sp"]
          and med["full"] >= med["no_sp_kd"] + 0.03
          and elapsed < 900.0)
    announce(capsys, 5, "planted-pattern study", ok,
             "median HR@10 " +
             " ".join(f"{v}={med[v]:.3f}" for v in variants) +
             f"; {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 6. memorization sanity
# ---------------------------------------------------------------------------

def test_criterion_6_memorization(capsys):
    rng = np.random.default_rng(0)
    V, n, b = 40, 6, 32
    x = rng.integers(1, V + 1, size=(b, n))
    x[:, 0] = 0
    x_c = rng.integers(1, 5, size=(b, n))
    x_f = rng.integers(1, 10, size=(b, n))
    x_c[x == 0] = 0
    x_f[x == 0] = 0
    targets = rng.integers(1, V + 1, size=b)
    sparams = StudentParams(n_takeaways=V, n_regions=4, n=n, d=16, heads=2,
                            layers=2, dropout=0.0, seed=0)
    opt = Adam(sparams.as_dict(), lr=0.01,
               freeze_rows=sparams.pad_frozen_rows())
    hr1, student_epochs = 0.0, 0
    for epoch in range(500):
        probs, logits = predict_scores(x, x_c, x_f, sparams)
        loss = rec_loss(logits, targets)
        opt.zero_grad()
        loss.backward()
        opt.step()
        student_epochs = epoch + 1
        hr1 = float(np.mean(np.argmax(probs.data, axis=1) == targets))
        if hr1 >= 0.95:
            break

    dataset, stkg, vocab = _world(n_users=20, n_takeaways=50, n_regions=5,
                                  events_per_user=12, seed=6, n=6)
    cfg = TrainConfig(n=6, d=16, gnn_layers=2, fanouts=(4, 4), seed=0)
    tparams = build_teacher(cfg, stkg)
    topt = teacher_optimizer(tparams, lr=0.05)
    provider = SubgraphProvider(dataset, stkg, cfg.fanouts, cfg.seed)
    rows = dataset.rows("train")[:16]
    subgraphs = provider.batch(rows)
    tgt = dataset.target[rows]
    teacher_loss, teacher_steps = float("inf"), 0
    for step in range(500):
        teacher_loss = pretrain_step(subgraphs, tgt, tparams, topt)
        teacher_steps = step + 1
        if teacher_loss < 0.1:
            break

    ok = hr1 >= 0.95 and teacher_loss < 0.1
    announce(capsys, 6, "memorization sanity", ok,
             f"student HR@1 {hr1:.3f} after {student_epochs} epochs; "
             f"teacher loss {teacher_loss:.3f} after {teacher_steps} steps")
    assert ok


# ---------------------------------------------------------------------------
# 7. fusion study: distilled path touches no teacher machinery at inference
# ---------------------------------------------------------------------------

def test_criterion_7_fusion_inference_cost(capsys):
    dataset, stkg, vocab = _world(n_users=100, n_takeaways=150, n_regions=8,
                                  events_per_user=20, seed=4, n=8)
    cfg = TrainConfig(epochs=1, batch_size=128, n=8, d=16, heads=2, layers=1,
                      gnn_layers=2, fanouts=(4, 4), seed=0, lr=0.01, alpha=0.2)
    reports = ablate_fusion(cfg, dataset, stkg)
    stkd_rep = reports["stkd"]
    teacher_touches = (stkd_rep.counts.get("teacher_forwards", 0)
                       + stkd_rep.counts.get("subgraph_samples", 0))
    fusion_preds = {s: reports[s].predict_seconds
                    for s in ("add", "cat", "multi")}
    fusion_touch_ok = all(
        reports[s].counts.get("teacher_forwards", 0) > 0
        and reports[s].counts.get("subgraph_samples", 0) > 0
        for s in ("add", "cat", "multi"))
    timing_ok = all(stkd_rep.predict_seconds <= p
                    for p in fusion_preds.values())
    ok = teacher_touches == 0 and fusion_touch_ok and timing_ok
    announce(capsys, 7, "fusion inference cost", ok,
             f"distilled-path teacher touches {teacher_touches}; predict "
             f"seconds distilled {stkd_rep.predict_seconds * 1e3:.1f}ms vs " +
             " ".join(f"{s}={v * 1e3:.1f}ms" for s, v in fusion_preds.items()))
    assert ok


# ---------------------------------------------------------------------------
# 8. end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(capsys):
    dataset, stkg, vocab = _world()
    cfg = TrainConfig(epochs=2, batch_size=64, n=8, d=16, heads=2, layers=1,
                      gnn_layers=2, fanouts=(4, 4), seed=0, lr=0.01, alpha=0.2)
    provider = SubgraphProvider(dataset, stkg, cfg.fanouts, cfg.seed)
    teacher = pretrain_teacher(cfg, dataset, stkg, provider=provider)
    rows, probs = compute_soft_labels(teacher.params, provider, dataset)

    def one_run():
        signal = TeacherSignal(rows, probs)
        result = distill(cfg, dataset, signal=signal, variant="full")
        report = evaluate(result.params, dataset, cfg, split="test",
                          train_seconds=result.train_seconds)
        return result, report

    res_a, rep_a = one_run()
    res_b, rep_b = one_run()
    trace_equal = res_a.loss_trace == res_b.loss_trace
    params_equal = all(
        np.array_equal(t.data, res_b.params.as_dict()[k].data)
        for k, t in res_a.params.as_dict().items())
    metrics_equal = rep_a.hr == rep_b.hr and rep_a.ndcg == rep_b.ndcg
    ok = trace_equal and params_equal and metrics_equal
    announce(capsys, 8, "end-to-end determinism", ok,
             f"loss trace bitwise equal={trace_equal}; parameters "
             f"equal={params_equal}; metrics equal={metrics_equal}; "
             f"HR@10={rep_a.hr[10]:.4f}")
    assert ok
