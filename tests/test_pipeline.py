"""Training pipeline: reports, caching, early stopping, ablations, fusion."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from stkd import optim, pipeline, teacher
from stkd.config import TrainConfig
from stkd.errors import (ConsistencyError, InvalidArgumentError,
                         VocabMismatchError)
from stkd.events import Vocab, ingest_events
from stkd.graph import build_stkg
from stkd.metrics import (hit_rate_at_k, ndcg_at_k, rank_of_target,
                          sample_negatives)
from stkd.pipeline import (ABLATION_VARIANTS, FUSION_STRATEGIES,
                           MetricsReport, SubgraphProvider, TeacherSignal,
                           ablate, ablate_fusion, compute_soft_labels,
                           distill, evaluate, load_soft_labels,
                           pretrain_teacher, save_soft_labels, sweep,
                           variant_alpha)
from stkd.sequences import build_sequences
from stkd.student import StudentParams, predict_scores
from stkd.synthetic import SyntheticConfig, generate_synthetic
from stkd.teacher import teacher_forward, teacher_readout
from stkd.tensor import no_tape


WORLD = SyntheticConfig(n_users=30, n_takeaways=60, n_regions=6,
                        events_per_user=18, noise=0.2, seed=3)


@pytest.fixture(scope="module")
def world():
    events, vocab, _ = ingest_events(generate_synthetic(WORLD))
    dataset = build_sequences(events, vocab, n=8)
    stkg = build_stkg(events, vocab)
    return dataset, stkg, vocab


def tiny_cfg(**kw):
    base = dict(epochs=2, batch_size=64, n=8, d=16, heads=2, layers=1,
                gnn_layers=2, fanouts=(4, 4), seed=0, lr=0.01, dropout=0.1,
                alpha=0.2, temperature=3.0, patience=2)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# MetricsReport
# ---------------------------------------------------------------------------

def _report(**kw):
    base = dict(hr={5: 0.2, 10: 0.3}, ndcg={5: 0.1, 10: 0.15},
                counts={"n_instances": 10}, train_seconds=1.0,
                predict_seconds=0.1, config={}, seed=0)
    base.update(kw)
    return MetricsReport(**base)


def test_report_round_trip(tmp_path):
    rep = _report()
    path = tmp_path / "m.json"
    rep.save(path)
    import json
    loaded = MetricsReport.from_dict(json.loads(path.read_text()))
    assert loaded.hr == rep.hr and loaded.ndcg == rep.ndcg
    assert loaded.seed == rep.seed


def test_report_rejects_out_of_range_metric():
    with pytest.raises(ConsistencyError):
        _report(hr={5: 1.2, 10: 1.3}, ndcg={5: 0.1, 10: 0.2})


def test_report_rejects_decreasing_in_k():
    with pytest.raises(ConsistencyError):
        _report(hr={5: 0.5, 10: 0.4}, ndcg={5: 0.1, 10: 0.2})


def test_report_rejects_mismatched_cutoffs():
    with pytest.raises(ConsistencyError):
        _report(ndcg={5: 0.1, 20: 0.2})


# ---------------------------------------------------------------------------
# subgraph provider
# ---------------------------------------------------------------------------

def test_provider_caches_and_counts(world):
    dataset, stkg, _ = world
    counters = Counter()
    prov = SubgraphProvider(dataset, stkg, (4, 4), seed=0, counters=counters)
    a = prov.get(3)
    b = prov.get(3)
    assert a is b
    assert counters["subgraph_samples"] == 1
    prov.get(4)
    assert counters["subgraph_samples"] == 2


# ---------------------------------------------------------------------------
# sizes come from the graph and the dataset
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["user", "takeaway"])
def foreign_graph(request):
    """The world's graph, built over its vocabulary plus one more user or
    takeaway."""
    events, vocab, _ = ingest_events(generate_synthetic(WORLD))
    bigger = Vocab.from_dict(vocab.to_dict())
    getattr(bigger, f"add_{request.param}")("ghost")
    return build_stkg(events, bigger)


def test_a_graph_of_other_sizes_is_refused_where_it_meets_the_data(
        world, foreign_graph):
    dataset = world[0]
    cfg = tiny_cfg(epochs=1)
    with pytest.raises(ConsistencyError, match="one vocabulary"):
        SubgraphProvider(dataset, foreign_graph, cfg.fanouts, cfg.seed)
    with pytest.raises(ConsistencyError, match="one vocabulary"):
        pretrain_teacher(cfg, dataset, foreign_graph)
    # a study refuses it before any arm trains, even an arm that never
    # reads the graph
    with pytest.raises(ConsistencyError, match="one vocabulary"):
        ablate(cfg, dataset, foreign_graph, variants=("no_kd",))


def test_stages_are_sized_by_the_graph_and_the_dataset(pretrained, world):
    dataset, stkg, vocab = world
    teacher = pretrained[0].params
    assert (teacher.n_users, teacher.n_takeaways) == (stkg.n_users,
                                                      stkg.n_takeaways)
    student = pipeline.build_student(tiny_cfg(), dataset)
    assert (student.n_takeaways, student.n_regions) == (vocab.n_takeaways,
                                                        vocab.n_regions)


# ---------------------------------------------------------------------------
# teacher pre-training
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pretrained(world):
    dataset, stkg, _ = world
    cfg = tiny_cfg()
    counters = Counter()
    prov = SubgraphProvider(dataset, stkg, cfg.fanouts, cfg.seed, counters)
    result = pretrain_teacher(cfg, dataset, stkg, provider=prov)
    return result, prov, counters


def test_pretrain_reduces_loss_and_sets_best(pretrained):
    result, _, counters = pretrained
    assert not result.aborted
    assert result.loss_trace[-1] < result.loss_trace[0]
    assert result.best_epoch >= 0
    assert result.best_metric > 0.0
    assert result.train_seconds > 0.0
    assert counters["teacher_forwards"] > 0


def test_a_counting_provider_alone_counts_every_teacher_forward(
        world, monkeypatch):
    # criterion 8's call shape: only the provider holds the counters, and
    # pre-training and the soft labels both count into them
    dataset, stkg, _ = world
    cfg = tiny_cfg(epochs=1)
    calls = []
    real_forward = teacher.gnn_forward

    def counted(*args):
        calls.append(len(args[0]))
        return real_forward(*args)

    monkeypatch.setattr(teacher, "gnn_forward", counted)
    counters = Counter()
    prov = SubgraphProvider(dataset, stkg, cfg.fanouts, cfg.seed, counters)
    result = pretrain_teacher(cfg, dataset, stkg, provider=prov)
    compute_soft_labels(result.params, prov, dataset)
    assert counters["teacher_forwards"] == len(calls) > 0
    assert counters["subgraph_samples"] == len(dataset.rows("train")) + len(
        dataset.rows("valid"))


def _train(stage, cfg, world):
    """Run one training stage on ``world`` (the student without KD)."""
    dataset, stkg, _ = world
    if stage == "teacher":
        return pretrain_teacher(cfg, dataset, stkg)
    return distill(cfg, dataset, variant="no_kd")


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("stage", ["teacher", "student"])
def test_pretrain_abort_on_divergence(world, stage):
    # an absurd learning rate overflows the second step into inf - inf = NaN
    cfg = tiny_cfg(lr=1e200, epochs=3)
    result = _train(stage, cfg, world)
    assert result.aborted
    assert result.epochs_run <= cfg.epochs
    # the retained (last good) parameters are still finite
    for name, t in result.params.as_dict().items():
        assert np.all(np.isfinite(t.data)), name


@pytest.mark.parametrize("stage", ["teacher", "student"])
def test_zero_epochs_runs_no_epoch(world, stage):
    result = _train(stage, tiny_cfg(epochs=0), world)
    assert result.epochs_run == 0
    assert result.best_epoch == -1 and result.best_metric == 0.0
    assert result.loss_trace == [] and not result.aborted


# ---------------------------------------------------------------------------
# soft labels
# ---------------------------------------------------------------------------

def test_soft_label_cache_round_trip(pretrained, world, tmp_path):
    result, prov, _ = pretrained
    dataset, _, vocab = world
    rows, probs = compute_soft_labels(result.params, prov, dataset)
    assert rows.size == dataset.rows("train").size
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs[:, 0] == 0.0)
    path = tmp_path / "soft.npz"
    save_soft_labels(path, rows, probs, vocab.content_hash())
    r2, p2, h = load_soft_labels(path, vocab.content_hash())
    np.testing.assert_array_equal(rows, r2)
    np.testing.assert_array_equal(probs, p2)
    with pytest.raises(VocabMismatchError):
        load_soft_labels(path, "0" * 64)


def test_soft_labels_match_a_taped_teacher_forward(pretrained, world):
    result, prov, _ = pretrained
    dataset, _, _ = world
    rows, probs = compute_soft_labels(result.params, prov, dataset)
    # every training row: a full batch and a partial one
    assert rows.size > pipeline.SCORE_BATCH
    taped = [teacher_forward(prov.batch(rows[i:i + pipeline.SCORE_BATCH]),
                             result.params)
             for i in range(0, rows.size, pipeline.SCORE_BATCH)]
    assert all(t._parents for t in taped)
    want = np.concatenate([t.data for t in taped])
    assert probs.tobytes() == want.tobytes()


def test_teacher_signal_missing_row_raises(pretrained, world):
    result, prov, _ = pretrained
    dataset, _, _ = world
    sig = TeacherSignal(*compute_soft_labels(result.params, prov, dataset))
    with pytest.raises(ConsistencyError):
        sig.logits(np.array([10 ** 6]))


# ---------------------------------------------------------------------------
# distillation
# ---------------------------------------------------------------------------

def test_distill_without_signal_requires_alpha_zero(world):
    dataset, _, _ = world
    with pytest.raises(InvalidArgumentError):
        distill(tiny_cfg(alpha=0.2), dataset, signal=None, variant="full")


def test_alpha_zero_equals_no_kd_variant(world):
    dataset, _, _ = world
    a = distill(tiny_cfg(alpha=0.0, epochs=1), dataset, variant="full")
    b = distill(tiny_cfg(alpha=0.2, epochs=1), dataset, variant="no_kd")
    assert a.loss_trace == b.loss_trace
    for name, t in a.params.as_dict().items():
        np.testing.assert_array_equal(t.data, b.params.as_dict()[name].data)


def test_distill_with_kd_uses_teacher(pretrained, world):
    result, prov, _ = pretrained
    dataset, _, _ = world
    rows, probs = compute_soft_labels(result.params, prov, dataset)
    sig = TeacherSignal(rows, probs)
    cfg = tiny_cfg(epochs=1)
    with_kd = distill(cfg, dataset, signal=sig, variant="full")
    without = distill(cfg, dataset, variant="no_kd")
    assert with_kd.loss_trace != without.loss_trace


def test_variant_freezing(world):
    dataset, _, _ = world
    cfg = tiny_cfg(alpha=0.0, epochs=1)
    res = distill(cfg, dataset, variant="no_sp")
    assert np.all(res.params.region_emb.data == 0.0)
    assert np.all(res.params.dist_emb.data == 0.0)
    assert np.all(res.params.W_SP.data == 0.0)

    res_c = distill(cfg, dataset, variant="no_c")
    assert np.all(res_c.params.region_emb.data == 0.0)
    assert np.abs(res_c.params.dist_emb.data).max() > 0.0
    assert np.abs(res_c.params.W_SP.data).max() > 0.0

    res_f = distill(cfg, dataset, variant="no_f")
    assert np.all(res_f.params.dist_emb.data == 0.0)
    assert np.abs(res_f.params.region_emb.data).max() > 0.0

    full = distill(cfg, dataset, variant="full")
    assert np.abs(full.params.region_emb.data).max() > 0.0


@pytest.mark.parametrize("variant, removed", [
    ("no_sp", {"region_emb", "dist_emb", "W_SP"}),
    ("no_c", {"region_emb"}),
    ("no_f", {"dist_emb"}),
])
def test_removed_groups_are_constants(world, variant, removed, monkeypatch):
    # a removed group stays +0.0, no gradient reaches it, and the optimizer
    # never holds it
    dataset, _, _ = world
    made = []

    class Recorded(optim.Adam):
        def __init__(self, params, **kw):
            super().__init__(params, **kw)
            made.append(self)

    monkeypatch.setattr(pipeline, "Adam", Recorded)
    res = distill(tiny_cfg(alpha=0.0, epochs=1), dataset, variant=variant)
    (opt,) = made
    assert opt.t > 0
    assert set(opt.params) == set(res.params.as_dict()) - removed - {"W_cat"}
    assert set(opt.m) == set(opt.v) == set(opt.params)
    for name in removed:
        group = getattr(res.params, name)
        assert group.grad is None and not group.requires_grad
        assert group.data.tobytes() == np.zeros_like(group.data).tobytes()


def test_only_the_cat_fusion_hands_w_cat_to_adam(pretrained, world,
                                                monkeypatch):
    # only the "cat" fusion reads W_cat; every other run leaves it at its
    # initial value, which the checkpoint still holds
    result, prov, _ = pretrained
    dataset = world[0]
    handed = []

    class Recorded(optim.Adam):
        def __init__(self, params, **kw):
            handed.append(list(params))
            super().__init__(params, **kw)

    def readout(rows):
        return teacher_readout(prov.batch(rows), result.params)

    monkeypatch.setattr(pipeline, "Adam", Recorded)
    cfg = tiny_cfg(alpha=0.0, epochs=1)
    plain = distill(cfg, dataset)
    cat = distill(cfg, dataset, fusion="cat", fusion_readout=readout)
    names = list(plain.params.as_dict())
    assert "W_cat" in names
    assert handed == [[n for n in names if n != "W_cat"], names]
    init = pipeline.build_student(cfg, dataset).W_cat.data
    assert plain.params.W_cat.data.tobytes() == init.tobytes()
    assert cat.params.W_cat.data.tobytes() != init.tobytes()


def test_unknown_variant_and_fusion_rejected(world):
    dataset, _, _ = world
    with pytest.raises(InvalidArgumentError):
        distill(tiny_cfg(alpha=0.0), dataset, variant="bogus")
    with pytest.raises(InvalidArgumentError):
        distill(tiny_cfg(alpha=0.0), dataset, fusion="bogus")
    with pytest.raises(InvalidArgumentError):
        # no readout supplied
        distill(tiny_cfg(alpha=0.0), dataset, fusion="add")
    with pytest.raises(InvalidArgumentError):
        variant_alpha(tiny_cfg(), "bogus")


def test_distill_determinism(world):
    dataset, _, _ = world
    cfg = tiny_cfg(alpha=0.0, epochs=1)
    a = distill(cfg, dataset, variant="full")
    b = distill(cfg, dataset, variant="full")
    assert a.loss_trace == b.loss_trace
    for name, t in a.params.as_dict().items():
        np.testing.assert_array_equal(t.data, b.params.as_dict()[name].data)


@pytest.mark.parametrize("stage", ["teacher", "student"])
def test_a_fit_draws_each_validation_row_once(world, stage, monkeypatch):
    # a draw depends only on (seed, user, target), so every epoch's
    # validation reuses the first one's negatives
    dataset = world[0]
    drawn = []
    real = pipeline.sample_negatives

    def counted(user, target, *a):
        drawn.append((user, target))
        return real(user, target, *a)

    monkeypatch.setattr(pipeline, "sample_negatives", counted)
    result = _train(stage, tiny_cfg(epochs=3, patience=3), world)
    assert result.epochs_run == 3
    valid = dataset.rows("valid")
    assert drawn == [(int(dataset.user[r]), int(dataset.target[r]))
                     for r in valid]


@pytest.fixture
def missing_grads(monkeypatch):
    """Per optimizer step, the names of the parameters without a gradient."""
    missing = []
    real = optim.Adam.step

    def recording(self):
        missing.append({n for n, t in self.params.items() if t.grad is None})
        return real(self)

    monkeypatch.setattr(optim.Adam, "step", recording)
    return missing


def test_steps_after_validation_still_record_the_tape(pretrained, world,
                                                      missing_grads):
    # validation (and the fusion readout in every step) runs with the tape
    # off; the steps of the second epoch come right after the first
    # epoch's validation
    teacher, prov, _ = pretrained
    dataset, stkg, _ = world
    cfg = tiny_cfg(epochs=2, patience=2)
    per_epoch = -(-dataset.rows("train").size // cfg.batch_size)
    for t in teacher.params.as_dict().values():
        t.grad = None

    def readout(rows):
        return teacher_readout(prov.batch(rows), teacher.params)

    res = distill(cfg, dataset, fusion="cat", fusion_readout=readout)
    assert res.epochs_run == 2
    assert len(missing_grads) == 2 * per_epoch
    assert all(m == set() for m in missing_grads)
    assert all(t.grad is None for t in teacher.params.as_dict().values())

    missing_grads.clear()
    res = pretrain_teacher(cfg, dataset, stkg)
    assert res.epochs_run == 2
    assert len(missing_grads) == 2 * per_epoch
    assert all(m == set() for m in missing_grads)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def student(world):
    dataset, _, _ = world
    cfg = tiny_cfg(alpha=0.0, epochs=2)
    return distill(cfg, dataset, variant="full"), cfg


def test_evaluate_report_shape_and_determinism(student, world):
    dataset, _, _ = world
    result, cfg = student
    counters = Counter()
    rep1 = evaluate(result.params, dataset, cfg, split="test",
                    train_seconds=result.train_seconds, counters=counters)
    rep2 = evaluate(result.params, dataset, cfg, split="test")
    assert rep1.hr == rep2.hr and rep1.ndcg == rep2.ndcg
    assert rep1.counts["n_instances"] == dataset.rows("test").size
    assert set(rep1.hr) == {5, 10, 20}
    # the distilled inference path never touches the graph stack
    assert counters["teacher_forwards"] == 0
    assert counters["subgraph_samples"] == 0
    assert rep1.train_seconds == result.train_seconds
    assert rep1.predict_seconds > 0.0


def test_evaluate_hr_monotone_in_k(student, world):
    dataset, _, _ = world
    result, cfg = student
    rep = evaluate(result.params, dataset, cfg, split="valid")
    assert rep.hr[5] <= rep.hr[10] <= rep.hr[20]
    assert rep.ndcg[5] <= rep.ndcg[10] <= rep.ndcg[20]
    assert rep.split == "valid"


def _per_row_metrics(params, dataset, cfg, split):
    """Reference: the per-row loop that evaluation ran before it ranked
    whole batches, with each row's HR/NDCG added to a running sum."""
    rows = dataset.rows(split)
    hr = dict.fromkeys(cfg.k_list, 0.0)
    ndcg = dict.fromkeys(cfg.k_list, 0.0)
    n_truncated = 0
    for start in range(0, rows.size, 256):
        batch = rows[start:start + 256]
        with no_tape():
            probs, _ = predict_scores(dataset.items[batch],
                                      dataset.regions[batch],
                                      dataset.dists[batch], params)
        for i, row in enumerate(batch):
            user, target = int(dataset.user[row]), int(dataset.target[row])
            negs, truncated = sample_negatives(
                user, target, dataset.purchased_by(user), params.n_takeaways,
                cfg.n_negatives, cfg.seed)
            rank = rank_of_target(probs.data[i, target], probs.data[i, negs])
            n_truncated += truncated
            for k in cfg.k_list:
                hr[k] += hit_rate_at_k(rank, k)
                ndcg[k] += ndcg_at_k(rank, k)
    return ({k: v / rows.size for k, v in hr.items()},
            {k: v / rows.size for k, v in ndcg.items()}, n_truncated)


def _buys_everything(dataset, user, n_takeaways):
    """``dataset`` with ``user``'s purchase history set to every item, so
    that user's evaluation rows have an empty negative pool."""
    bought = [np.arange(1, n_takeaways + 1) if u == user
              else dataset.purchased_by(u)
              for u in range(dataset.purchased_indptr.size - 1)]
    indptr = np.concatenate(([0], np.cumsum([b.size for b in bought])))
    return dataclasses.replace(dataset, purchased_indptr=indptr,
                               purchased_items=np.concatenate(bought))


@pytest.mark.parametrize("split", ["valid", "test"])
def test_batch_ranking_matches_the_per_row_loop(student, world, split):
    # 50 negatives exceed the pools of some users (45-55 unbought items
    # here) but not of others, and one user has bought every item
    dataset, _, vocab = world
    result, _ = student
    cfg = tiny_cfg(n_negatives=50, k_list=(1, 5, 10, 20))
    rows = dataset.rows(split)
    dataset = _buys_everything(dataset, int(dataset.user[rows[0]]),
                               vocab.n_takeaways)
    assert dataset.purchased_by(int(dataset.user[rows[0]])).size == 60
    hr, ndcg, n_truncated = _per_row_metrics(result.params, dataset, cfg,
                                             split)
    assert 1 < n_truncated < rows.size
    rep = evaluate(result.params, dataset, cfg, split=split)
    assert rep.hr == hr and rep.ndcg == ndcg
    assert rep.counts["n_truncated"] == n_truncated


def test_evaluate_fusion_requires_readout(student, world):
    dataset, _, _ = world
    result, cfg = student
    with pytest.raises(InvalidArgumentError):
        evaluate(result.params, dataset, cfg, fusion="add")


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("table", ["n_takeaways", "n_regions"])
def test_evaluate_refuses_a_student_of_other_sizes(world, table, delta):
    # one id too many would rank an item nobody sells as a negative; one
    # too few would index past the item or region table
    dataset = world[0]
    cfg = tiny_cfg()
    sizes = {"n_takeaways": dataset.n_takeaways,
             "n_regions": dataset.n_regions}
    sizes[table] += delta
    params = StudentParams(**sizes, n=cfg.n, d=cfg.d, heads=cfg.heads,
                           layers=cfg.layers)
    with pytest.raises(ConsistencyError, match="student has"):
        evaluate(params, dataset, cfg)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def test_ablate_runs_and_orders_reports(world):
    dataset, stkg, _ = world
    cfg = tiny_cfg(epochs=1)
    reports = ablate(cfg, dataset, stkg, variants=("full", "no_kd"))
    assert set(reports) == {"full", "no_kd"}
    for rep in reports.values():
        assert 0.0 <= rep.hr[10] <= 1.0
        assert rep.train_seconds > 0.0
    # the KD run charges teacher pre-training time to the full variant
    assert reports["full"].train_seconds > reports["no_kd"].train_seconds
    with pytest.raises(InvalidArgumentError):
        ablate(cfg, dataset, stkg, variants=("nope",))


def test_a_study_draws_each_split_s_negatives_once(world, monkeypatch):
    # the teacher's and both arms' validation share one draw, and both arms'
    # evaluation another: one sample_negatives call per row of each split
    dataset, stkg, _ = world
    calls = []
    real = pipeline.sample_negatives

    def counted(*a):
        calls.append(1)
        return real(*a)

    monkeypatch.setattr(pipeline, "sample_negatives", counted)
    ablate(tiny_cfg(epochs=1), dataset, stkg, variants=("full", "no_kd"))
    assert len(calls) == (dataset.rows("valid").size
                          + dataset.rows("test").size)


def test_ablate_fusion_counters_and_timing(world):
    dataset, stkg, _ = world
    cfg = tiny_cfg(epochs=1)
    reports = ablate_fusion(cfg, dataset, stkg, strategies=("stkd", "add"))
    stkd_rep, add_rep = reports["stkd"], reports["add"]
    assert stkd_rep.counts.get("teacher_forwards", 0) == 0
    assert stkd_rep.counts.get("subgraph_samples", 0) == 0
    assert add_rep.counts["teacher_forwards"] > 0
    assert add_rep.counts["subgraph_samples"] > 0
    assert stkd_rep.predict_seconds > 0.0
    assert add_rep.predict_seconds > 0.0
    with pytest.raises(InvalidArgumentError):
        ablate_fusion(cfg, dataset, stkg, strategies=("nope",))


def test_fusion_readout_shape(pretrained, world):
    result, prov, _ = pretrained
    dataset, _, _ = world
    rows = dataset.rows("test")[:5]
    r = teacher_readout(prov.batch(rows), result.params)
    assert r.data.shape == (5, 16)
    assert np.all(np.isfinite(r.data))


def test_sweep_parameter_validation(world):
    dataset, stkg, _ = world
    with pytest.raises(InvalidArgumentError):
        sweep(tiny_cfg(), dataset, stkg, parameter="bogus")


def test_sweep_temperature_labels(world):
    dataset, stkg, _ = world
    cfg = tiny_cfg(epochs=1)
    reports = sweep(cfg, dataset, stkg, parameter="temperature")
    assert set(reports) == {f"temperature={t}" for t in (1.0, 3.0, 5.0, 7.0, 9.0)}
    for label, rep in reports.items():
        assert rep.config["temperature"] == float(label.split("=")[1])


@pytest.fixture
def teacher_calls(monkeypatch):
    """The fanouts of every teacher a study pre-trains; each one reports
    1e6 training seconds, so the arms charged for it stand out."""
    calls = []
    real = pipeline._teacher_and_signal

    def counted(cfg, *args):
        calls.append(cfg.fanouts)
        result, signal = real(cfg, *args)
        result.train_seconds = 1e6
        return result, signal

    monkeypatch.setattr(pipeline, "_teacher_and_signal", counted)
    return calls


def test_sweep_fanouts_labels(world, teacher_calls):
    dataset, stkg, _ = world
    reports = sweep(tiny_cfg(epochs=1), dataset, stkg, parameter="fanouts")
    grid = ((5, 5), (10, 10), (15, 15), (20, 20))
    assert list(reports) == [f"fanouts={f}" for f in grid]
    for label, rep in reports.items():
        assert label == f"fanouts={tuple(rep.config['fanouts'])}"
        assert rep.train_seconds > 1e6
    # the fanouts shape the subgraphs: one teacher per setting
    assert teacher_calls == list(grid)


def test_study_teacher_is_trained_for_and_charged_to_its_readers(
        world, teacher_calls):
    dataset, stkg, _ = world
    args = (dataset, stkg)
    reports = ablate(tiny_cfg(epochs=1), *args,
                     variants=("full", "no_kd", "no_sp", "no_sp_kd"))
    assert teacher_calls == [(4, 4)]
    charged = {v for v, rep in reports.items() if rep.train_seconds > 1e6}
    assert charged == {"full", "no_sp"}

    # with alpha = 0 only the fusion arms read the teacher
    teacher_calls.clear()
    reports = ablate_fusion(tiny_cfg(epochs=1, alpha=0.0), *args,
                            strategies=("stkd", "add"))
    assert teacher_calls == [(4, 4)]
    assert reports["stkd"].train_seconds < 1e6 < reports["add"].train_seconds
    assert reports["stkd"].counts.get("teacher_forwards", 0) == 0

    teacher_calls.clear()
    reports = sweep(tiny_cfg(epochs=1, alpha=0.0), *args)
    assert teacher_calls == []
    assert all(rep.train_seconds < 1e6 for rep in reports.values())


def test_fusion_study_without_kd_computes_no_soft_labels(world, monkeypatch):
    dataset, stkg, _ = world
    args = (dataset, stkg)
    cfg = tiny_cfg(epochs=1, alpha=0.0)
    calls = []
    real_labels = pipeline.compute_soft_labels
    real_teacher = pipeline._teacher_and_signal

    def counted(*a, **kw):
        calls.append(1)
        return real_labels(*a, **kw)

    monkeypatch.setattr(pipeline, "compute_soft_labels", counted)
    reports = ablate_fusion(cfg, *args)
    assert calls == []

    # the same study computing the soft labels nothing reads gives the same
    # reports
    monkeypatch.setattr(pipeline, "_teacher_and_signal",
                        lambda *a: real_teacher(*a[:-1], True))
    unread = ablate_fusion(cfg, *args)
    assert calls == [1]
    for s in FUSION_STRATEGIES:
        assert reports[s].hr == unread[s].hr
        assert reports[s].ndcg == unread[s].ndcg
        assert reports[s].counts == unread[s].counts
