"""Split plans, leakage guards, metrics, decision fusion and experiments."""

import gc
import hashlib
import itertools
import json
import os
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from emomsase import dataio, evaluate, preprocess
from emomsase.dataio import (
    HIGH, LOW, LabelCase, LabelLookup, SyntheticSpec, default_synth_channels,
    derive_labels, make_synthetic,
)
from emomsase.evaluate import (
    EvaluateError, Fold, Sample, SplitPlan, build_labeled_set, fold_report,
    fuse_decisions, group_kfold, loso, results_rows, run_experiment,
    write_report_json, write_results_csv,
)
from emomsase.model import ModelConfig
from emomsase.train import TrainConfig, TrainError, TrainLog

from reference_impls import fuse_brute_force


def _pids(n):
    return [f"p{i + 1:02d}" for i in range(n)]


# ---------------------------------------------------------------------------
# Split plans
# ---------------------------------------------------------------------------

def test_group_kfold_partition_properties():
    for seed in range(5):
        plan = group_kfold(_pids(23), k=5, seed=seed)
        assert len(plan.folds) == 5
        assert sorted(len(f.test) for f in plan.folds) == [4, 4, 5, 5, 5]
        for fold in plan.folds:
            train, val, test = set(fold.train), set(fold.val), set(fold.test)
            assert not (train & val or train & test or val & test)
            assert train | val | test == set(_pids(23))
        # every participant is tested exactly once across folds
        tested = list(itertools.chain.from_iterable(f.test for f in plan.folds))
        assert sorted(tested) == _pids(23)


def test_group_kfold_validation_group_is_the_next_one():
    plan = group_kfold(_pids(10), k=5, seed=1)
    groups = [set(f.test) for f in plan.folds]
    for i, fold in enumerate(plan.folds):
        assert set(fold.val) == groups[(i + 1) % 5]


def test_group_kfold_seed_changes_assignment():
    a = group_kfold(_pids(23), k=5, seed=0)
    b = group_kfold(_pids(23), k=5, seed=1)
    assert any(fa.test != fb.test for fa, fb in zip(a.folds, b.folds))
    again = group_kfold(_pids(23), k=5, seed=0)
    assert all(fa.test == fb.test for fa, fb in zip(a.folds, again.folds))


def test_group_kfold_rejects_bad_arguments():
    with pytest.raises(EvaluateError, match="cannot make 5 groups from 4 participants"):
        group_kfold(_pids(4), k=5, seed=0)
    with pytest.raises(EvaluateError):
        group_kfold(_pids(10), k=2, seed=0)
    with pytest.raises(EvaluateError):
        group_kfold(["a", "a", "b"], k=3, seed=0)


def test_loso_structure():
    plan = loso(_pids(23))
    assert len(plan.folds) == 23
    for i, fold in enumerate(plan.folds):
        assert fold.test == (_pids(23)[i],)
        assert fold.val == (_pids(23)[(i + 1) % 23],)
        assert len(fold.train) == 21
        assert set(fold.train) | set(fold.val) | set(fold.test) == set(_pids(23))
    with pytest.raises(EvaluateError, match="leave-one-out needs at least 3 participants"):
        loso(_pids(2))
    with pytest.raises(EvaluateError):
        loso(["a", "a", "b"])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1),
       scheme=st.sampled_from(["kfold", "loso"]))
def test_folds_rotate_the_groups(data, n, seed, scheme):
    pids = _pids(n)
    plan = (group_kfold(pids, k=data.draw(st.integers(3, n)), seed=seed)
            if scheme == "kfold" else loso(pids))
    folds = plan.folds
    assert sorted(pid for f in folds for pid in f.test) == pids
    for i, fold in enumerate(folds):
        assert fold.index == i
        assert fold.val == folds[(i + 1) % len(folds)].test
        assert sorted(fold.train) == sorted(set(pids) - set(fold.test) - set(fold.val))


def test_fold_and_plan_guards():
    with pytest.raises(EvaluateError, match="fold 0: participant on two sides"):
        Fold(index=0, train=("a", "b"), val=("b",), test=("c",)).check_disjoint()
    with pytest.raises(EvaluateError):
        Fold(index=0, train=(), val=("a",), test=("b",)).check_disjoint()
    with pytest.raises(EvaluateError):
        SplitPlan(scheme="kfold3", participants=("a", "b", "c", "d"),
                  folds=(Fold(index=0, train=("a",), val=("b",), test=("c",)),))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

FOLD = Fold(index=2, train=("a",), val=("b",), test=("c",))


def test_metrics_counts():
    probs = np.array([
        [0.9, 0.1],    # correct negative
        [0.2, 0.8],    # correct positive
        [0.7, 0.3],    # missed positive
        [0.4, 0.6],    # false positive
    ])
    r = fold_report(FOLD, probs.argmax(axis=1), np.array([LOW, HIGH, HIGH, LOW]), {})
    npt.assert_allclose(r["accuracy"], 0.5)
    npt.assert_allclose(r["recall"], 0.5)
    npt.assert_array_equal(r["confusion"], [[1, 1], [1, 1]])
    assert r["n_test_samples"] == 4
    assert r["fold"] == FOLD.index
    assert (r["train_participants"], r["val_participants"], r["test_participants"]) == \
        (list(FOLD.train), list(FOLD.val), list(FOLD.test))


def test_metrics_recall_without_positives_is_zero():
    r = fold_report(FOLD, np.array([LOW, LOW]), np.array([LOW, LOW]), {})
    npt.assert_allclose(r["accuracy"], 1.0)
    assert r["recall"] == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([LOW, HIGH]), st.sampled_from([LOW, HIGH])),
                min_size=1, max_size=40))
def test_metrics_count_like_a_loop(pairs):
    """Rows of the confusion matrix are true classes, columns predicted ones."""
    true, predicted = (np.array(side) for side in zip(*pairs))
    r = fold_report(FOLD, predicted, true, {})
    expected = np.zeros((2, 2), dtype=int)
    for t, p in pairs:
        expected[t, p] += 1
    npt.assert_array_equal(r["confusion"], expected)
    assert r["accuracy"] == np.mean(true == predicted)


# ---------------------------------------------------------------------------
# Decision fusion
# ---------------------------------------------------------------------------

def _members(samples):
    """Each member's (N, C) array from N samples of per-member vectors."""
    return [np.array([rows[m] for rows in samples]) for m in range(len(samples[0]))]


def _assert_matches_brute_force(samples):
    for rule in ("sum", "max"):
        classes, ties = fuse_decisions(_members(samples), rule)
        assert classes.shape == ties.shape == (len(samples),)
        for rows, got_class, got_tie in zip(samples, classes, ties):
            assert (got_class, got_tie) == fuse_brute_force(rows, rule)


def test_decision_fuse_hand_cases():
    a, b = np.array([0.6, 0.4]), np.array([0.1, 0.9])
    half = np.array([0.5, 0.5])
    members = _members([(a, b), (half, half)])
    for rule in ("sum", "max"):  # 0.7 vs 1.3 under sum, 0.6 vs 0.9 under max
        classes, ties = fuse_decisions(members, rule)
        # the exact tie of the second sample goes to the lower class and is flagged
        npt.assert_array_equal(classes, [HIGH, LOW])
        npt.assert_array_equal(ties, [False, True])


def test_decision_fuse_validation():
    half = np.array([[0.5, 0.5]])
    with pytest.raises(EvaluateError):
        fuse_decisions([], "sum")
    with pytest.raises(EvaluateError):
        fuse_decisions([half, np.array([[0.1, 0.2, 0.7]])], "sum")
    with pytest.raises(EvaluateError):
        fuse_decisions([half, np.array([[-0.1, 1.1]])], "sum")
    with pytest.raises(EvaluateError):
        fuse_decisions([half, half], "mean")
    with pytest.raises(EvaluateError):
        fuse_decisions([half[0], half[0]], "sum")  # vectors, not (N, C) arrays
    # one member's fused decision is its own argmax, for either rule
    probs = np.array([[0.2, 0.8], [0.7, 0.3], [0.5, 0.5]], dtype=np.float32)
    for rule in ("sum", "max"):
        classes, ties = fuse_decisions([probs], rule)
        npt.assert_array_equal(classes, probs.argmax(axis=1))
        npt.assert_array_equal(ties, [False, False, True])


def test_decision_fuse_matches_brute_force_on_grids():
    grid = [np.array([i / 4.0, j / 4.0])
            for i in range(5) for j in range(5)]
    _assert_matches_brute_force(list(itertools.product(grid, repeat=2)))


def test_decision_fuse_three_classifiers_three_classes():
    rng = np.random.default_rng(0)
    _assert_matches_brute_force(
        [[rng.uniform(0, 1, size=3) for _ in range(3)] for _ in range(200)])


def test_decision_fuse_adds_float32_members_in_float64():
    """In float32, 0.5 + 2**-25 rounds back to 0.5, so a float32 sum flags a
    tie in sample 0 and hands sample 1 to the High class."""
    ulp = 2.0 ** -24  # float32 spacing just above 0.5
    members = [np.array(rows, dtype=np.float32) for rows in (
        [[0.5, 0.5], [0.5, 0.5]],
        [[ulp / 2, 0.0], [ulp / 2, 0.75 * ulp]],
        [[0.0, 0.0], [ulp / 2, 0.0]],
    )]
    classes, ties = fuse_decisions(members, "sum")
    npt.assert_array_equal(classes, [LOW, LOW])
    npt.assert_array_equal(ties, [False, False])
    for i, (got_class, got_tie) in enumerate(zip(classes, ties)):
        assert (got_class, got_tie) == fuse_brute_force([m[i] for m in members], "sum")
    float32_sum = np.sum(members, axis=0)
    assert float32_sum[0, 0] == float32_sum[0, 1] and float32_sum[1].argmax() == HIGH


# ---------------------------------------------------------------------------
# Labeled sets from samples
# ---------------------------------------------------------------------------

def _samples_and_labels(n_participants=6, channels=("L_EP_Y",), seed=0):
    spec = SyntheticSpec(
        n_participants=n_participants, seed=seed, class_separation=3.0,
        channels=default_synth_channels(list(channels)))
    recordings, ratings = make_synthetic(spec)
    by_pair = {}
    for rec in recordings:
        tensor = preprocess.preprocess_channel(rec)
        s = by_pair.setdefault(
            (rec.participant_id, rec.video_id),
            Sample(participant_id=rec.participant_id, video_id=rec.video_id,
                   tensors={}))
        s.tensors[rec.channel] = tensor.values
    samples = [by_pair[k] for k in sorted(by_pair)]
    labels = LabelLookup(derive_labels(ratings, LabelCase.GENERAL), "valence")
    return samples, labels


def test_build_labeled_set_references_the_sample_tensors():
    """A fold side copies no tensor: building one over 26 samples allocates
    less than one sample's tensors, and its rows are the samples' own."""
    samples, labels = _samples_and_labels(n_participants=2)
    one_sample = sum(x.nbytes for x in samples[0].tensors.values())
    tracemalloc.start()
    try:
        ls = build_labeled_set(samples, labels, ("L_EP_Y",), ("p01", "p02"))
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ls) == len(samples) == 26 and allocated < one_sample
    assert all(row is s.tensors["L_EP_Y"] for row, s in zip(ls.rows["L_EP_Y"], samples))


def test_build_labeled_set_stacks_and_checks():
    samples, labels = _samples_and_labels(n_participants=2)
    ls = build_labeled_set(samples, labels, ("L_EP_Y",), ("p01",))
    assert ls.inputs["L_EP_Y"].shape == (13, 19, 200)
    p01 = [s.tensors["L_EP_Y"] for s in samples if s.participant_id == "p01"]
    assert all(a is b for a, b in zip(ls.rows["L_EP_Y"], p01, strict=True))
    with pytest.raises(EvaluateError):
        build_labeled_set(samples, labels, ("L_EP_Y",), ("p99",))
    with pytest.raises(EvaluateError, match="p01/video01 lacks channel EDA"):
        build_labeled_set(samples, labels, ("EDA",), ("p01",))

    gaps = LabelLookup(derive_labels(
        [dataio.SamRating("p01", "video01", 6, 6, dataio.Sex.MALE)],
        LabelCase.GENERAL), "valence")
    with pytest.raises(EvaluateError, match="no valence label for p01/video02"):
        build_labeled_set(samples, gaps, ("L_EP_Y",), ("p01",))


# ---------------------------------------------------------------------------
# Experiments end to end (small but real training)
# ---------------------------------------------------------------------------

def _experiment_pieces(channels_by_domain, seed=0, n_participants=6):
    channels = tuple(ch for _, chs in channels_by_domain for ch in chs)
    samples, labels = _samples_and_labels(n_participants=n_participants,
                                          channels=channels, seed=seed)
    config = ModelConfig(
        domain_channels=channels_by_domain,
        feature_sizes={ch: preprocess.feature_size(ch) for ch in channels},
        hidden_size=6,
        se_reduction=3,
        seed=seed,
    )
    train_config = TrainConfig(learning_rate=0.003, batch_size=16,
                               max_epochs=4, patience=4, seed=seed)
    return samples, labels, config, train_config


def test_run_experiment_modality_fusion():
    samples, labels, config, tc = _experiment_pieces(
        (("Head", ("L_EP_Y",)),))
    split = group_kfold(_pids(6), k=3, seed=0)
    result, logs = run_experiment(samples, labels, config, split, fusion="modality",
                                  train_config=tc)
    assert len(result["folds"]) == len(logs) == 3
    assert result["combination"] == "Head"
    assert result["scheme"] == "kfold3"
    assert result["label_case"] == "general"
    assert 0.0 <= result["mean_accuracy"] <= 1.0
    for fold, f, members in zip(split.folds, result["folds"], logs):
        assert f["fold"] == fold.index
        assert (f["train_participants"], f["val_participants"], f["test_participants"]) == \
            (list(fold.train), list(fold.val), list(fold.test))
        assert f["n_test_samples"] == 13 * len(fold.test)
        assert np.sum(f["confusion"]) == f["n_test_samples"]
        assert set(members) == set(f["training"]) == {"model"}


def test_run_experiment_decision_fusion_two_domains():
    samples, labels, config, tc = _experiment_pieces(
        (("Peripheral", ("EDA",)), ("Head", ("L_EP_Y",))))
    split = group_kfold(_pids(6), k=3, seed=1)
    result, logs = run_experiment(samples, labels, config, split, fusion="sum",
                                  train_config=tc)
    assert result["fusion"] == "sum"
    assert result["combination"] == "Peripheral+Head"
    for f, members in zip(result["folds"], logs, strict=True):
        assert set(members) == set(f["training"]) == {"Peripheral", "Head"}

    single = ModelConfig(
        domain_channels=(("Head", ("L_EP_Y",)),),
        feature_sizes={"L_EP_Y": preprocess.feature_size("L_EP_Y")},
        hidden_size=6, se_reduction=3)
    with pytest.raises(EvaluateError, match="decision fusion needs at least two domains"):
        run_experiment(samples, labels, single, split, fusion="max",
                       train_config=tc)


# Test-set probabilities that a stub model of each domain set repeats over
# its N samples.  Sum and max disagree on samples 0 and 1, and sample 3 is
# an exact tie under both rules.
STUB_PROBS = {
    ("Peripheral",): [[0.9, 0.1], [0.95, 0.05], [0.5, 0.5], [0.6, 0.4], [0.2, 0.8]],
    ("Trunk",): [[0.3, 0.7], [0.1, 0.9], [0.5, 0.5], [0.4, 0.6], [0.3, 0.7]],
    ("Head",): [[0.2, 0.8], [0.1, 0.9], [0.4, 0.6], [0.5, 0.5], [0.4, 0.6]],
    ("Peripheral", "Trunk", "Head"): [[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]],
}


def _stub_probs(domains, n):
    rows = STUB_PROBS[tuple(domains)]
    return np.array([rows[i % len(rows)] for i in range(n)], dtype=np.float32)


class _StubModel:
    def __init__(self, config):
        self.domains = [d for d, _ in config.domain_channels]

    def predict(self, inputs):
        return _stub_probs(self.domains, next(iter(inputs.values())).shape[0])


@pytest.mark.parametrize("fusion", ["modality", "sum", "max"])
def test_run_experiment_fuses_each_members_test_probabilities(monkeypatch, fusion):
    """Each fold's confusion matrix counts the brute-force fused decision
    of every test sample against its label."""
    domain_channels = (("Peripheral", ("EDA",)), ("Trunk", ("LAT_ACC",)),
                       ("Head", ("L_EP_Y",)))
    samples, labels, config, tc = _experiment_pieces(domain_channels, n_participants=3)
    monkeypatch.setattr(evaluate, "fit",
                        lambda model, *args: (_StubModel(model.config), TrainLog()))
    split = group_kfold(_pids(3), k=3, seed=0)
    result, _ = run_experiment(samples, labels, config, split, fusion=fusion, train_config=tc)

    members = ([[d for d, _ in domain_channels]] if fusion == "modality"
               else [[d] for d, _ in domain_channels])
    rule = "sum" if fusion == "modality" else fusion
    for fold, got in zip(split.folds, result["folds"]):
        true = build_labeled_set(samples, labels, config.channels, fold.test).labels
        probs = [_stub_probs(domains, len(true)) for domains in members]
        expected = np.zeros((2, 2), dtype=int)
        for i, t in enumerate(true):
            expected[t, fuse_brute_force([p[i] for p in probs], rule)[0]] += 1
        npt.assert_array_equal(got["confusion"], expected)
        assert got["accuracy"] == np.trace(expected) / len(true)


# sha256 of results.csv and report.json written for the three entries of
# test_result_bytes_stay_pinned
RESULT_DIGESTS = (
    "6712b40b27f8f9ccc62663eb4df2353ac798054833a91253c396a78055af1ece",
    "b01c963756b55f164ac028f05763e1b75619d9eefc0c544c94cfc6bbb9c879ed",
)


def test_result_bytes_stay_pinned(monkeypatch, tmp_path):
    """The writers' bytes, for one stubbed experiment per fusion mode: every
    field of the report and every summary row."""
    domain_channels = (("Peripheral", ("EDA",)), ("Trunk", ("LAT_ACC",)),
                       ("Head", ("L_EP_Y",)))
    samples, labels, config, tc = _experiment_pieces(domain_channels, n_participants=3)
    log = TrainLog(train_loss=[0.7, 0.6, 0.65], val_loss=[0.69, 0.61, 0.64],
                   val_accuracy=[0.5, 0.625, 0.6], best_epoch=2)

    def stub_fit(model, *args):  # the Head member never improves: no best epoch
        stub = _StubModel(model.config)
        return stub, TrainLog() if stub.domains == ["Head"] else log
    monkeypatch.setattr(evaluate, "fit", stub_fit)
    split = group_kfold(_pids(3), k=3, seed=0)
    entries = [run_experiment(samples, labels, config, split, fusion=fusion,
                              train_config=tc)[0] for fusion in ("modality", "sum", "max")]
    write_results_csv(tmp_path / "results.csv", entries)
    write_report_json(tmp_path / "report.json", entries)
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("results.csv", "report.json")) == RESULT_DIGESTS


@pytest.mark.parametrize("fusion", ["modality", "sum"])
def test_run_experiment_holds_one_model_at_a_time(monkeypatch, fusion):
    """Each fit starts once the last member's weights are freed, so peak
    memory holds one model, not two, in the parent and in its worker (whose
    failed assertion the parent raises)."""
    samples, labels, config, tc = _experiment_pieces(
        (("Peripheral", ("EDA",)), ("Head", ("L_EP_Y",))))
    split = group_kfold(_pids(6), k=3, seed=1)
    alive = weakref.WeakSet()
    real_fit = evaluate.fit

    def counting_fit(model, *args):
        alive.add(model)
        gc.collect()
        assert len(alive) == 1
        return real_fit(model, *args)
    monkeypatch.setattr(evaluate, "fit", counting_fit)
    monkeypatch.setattr(evaluate, "usable_cpus", lambda: 2)
    run_experiment(samples, labels, config, split, fusion=fusion, train_config=tc)


def test_run_experiment_marks_each_fold_before_its_fits(monkeypatch, tmp_path):
    """Each fold calls ``check_disjoint`` once, before its members' fits, in
    the process that fits it: the benchmark times a fold from its marker to
    the next one.  Each process runs its folds in order."""
    samples, labels, config, tc = _experiment_pieces(
        (("Peripheral", ("EDA",)), ("Head", ("L_EP_Y",))))
    split = group_kfold(_pids(6), k=3, seed=1)  # before the spies: SplitPlan checks too
    journal = tmp_path / "calls.txt"
    real_check, real_fit = Fold.check_disjoint, evaluate.fit

    def note(step, fold):
        with journal.open("a") as fh:
            fh.write(f"{os.getpid()} {step} {fold}\n")

    def marking_check(fold):
        note("check", fold.index)
        return real_check(fold)

    def marking_fit(model, train, val, config):
        note("fit", (config.seed - tc.seed) // 1000 - 1)  # fold of its seed
        return real_fit(model, train, val, config)
    monkeypatch.setattr(evaluate.Fold, "check_disjoint", marking_check)
    monkeypatch.setattr(evaluate, "fit", marking_fit)
    monkeypatch.setattr(evaluate, "usable_cpus", lambda: 2)
    run_experiment(samples, labels, config, split, fusion="sum", train_config=tc)
    by_pid = {}
    for line in journal.read_text().splitlines():
        pid, step, fold = line.split()
        by_pid.setdefault(int(pid), []).append((step, int(fold)))
    folds = {pid: sorted({fold for _, fold in calls}) for pid, calls in by_pid.items()}
    assert folds[os.getpid()] == ([0, 2] if evaluate.blas_threads() else [0, 1, 2])
    assert len(by_pid) == (2 if evaluate.blas_threads() else 1)
    assert sorted(f for mine in folds.values() for f in mine) == \
        [fold.index for fold in split.folds]  # every fold in exactly one process
    for pid, calls in by_pid.items():
        assert calls == [(step, fold) for fold in folds[pid] for step in ("check", "fit", "fit")]


def _stub_fit_failing(where, tc):
    """A fast stub of ``evaluate.fit`` that fails on fold 1 (a worker's) or 2
    (the parent's), or makes fold 1's worker die without a word."""
    def stub_fit(model, train, val, config):
        fold = (config.seed - tc.seed) // 1000 - 1
        if where == "worker" and fold == 1 or where == "parent" and fold == 2:
            raise TrainError(f"fold {fold} diverged")
        if where == "worker dies" and fold == 1:
            os._exit(3)
        return _StubModel(model.config), TrainLog()
    return stub_fit


@pytest.mark.parametrize("where", [None, "worker", "parent", "worker dies"])
def test_run_experiment_reaps_its_workers_and_restores_blas_threads(monkeypatch, where):
    """A worker's exception reaches the caller with its type and message, a
    worker that dies unheard is named by its folds, and afterwards no child
    is left and the BLAS thread count is what it was."""
    blas = evaluate.blas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    samples, labels, config, tc = _experiment_pieces(
        (("Peripheral", ("EDA",)), ("Head", ("L_EP_Y",))), n_participants=3)
    split = group_kfold(_pids(3), k=3, seed=0)
    monkeypatch.setattr(evaluate, "fit", _stub_fit_failing(where, tc))
    monkeypatch.setattr(evaluate, "usable_cpus", lambda: 2)
    get, put = blas
    before = get()
    put(2)
    try:
        if where is None:
            run_experiment(samples, labels, config, split, fusion="sum", train_config=tc)
        else:
            error, message = ((EvaluateError, r"the worker for folds \[1\] ended without a result")
                              if where == "worker dies"
                              else (TrainError, f"^fold {2 if where == 'parent' else 1} diverged$"))
            with pytest.raises(error, match=message) as raised:
                run_experiment(samples, labels, config, split, fusion="sum", train_config=tc)
            assert type(raised.value) is error
        assert get() == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    finally:
        put(before)


def test_fit_member_is_pure(monkeypatch):
    """Equal arguments give equal bytes, no sample tensor changes, and no
    model outlives the call."""
    samples, labels, config, tc = _experiment_pieces((("Head", ("L_EP_Y",)),))
    fold = group_kfold(_pids(6), k=3, seed=1).folds[1]
    before = [{ch: t.copy() for ch, t in s.tensors.items()} for s in samples]
    alive = weakref.WeakSet()
    real_fit = evaluate.fit

    def tracking_fit(model, *args):
        alive.add(model)
        fitted, log = real_fit(model, *args)
        alive.add(fitted)
        return fitted, log
    monkeypatch.setattr(evaluate, "fit", tracking_fit)
    first, second = (evaluate.fit_member(samples, labels, fold, config, tc)
                     for _ in range(2))
    gc.collect()
    assert len(alive) == 0
    for a, b in zip(first[:2], second[:2]):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert first[2].n_epochs() >= 1
    for name in ("train_loss", "val_loss", "val_accuracy"):
        assert np.array(getattr(first[2], name)).tobytes() == \
            np.array(getattr(second[2], name)).tobytes()
    assert first[2].best_epoch == second[2].best_epoch
    for sample, tensors in zip(samples, before):
        for ch, t in tensors.items():
            assert sample.tensors[ch].tobytes() == t.tobytes()


def test_run_experiment_input_validation():
    samples, labels, config, tc = _experiment_pieces((("Head", ("L_EP_Y",)),))
    split = group_kfold(_pids(6), k=3, seed=0)
    with pytest.raises(EvaluateError):
        run_experiment(samples, labels, config, split, fusion="vote",
                       train_config=tc)
    bigger = group_kfold(_pids(7), k=3, seed=0)
    with pytest.raises(EvaluateError):
        run_experiment(samples, labels, config, bigger, train_config=tc)


def test_results_serialization(tmp_path):
    samples, labels, config, tc = _experiment_pieces((("Head", ("L_EP_Y",)),))
    split = group_kfold(_pids(6), k=3, seed=2)
    result, _ = run_experiment(samples, labels, config, split, train_config=tc)

    rows = results_rows([result])
    assert [r[2] for r in rows] == ["valence_accuracy", "valence_recall"]

    path = tmp_path / "results.csv"
    write_results_csv(path, [result])
    text = path.read_text()
    assert text.splitlines()[0] == "combination,label_case,metric,value"
    assert len(text.splitlines()) == 3
    write_results_csv(tmp_path / "again.csv", [result])
    assert (tmp_path / "again.csv").read_text() == text  # deterministic bytes

    write_report_json(tmp_path / "report.json", [result])
    parsed = json.loads((tmp_path / "report.json").read_text())
    exp = parsed["experiments"][0]
    assert exp["scheme"] == "kfold3"
    assert len(exp["folds"]) == 3
    for fold in exp["folds"]:
        assert set(fold["train_participants"]) & set(fold["test_participants"]) == set()
        assert fold["training"]["model"]["best_epoch"] >= 1
