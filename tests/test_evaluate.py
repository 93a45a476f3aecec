"""Split plans, leakage guards, metrics, decision fusion and experiments."""

import gc
import itertools
import json
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
    EvaluateError, Fold, FusedDecision, LabelCoverageError, LeakageError,
    MissingChannelError, NoClassifiersError, Sample, SplitPlan,
    TooFewParticipantsError, build_labeled_set, decision_fuse, group_kfold,
    loso, metrics, report_dict, results_rows, run_experiment,
    write_results_csv,
)
from emomsase.model import ModelConfig
from emomsase.train import TrainConfig

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
    with pytest.raises(TooFewParticipantsError):
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
    with pytest.raises(TooFewParticipantsError):
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
    with pytest.raises(LeakageError):
        Fold(index=0, train=("a", "b"), val=("b",), test=("c",)).check_disjoint()
    with pytest.raises(EvaluateError):
        Fold(index=0, train=(), val=("a",), test=("b",)).check_disjoint()
    with pytest.raises(EvaluateError):
        SplitPlan(scheme="kfold3", participants=("a", "b", "c", "d"),
                  folds=(Fold(index=0, train=("a",), val=("b",), test=("c",)),))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_metrics_counts():
    preds = [
        (np.array([0.9, 0.1]), LOW),    # correct negative
        (np.array([0.2, 0.8]), HIGH),   # correct positive
        (np.array([0.7, 0.3]), HIGH),   # missed positive
        (np.array([0.4, 0.6]), LOW),    # false positive
    ]
    r = metrics(preds)
    npt.assert_allclose(r.accuracy, 0.5)
    npt.assert_allclose(r.recall, 0.5)
    npt.assert_array_equal(r.confusion, [[1, 1], [1, 1]])
    assert r.n_test_samples == 4


def test_metrics_recall_without_positives_is_zero():
    r = metrics([(np.array([0.9, 0.1]), LOW), (np.array([0.8, 0.2]), LOW)])
    npt.assert_allclose(r.accuracy, 1.0)
    assert r.recall == 0.0
    with pytest.raises(EvaluateError):
        metrics([])


# ---------------------------------------------------------------------------
# Decision fusion
# ---------------------------------------------------------------------------

def test_decision_fuse_hand_cases():
    a, b = np.array([0.6, 0.4]), np.array([0.1, 0.9])
    assert decision_fuse([a, b], "sum") == FusedDecision(HIGH, False)   # 0.7 vs 1.3
    assert decision_fuse([a, b], "max") == FusedDecision(HIGH, False)   # 0.6 vs 0.9
    # exact tie goes to the lower class and is flagged
    assert decision_fuse([np.array([0.5, 0.5]), np.array([0.5, 0.5])],
                         "sum") == FusedDecision(LOW, True)


def test_decision_fuse_validation():
    with pytest.raises(NoClassifiersError):
        decision_fuse([np.array([0.5, 0.5])], "sum")
    with pytest.raises(EvaluateError):
        decision_fuse([np.array([0.5, 0.5]), np.array([0.1, 0.2, 0.7])], "sum")
    with pytest.raises(EvaluateError):
        decision_fuse([np.array([0.5, 0.5]), np.array([-0.1, 1.1])], "sum")
    with pytest.raises(EvaluateError):
        decision_fuse([np.array([0.5, 0.5]), np.array([0.5, 0.5])], "mean")


def test_decision_fuse_matches_brute_force_on_grids():
    grid = [np.array([i / 4.0, j / 4.0])
            for i in range(5) for j in range(5)]
    for rows in itertools.product(grid, repeat=2):
        for rule in ("sum", "max"):
            got = decision_fuse(list(rows), rule)
            winner, tie = fuse_brute_force(rows, rule)
            assert (got.class_index, got.tie) == (winner, tie)


def test_decision_fuse_three_classifiers_three_classes():
    rng = np.random.default_rng(0)
    for _ in range(200):
        rows = [rng.uniform(0, 1, size=3) for _ in range(3)]
        for rule in ("sum", "max"):
            got = decision_fuse(rows, rule)
            winner, tie = fuse_brute_force(rows, rule)
            assert (got.class_index, got.tie) == (winner, tie)


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


def test_build_labeled_set_stacks_and_checks():
    samples, labels = _samples_and_labels(n_participants=2)
    ls = build_labeled_set(samples, labels, ("L_EP_Y",), ("p01",))
    assert ls.inputs["L_EP_Y"].shape == (13, 19, 200)
    assert set(ls.participants) == {"p01"}
    with pytest.raises(EvaluateError):
        build_labeled_set(samples, labels, ("L_EP_Y",), ("p99",))
    with pytest.raises(MissingChannelError):
        build_labeled_set(samples, labels, ("EDA",), ("p01",))

    gaps = LabelLookup(derive_labels(
        [dataio.SamRating("p01", "video01", 6, 6, dataio.Sex.MALE)],
        LabelCase.GENERAL), "valence")
    with pytest.raises(LabelCoverageError):
        build_labeled_set(samples, gaps, ("L_EP_Y",), ("p01",))


# ---------------------------------------------------------------------------
# Experiments end to end (small but real training)
# ---------------------------------------------------------------------------

def _experiment_pieces(channels_by_domain, seed=0):
    channels = tuple(ch for _, chs in channels_by_domain for ch in chs)
    samples, labels = _samples_and_labels(n_participants=6, channels=channels,
                                          seed=seed)
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
    result = run_experiment(samples, labels, config, split, fusion="modality",
                            train_config=tc)
    assert len(result.fold_results) == 3
    assert result.combination == "Head"
    assert result.scheme == "kfold3"
    assert result.label_case == "general"
    assert 0.0 <= result.mean_accuracy <= 1.0
    for fold, f in zip(split.folds, result.fold_results):
        assert f.train_participants == fold.train
        assert f.test_participants == fold.test
        assert f.n_test_samples == 13 * len(fold.test)
        assert f.confusion.sum() == f.n_test_samples
        assert "model" in result.train_logs[f.fold_index]


def test_run_experiment_decision_fusion_two_domains():
    samples, labels, config, tc = _experiment_pieces(
        (("Peripheral", ("EDA",)), ("Head", ("L_EP_Y",))))
    split = group_kfold(_pids(6), k=3, seed=1)
    result = run_experiment(samples, labels, config, split, fusion="sum",
                            train_config=tc)
    assert result.fusion == "sum"
    assert result.combination == "Peripheral+Head"
    for logs in result.train_logs:
        assert set(logs) == {"Peripheral", "Head"}

    single = ModelConfig(
        domain_channels=(("Head", ("L_EP_Y",)),),
        feature_sizes={"L_EP_Y": preprocess.feature_size("L_EP_Y")},
        hidden_size=6, se_reduction=3)
    with pytest.raises(NoClassifiersError):
        run_experiment(samples, labels, single, split, fusion="max",
                       train_config=tc)


@pytest.mark.parametrize("fusion", ["modality", "sum"])
def test_run_experiment_holds_one_model_at_a_time(monkeypatch, fusion):
    """Each fit starts once the last member's weights are freed, so peak
    memory holds one model, not two."""
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
    run_experiment(samples, labels, config, split, fusion=fusion, train_config=tc)


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
    result = run_experiment(samples, labels, config, split, train_config=tc)

    rows = results_rows(report_dict([result])["experiments"])
    assert [r[2] for r in rows] == ["valence_accuracy", "valence_recall"]

    path = tmp_path / "results.csv"
    write_results_csv(path, [result])
    text = path.read_text()
    assert text.splitlines()[0] == "combination,label_case,metric,value"
    assert len(text.splitlines()) == 3
    write_results_csv(tmp_path / "again.csv", [result])
    assert (tmp_path / "again.csv").read_text() == text  # deterministic bytes

    report = report_dict([result])
    blob = json.dumps(report, sort_keys=True)
    parsed = json.loads(blob)
    exp = parsed["experiments"][0]
    assert exp["scheme"] == "kfold3"
    assert len(exp["folds"]) == 3
    for fold in exp["folds"]:
        assert set(fold["train_participants"]) & set(fold["test_participants"]) == set()
        assert fold["training"]["model"]["best_epoch"] >= 1
