"""Headline guarantees of the pipeline, one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion; each test also prints the measured numbers it judged.
"""

import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np
import numpy.testing as npt

from emomsase import dataio, preprocess
from emomsase.autodiff import Param, Tape, Var
from emomsase.dataio import (
    LabelCase, LabelLookup, SyntheticSpec, default_synth_channels,
    derive_labels, make_synthetic,
)
from emomsase.evaluate import (
    Sample, fuse_decisions, group_kfold, loso, run_experiment,
)
from emomsase.gradcheck import grad_check, micro_config
from emomsase.model import (
    EmoMsase, ModelConfig, scale_attention, se_recalibrate,
)
from emomsase.train import TrainConfig

from fixtures import CLIP_CONSENSUS, consensus_ratings
from reference_impls import fuse_brute_force


# ---------------------------------------------------------------------------
# 1. Windowing shape chain
# ---------------------------------------------------------------------------

def test_criterion_01_window_shapes():
    """Every conditioned recording windows to 39x128, 39x512 or 19x200."""
    expected_by_domain = {
        dataio.Domain.PERIPHERAL: (39, 128),
        dataio.Domain.TRUNK: (39, 512),
        dataio.Domain.HEAD: (19, 200),
    }
    channels = sorted(set(dataio.CHANNEL_CATALOG) - {"GSR"})
    spec = SyntheticSpec(n_participants=3, seed=3, class_separation=1.0,
                        channels=default_synth_channels(channels))
    recordings, _ = make_synthetic(spec)
    assert len(recordings) == 3 * 13 * len(channels)

    mismatches = []
    for rec in recordings:
        domain = dataio.CHANNEL_CATALOG[rec.channel].domain
        shape = preprocess.preprocess_channel(rec).values.shape
        if shape != expected_by_domain[domain]:
            mismatches.append((rec.channel, shape))
    assert mismatches == []
    print(f"\ncriterion 1: {len(recordings)}/{len(recordings)} recordings "
          f"hit their expected window shape")


# ---------------------------------------------------------------------------
# 2. Gradient correctness of the whole graph
# ---------------------------------------------------------------------------

def test_criterion_02_gradient_check():
    """Analytic gradients match central differences on the micro model."""
    started = time.time()
    worst = 0.0
    for seed in range(20):
        report = grad_check(micro_config(seed=seed), tolerance=1e-3,
                            epsilon=1e-4, seed=seed)
        assert report.passed, report.failures()
        worst = max(worst, report.max_rel_error)
    elapsed = time.time() - started
    assert worst < 1e-3
    assert elapsed < 60.0
    print(f"\ncriterion 2: 20 seeds, max relative error {worst:.3e} "
          f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Attention invariants
# ---------------------------------------------------------------------------

def test_criterion_03_attention_invariants():
    """Weights are a convex combination; pooling stays inside the hull."""
    rng = np.random.default_rng(33)
    n_forwards = 0
    for _ in range(1000):
        b = int(rng.integers(1, 5))
        t = int(rng.integers(3, 13))
        h = int(rng.integers(2, 9))
        scale = 10.0 ** rng.integers(-2, 3)
        hidden = rng.standard_normal((b, t, h)) * scale
        u = Param("u", rng.standard_normal(h))
        weights, pooled = scale_attention(Tape(), Var(hidden), u)
        n_forwards += 1
        npt.assert_allclose(weights.value.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(weights.value >= 0)
        lo = hidden.min(axis=1) - 1e-12
        hi = hidden.max(axis=1) + 1e-12
        assert np.all(pooled.value >= lo) and np.all(pooled.value <= hi)
    assert n_forwards >= 1000
    print(f"\ncriterion 3: {n_forwards} forwards, weight sums within 1e-9, "
          f"pooled vectors inside their coordinate ranges")


# ---------------------------------------------------------------------------
# 4. Squeeze-and-excitation invariants
# ---------------------------------------------------------------------------

def test_criterion_04_se_invariants():
    """Gating only shrinks features; zero weights halve them exactly."""
    rng = np.random.default_rng(44)
    for _ in range(500):
        b = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        r = int(rng.choice([2, 4]))
        length = r * int(rng.integers(1, 4))
        stacked = rng.standard_normal((b, m, length)) * 10.0 ** rng.integers(-1, 3)
        w1 = Param("w1", rng.standard_normal((length, length // r)))
        w2 = Param("w2", rng.standard_normal((length // r, length)))
        out = se_recalibrate(Tape(), Var(stacked), w1, w2).value
        assert np.all(np.abs(out) <= np.abs(stacked))

    stacked = rng.standard_normal((3, 2, 8))
    zeroed = Param("w1", np.zeros((8, 4))), Param("w2", np.zeros((4, 8)))
    out = se_recalibrate(Tape(), Var(stacked), *zeroed).value
    npt.assert_array_equal(out, 0.5 * stacked)
    print("\ncriterion 4: 500 random trials never grew a feature; "
          "zero weights gave exactly half")


# ---------------------------------------------------------------------------
# 5. Synthetic learnability
# ---------------------------------------------------------------------------

_C5_CHANNELS = ("EDA", "LAT_ACC", "L_EP_Y")
_C5_DOMAINS = (("Peripheral", ("EDA",)), ("Trunk", ("LAT_ACC",)),
               ("Head", ("L_EP_Y",)))


def _c5_dataset(separation):
    spec = SyntheticSpec(n_participants=24, seed=11,
                         class_separation=separation,
                         channels=default_synth_channels(list(_C5_CHANNELS)))
    recordings, ratings = make_synthetic(spec)
    by_pair = {}
    for rec in recordings:
        tensor = preprocess.preprocess_channel(rec)
        s = by_pair.setdefault(
            (rec.participant_id, rec.video_id),
            Sample(rec.participant_id, rec.video_id, {}))
        s.tensors[rec.channel] = tensor.values
    samples = [by_pair[k] for k in sorted(by_pair)]
    labels = LabelLookup(derive_labels(ratings, LabelCase.GENERAL), "valence")
    return samples, labels


def test_criterion_05_synthetic_learnability():
    """Separated classes are learned; featureless classes are not."""
    config = ModelConfig(
        domain_channels=_C5_DOMAINS,
        feature_sizes={ch: preprocess.feature_size(ch) for ch in _C5_CHANNELS},
        hidden_size=32, se_reduction=4, seed=5)
    train_config = TrainConfig(max_epochs=6, patience=6, seed=11)

    samples, labels = _c5_dataset(2.0)
    split = group_kfold(sorted({s.participant_id for s in samples}), k=5,
                        seed=11)
    fused = run_experiment(samples, labels, config, split, fusion="modality",
                           train_config=train_config)[0]["mean_accuracy"]
    singles = {}
    for domain, _ in _C5_DOMAINS:
        singles[domain] = run_experiment(
            samples, labels, config.restrict([domain]), split,
            fusion="modality", train_config=train_config)[0]["mean_accuracy"]

    assert fused >= 0.85
    for domain, acc in singles.items():
        assert fused >= acc - 0.02, (domain, acc)

    flat_samples, flat_labels = _c5_dataset(0.0)
    flat = run_experiment(flat_samples, flat_labels, config, split,
                          fusion="modality", train_config=train_config)[0]["mean_accuracy"]
    assert 0.35 <= flat <= 0.65

    detail = ", ".join(f"{d} {a:.3f}" for d, a in singles.items())
    print(f"\ncriterion 5: fused {fused:.3f} "
          f"(singles {detail}); separation 0 gave {flat:.3f}")


# ---------------------------------------------------------------------------
# 6. Decision-fusion oracle
# ---------------------------------------------------------------------------

def test_criterion_06_fusion_oracle():
    """Sum and Max fusion agree with brute force on full probability grids.

    Two classifiers: every pair of two-class vectors on the 0.1 grid,
    normalized or not.  Three classifiers: every triple of proper
    two-class distributions on the same grid.  Each grid is the N samples
    of one array call, and every sample's class and tie are checked.
    """
    grid = [np.array([i / 10.0, j / 10.0])
            for i in range(11) for j in range(11)]
    simplex = [np.array([i / 10.0, 1.0 - i / 10.0]) for i in range(11)]
    checked = 0
    for vectors, n_members in ((grid, 2), (simplex, 3)):
        samples = list(itertools.product(vectors, repeat=n_members))
        members = [np.array([rows[m] for rows in samples]) for m in range(n_members)]
        for rule in ("sum", "max"):
            classes, ties = fuse_decisions(members, rule)
            assert classes.shape == ties.shape == (len(samples),)
            for rows, got_class, got_tie in zip(samples, classes, ties):
                winner, tie = fuse_brute_force(rows, rule)
                assert (got_class, got_tie) == (winner, tie)
                checked += 1
    print(f"\ncriterion 6: {checked} fused decisions matched the "
          f"brute-force oracle")


# ---------------------------------------------------------------------------
# 7. Split isolation
# ---------------------------------------------------------------------------

def test_criterion_07_split_isolation():
    """No participant ever sits on two sides of any generated fold."""
    participants = [f"p{i + 1:02d}" for i in range(23)]
    plans = [loso(participants)]
    plans.extend(group_kfold(participants, k=5, seed=s) for s in range(25))
    for k in (3, 4, 6, 7):
        plans.extend(group_kfold(participants, k=k, seed=s) for s in range(5))

    violations = 0
    folds = 0
    for plan in plans:
        for fold in plan.folds:
            folds += 1
            train, val, test = set(fold.train), set(fold.val), set(fold.test)
            violations += len(train & val) + len(train & test) + len(val & test)
            assert train | val | test == set(participants)
    assert violations == 0
    print(f"\ncriterion 7: {len(plans)} split plans, {folds} folds, "
          f"0 overlap violations")


# ---------------------------------------------------------------------------
# 8. Majority labelling reproduction
# ---------------------------------------------------------------------------

def test_criterion_08_majority_labels():
    """Vote counts reproduce the frozen per-clip majority codes exactly."""
    out = derive_labels(consensus_ratings(), LabelCase.MAJORITY)
    by_video = {a.video_id: a for a in out}
    assert len(by_video) == len(CLIP_CONSENSUS)
    for clip, _, _, (aro_code, aro_pct), (val_code, val_pct) in CLIP_CONSENSUS:
        a = by_video[clip]
        assert dataio.level_code("arousal", a.arousal) == aro_code
        assert dataio.level_code("valence", a.valence) == val_code
        assert round(100.0 * a.arousal_fraction, 2) == aro_pct
        assert round(100.0 * a.valence_fraction, 2) == val_pct
    print(f"\ncriterion 8: all {len(CLIP_CONSENSUS)} clips matched their "
          f"frozen majority codes and percentages")


# ---------------------------------------------------------------------------
# 9. End-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_09_run_determinism(tmp_path):
    """Two identical seeded runs write byte-identical results and logs, for a
    single model and for decision fusion over two domains; so do runs under
    one and under two BLAS threads."""
    settings = {
        "channels": {"Peripheral": ["EDA"], "Trunk": [], "Head": ["L_EP_Y"]},
        "hidden_size": 8,
        "target": "valence",
        "split": "kfold5",
        "train": {"max_epochs": 2, "patience": 2, "batch_size": 8},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    # B=16 products are large enough for OpenBLAS to thread, which moves bytes unless pinned
    threads_config = tmp_path / "threads.json"
    threads_config.write_text(json.dumps({**settings, "train": {**settings["train"],
                                                                "batch_size": 16}}))
    data = tmp_path / "data"
    cache = tmp_path / "cache"

    def emomsase(*args, env=None):
        proc = subprocess.run(
            [sys.executable, "-m", "emomsase", *args],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def written(out):
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    emomsase("synth", "--config", str(config), "--out", str(data),
             "--participants", "6")
    emomsase("preprocess", "--config", str(config), "--data", str(data),
             "--cache", str(cache))
    for pair, extra in enumerate((["--domains", "head"],
                                  ["--domains", "peripheral,head", "--fusion", "sum"])):
        outs = [tmp_path / f"pair{pair}_run{i}" for i in (1, 2)]
        for out in outs:
            emomsase("run", "--config", str(config), "--seed", "7", *extra,
                     "--cache", str(cache), "--ratings", str(data / "ratings.csv"),
                     "--out", str(out))
        first, second = (written(out) for out in outs)
        logs = [name for name in first if name.startswith("logs/")]
        assert {"results.csv", "report.json"} <= set(first)
        assert len(logs) == 5 * (pair + 1)
        assert first == second
        outs = [tmp_path / f"pair{pair}_threads{n}" for n in (1, 2)]
        for n, out in enumerate(outs, start=1):
            emomsase("run", "--config", str(threads_config), "--seed", "7", *extra,
                     "--cache", str(cache), "--ratings", str(data / "ratings.csv"),
                     "--out", str(out), env={**os.environ, "OPENBLAS_NUM_THREADS": str(n)})
        assert written(outs[0]) == written(outs[1])
    print("\ncriterion 9: two seed-7 runs produced byte-identical results.csv, "
          "report.json and logs/, for one model and for sum fusion of two, "
          "and so did runs under OPENBLAS_NUM_THREADS=1 and =2")


# ---------------------------------------------------------------------------
# 10. Variant wiring
# ---------------------------------------------------------------------------

def test_criterion_10_variant_shapes():
    """All three variants run; single-scale pools H, multi-scale pools 3H."""
    expected_width = {"lstmsa": 4, "lstmmsa": 12, "emomsase": 12}
    rng = np.random.default_rng(10)
    for variant, width in expected_width.items():
        model = EmoMsase(micro_config(variant=variant))
        batch = {ch: rng.standard_normal((2, 6, 3))
                 for ch in model.config.channels}
        tape = Tape()
        for ch in model.config.channels:
            cav = model.modality_cav(tape, Var(batch[ch]), ch)
            assert cav.value.shape == (2, width)
        probs, _ = model.forward(batch)
        assert probs.value.shape == (2, 2)
        npt.assert_allclose(probs.value.sum(axis=1), 1.0, atol=1e-12)
    print("\ncriterion 10: lstmsa pooled width 4, lstmmsa and emomsase "
          "pooled width 12, all variants classified a batch")
