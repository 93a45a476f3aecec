"""The benchmark's traced run wraps program names that must keep existing."""

from pathlib import Path

import numpy as np

from emomsase import autodiff as ad
from emomsase import cli, evaluate, model
from emomsase.gradcheck import micro_config
from emomsase.train import DTYPE, LabeledSet, TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    """``layers.instrument`` wraps each name it traces; a refactor that
    renames or deletes one fails here, not only in a traced benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    predict, record = model.EmoMsase.predict, ad.Tape.record
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer)
        assert model.EmoMsase.predict is not predict
        assert ad.Tape.record is not record
    finally:
        tracer.restore()
    assert model.EmoMsase.predict is predict
    assert ad.Tape.record is record


def test_traced_fit_marks_each_train_step(monkeypatch):
    """``Profile.steps`` runs from a forward that ``fit`` calls to the next
    ``AdamW.step``; the train workload's profile check reads those steps."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    cfg = micro_config()
    rng = np.random.default_rng(0)
    data = LabeledSet(rows={ch: rng.standard_normal((10, 6, cfg.feature_sizes[ch]))
                            for ch in cfg.channels},
                      labels=rng.integers(0, 2, size=10))
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer)
        evaluate.fit(model.EmoMsase(cfg), data, data,
                     TrainConfig(batch_size=4, max_epochs=1, patience=1))
    finally:
        tracer.restore()
    profile = layers.Profile(tracer.spans, n_passes=1)
    assert len(profile.steps()) == 3  # batches of 4, 4 and 2
    assert profile.count("train.AdamW.step") == 3
    assert "lstm_layer" in profile.step_shares()


def test_traced_lstm_backward_is_one_span(monkeypatch):
    """A one-op LSTM tape, as the kernel micro-benchmark replays it, gives
    exactly one ``backward.lstm_layer`` span."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    rng = np.random.default_rng(0)
    x = ad.leaf(rng.standard_normal((2, 3, 4)))
    wx = ad.Param("wx", rng.standard_normal((4, 8)))
    wh = ad.Param("wh", rng.standard_normal((2, 8)))
    bias = ad.Param("b", np.zeros(8))
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer)
        tape = ad.Tape()
        h = ad.lstm_layer(tape, x, wx, wh, bias)
        tape.backward(h)
    finally:
        tracer.restore()
    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count(layers.LSTM_BACKWARD) == 1
    assert names.count("autodiff.Tape.backward") == 1


def test_kernel_micro_benchmarks_run(monkeypatch, tmp_path):
    """One tiny pass of every kernel micro-benchmark, so a change to a
    signature they call fails here, not only in a benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import kernels

    for name, value in [("LSTM_SHAPES", ((2, 3, 4),)), ("HIDDEN", 2), ("LSTM_REPEATS", 1),
                        ("FILTER_SECONDS", 1.0), ("FILTER_REPEATS", 1),
                        ("CACHE_SHAPE", (3, 4)), ("CACHE_REPEATS", 1)]:
        monkeypatch.setattr(kernels, name, value)
    report, metrics = kernels.run_kernels(0, tmp_path)
    assert list(report["lstm_layer"]) == ["b2_t3_f4_h2"]
    assert all(np.isfinite(value) for value, _ in metrics.values())
    assert "autodiff.lstm_layer.gflop_s.b2_t3_f4_h2" in metrics


def test_infer_workload_reads_stacked_sample_tensors(monkeypatch, tmp_path):
    """The infer workload reads ``build_labeled_set(...).inputs`` as one
    (N, T, F) array per channel and slices it; those must stay ``DTYPE``
    stacks of the per-sample tensors, in sample order, and its pass, check
    and finish must stay clean."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    infer = workloads.WORKLOADS["infer"]
    monkeypatch.setattr(infer, "participants", 2)  # 26 samples: two forward chunks in finish
    st = infer.setup(tmp_path, seed=0)
    probs = infer.run_pass(st, spans.Tracer(), tmp_path / "pass")
    fails, record = infer.check(st, probs)
    assert fails == [] and infer.finish(st, [record, record]) == []
    samples = cli._load_samples(st["cache"])
    assert sorted(st["inputs"]) == sorted(st["channels"])
    for ch, x in st["inputs"].items():
        assert type(x) is np.ndarray and x.dtype == DTYPE
        assert np.array_equal(x, np.stack([s.tensors[ch] for s in samples]))


def test_ingest_probe_passes_its_gates(monkeypatch, tmp_path):
    """The traced run's ingest probe: the cache `synth` and `preprocess`
    build must equal, byte for byte, the library's conditioning of the same
    ``make_synthetic`` output, and a warm pass must hit every entry."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    probe = workloads.INGEST_PROBE
    st = probe.setup(tmp_path / "setup", seed=0)
    out = probe.run_pass(st, spans.Tracer(), tmp_path / "pass")
    fails, _ = probe.check(st, out)
    assert fails == []
