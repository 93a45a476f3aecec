"""The benchmark's traced run wraps program names that must keep existing."""

from pathlib import Path

import numpy as np

from emomsase import autodiff as ad
from emomsase import model

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
