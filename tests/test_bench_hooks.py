"""The benchmark's traced run wraps program names that must keep existing."""

from pathlib import Path

from emomsase import model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    """``layers.instrument`` wraps each name it traces; a refactor that
    renames or deletes one fails here, not only in a traced benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    predict = model.EmoMsase.predict
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer)
        assert model.EmoMsase.predict is not predict
    finally:
        tracer.restore()
    assert model.EmoMsase.predict is predict
