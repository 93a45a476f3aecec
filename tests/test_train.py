"""Optimizer, loss and training-loop tests."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from emomsase import autodiff as ad
from emomsase import train as train_mod
from emomsase.autodiff import Param, ShapeMismatchError
from emomsase.gradcheck import micro_config
from emomsase.model import EmoMsase, ModelConfig
from emomsase.train import (
    AdamW, LabeledSet, TrainConfig, TrainError, evaluate_loss, fit,
)

from reference_impls import adamw_steps_reference


def _tiny_config(seed=0):
    return ModelConfig(
        domain_channels=(("Peripheral", ("EDA",)),),
        feature_sizes={"EDA": 3},
        hidden_size=4,
        se_reduction=4,
        seed=seed,
    )


def _toy_set(n, seed=0, t_len=6, f_dim=3):
    """Class 1 samples carry a positive mean shift; labels alternate."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    x = rng.standard_normal((n, t_len, f_dim))
    x[labels == 1] += 2.0
    return LabeledSet(rows={"EDA": x}, labels=labels)


# ---------------------------------------------------------------------------
# Config and data
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("setting, message", [
    ("learning_rate", "learning rate must be finite and > 0"),
    ("weight_decay", "weight decay must be finite and >= 0")])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_train_config_refuses_non_finite_or_negative_rates(setting, message, value):
    with pytest.raises(TrainError, match=message):
        TrainConfig(**{setting: value})


def test_train_config_validation():
    with pytest.raises(TrainError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(TrainError):
        TrainConfig(batch_size=0)
    with pytest.raises(TrainError):
        TrainConfig(patience=51, max_epochs=50)
    TrainConfig(patience=0)  # stopping immediately on the first bad epoch is legal
    TrainConfig(weight_decay=0.0)  # no decay is legal


def _cross_entropy(logits, label):
    """Training loss of one logit row against one class index."""
    return float(ad.softmax_cross_entropy(ad.Tape(), ad.leaf(np.array([logits])),
                                          np.array([label])).value)


def test_cross_entropy_values():
    npt.assert_allclose(_cross_entropy([0.0, 0.0], 0), np.log(2.0))
    assert _cross_entropy([40.0, 0.0], 0) == 0.0  # log(1 + e^-40) rounds to 0
    # a confidently wrong row costs its logit gap: no ceiling, no epsilon
    assert _cross_entropy([40.0, 0.0], 1) == 40.0
    with pytest.raises(ShapeMismatchError):
        _cross_entropy([0.5, 0.5], 2)


def test_labeled_set_validation():
    with pytest.raises(TrainError, match="EDA: 2 rows but 3 labels"):
        LabeledSet(rows={"EDA": np.zeros((2, 2, 2))}, labels=np.zeros(3, int))
    s = _toy_set(6)
    assert len(s) == 6
    taken = s.take(np.array([0, 2]))
    assert taken["EDA"].shape == (2, 6, 3)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=9),
       negative=st.booleans())
def test_take_equals_the_stacked_rows_at_idx(n, picks, negative):
    """``take`` stacks only the chosen rows, into the same bytes as indexing
    the full stack; rows may repeat, come in any order or count from the end."""
    idx = np.array([p % n - (n if negative else 0) for p in picks])
    rng = np.random.default_rng(n)
    rows = {"EDA": [rng.standard_normal((4, 3)).astype(train_mod.DTYPE) for _ in range(n)],
            "TEMP": [rng.standard_normal((2, 5)) for _ in range(n)]}
    s = LabeledSet(rows=rows, labels=np.arange(n) % 2)
    taken = s.take(idx)
    for ch, chosen in rows.items():
        want = np.stack(chosen)[idx]
        got = taken[ch]
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert s.inputs[ch].tobytes() == np.stack(chosen).tobytes()


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

def test_adamw_matches_elementwise_reference():
    rng = np.random.default_rng(0)
    start = rng.standard_normal(5)
    grads = [rng.standard_normal(5) for _ in range(5)]
    config = TrainConfig(learning_rate=0.01, weight_decay=0.05)

    p = Param("p", start.copy())
    opt = AdamW([p], config)
    for g in grads:
        p.grad = g
        opt.step()
    ref = adamw_steps_reference(start, grads, lr=0.01, beta1=train_mod.BETA1,
                                beta2=train_mod.BETA2, eps=train_mod.EPS,
                                weight_decay=0.05)
    npt.assert_allclose(p.value, ref, atol=1e-14)


def test_adamw_decay_moves_zero_gradient_weights():
    p = Param("p", np.array([1.0]))
    opt = AdamW([p], TrainConfig(learning_rate=0.001, weight_decay=0.01))
    opt.step()  # grad is exactly zero
    npt.assert_allclose(p.value, [0.99999], atol=1e-15)


def test_adamw_first_step_is_signed_learning_rate():
    # with bias correction the first update is lr * g / (|g| + eps)
    p = Param("p", np.array([0.0, 0.0]))
    p.grad = np.array([0.5, -2.0])
    opt = AdamW([p], TrainConfig(learning_rate=0.01, weight_decay=0.0))
    opt.step()
    npt.assert_allclose(p.value, [-0.01, 0.01], rtol=1e-6)


def test_adamw_rejects_non_finite_gradients():
    p = Param("p", np.ones(2))
    p.grad = np.array([np.nan, 0.0])
    opt = AdamW([p], TrainConfig())
    with pytest.raises(TrainError, match="non-finite gradient for p$"):
        opt.step()


def test_adamw_step_that_raises_moves_nothing():
    first, second = Param("first", np.ones(2)), Param("second", np.ones(2))
    opt = AdamW([first, second], TrainConfig())
    first.grad, second.grad = np.array([0.5, -1.0]), np.array([0.0, np.nan])
    with pytest.raises(TrainError, match="non-finite gradient for second$"):
        opt.step()
    assert opt.t == 0
    npt.assert_array_equal(first.value, np.ones(2))
    for moment in opt._m + opt._v:
        npt.assert_array_equal(moment, np.zeros(2))


def test_adamw_step_consumes_gradients_and_steps_unreached_weights_as_zero():
    reached, unreached = Param("reached", np.ones(2)), Param("unreached", np.ones(2))
    zero = Param("zero", np.ones(2))
    opt = AdamW([reached, unreached, zero], TrainConfig(weight_decay=0.5))
    reached.grad, zero.grad = np.array([0.5, -1.0]), np.zeros(2)
    opt.step()
    assert reached.grad is None and unreached.grad is None and zero.grad is None
    assert unreached.value.tobytes() == zero.value.tobytes()


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def test_fit_rejects_empty_splits():
    model = EmoMsase(_tiny_config())
    data = _toy_set(4)
    empty = LabeledSet(rows={"EDA": np.zeros((0, 6, 3))}, labels=np.zeros(0, int))
    with pytest.raises(TrainError, match="both training and validation sets must be non-empty"):
        fit(model, empty, data)
    with pytest.raises(TrainError, match="both training and validation sets must be non-empty"):
        fit(model, data, empty)


def test_fit_learns_separable_toy_data():
    model = EmoMsase(_tiny_config())
    train_set = _toy_set(24, seed=1)
    val_set = _toy_set(8, seed=2)
    config = TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=15,
                         patience=15, seed=0)
    model, log = fit(model, train_set, val_set, config)
    assert log.n_epochs() >= 1
    assert log.train_loss[-1] < log.train_loss[0]
    assert log.val_accuracy[log.best_epoch - 1] >= 0.75
    loss, acc = evaluate_loss(model, val_set)
    npt.assert_allclose(loss, log.val_loss[log.best_epoch - 1], atol=1e-9)


def test_fit_is_deterministic():
    def run():
        model = EmoMsase(_tiny_config())
        return fit(model, _toy_set(12, seed=3), _toy_set(4, seed=4),
                   TrainConfig(max_epochs=3, patience=3, batch_size=4, seed=5))
    m1, log1 = run()
    m2, log2 = run()
    assert log1.train_loss == log2.train_loss
    assert log1.val_loss == log2.val_loss
    for a, b in zip(m1.parameters(), m2.parameters()):
        npt.assert_array_equal(a.value, b.value)


def test_fit_on_data_cast_to_the_training_dtype_is_bit_identical():
    """``run`` casts its data to ``DTYPE`` once on load; before, the float32
    tape cast each float64 batch as it read it.  Both round the same values."""
    config = micro_config()
    rng = np.random.default_rng(12)

    def labeled(n):
        labels = np.arange(n) % 2
        inputs = {ch: rng.standard_normal((n, 6, config.feature_sizes[ch]))
                  + labels[:, None, None] for ch in config.channels}
        return LabeledSet(inputs, labels)

    def cast(data):
        return LabeledSet({ch: x.astype(train_mod.DTYPE) for ch, x in data.inputs.items()},
                          data.labels)

    train_set, val_set, test_set = labeled(10), labeled(4), labeled(5)
    train_config = TrainConfig(max_epochs=2, patience=2, batch_size=4, seed=3)
    wide, wide_log = fit(EmoMsase(config), train_set, val_set, train_config)
    narrow, narrow_log = fit(EmoMsase(config), cast(train_set), cast(val_set), train_config)
    assert narrow_log == wide_log and wide_log.n_epochs() == 2
    for a, b in zip(wide.parameters(), narrow.parameters()):
        assert a.value.dtype == b.value.dtype == train_mod.DTYPE, a.name
        assert np.array_equal(a.value, b.value), a.name
    assert np.array_equal(wide.predict(test_set.inputs), narrow.predict(cast(test_set).inputs))


def test_fit_peak_stays_flat_from_step_to_step():
    """Backward frees each step's tape as it replays it, so a second step
    does not hold the first one's activations while its own forward runs.
    Traced peaks, 1 step vs 2: 2903 vs 4042 KB (1.39x) when the replayed
    tape stayed alive until the next forward ended, 2441 vs 2453 KB now."""
    config = micro_config(hidden_size=32)

    def peak(n_train):
        rng = np.random.default_rng(n_train)

        def labeled(n):
            labels = np.arange(n) % 2
            inputs = {ch: rng.standard_normal((n, 20, config.feature_sizes[ch]))
                      + labels[:, None, None] for ch in config.channels}
            return LabeledSet(inputs, labels)

        train_set, val_set, model = labeled(n_train), labeled(4), EmoMsase(config)
        tracemalloc.start()
        try:
            fit(model, train_set, val_set,
                TrainConfig(max_epochs=1, patience=0, batch_size=8, seed=0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(16) <= 1.1 * peak(8)


# Largest gap between float32 inference and float64 inference of the same
# (upcast) weights after fit, for probabilities, logits and validation loss.
# Measured worst over 15 tiny fits (5 model seeds x 3 training sets): 6.5e-8,
# about half a float32 epsilon at probabilities near 1/2.
F32_PREDICT_GAP = 2.4e-7


def test_fit_trains_in_float32_and_predicts_in_float32(monkeypatch):
    optimizers, grad_dtypes = [], set()

    class RecordedAdamW(AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

        def step(self):  # gradients exist from backward to the step
            grad_dtypes.update(p.grad.dtype for p in self.params)
            super().step()

    monkeypatch.setattr(train_mod, "AdamW", RecordedAdamW)
    model = EmoMsase(_tiny_config())
    loss_dtypes = []
    forward = model.forward

    def recorded_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        loss_dtypes.append(out[0].value.dtype)
        return out

    model.forward = recorded_forward
    train_set = _toy_set(8, seed=9)
    model, log = fit(model, train_set, _toy_set(4, seed=10),
                     TrainConfig(max_epochs=2, patience=2, batch_size=4))
    assert loss_dtypes == [np.float32] * 4
    (opt,) = optimizers
    assert opt.t == 4
    assert grad_dtypes == {np.dtype(np.float32)}
    for p in model.parameters():  # restored best-epoch weights; each step consumed its grads
        assert p.value.dtype == np.float32 and p.grad is None, p.name
    for moment in opt._m + opt._v:
        assert moment.dtype == np.float32
    # inference computes in the weights' dtype: one chunk equals a float32 forward,
    # whose logits end in a float64 softmax
    probs, logits = model.predict(train_set.inputs), model.predict_logits(train_set.inputs)
    assert probs.dtype == np.float64 and logits.dtype == np.float32
    assert np.array_equal(probs, forward(train_set.inputs)[0].value)
    assert np.array_equal(logits, model.logits(ad.Tape(), train_set.inputs).value)
    val = evaluate_loss(model, train_set)
    model.cast(np.float64)
    npt.assert_allclose(model.predict(train_set.inputs), probs, rtol=0, atol=F32_PREDICT_GAP)
    npt.assert_allclose(model.predict_logits(train_set.inputs), logits,
                        rtol=0, atol=F32_PREDICT_GAP)
    val64 = evaluate_loss(model, train_set)
    assert val64[1] == val[1]
    npt.assert_allclose(val64[0], val[0], rtol=0, atol=F32_PREDICT_GAP)


def _scripted_fit(monkeypatch, val_sequence, **config_kw):
    """Run fit with evaluate_loss replaced by a canned validation trace."""
    calls = iter(val_sequence)

    def fake_eval(model, data):
        return next(calls), 0.5

    monkeypatch.setattr(train_mod, "evaluate_loss", fake_eval)
    model = EmoMsase(_tiny_config())
    return fit(model, _toy_set(8, seed=6), _toy_set(4, seed=7),
               TrainConfig(batch_size=4, seed=8, **config_kw))


def test_early_stopping_patience_semantics(monkeypatch):
    # best at epoch 1, then worsening: patience 1 tolerates one bad epoch
    # and stops on the second, directly after epoch 3
    _, log = _scripted_fit(monkeypatch, [1.0, 2.0, 3.0, 0.1, 0.1],
                           max_epochs=5, patience=1)
    assert log.best_epoch == 1
    assert log.n_epochs() == 3


def test_early_stopping_requires_strict_improvement(monkeypatch):
    # a plateau does not reset the streak
    _, log = _scripted_fit(monkeypatch, [1.0, 1.0, 1.0, 1.0, 1.0],
                           max_epochs=5, patience=2)
    assert log.n_epochs() == 4  # bad epochs 2,3,4 exceed patience 2
    assert log.best_epoch == 1


def test_early_stopping_runs_out_the_clock(monkeypatch):
    _, log = _scripted_fit(monkeypatch, [5.0, 4.0, 3.0, 2.0, 1.0],
                           max_epochs=5, patience=1)
    assert log.n_epochs() == 5
    assert log.best_epoch == 5


def test_fit_restores_best_epoch_parameters(monkeypatch):
    # A: exactly two epochs, best is the second
    m_a, log_a = _scripted_fit(monkeypatch, [1.0, 0.4], max_epochs=2, patience=2)
    assert log_a.best_epoch == 2
    # B: same schedule continues, later epochs are worse; the returned
    # parameters must equal A's end-of-epoch-2 state
    m_b, log_b = _scripted_fit(monkeypatch, [1.0, 0.4, 0.9, 0.9],
                               max_epochs=10, patience=1)
    assert log_b.n_epochs() == 4
    assert log_b.best_epoch == 2
    for pa, pb in zip(m_a.parameters(), m_b.parameters()):
        npt.assert_array_equal(pa.value, pb.value)
