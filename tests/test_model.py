"""Classifier graph tests: LSTM stacking, attention scales, SE gating,
variants and the assembled model."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from emomsase import autodiff as ad, cli
from emomsase.autodiff import Param, ShapeMismatchError, Tape, Var
from emomsase.gradcheck import grad_check, micro_config
from emomsase.model import (
    DTYPE, N_CLASSES, SCALES, EmoMsase, ModelConfig, VARIANTS, fuse_and_classify,
    lstm_features, msa, scale_attention, se_recalibrate,
)
from emomsase.preprocess import expected_timesteps

from reference_impls import (
    attention_reference, lstm_sequence_reference, merge_timesteps_reference,
    se_reference,
)


def _micro_config(variant="emomsase", hidden=4, seed=0):
    return ModelConfig(
        domain_channels=(("Peripheral", ("ACC_Z", "EDA")),
                         ("Trunk", ("LAT_ACC",))),
        feature_sizes={"ACC_Z": 3, "EDA": 3, "LAT_ACC": 5},
        hidden_size=hidden,
        se_reduction=4,
        variant=variant,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        _micro_config(variant="transformer")
    with pytest.raises(ValueError):
        ModelConfig(domain_channels=(), feature_sizes={})
    with pytest.raises(ValueError):
        ModelConfig(domain_channels=(("Peripheral", ()),), feature_sizes={})
    with pytest.raises(ValueError):
        ModelConfig(domain_channels=(("Peripheral", ("EDA",)),),
                    feature_sizes={})  # no feature size for EDA
    with pytest.raises(ValueError):
        ModelConfig(domain_channels=(("Peripheral", ("EDA",)),),
                    feature_sizes={"EDA": 3}, hidden_size=4, se_reduction=5)
    with pytest.raises(ValueError, match="channel 'EDA' is listed more than once"):
        ModelConfig(domain_channels=(("Peripheral", ("EDA", "EDA")), ("Head", ("EDA",))),
                    feature_sizes={"EDA": 3})
    with pytest.raises(ValueError, match="domain 'Peripheral' is listed more than once"):
        ModelConfig(domain_channels=(("Peripheral", ("EDA",)), ("Peripheral", ("TEMP",))),
                    feature_sizes={"EDA": 3, "TEMP": 3})


def test_config_channels_and_cav_length():
    cfg = _micro_config()
    assert cfg.channels == ("ACC_Z", "EDA", "LAT_ACC")
    assert cfg.cav_length == 12
    assert _micro_config(variant="lstmsa").cav_length == 4
    assert _micro_config(variant="lstmmsa").cav_length == 12


def test_config_restrict():
    cfg = _micro_config()
    only = cfg.restrict(["Trunk"])
    assert only.domain_channels == (("Trunk", ("LAT_ACC",)),)
    with pytest.raises(ValueError):
        cfg.restrict(["Head"])


# ---------------------------------------------------------------------------
# LSTM stack
# ---------------------------------------------------------------------------

def _stack(model, channel):
    """The (wx, wh, b) triple of each of a channel's LSTM layers, bottom first."""
    return [tuple(model.params[f"{channel}/lstm{layer}/{w}"] for w in ("wx", "wh", "b"))
            for layer in range(2)]


def test_lstm_params_forget_bias_and_fan_in():
    model = EmoMsase(ModelConfig(domain_channels=(("Peripheral", ("ch",)),),
                                 feature_sizes={"ch": 6}, hidden_size=4))
    stack = _stack(model, "ch")
    assert "ch/lstm2/wx" not in model.params
    for _, _, b in stack:
        b = b.value
        npt.assert_array_equal(b[4:8], np.ones(4))     # forget block at +1
        npt.assert_array_equal(b[:4], np.zeros(4))
        npt.assert_array_equal(b[8:], np.zeros(8))
    assert stack[0][0].value.shape == (6, 16)
    assert stack[1][0].value.shape == (4, 16)
    # fan-in bound on the uniform init
    assert np.abs(stack[0][0].value).max() <= 1.0 / np.sqrt(6)


def test_lstm_features_matches_stacked_reference():
    rng = np.random.default_rng(1)
    model = EmoMsase(_micro_config(seed=1))
    model.cast(np.float64)  # the float64 reference holds to 1e-12 only in float64
    stack = _stack(model, "EDA")
    x = rng.standard_normal((2, 6, 3))
    out = lstm_features(Tape(), Var(x), stack)
    l1 = lstm_sequence_reference(x, *(p.value for p in stack[0]))
    l2 = lstm_sequence_reference(l1, *(p.value for p in stack[1]))
    npt.assert_allclose(out.value, l2, atol=1e-12)
    with pytest.raises(ShapeMismatchError):
        lstm_features(Tape(), Var(np.zeros((2, 6))), stack)


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

def test_scale_attention_matches_reference():
    rng = np.random.default_rng(2)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        hidden = rng.standard_normal((3, 7, 5))
        u = Param("u", rng.standard_normal(5))
        weights, pooled = scale_attention(Tape(), Var(hidden), u)
        ref_w, ref_p = attention_reference(hidden, u.value)
        npt.assert_allclose(weights.value, ref_w, atol=1e-12)
        npt.assert_allclose(pooled.value, ref_p, atol=1e-12)


def test_attention_invariants_random_draws():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        hidden = rng.standard_normal((2, 9, 6)) * rng.uniform(0.1, 10.0)
        u = Param("u", rng.standard_normal(6))
        weights, pooled = scale_attention(Tape(), Var(hidden), u)
        npt.assert_allclose(weights.value.sum(axis=1), 1.0, atol=1e-9)
        assert weights.value.min() >= 0.0
        lo = hidden.min(axis=1)
        hi = hidden.max(axis=1)
        assert np.all(pooled.value >= lo - 1e-12)
        assert np.all(pooled.value <= hi + 1e-12)


def test_msa_concatenates_three_scales():
    rng = np.random.default_rng(4)
    hidden = rng.standard_normal((2, 9, 4))
    ctx = {scale: Param(scale, rng.standard_normal(4)) for scale, _ in SCALES}
    cav = msa(Tape(), Var(hidden), ctx)
    assert cav.value.shape == (2, 12)
    # each H-wide slice, finest scale first, pools its own merged sequence
    for i, (scale, factor) in enumerate(SCALES):
        seq = hidden if factor == 1 else merge_timesteps_reference(hidden, factor)
        _, ref = attention_reference(seq, ctx[scale].value)
        npt.assert_allclose(cav.value[:, 4 * i:4 * (i + 1)], ref, atol=1e-12)
    with pytest.raises(ShapeMismatchError, match="cannot merge 2 timesteps by 3"):
        msa(Tape(), Var(hidden[:, :2]), ctx)


# ---------------------------------------------------------------------------
# Squeeze-and-excitation
# ---------------------------------------------------------------------------

def test_se_matches_reference_and_shrinks():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        stacked = rng.standard_normal((2, 3, 8)) * rng.uniform(0.5, 5.0)
        w1 = Param("w1", rng.standard_normal((8, 2)))
        w2 = Param("w2", rng.standard_normal((2, 8)))
        out = se_recalibrate(Tape(), Var(stacked), w1, w2)
        npt.assert_allclose(out.value, se_reference(stacked, w1.value, w2.value),
                            atol=1e-12)
        assert np.all(np.abs(out.value) <= np.abs(stacked) + 1e-15)


def test_se_zero_weights_halve_exactly():
    rng = np.random.default_rng(5)
    stacked = rng.standard_normal((3, 2, 8))
    se = Param("w1", np.zeros((8, 2))), Param("w2", np.zeros((2, 8)))
    out = se_recalibrate(Tape(), Var(stacked), *se)
    npt.assert_array_equal(out.value, 0.5 * stacked)
    with pytest.raises(ShapeMismatchError):
        se_recalibrate(Tape(), Var(stacked[:, 0]), *se)


# ---------------------------------------------------------------------------
# Head
# ---------------------------------------------------------------------------

def test_fuse_and_classify_uniform_at_zero_head():
    rng = np.random.default_rng(6)
    blocks = [Var(rng.standard_normal((4, 2, 6))),
              Var(rng.standard_normal((4, 1, 6)))]
    head = Param("w", np.zeros((18, 2))), Param("b", np.zeros(2))
    logits = fuse_and_classify(Tape(), blocks, *head)
    npt.assert_array_equal(logits.value, np.zeros((4, 2)))
    npt.assert_allclose(ad.softmax(Tape(), logits).value, np.full((4, 2), 0.5))
    with pytest.raises(ShapeMismatchError):
        fuse_and_classify(Tape(), [], *head)
    with pytest.raises(ShapeMismatchError):
        fuse_and_classify(Tape(), [blocks[0]], *head)  # width 12 vs head 18


# ---------------------------------------------------------------------------
# Assembled model
# ---------------------------------------------------------------------------

def test_parameter_census_and_determinism():
    model = EmoMsase(_micro_config())
    # per channel: 2 layers x 3 tensors + 3 context vectors; per domain: 2
    # SE matrices; plus the head pair
    assert len(model.parameters()) == 3 * 9 + 2 * 2 + 2
    again = EmoMsase(_micro_config())
    for a, b in zip(model.parameters(), again.parameters()):
        assert a.name == b.name
        npt.assert_array_equal(a.value, b.value)
    other = EmoMsase(_micro_config(seed=1))
    assert any(not np.array_equal(a.value, b.value)
               for a, b in zip(model.parameters(), other.parameters()))


@pytest.mark.parametrize("variant", VARIANTS)
def test_params_are_keyed_by_name_in_draw_order(variant):
    """Replaying the seed's float64 draws over ``parameters()`` and storing
    them in ``DTYPE`` rebuilds every weight bit for bit: each drawn weight is
    uniform within 1/sqrt(fan-in), its first axis, and only the biases are
    not drawn."""
    model = EmoMsase(_micro_config(variant=variant, seed=3))
    assert all(key == p.name for key, p in model.params.items())
    assert model.parameters() == list(model.params.values())
    rng = np.random.default_rng(3)
    for p in model.parameters():
        if p.name.endswith("/b"):
            continue
        bound = 1.0 / np.sqrt(p.value.shape[0])
        drawn = rng.uniform(-bound, bound, p.value.shape).astype(DTYPE)
        assert p.value.dtype == DTYPE and np.array_equal(p.value, drawn), p.name


@pytest.mark.parametrize("variant,scales,se", [
    ("lstmsa", ("short",), False),
    ("lstmmsa", ("short", "medium", "long"), False),
    ("emomsase", ("short", "medium", "long"), True),
])
def test_each_variant_holds_exactly_the_weights_it_reads(variant, scales, se):
    model = EmoMsase(_micro_config(variant=variant))
    expected = {"head/w", "head/b"}
    for ch in ("ACC_Z", "EDA", "LAT_ACC"):
        expected |= {f"{ch}/lstm{i}/{w}" for i in (0, 1) for w in ("wx", "wh", "b")}
        expected |= {f"{ch}/attn/u_{scale}" for scale in scales}
    if se:
        expected |= {f"{d}/se/{w}" for d in ("Peripheral", "Trunk") for w in ("w1", "w2")}
    assert set(model.params) == expected


def test_weights_copied_by_name_reproduce_predict():
    """The name map is the whole model: values copied by name into a model of
    another seed give the source model's predictions bit for bit."""
    source = EmoMsase(_micro_config(seed=0))
    target = EmoMsase(_micro_config(seed=1))
    inputs = _inputs(source.config, 5, seed=17)
    assert not np.array_equal(target.predict(inputs), source.predict(inputs))
    for name, p in source.params.items():
        target.params[name].value[...] = p.value
    assert np.array_equal(target.predict(inputs), source.predict(inputs))


@pytest.mark.parametrize("variant", VARIANTS)
def test_modality_cav_shapes_per_variant(variant):
    cfg = _micro_config(variant=variant)
    model = EmoMsase(cfg)
    rng = np.random.default_rng(7)
    x = Var(rng.standard_normal((2, 6, 3)))
    cav = model.modality_cav(Tape(), x, "EDA")
    assert cav.value.shape == (2, cfg.cav_length)


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_probabilities(variant):
    cfg = _micro_config(variant=variant)
    model = EmoMsase(cfg)
    rng = np.random.default_rng(8)
    batch = {ch: rng.standard_normal((3, 6, cfg.feature_sizes[ch]))
             for ch in cfg.channels}
    probs, tape = model.forward(batch)
    assert probs.value.shape == (3, 2)
    npt.assert_allclose(probs.value.sum(axis=1), np.ones(3), atol=1e-12)
    assert isinstance(tape, Tape)


def test_forward_rejects_missing_channel():
    model = EmoMsase(_micro_config())
    rng = np.random.default_rng(9)
    batch = {"ACC_Z": rng.standard_normal((2, 6, 3))}
    with pytest.raises(ShapeMismatchError):
        model.forward(batch)
    with pytest.raises(ShapeMismatchError):
        model.modality_cav(Tape(), Var(np.zeros((2, 6, 4))), "EDA")


# per channel: 2 LSTM layers x 3 tensors + one context per attention scale;
# per domain: the 2 SE matrices if the variant recalibrates
PER_CHANNEL = {"lstmsa": 7, "lstmmsa": 9, "emomsase": 9}
PER_DOMAIN = {"lstmsa": 0, "lstmmsa": 0, "emomsase": 2}


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_parameter_reaches_the_loss(variant):
    """A variant holds exactly the parameters its graph reads."""
    cfg = _micro_config(variant=variant)
    model = EmoMsase(cfg)
    params = model.parameters()
    assert len(params) == (3 * PER_CHANNEL[variant]
                           + 2 * PER_DOMAIN[variant] + 2)
    rng = np.random.default_rng(10)
    batch = {ch: rng.standard_normal((2, 6, cfg.feature_sizes[ch]))
             for ch in cfg.channels}
    loss, tape = model.forward(batch, labels=np.array([0, 1]))
    tape.backward(loss)
    for p in params:
        assert np.abs(p.grad).max() > 0.0, p.name


# Largest float32-vs-float64 gradient gap of one parameter, as a share of
# that parameter's largest float64 gradient entry (floored at 1e-4, the
# gradient check's own floor).  Measured worst over 3000 micro_config draws
# (seeds x variants): 3.5e-4.
F32_GRAD_GAP = 2e-3


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(VARIANTS))
def test_float32_tape_gradients_track_float64(seed, variant):
    cfg = micro_config(variant=variant, seed=seed)
    rng = np.random.default_rng(seed)
    batch = {ch: rng.standard_normal((4, 6, cfg.feature_sizes[ch]))
             for ch in cfg.channels}
    labels = rng.integers(0, N_CLASSES, size=4)
    grads = {}
    for dtype in (np.float64, np.float32):  # one seed's weights, cast to each dtype
        model = EmoMsase(cfg)
        model.cast(dtype)
        loss, tape = model.forward(batch, labels=labels)
        assert loss.value.dtype == dtype
        tape.backward(loss)
        assert all(p.grad.dtype == dtype for p in model.parameters())
        grads[dtype] = [p.grad.copy() for p in model.parameters()]
    for p, g32, g64 in zip(model.parameters(), grads[np.float32], grads[np.float64]):
        gap = np.abs(g32 - g64).max() / max(np.abs(g64).max(), 1e-4)
        assert gap < F32_GRAD_GAP, (p.name, gap)


@pytest.mark.parametrize("variant", ["lstmsa", "lstmmsa"])
def test_grad_check_ablation_variants(variant):
    for seed in range(3):
        errors = grad_check(micro_config(variant=variant, seed=seed), epsilon=1e-4, seed=seed)
        assert all(error < 1e-3 for error in errors.values()), errors


def test_predict_chunking_matches_single_pass():
    cfg = _micro_config()
    model = EmoMsase(cfg)
    rng = np.random.default_rng(11)
    inputs = {ch: rng.standard_normal((7, 6, cfg.feature_sizes[ch]))
              for ch in cfg.channels}
    whole = model.predict(inputs, batch_size=7)
    chunked = model.predict(inputs, batch_size=3)
    npt.assert_allclose(whole, chunked, atol=1e-12)
    assert whole.shape == (7, 2)


def _inputs(cfg, n, seed, timesteps=6):
    rng = np.random.default_rng(seed)
    return {ch: rng.standard_normal((n, timesteps, cfg.feature_sizes[ch]))
            for ch in cfg.channels}


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 11), batch_size=st.integers(1, 5))
def test_predict_is_forward_bit_for_bit(variant, n, batch_size):
    """The inference tape runs the training graph on the same chunks, in the
    weights' dtype, and both end in the same float64 softmax."""
    model = EmoMsase(_micro_config(variant=variant))
    inputs = _inputs(model.config, n, seed=n)
    for dtype in (np.float64, np.float32):  # the born float32 weights, widened, then narrowed back
        model.cast(dtype)
        expected = np.concatenate([
            model.forward({ch: x[s:s + batch_size] for ch, x in inputs.items()})[0].value
            for s in range(0, n, batch_size)])
        probs = model.predict(inputs, batch_size=batch_size)
        assert probs.dtype == np.float64 and np.array_equal(probs, expected)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 11), batch_size=st.integers(1, 5))
def test_probabilities_are_float64_rows_of_dtype_logits(seed, n, batch_size):
    """Logits stay in ``DTYPE``; ``predict`` and the label-free ``forward``
    return float64 rows that sum to 1 and pick the logits' class."""
    model = EmoMsase(_micro_config(seed=seed))
    inputs = {ch: x.astype(DTYPE) for ch, x in _inputs(model.config, n, seed=seed).items()}
    logits = model.predict_logits(inputs, batch_size=batch_size)
    probs = model.predict(inputs, batch_size=batch_size)
    forward = model.forward({ch: x[:batch_size] for ch, x in inputs.items()})[0].value
    assert logits.dtype == DTYPE
    for rows in (probs, forward):
        assert rows.dtype == np.float64
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-12
    assert np.array_equal(probs.argmax(axis=1), logits.argmax(axis=1))


def test_default_model_predicts_at_128_as_forward_does_at_16():
    """The infer workload's gate at the default layout: ``predict`` in one
    chunk of 32 agrees with ``forward`` on chunks of 16 within 1e-9."""
    config = cli._model_config(cli.DEFAULTS)
    model = EmoMsase(config)
    rng = np.random.default_rng(35)
    inputs = {ch: rng.standard_normal((32, expected_timesteps(ch), config.feature_sizes[ch]))
              .astype(DTYPE) for ch in config.channels}
    probs = model.predict(inputs, batch_size=128)
    forward = np.concatenate([
        model.forward({ch: x[s:s + 16] for ch, x in inputs.items()})[0].value
        for s in (0, 16)])
    assert np.max(np.abs(probs - forward)) <= 1e-9
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9


def test_predict_leaves_gradients_and_tape_empty():
    model = EmoMsase(_micro_config())
    rng = np.random.default_rng(12)
    for p in model.parameters():
        p.grad = rng.standard_normal(p.value.shape)
    before = [p.grad.copy() for p in model.parameters()]
    inputs = _inputs(model.config, 5, seed=13)
    model.predict(inputs, batch_size=2)
    for p, g in zip(model.parameters(), before):
        assert np.array_equal(p.grad, g), p.name
    tape = Tape(recording=False)
    model.logits(tape, inputs)
    assert tape._steps == []
    assert model.forward(inputs)[1]._steps


def test_gradients_exist_only_from_backward_to_step():
    """A fresh model holds no gradient, nor does one that predicted or ran a
    recording forward without backward; a backward makes one per weight."""
    model = EmoMsase(_micro_config())
    inputs = _inputs(model.config, 3, seed=14)
    assert all(p.grad is None for p in model.parameters())
    model.predict(inputs, batch_size=2)
    loss, tape = model.forward(inputs, labels=np.array([0, 1, 1]))
    assert all(p.grad is None for p in model.parameters())
    tape.backward(loss)
    assert all(p.grad is not None for p in model.parameters())


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_peak_memory_is_a_fraction_of_forward():
    """No backward closures or per-step LSTM caches survive inference."""
    model = EmoMsase(_micro_config(hidden=16))
    batch = _inputs(model.config, 64, seed=14, timesteps=30)
    predict_peak = _traced_peak(lambda: model.predict(batch, batch_size=64))
    forward_peak = _traced_peak(lambda: model.forward(batch))
    assert predict_peak < forward_peak / 3


def test_predict_rejects_bad_input_and_accepts_none():
    model = EmoMsase(_micro_config())
    inputs = _inputs(model.config, 6, seed=15)
    # a short first channel whose length the batch size divides
    ragged = dict(inputs, ACC_Z=inputs["ACC_Z"][:4])
    for bad in (ragged, dict(inputs, EDA=inputs["EDA"][:5])):
        with pytest.raises(ShapeMismatchError, match="sample count"):
            model.predict(bad, batch_size=2)
    with pytest.raises(ValueError, match="batch size must be at least 1"):
        model.predict(inputs, batch_size=0)
    empty = model.predict(_inputs(model.config, 0, seed=16))
    assert empty.shape == (0, 2)
