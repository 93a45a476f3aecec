"""Per-primitive forward checks and finite-difference backward checks.

Each backward test projects the op output to a scalar with a fixed random
matrix, replays the tape, and compares every input gradient against
central differences of the same forward computation.  The LSTM forward is
additionally pinned to a step-by-step scalar reference, and its backward
to a per-sample BPTT reference over random shapes.
"""

import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from emomsase import autodiff as ad
from emomsase.autodiff import (
    Param, ShapeMismatchError, Tape, TapeConsumedError, Var,
)
from emomsase.gradcheck import micro_config
from emomsase.model import EmoMsase, scale_attention
from emomsase.train import AdamW, TrainConfig

from reference_impls import cross_entropy_reference, fd_gradient, \
    lstm_backward_reference, lstm_sequence_reference, merge_timesteps_reference


def _project(out_value, r):
    return float(np.sum(out_value * r))


def _check_op(build, inputs, seeds=range(20), fd_eps=1e-6, tol=5e-7):
    """Backward-vs-finite-difference check over several random draws.

    ``build(tape, vars)`` runs the op; ``inputs`` maps names to shapes.
    """
    for seed in seeds:
        rng = np.random.default_rng(seed)
        values = {k: rng.standard_normal(shape) for k, shape in inputs.items()}
        tape = Tape()
        var_map = {k: Var(v.copy()) for k, v in values.items()}
        out = build(tape, var_map)
        r = rng.standard_normal(out.value.shape)
        loss = Var(np.array(_project(out.value, r)))
        out.grad = r.copy()
        # replay manually: seed the op output, run recorded closures backward
        for step in reversed(tape._steps):
            step()
        for name in inputs:
            def f(x, _name=name):
                probe = dict(values)
                probe[_name] = x
                t2 = Tape()
                v2 = {k: Var(v.copy()) for k, v in probe.items()}
                return _project(build(t2, v2).value, r)
            fd = fd_gradient(f, values[name].copy(), eps=fd_eps)
            npt.assert_allclose(var_map[name].grad, fd, atol=tol,
                                err_msg=f"{name} grad (seed {seed})")
        assert np.isfinite(loss.value)


# ---------------------------------------------------------------------------
# Elementwise and dense ops
# ---------------------------------------------------------------------------

def test_add_backward_with_broadcasting():
    _check_op(lambda t, v: ad.add(t, v["a"], v["b"]),
              {"a": (3, 4), "b": (3, 4)}, seeds=range(5))
    _check_op(lambda t, v: ad.add(t, v["a"], v["b"]),
              {"a": (3, 4), "b": (4,)}, seeds=range(5))
    _check_op(lambda t, v: ad.add(t, v["a"], v["b"]),
              {"a": (3, 1), "b": (3, 4)}, seeds=range(5))


def test_mul_backward_with_broadcasting():
    _check_op(lambda t, v: ad.mul(t, v["a"], v["b"]),
              {"a": (2, 3, 4), "b": (2, 1, 4)}, seeds=range(5))


def test_matmul_forward_and_backward():
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((5, 3)), rng.standard_normal((3, 2))
    tape = Tape()
    out = ad.matmul(tape, Var(x), Var(w))
    npt.assert_allclose(out.value, x @ w, atol=1e-14)
    _check_op(lambda t, v: ad.matmul(t, v["x"], v["w"]),
              {"x": (5, 3), "w": (3, 2)}, seeds=range(10))


def test_matmul_shape_errors():
    tape = Tape()
    with pytest.raises(ShapeMismatchError):
        ad.matmul(tape, Var(np.zeros((2, 3))), Var(np.zeros((4, 2))))
    with pytest.raises(ShapeMismatchError):
        ad.matmul(tape, Var(np.zeros((2, 3, 4))), Var(np.zeros((4, 2))))


def test_matmul_skips_gradient_for_fixed_operands():
    rng = np.random.default_rng(1)
    x = ad.leaf(rng.standard_normal((4, 3)))
    w = Var(rng.standard_normal((3, 2)))
    tape = Tape()
    out = ad.matmul(tape, x, w)
    tape.backward(out)
    assert x.grad is None
    assert w.grad is not None


@pytest.mark.parametrize("op", [ad.sigmoid, ad.relu])
def test_elementwise_nonlinearities(op):
    _check_op(lambda t, v: op(t, v["x"]), {"x": (4, 5)}, seeds=range(10))


def test_sigmoid_relu_forward_values():
    x = np.array([-2.0, 0.0, 3.0])
    tape = Tape()
    npt.assert_allclose(ad.sigmoid(tape, Var(x)).value, 1 / (1 + np.exp(-x)))
    npt.assert_allclose(ad.relu(tape, Var(x)).value, [0.0, 0.0, 3.0])


def test_softmax_rows_and_backward():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 4)) * 5.0
    tape = Tape()
    y = ad.softmax(tape, Var(x)).value
    npt.assert_allclose(y.sum(axis=-1), np.ones(6), atol=1e-12)
    assert y.min() > 0.0
    # shift stability: huge logits stay finite
    big = ad.softmax(Tape(), Var(np.array([[1000.0, 1000.0]]))).value
    npt.assert_allclose(big, [[0.5, 0.5]])
    _check_op(lambda t, v: ad.softmax(t, v["x"]), {"x": (3, 5)}, seeds=range(10))


def test_reshape_concat_stack_mean():
    _check_op(lambda t, v: ad.reshape(t, v["x"], (6, 2)), {"x": (3, 4)},
              seeds=range(5))
    _check_op(lambda t, v: ad.concat(t, [v["a"], v["b"], v["c"]], axis=-1),
              {"a": (2, 3), "b": (2, 1), "c": (2, 4)}, seeds=range(5))
    _check_op(lambda t, v: ad.concat(t, [v["a"], v["b"]], axis=1),
              {"a": (2, 2, 5), "b": (2, 3, 5)}, seeds=range(5))
    _check_op(lambda t, v: ad.stack_rows(t, [v["a"], v["b"]]),
              {"a": (4, 6), "b": (4, 6)}, seeds=range(5))
    _check_op(lambda t, v: ad.mean_axis(t, v["x"], axis=1), {"x": (2, 5, 3)},
              seeds=range(5))
    with pytest.raises(ShapeMismatchError):
        ad.concat(Tape(), [])


def test_attention_pooling_primitives():
    _check_op(lambda t, v: ad.dot_last(t, v["x"], v["u"]),
              {"x": (2, 7, 4), "u": (4,)}, seeds=range(10))
    _check_op(lambda t, v: ad.weighted_sum(t, v["w"], v["x"]),
              {"w": (3, 6), "x": (3, 6, 5)}, seeds=range(10))
    with pytest.raises(ShapeMismatchError):
        ad.dot_last(Tape(), Var(np.zeros((2, 3, 4))), Var(np.zeros(5)))


def test_merge_pairs_mean_values_and_backward():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 7, 3))
    for factor in (2, 3):
        tape = Tape()
        out = ad.merge_pairs_mean(tape, Var(x), factor)
        npt.assert_allclose(out.value, merge_timesteps_reference(x, factor),
                            atol=1e-14)
        _check_op(lambda t, v, f=factor: ad.merge_pairs_mean(t, v["x"], f),
                  {"x": (2, 7, 3)}, seeds=range(5))
    # dropped trailing steps receive exactly zero gradient
    tape = Tape()
    var = Var(x)
    out = ad.merge_pairs_mean(tape, var, 3)
    tape.backward(out)
    npt.assert_array_equal(var.grad[:, 6, :], 0.0)
    with pytest.raises(ShapeMismatchError):
        ad.merge_pairs_mean(Tape(), Var(np.zeros((1, 2, 3))), 3)


# ---------------------------------------------------------------------------
# LSTM layer
# ---------------------------------------------------------------------------

def test_lstm_forward_matches_scalar_reference():
    rng = np.random.default_rng(4)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        b, t, f, h = 3, 6, 4, 5
        x = rng.standard_normal((b, t, f))
        wx = rng.standard_normal((f, 4 * h)) * 0.4
        wh = rng.standard_normal((h, 4 * h)) * 0.4
        bias = rng.standard_normal(4 * h) * 0.4
        out = ad.lstm_layer(Tape(), Var(x), Var(wx), Var(wh), Var(bias))
        npt.assert_allclose(out.value, lstm_sequence_reference(x, wx, wh, bias),
                            atol=1e-12)


def test_lstm_backward_vs_finite_differences():
    def build(t, v):
        return ad.lstm_layer(t, v["x"], v["wx"], v["wh"], v["b"])
    _check_op(build, {"x": (2, 5, 3), "wx": (3, 16), "wh": (4, 16), "b": (16,)},
              seeds=range(5), tol=2e-6)


def test_lstm_causality():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 8, 3))
    wx = rng.standard_normal((3, 12))
    wh = rng.standard_normal((3, 12))
    b = rng.standard_normal(12)
    base = ad.lstm_layer(Tape(), Var(x), Var(wx), Var(wh), Var(b)).value
    bumped = x.copy()
    bumped[0, 5:, :] += 10.0
    after = ad.lstm_layer(Tape(), Var(bumped), Var(wx), Var(wh), Var(b)).value
    npt.assert_array_equal(after[0, :5], base[0, :5])
    assert not np.allclose(after[0, 5:], base[0, 5:])


def test_lstm_skips_input_gradient_for_data_leaves():
    rng = np.random.default_rng(6)
    x = ad.leaf(rng.standard_normal((2, 4, 3)))
    wx = Var(rng.standard_normal((3, 8)))
    wh = Var(rng.standard_normal((2, 8)))
    b = Var(rng.standard_normal(8))
    tape = Tape()
    out = ad.lstm_layer(tape, x, wx, wh, b)
    tape.backward(out)
    assert x.grad is None
    for v in (wx, wh, b):
        assert v.grad is not None and np.isfinite(v.grad).all()


def test_lstm_shape_errors():
    with pytest.raises(ShapeMismatchError):
        ad.lstm_layer(Tape(), Var(np.zeros((2, 4, 3))), Var(np.zeros((5, 8))),
                      Var(np.zeros((2, 8))), Var(np.zeros(8)))
    with pytest.raises(ShapeMismatchError):
        ad.lstm_layer(Tape(), Var(np.zeros((2, 4, 3))), Var(np.zeros((3, 8))),
                      Var(np.zeros((3, 8))), Var(np.zeros(8)))


_lstm_shapes = st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 5),
                         st.integers(1, 5))


def _lstm_draw(seed, shape, scale=0.5):
    bsz, t_len, f_in, h_dim = shape
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((bsz, t_len, f_in)),
            scale * rng.standard_normal((f_in, 4 * h_dim)),
            scale * rng.standard_normal((h_dim, 4 * h_dim)),
            scale * rng.standard_normal(4 * h_dim),
            rng.standard_normal((bsz, t_len, h_dim)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=_lstm_shapes)
@example(seed=0, shape=(1, 1, 1, 1))  # B = 1 and T = 1 always run
@example(seed=1, shape=(1, 6, 3, 2))
@example(seed=2, shape=(4, 1, 3, 2))
def test_lstm_backward_matches_bptt_reference(seed, shape):
    x, wx, wh, b, d_out = _lstm_draw(seed, shape)
    vs = [Var(a) for a in (x, wx, wh, b)]
    tape = Tape()
    out = ad.lstm_layer(tape, *vs)
    out.grad = d_out  # replay by hand with this output gradient
    for step in reversed(tape._steps):
        step()
    for v, ref, name in zip(vs, lstm_backward_reference(x, wx, wh, b, d_out),
                            ("x", "wx", "wh", "b")):
        npt.assert_allclose(v.grad, ref, rtol=0, atol=1e-10, err_msg=name)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=_lstm_shapes)
def test_lstm_inference_tape_forward_is_recording_forward(seed, shape):
    x, wx, wh, b, _ = _lstm_draw(seed, shape)
    vs = [Var(a) for a in (x, wx, wh, b)]
    recorded = ad.lstm_layer(Tape(), *vs).value
    inferred = ad.lstm_layer(Tape(recording=False), *vs).value
    assert np.array_equal(inferred, recorded)


def test_lstm_saturated_gates_stay_exact_and_finite():
    # pre-activations of +-1e3 push every sigmoid gate to exactly 0 or 1 and
    # the candidate to exactly +-1, with no overflow or underflow anywhere
    rng = np.random.default_rng(7)
    bsz, t_len, f_in, h_dim = 3, 5, 2, 4
    x = Var(rng.standard_normal((bsz, t_len, f_in)))
    wx = Var(0.1 * rng.standard_normal((f_in, 4 * h_dim)))
    wh = Var(0.1 * rng.standard_normal((h_dim, 4 * h_dim)))
    b = Var(1e3 * rng.choice([-1.0, 1.0], 4 * h_dim))
    with np.errstate(all="raise"):
        tape = Tape()
        out = ad.lstm_layer(tape, x, wx, wh, b)
        tape.backward(out)
        gates = ad.sigmoid(Tape(), Var(b.value)).value
    assert set(np.unique(gates)) <= {0.0, 1.0}
    on = b.value > 0
    i_gate, f_gate, o_gate = (on[k * h_dim:(k + 1) * h_dim] for k in range(3))
    g_cand = np.where(on[3 * h_dim:], 1.0, -1.0)
    c = np.zeros(h_dim)
    for t in range(t_len):
        c = f_gate * c + i_gate * g_cand
        expected = o_gate * np.tanh(c)
        npt.assert_array_equal(out.value[:, t], np.broadcast_to(expected, (bsz, h_dim)))
    for v in (x, wx, wh, b):
        assert np.isfinite(v.grad).all()


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def test_softmax_cross_entropy_value_and_gradient():
    logits_val = np.array([[0.7, -0.3], [0.2, 1.8], [0.5, 0.5]])
    labels = np.array([0, 1, 1])
    tape = Tape()
    logits = Var(logits_val)
    loss = ad.softmax_cross_entropy(tape, logits, labels)
    expected, _ = cross_entropy_reference(logits_val, labels)
    npt.assert_allclose(loss.value, expected, rtol=1e-15)
    tape.backward(loss)
    fd = fd_gradient(
        lambda z: float(ad.softmax_cross_entropy(Tape(), Var(z), labels).value),
        logits_val.copy(), eps=1e-6)
    npt.assert_allclose(logits.grad, fd, atol=1e-9)

    def single(row, label):
        return float(ad.softmax_cross_entropy(Tape(), Var(np.array([row])),
                                              np.array([label])).value)

    npt.assert_allclose(single([0.0, 0.0], 0), np.log(2.0))
    assert single([800.0, -800.0], 0) == 0.0
    # a confidently wrong row costs its logit gap, with no ceiling
    assert single([800.0, -800.0], 1) == 1600.0


def test_softmax_cross_entropy_rejects_bad_labels():
    logits = Var(np.array([[0.5, 0.5]]))
    with pytest.raises(ShapeMismatchError):
        ad.softmax_cross_entropy(Tape(), logits, np.array([0, 1]))
    for label in (2, -1):  # outside the class range
        with pytest.raises(ShapeMismatchError):
            ad.softmax_cross_entropy(Tape(), logits, np.array([label]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bsz=st.integers(1, 6),
       n_classes=st.integers(2, 5), scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
def test_softmax_cross_entropy_matches_reference(seed, bsz, n_classes, scale):
    rng = np.random.default_rng(seed)
    z = scale * rng.standard_normal((bsz, n_classes))
    labels = rng.integers(0, n_classes, size=bsz)
    tape = Tape()
    logits = Var(z)
    loss = ad.softmax_cross_entropy(tape, logits, labels)
    tape.backward(loss)
    ref_loss, ref_grad = cross_entropy_reference(z, labels)
    # both routes take differences of numbers as large as the logits, so
    # the loss and each probability carry rounding of about eps * scale
    atol = 1e-14 * max(1.0, scale)
    npt.assert_allclose(loss.value, ref_loss, rtol=1e-12, atol=atol)
    npt.assert_allclose(logits.grad, ref_grad, rtol=1e-12, atol=atol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_cross_entropy_is_exact_at_huge_logits(dtype):
    # a float32 softmax underflows to exactly 0 at a gap of about 104, so a
    # probability-space loss would saturate here; the log-sum-exp one is the
    # gap itself, and its gradient (softmax - onehot) / B is exact
    z = np.array([[1e3, -1e3], [-1e3, 1e3], [1e3, -1e3]], dtype=dtype)
    labels = np.array([0, 0, 1])
    with np.errstate(all="raise"):
        tape = Tape()
        logits = Var(z)
        loss = ad.softmax_cross_entropy(tape, logits, labels)
        tape.backward(loss)
    assert loss.value.dtype == dtype and loss.value == pytest.approx(4e3 / 3, rel=1e-6)
    expected = np.array([[0.0, 0.0], [-1.0, 1.0], [1.0, -1.0]], dtype=dtype) / 3
    assert logits.grad.dtype == dtype
    npt.assert_array_equal(logits.grad, expected)


# ---------------------------------------------------------------------------
# Tape mechanics
# ---------------------------------------------------------------------------

def test_tape_single_use():
    tape = Tape()
    out = ad.sigmoid(tape, Var(np.zeros(3)))
    tape.backward(out)
    with pytest.raises(TapeConsumedError):
        tape.backward(out)


def test_backward_releases_each_closure_as_it_replays():
    rng = np.random.default_rng(29)
    x = ad.leaf(rng.standard_normal((3, 5, 2)))
    wx = Param("wx", rng.standard_normal((2, 16)))
    wh = Param("wh", rng.standard_normal((4, 16)))
    b = Param("b", rng.standard_normal(16))
    tape = Tape()
    out = ad.softmax(tape, ad.lstm_layer(tape, x, wx, wh, b))
    back = tape._steps[0]
    cells = dict(zip(back.__code__.co_freevars, back.__closure__))
    gates = weakref.ref(cells["act"].cell_contents)  # only the LSTM closure holds it
    del back, cells
    assert gates() is not None
    tape.backward(out)
    assert tape._steps == []
    assert gates() is None
    assert wx.grad.any()
    with pytest.raises(TapeConsumedError, match="already replayed"):
        tape.backward(out)


def test_inference_tape_keeps_nothing_and_refuses_backward():
    rng = np.random.default_rng(30)
    x = ad.leaf(rng.standard_normal((3, 5, 2)))
    wx = Param("wx", rng.standard_normal((2, 16)))
    wh = Param("wh", rng.standard_normal((4, 16)))
    b = Param("b", rng.standard_normal(16))
    train, infer = Tape(), Tape(recording=False)
    expected = ad.softmax(train, ad.lstm_layer(train, x, wx, wh, b))
    out = ad.softmax(infer, ad.lstm_layer(infer, x, wx, wh, b))
    assert np.array_equal(out.value, expected.value)
    assert len(train._steps) == 2 and infer._steps == []
    with pytest.raises(TapeConsumedError, match="inference tape"):
        infer.backward(out)
    for p in (wx, wh, b):
        assert p.grad is None, p.name


def test_lstm_keeps_no_cache_on_inference_tape():
    bsz, t_len, h_dim = 64, 30, 16
    rng = np.random.default_rng(31)
    x = ad.leaf(rng.standard_normal((bsz, t_len, 8)))
    wx = Param("wx", 0.1 * rng.standard_normal((8, 4 * h_dim)))
    wh = Param("wh", 0.1 * rng.standard_normal((h_dim, 4 * h_dim)))
    b = Param("b", np.zeros(4 * h_dim))

    def traced_peak(recording):
        tracemalloc.start()
        try:
            ad.lstm_layer(Tape(recording), x, wx, wh, b)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a recording tape keeps c of every step, where an inference tape keeps a
    # two-row ring: at least T - 1 more (B, H) rows
    saved = traced_peak(True) - traced_peak(False)
    assert saved >= (t_len - 1) * bsz * h_dim * x.value.itemsize, saved


def test_recorded_lstm_keeps_no_tanh_c_history():
    """A recording tape keeps c, and backward recomputes tanh(c) from it, so
    the backward closure holds (T + 1)-row states but no (T, B, H) array.  It
    holds no (T*B, F) time-major input copy either: the forward frees it
    after the input projection, and backward rebuilds it from x."""
    shape = bsz, t_len, f_in, h_dim = (3, 5, 2, 4)
    x, wx, wh, b, d_out = _lstm_draw(33, shape)
    vs = [Var(a) for a in (x, wx, wh, b)]
    tape = Tape()
    out = ad.lstm_layer(tape, *vs)
    (back,) = tape._steps
    held = {c.cell_contents.shape for c in back.__closure__
            if isinstance(c.cell_contents, np.ndarray)}
    assert (t_len + 1, bsz, h_dim) in held and (t_len, bsz, h_dim) not in held
    assert (t_len * bsz, f_in) not in held
    out.grad = d_out  # replay by hand with this output gradient
    back()
    for v, ref, name in zip(vs, lstm_backward_reference(x, wx, wh, b, d_out),
                            ("x", "wx", "wh", "b")):
        npt.assert_allclose(v.grad, ref, rtol=0, atol=1e-10, err_msg=name)


def test_param_accumulates_across_tapes():
    w = Param("w", np.ones((2, 2)))
    x = ad.leaf(np.ones((1, 2)))
    for _ in range(2):
        tape = Tape()
        out = ad.matmul(tape, x, w)
        tape.backward(out)
    npt.assert_allclose(w.grad, 2.0 * np.ones((2, 2)))
    AdamW([w], TrainConfig()).step()  # a step consumes the gradient
    assert w.grad is None


def test_param_gradient_starts_at_first_backward_and_aliases_nothing():
    """A Param's first gradient is a copy, even where ``_unbroadcast`` hands
    it the output's gradient itself, so the next backward sums into the
    Param's own array and leaves that output's gradient as it was."""
    w = Param("w", np.ones((2, 3)))
    assert w.grad is None
    h = Var(np.full((2, 3), 2.0))  # a non-Param of the same shape
    tape = Tape()
    out = ad.add(tape, w, h)
    tape.backward(out)
    assert not np.shares_memory(w.grad, out.grad)
    npt.assert_array_equal(w.grad, np.ones((2, 3)))
    tape = Tape()
    tape.backward(ad.add(tape, w, h))
    npt.assert_array_equal(w.grad, 2.0 * np.ones((2, 3)))
    npt.assert_array_equal(out.grad, np.ones((2, 3)))


def test_shared_intermediate_sums_its_gradients_without_mutating_upstream():
    # concat of one node with itself hands that node two views of one
    # gradient; only a Param may be accumulated into in place
    rng = np.random.default_rng(32)
    x = ad.leaf(rng.standard_normal((4, 3)))
    w = Param("w", rng.standard_normal((3, 2)))
    tape = Tape()
    h = ad.matmul(tape, x, w)
    both = ad.concat(tape, [h, h], axis=-1)
    r = rng.standard_normal((4, 4))
    both.grad = r.copy()
    for step in reversed(tape._steps):
        step()
    npt.assert_array_equal(both.grad, r)
    npt.assert_array_equal(h.grad, r[:, :2] + r[:, 2:])
    npt.assert_allclose(w.grad, x.value.T @ (r[:, :2] + r[:, 2:]), rtol=1e-14)


def test_lstm_computes_in_its_weights_dtype_over_float64_input():
    rng = np.random.default_rng(33)
    x = Var(rng.standard_normal((3, 7, 4)))
    values = [("wx", 0.3 * rng.standard_normal((4, 8))),
              ("wh", 0.3 * rng.standard_normal((2, 8))),
              ("b", 0.3 * rng.standard_normal(8))]
    grads = {}
    for dtype in (np.float32, np.float64):
        x.grad = None
        params = [Param(name, value.astype(dtype)) for name, value in values]
        tape = Tape()
        out = ad.lstm_layer(tape, x, *params)
        merged = ad.merge_pairs_mean(tape, out, 3)
        tape.backward(merged)
        # one float64 buffer anywhere would upcast these silently
        assert out.value.dtype == dtype and merged.value.dtype == dtype
        assert out.grad.dtype == dtype and x.grad.dtype == dtype
        for p in params:
            assert p.value.dtype == dtype and p.grad.dtype == dtype
        grads[dtype] = [x.grad.copy()] + [p.grad.copy() for p in params]
    for g32, g64 in zip(grads[np.float32], grads[np.float64]):
        npt.assert_allclose(g32, g64, rtol=0, atol=1e-5)


_FLOAT_DTYPES = st.sampled_from([np.float32, np.float64])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bsz=st.integers(1, 4), t_len=st.integers(2, 7),
       f_in=st.integers(1, 5), h=st.integers(1, 4), x_dtype=_FLOAT_DTYPES, w_dtype=_FLOAT_DTYPES)
def test_a_branch_computes_in_its_weights_dtype(seed, bsz, t_len, f_in, h, x_dtype, w_dtype):
    """LSTM, merge and attention pooling over input of either dtype compute
    in the weights' dtype, bit for bit as over the input cast to it first:
    the case of a model cast to float64 predicting on ``run``'s float32 data."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((bsz, t_len, f_in)).astype(x_dtype)
    values = {name: 0.5 * rng.standard_normal(shape) for name, shape in
              (("wx", (f_in, 4 * h)), ("wh", (h, 4 * h)), ("b", (4 * h,)), ("u", (h,)))}

    def branch(inputs):
        wx, wh, b, u = (Param(name, v.astype(w_dtype)) for name, v in values.items())
        tape = Tape()
        hidden = ad.lstm_layer(tape, ad.leaf(inputs), wx, wh, b)
        _, pooled = scale_attention(tape, ad.merge_pairs_mean(tape, hidden, 2), u)
        tape.backward(pooled)
        return pooled.value, (wx, wh, b, u)

    out, params = branch(x)
    expected, expected_params = branch(x.astype(w_dtype))
    assert out.dtype == w_dtype and np.array_equal(out, expected)
    for p, q in zip(params, expected_params):
        assert p.grad.dtype == w_dtype and np.array_equal(p.grad, q.grad), p.name


class _AllocationRecorder:
    """Stands in for numpy inside ``autodiff``: every other name passes
    through, and each allocator notes the dtype of the float arrays it makes.
    ``ascontiguousarray`` also keeps each (input, output) pair in ``contiguous``
    and notes its dtype only when it copies."""

    ALLOCATORS = ("zeros", "empty", "ones", "full",
                  "zeros_like", "empty_like", "ones_like", "full_like", "ascontiguousarray")

    def __init__(self):
        self.float_dtypes = []
        self.contiguous = []

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in self.ALLOCATORS:
            return fn

        def allocate(*args, **kwargs):
            out = fn(*args, **kwargs)
            if name == "ascontiguousarray":
                self.contiguous.append((args[0], out))
                if np.shares_memory(args[0], out):
                    return out
            if np.issubdtype(out.dtype, np.floating):
                self.float_dtypes.append((name, out.dtype))
            return out
        return allocate


def test_float32_step_allocates_no_float64(monkeypatch):
    """A float64 scratch buffer in a float32 step (say the LSTM's BPTT state)
    is invisible in the outputs, whose ``out=`` writes cast back to float32;
    only the allocations show it.  The batch may come in either float dtype."""
    model = EmoMsase(micro_config())
    model.cast(np.float32)
    rng = np.random.default_rng(34)
    batch = {ch: rng.standard_normal((3, 6, model.config.feature_sizes[ch]))
             for ch in model.config.channels}
    for dtype in (np.float64, np.float32):
        recorder = _AllocationRecorder()
        monkeypatch.setattr(ad, "np", recorder)
        loss, tape = model.forward({ch: x.astype(dtype) for ch, x in batch.items()},
                                   labels=np.array([0, 1, 1]))
        tape.backward(loss)
        monkeypatch.undo()
        for p in model.parameters():
            assert p.grad.dtype == np.float32, p.name
        assert recorder.float_dtypes
        wide = [(name, dt) for name, dt in recorder.float_dtypes if dt != np.float32]
        assert not wide, (dtype, wide)


def test_lstm_reads_its_input_in_one_copy(monkeypatch):
    """Layer 1 casts a float64 batch to its float32 weights and makes it
    time-major in one copy; layer 2 reads layer 1's time-major hidden states
    without a copy."""
    rng = np.random.default_rng(36)
    bsz, t_len, f_in, h = 3, 5, 4, 2
    x = rng.standard_normal((bsz, t_len, f_in))

    def layer(f):
        return [Param(name, (0.5 * rng.standard_normal(shape)).astype(np.float32))
                for name, shape in (("wx", (f, 4 * h)), ("wh", (h, 4 * h)), ("b", (4 * h,)))]

    tape, params1, params2 = ad.Tape(), layer(f_in), layer(h)
    recorder = _AllocationRecorder()
    monkeypatch.setattr(ad, "np", recorder)
    h1 = ad.lstm_layer(tape, ad.leaf(x), *params1)
    first = list(recorder.contiguous)
    ad.lstm_layer(tape, h1, *params2)
    monkeypatch.undo()
    (read1,) = [out for src, out in first if src.shape == (t_len, bsz, f_in)]
    assert read1.dtype == np.float32 and not np.shares_memory(read1, x)
    assert np.array_equal(read1, x.transpose(1, 0, 2).astype(np.float32))
    copies = [entry for entry in recorder.float_dtypes if entry[0] == "ascontiguousarray"]
    assert copies == [("ascontiguousarray", np.float32)]
    (_, read2), = recorder.contiguous[len(first):]
    assert read2.dtype == np.float32 and np.shares_memory(read2, h1.value)


def test_float32_predict_allocates_no_float64(monkeypatch):
    """Inference on float32 weights computes in float32, so no op allocates
    float64 state, as an upcast to float64 weights would."""
    model = EmoMsase(micro_config())
    model.cast(np.float32)
    rng = np.random.default_rng(35)
    inputs = {ch: rng.standard_normal((5, 6, model.config.feature_sizes[ch]))
              for ch in model.config.channels}
    recorder = _AllocationRecorder()
    monkeypatch.setattr(ad, "np", recorder)
    logits = model.predict_logits(inputs, batch_size=2)
    monkeypatch.undo()
    assert recorder.float_dtypes
    wide = [(name, dt) for name, dt in recorder.float_dtypes if dt != np.float32]
    assert not wide, wide
    assert logits.dtype == np.float32


def test_values_keep_their_float_dtype():
    assert Var(np.array([1, 2, 3], dtype=np.int32)).value.dtype == np.float64
    assert Param("i", np.array([1, 2, 3])).value.dtype == np.float64
    for dtype in (np.float32, np.float64):
        p = Param("p", np.ones(3, dtype=dtype))
        tape = Tape()
        tape.backward(ad.mul(tape, p, ad.leaf(np.ones(3))))  # a float64 contribution
        assert p.value.dtype == dtype and p.grad.dtype == dtype
