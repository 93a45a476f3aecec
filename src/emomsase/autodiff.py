"""Reverse-mode automatic differentiation over a recorded operation tape.

Covers exactly the primitives the classifier graph needs: dense products,
elementwise nonlinearities, softmax, attention-style pooling, concatenation,
broadcast multiply, a fused LSTM layer whose backward pass runs
backpropagation through time in one step, and a log-sum-exp cross-entropy.

An op computes in its operands' dtype and allocates in it, so its output
and the gradients it passes back share that dtype; the LSTM layer casts its
input to its weights' dtype.  A ``Param`` keeps its value's dtype, and so
does its ``grad``, which exists only from the backward that first reaches
the weight until an optimizer step consumes it.

Values live in ``Var`` nodes; trainable leaves are ``Param``.  Each op
appends a closure to the tape; ``Tape.backward`` seeds the output gradient
and replays the closures in reverse, releasing each as it runs, so an op's
saved arrays are freed once backward has passed it and a replayed tape
holds no arrays.  An inference tape
(``recording=False``) keeps no closures and no per-step LSTM state, and
cannot be replayed.  Sequence tensors are batch-first (B, T, F).

Inside, the LSTM layer is time-major, (T, B, .): the input projection of
every step is one (T*B, F) product, gates, c and h go into preallocated
arrays, tanh(c) into one scratch row, and the layer returns its hidden
states as a (B, T, H) view.  Only the recurrence runs step by step.  Its
backward recomputes tanh(c) of every step in one call, fills one
(T, B, 4H) array of gate gradients, then takes the weight, bias and input
gradients each as one product or sum over all T*B rows.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    pass


class NonFiniteActivationError(FloatingPointError):
    pass


class TapeConsumedError(RuntimeError):
    pass


COMPUTE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Var:
    """A value in the computation graph with a gradient slot.  A float32 or
    float64 value keeps its dtype; anything else becomes float64."""

    __slots__ = ("value", "grad", "requires_grad")

    def __init__(self, value: np.ndarray, requires_grad: bool = True):
        value = np.asarray(value)
        self.value = value if value.dtype in COMPUTE_DTYPES else value.astype(np.float64)
        self.grad = None
        self.requires_grad = requires_grad


class Param(Var):
    """Named trainable leaf.  Its ``grad`` is None until a backward reaches it;
    further backwards add into it in place until an optimizer step consumes it."""

    __slots__ = ("name",)

    def __init__(self, name: str, value: np.ndarray):
        super().__init__(value)
        self.name = name


class Tape:
    """Ordered record of backward closures for one forward pass, or with
    ``recording=False`` an inference tape that records nothing.
    ``backward`` pops each closure just before running it, so a replayed
    tape holds no arrays."""

    def __init__(self, recording: bool = True):
        self.recording = recording
        self._steps = []
        self._consumed = False

    def record(self, backward_fn) -> None:
        if self.recording:
            self._steps.append(backward_fn)

    def backward(self, out: Var) -> None:
        """Seed d(out) with ones and propagate gradients back to every reachable leaf."""
        if not self.recording:
            raise TapeConsumedError("an inference tape recorded nothing to replay")
        if self._consumed:
            raise TapeConsumedError("tape already replayed; rerun the forward pass")
        self._consumed = True
        out.grad = np.ones_like(out.value)
        while self._steps:
            self._steps.pop()()


def _acc(var: Var, grad: np.ndarray) -> None:
    """Add ``grad`` into ``var.grad``.

    A Param owns its gradient: the first contribution is copied in its dtype
    (``_unbroadcast`` may pass on another node's grad as is), later ones sum
    in place.  Any other grad may be a view of another node's (``reshape``,
    ``stack_rows``, ``concat``), so it is never written into: a second
    contribution makes a new array.
    """
    if not var.requires_grad:
        return
    if var.grad is None:
        var.grad = grad.astype(var.value.dtype) if isinstance(var, Param) else grad
    elif isinstance(var, Param):
        var.grad += grad
    else:
        var.grad = var.grad + grad


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast up from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def leaf(value: np.ndarray) -> Var:
    """Wrap input data; no gradient is accumulated for it."""
    return Var(value, requires_grad=False)


def add(tape: Tape, a: Var, b: Var) -> Var:
    out = Var(a.value + b.value)

    def back():
        _acc(a, _unbroadcast(out.grad, a.value.shape))
        _acc(b, _unbroadcast(out.grad, b.value.shape))
    tape.record(back)
    return out


def mul(tape: Tape, a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    out = Var(av * bv)

    def back():
        _acc(a, _unbroadcast(out.grad * bv, av.shape))
        _acc(b, _unbroadcast(out.grad * av, bv.shape))
    tape.record(back)
    return out


def matmul(tape: Tape, x: Var, w: Var) -> Var:
    """(B, n) @ (n, m) -> (B, m)."""
    if x.value.ndim != 2 or w.value.ndim != 2:
        raise ShapeMismatchError("matmul expects 2-D operands")
    if x.value.shape[1] != w.value.shape[0]:
        raise ShapeMismatchError(
            f"inner dimensions differ: {x.value.shape} @ {w.value.shape}")
    xv, wv = x.value, w.value
    out = Var(xv @ wv)

    def back():
        if x.requires_grad:
            _acc(x, out.grad @ wv.T)
        if w.requires_grad:
            _acc(w, xv.T @ out.grad)
    tape.record(back)
    return out


def reshape(tape: Tape, x: Var, shape: tuple) -> Var:
    old = x.value.shape
    out = Var(x.value.reshape(shape))

    def back():
        _acc(x, out.grad.reshape(old))
    tape.record(back)
    return out


def _tanh_gates(z: np.ndarray, n_sigmoid: int) -> np.ndarray:
    """Activate ``z`` in place with one tanh call and return it.

    The first ``n_sigmoid`` columns must arrive halved and leave as
    sigmoids, sigma(z) = tanh(z/2)/2 + 1/2; the rest leave as tanh.  No
    finite input overflows, and a saturated sigmoid is exactly 0 or 1.
    """
    np.tanh(z, out=z)
    s = z[..., :n_sigmoid]
    s *= 0.5
    s += 0.5
    return z


def sigmoid(tape: Tape, x: Var) -> Var:
    y = _tanh_gates(0.5 * x.value, x.value.shape[-1])
    out = Var(y)

    def back():
        _acc(x, out.grad * y * (1.0 - y))
    tape.record(back)
    return out


def relu(tape: Tape, x: Var) -> Var:
    xv = x.value
    mask = xv > 0
    out = Var(np.where(mask, xv, 0.0))

    def back():
        _acc(x, out.grad * mask)
    tape.record(back)
    return out


def softmax(tape: Tape, x: Var) -> Var:
    """Softmax over the last axis, shift-stabilized."""
    xv = x.value
    e = np.exp(xv - xv.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = Var(y)

    def back():
        g = out.grad
        _acc(x, y * (g - (g * y).sum(axis=-1, keepdims=True)))
    tape.record(back)
    return out


def concat(tape: Tape, parts: list[Var], axis: int = -1) -> Var:
    if not parts:
        raise ShapeMismatchError("nothing to concatenate")
    out = Var(np.concatenate([p.value for p in parts], axis=axis))
    sizes = [p.value.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def back():
        for p, g in zip(parts, np.split(out.grad, splits, axis=axis)):
            _acc(p, g)
    tape.record(back)
    return out


def stack_rows(tape: Tape, parts: list[Var]) -> Var:
    """Stack (B, L) vectors into (B, M, L) along a new middle axis."""
    if not parts:
        raise ShapeMismatchError("nothing to stack")
    out = Var(np.stack([p.value for p in parts], axis=1))

    def back():
        for i, p in enumerate(parts):
            _acc(p, out.grad[:, i, :])
    tape.record(back)
    return out


def mean_axis(tape: Tape, x: Var, axis: int) -> Var:
    n = x.value.shape[axis]
    out = Var(x.value.mean(axis=axis))

    def back():
        _acc(x, np.repeat(np.expand_dims(out.grad / n, axis), n, axis=axis))
    tape.record(back)
    return out


def dot_last(tape: Tape, x: Var, u: Var) -> Var:
    """Contract (B, T, H) with (H,) to scores (B, T)."""
    if x.value.shape[-1] != u.value.shape[0]:
        raise ShapeMismatchError(
            f"cannot contract {x.value.shape} with {u.value.shape}")
    xv, uv = x.value, u.value
    out = Var(xv @ uv)

    def back():
        _acc(x, out.grad[..., None] * uv)
        _acc(u, np.einsum("bt,bth->h", out.grad, xv))
    tape.record(back)
    return out


def weighted_sum(tape: Tape, weights: Var, x: Var) -> Var:
    """Pool (B, T, H) rows with per-row weights (B, T) into (B, H)."""
    wv, xv = weights.value, x.value
    out = Var(np.matmul(wv[:, None, :], xv)[:, 0, :])

    def back():
        _acc(weights, np.matmul(xv, out.grad[..., None])[:, :, 0])
        _acc(x, wv[..., None] * out.grad[:, None, :])
    tape.record(back)
    return out


def merge_pairs_mean(tape: Tape, x: Var, factor: int) -> Var:
    """Average consecutive groups of ``factor`` timesteps of (B, T, H).

    A trailing remainder shorter than ``factor`` is dropped.
    """
    b, t, h = x.value.shape
    t_out = t // factor
    if t_out < 1:
        raise ShapeMismatchError(f"cannot merge {t} timesteps by {factor}")
    kept = t_out * factor
    xv = x.value
    total = xv[:, 0:kept:factor, :].copy()
    for off in range(1, factor):
        total += xv[:, off:kept:factor, :]
    out = Var(total / factor)

    def back():
        g = np.zeros((b, t, h), xv.dtype)
        g[:, :kept, :] = np.repeat(out.grad / factor, factor, axis=1)
        _acc(x, g)
    tape.record(back)
    return out


def lstm_layer(tape: Tape, x: Var, wx: Var, wh: Var, b: Var) -> Var:
    """One LSTM layer over a full (B, T, F) sequence, hidden size H.

    Gate blocks in ``wx``/``wh``/``b`` are ordered input, forget, output,
    cell-candidate.  State starts at zero.  Returns the hidden sequence
    (B, T, H) as a view of time-major (T, B, H) storage; the backward
    closure runs full backpropagation through time, recomputing tanh(c)
    from the kept c and the time-major input rows from x rather than keeping
    either.  The three sigmoid blocks of the weights enter halved (exact in
    binary floating point), so one tanh per step activates all 4H gate
    columns in place.
    """
    bsz, t_len, f_in = x.value.shape
    if wx.value.shape[0] != f_in:
        raise ShapeMismatchError(
            f"input width {f_in} does not match weight shape {wx.value.shape}")
    h_dim = wx.value.shape[1] // 4
    if wx.value.shape[1] != 4 * h_dim or wh.value.shape != (h_dim, 4 * h_dim):
        raise ShapeMismatchError("LSTM weights must pack 4 gate blocks")
    h2, h3 = 2 * h_dim, 3 * h_dim
    wxv, whv = wx.value, wh.value
    dtype = wxv.dtype

    def time_major():  # x as (T*B, F) rows in the weights' dtype: one copy, none if it is both
        return np.ascontiguousarray(x.value.transpose(1, 0, 2), dtype).reshape(-1, f_in)

    half = np.ones(4 * h_dim, dtype)
    half[:h3] = 0.5
    act = (time_major() @ (wxv * half)).reshape(t_len, bsz, 4 * h_dim)
    act += b.value * half
    wh_half = whv * half

    # row t + 1 holds the state after step t, row 0 the zero start; an
    # inference tape keeps c in a two-row ring; tanh(c) is one scratch row,
    # which backward recomputes for every step from c
    ring = t_len + 1 if tape.recording else 2
    hs = np.zeros((t_len + 1, bsz, h_dim), dtype)
    cs = np.zeros((ring, bsz, h_dim), dtype)
    tc = np.empty((bsz, h_dim), dtype)
    rec = np.empty((bsz, 4 * h_dim), dtype)
    ig = np.empty((bsz, h_dim), dtype)
    for t in range(t_len):
        z = act[t]
        np.matmul(hs[t], wh_half, out=rec)
        z += rec
        _tanh_gates(z, h3)
        c = cs[(t + 1) % ring]
        np.multiply(z[:, h_dim:h2], cs[t % ring], out=c)
        np.multiply(z[:, :h_dim], z[:, h3:], out=ig)
        c += ig
        np.tanh(c, out=tc)
        np.multiply(z[:, h2:h3], tc, out=hs[t + 1])
    out = Var(hs[1:].transpose(1, 0, 2))

    def back():
        dhs = out.grad.transpose(1, 0, 2).astype(dtype, order="C")
        tcs = np.tanh(cs[1:])
        dzs = np.empty_like(act)
        d_gate = np.empty((bsz, 4 * h_dim), dtype)
        dh_dc = np.empty((bsz, h_dim), dtype)
        dc = np.zeros((bsz, h_dim), dtype)
        dh_next = np.zeros((bsz, h_dim), dtype)
        wh_t = np.ascontiguousarray(whv.T)  # a strided view slows each step's matmul
        for t in range(t_len - 1, -1, -1):
            gates, tc, dz, dh = act[t], tcs[t], dzs[t], dhs[t]
            # local derivatives while this step's rows are in cache (one pass
            # over all T at once was slower): sigma(1 - sigma), 1 - g^2, and
            # o(1 - tanh(c)^2), the path from dh to dc
            np.subtract(1.0, gates[:, :h3], out=d_gate[:, :h3])
            d_gate[:, :h3] *= gates[:, :h3]
            np.multiply(gates[:, h3:], gates[:, h3:], out=d_gate[:, h3:])
            np.subtract(1.0, d_gate[:, h3:], out=d_gate[:, h3:])
            np.multiply(tc, tc, out=dh_dc)
            np.subtract(1.0, dh_dc, out=dh_dc)
            dh_dc *= gates[:, h2:h3]
            dh += dh_next
            np.multiply(dh, tc, out=dz[:, h2:h3])
            dh *= dh_dc
            dc += dh
            np.multiply(dc, gates[:, h3:], out=dz[:, :h_dim])
            np.multiply(dc, cs[t], out=dz[:, h_dim:h2])
            np.multiply(dc, gates[:, :h_dim], out=dz[:, h3:])
            dz *= d_gate
            dc *= gates[:, h_dim:h2]
            np.matmul(dz, wh_t, out=dh_next)
        flat = dzs.reshape(t_len * bsz, 4 * h_dim)
        _acc(wx, time_major().T @ flat)
        _acc(wh, hs[:-1].reshape(t_len * bsz, h_dim).T @ flat)
        _acc(b, flat.sum(axis=0))
        if x.requires_grad:
            _acc(x, (flat @ wxv.T).reshape(t_len, bsz, f_in).transpose(1, 0, 2))
    tape.record(back)
    return out


def softmax_cross_entropy(tape: Tape, logits: Var, labels: np.ndarray) -> Var:
    """Mean cross-entropy of (B, C) class logits against class indices.

    Each row contributes log(sum exp z) - z[label], computed from the
    max-shifted logits, so the loss stays finite and its gradient,
    (softmax - onehot) / B, exact for any finite logits.
    """
    labels = np.asarray(labels)
    bsz, n_classes = logits.value.shape
    if labels.shape != (bsz,):
        raise ShapeMismatchError(f"expected {bsz} labels, got {labels.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ShapeMismatchError("label index outside the class range")
    z = logits.value
    shifted = z - z.max(axis=-1, keepdims=True)
    with np.errstate(under="ignore"):  # exp(0) = 1 is in every row, so a 0 is exact
        e = np.exp(shifted)
    total = e.sum(axis=-1)
    rows = np.arange(bsz)
    out = Var(np.mean(np.log(total) - shifted[rows, labels]))

    def back():
        g = e / total[:, None]
        g[rows, labels] -= 1.0
        g *= out.grad / bsz
        _acc(logits, g)
    tape.record(back)
    return out
