"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (explicit loops, scalar
updates, textbook formulas) so it shares no code path with the package.
The package computes the same quantities with fused batched numpy (and
scipy for the filter design); tests compare the two routes.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def lstm_sequence_reference(x, wx, wh, b):
    """Hidden sequence of one LSTM layer, sample by sample and step by step.

    Gate blocks in the packed weights are ordered input, forget, output,
    cell-candidate.  State starts at zero.  x is (B, T, F); returns (B, T, H).
    """
    bsz, t_len, _ = x.shape
    h_dim = wx.shape[1] // 4
    out = np.zeros((bsz, t_len, h_dim))
    for bi in range(bsz):
        h = np.zeros(h_dim)
        c = np.zeros(h_dim)
        for t in range(t_len):
            z = x[bi, t] @ wx + h @ wh + b
            i_gate = 1.0 / (1.0 + np.exp(-z[0:h_dim]))
            f_gate = 1.0 / (1.0 + np.exp(-z[h_dim:2 * h_dim]))
            o_gate = 1.0 / (1.0 + np.exp(-z[2 * h_dim:3 * h_dim]))
            g_cand = np.tanh(z[3 * h_dim:4 * h_dim])
            c = f_gate * c + i_gate * g_cand
            h = o_gate * np.tanh(c)
            out[bi, t] = h
    return out


def lstm_backward_reference(x, wx, wh, b, d_out):
    """Gradients of sum(d_out * hidden) for one LSTM layer, by BPTT written
    out sample by sample and step by step.

    Same gate layout as ``lstm_sequence_reference``.  Returns the gradients
    with respect to (x, wx, wh, b).
    """
    bsz, t_len, _ = x.shape
    h_dim = wx.shape[1] // 4
    dx, dwx = np.zeros_like(x), np.zeros_like(wx)
    dwh, db = np.zeros_like(wh), np.zeros_like(b)
    for bi in range(bsz):
        hs, cs, gates = [np.zeros(h_dim)], [np.zeros(h_dim)], []
        for t in range(t_len):
            z = x[bi, t] @ wx + hs[-1] @ wh + b
            i_gate = 1.0 / (1.0 + np.exp(-z[0:h_dim]))
            f_gate = 1.0 / (1.0 + np.exp(-z[h_dim:2 * h_dim]))
            o_gate = 1.0 / (1.0 + np.exp(-z[2 * h_dim:3 * h_dim]))
            g_cand = np.tanh(z[3 * h_dim:4 * h_dim])
            cs.append(f_gate * cs[-1] + i_gate * g_cand)
            hs.append(o_gate * np.tanh(cs[-1]))
            gates.append((i_gate, f_gate, o_gate, g_cand))
        dh_next = np.zeros(h_dim)
        dc_next = np.zeros(h_dim)
        for t in reversed(range(t_len)):
            i_gate, f_gate, o_gate, g_cand = gates[t]
            tanh_c = np.tanh(cs[t + 1])
            dh = d_out[bi, t] + dh_next
            dc = dc_next + dh * o_gate * (1.0 - tanh_c ** 2)
            dz = np.concatenate([
                dc * g_cand * i_gate * (1.0 - i_gate),
                dc * cs[t] * f_gate * (1.0 - f_gate),
                dh * tanh_c * o_gate * (1.0 - o_gate),
                dc * i_gate * (1.0 - g_cand ** 2),
            ])
            dwx += np.outer(x[bi, t], dz)
            dwh += np.outer(hs[t], dz)
            db += dz
            dx[bi, t] = wx @ dz
            dh_next = wh @ dz
            dc_next = dc * f_gate
    return dx, dwx, dwh, db


# ---------------------------------------------------------------------------
# Attention and squeeze-and-excitation
# ---------------------------------------------------------------------------

def attention_reference(hidden, u):
    """Softmax attention pooling written with explicit loops.

    hidden is (B, T, H), u is (H,).  Returns (weights (B, T), pooled (B, H)).
    """
    bsz, t_len, h_dim = hidden.shape
    weights = np.zeros((bsz, t_len))
    pooled = np.zeros((bsz, h_dim))
    for bi in range(bsz):
        scores = np.array([float(hidden[bi, t] @ u) for t in range(t_len)])
        e = np.exp(scores - scores.max())
        w = e / e.sum()
        weights[bi] = w
        for t in range(t_len):
            pooled[bi] += w[t] * hidden[bi, t]
    return weights, pooled


def merge_timesteps_reference(hidden, factor):
    """Average consecutive groups of ``factor`` steps; drop the remainder."""
    bsz, t_len, h_dim = hidden.shape
    t_out = t_len // factor
    out = np.zeros((bsz, t_out, h_dim))
    for bi in range(bsz):
        for t in range(t_out):
            out[bi, t] = hidden[bi, t * factor:(t + 1) * factor].mean(axis=0)
    return out


def se_reference(stacked, w1, w2):
    """Squeeze-and-excitation over (B, M, L): mean-pool rows, gate by a
    two-layer sigmoid MLP, multiply every row by the gains."""
    bsz, n_mod, length = stacked.shape
    out = np.zeros_like(stacked)
    for bi in range(bsz):
        z = stacked[bi].mean(axis=0)
        hidden = np.maximum(0.0, z @ w1)
        gains = 1.0 / (1.0 + np.exp(-(hidden @ w2)))
        for m in range(n_mod):
            out[bi, m] = stacked[bi, m] * gains
    return out


# ---------------------------------------------------------------------------
# Butterworth filter designed and applied from first principles
# ---------------------------------------------------------------------------

def _butter_prototype_poles(order):
    """Left-half-plane poles of the unit-cutoff analog Butterworth filter."""
    k = np.arange(1, order + 1)
    theta = np.pi * (2 * k - 1) / (2 * order) + np.pi / 2
    return np.exp(1j * theta)


def butter_design_reference(order, cutoff_hz, fs, btype):
    """Digital Butterworth (b, a) via prototype poles, the analog band
    transform and the bilinear substitution.

    cutoff_hz is a scalar for "lowpass", a (low, high) pair for "bandpass".
    """
    proto = _butter_prototype_poles(order)
    if btype == "lowpass":
        wc = 2.0 * fs * np.tan(np.pi * cutoff_hz / fs)
        poles = proto * wc
        zeros = np.array([], dtype=complex)
        gain = wc ** order
    elif btype == "bandpass":
        low, high = cutoff_hz
        w1 = 2.0 * fs * np.tan(np.pi * low / fs)
        w2 = 2.0 * fs * np.tan(np.pi * high / fs)
        bw = w2 - w1
        w0sq = w1 * w2
        scaled = proto * bw / 2.0
        root = np.sqrt(scaled ** 2 - w0sq)
        poles = np.concatenate([scaled + root, scaled - root])
        zeros = np.zeros(order, dtype=complex)
        gain = bw ** order
    else:
        raise ValueError(f"unsupported btype {btype!r}")

    # Bilinear substitution s = 2 fs (z - 1) / (z + 1).
    fs2 = 2.0 * fs
    z_d = (fs2 + zeros) / (fs2 - zeros)
    p_d = (fs2 + poles) / (fs2 - poles)
    gain_d = gain * np.real(np.prod(fs2 - zeros) / np.prod(fs2 - poles))
    z_d = np.concatenate([z_d, -np.ones(len(poles) - len(zeros))])
    b = np.real(gain_d * np.poly(z_d))
    a = np.real(np.poly(p_d))
    return b, a


def freq_response_magnitude(b, a, f_hz, fs):
    """|H| of the (b, a) filter at one frequency (b and a same length)."""
    z = np.exp(2j * np.pi * f_hz / fs)
    return abs(np.polyval(b, z) / np.polyval(a, z))


def lfilter_reference(b, a, x):
    """Causal IIR filtering by the plain difference equation."""
    b = np.asarray(b) / a[0]
    a = np.asarray(a) / a[0]
    y = np.zeros(len(x))
    for n in range(len(x)):
        acc = 0.0
        for k in range(len(b)):
            if n - k >= 0:
                acc += b[k] * x[n - k]
        for k in range(1, len(a)):
            if n - k >= 0:
                acc -= a[k] * y[n - k]
        y[n] = acc
    return y


def filtfilt_reference(b, a, x, padlen):
    """Forward-backward filtering with odd extension at both ends."""
    x = np.asarray(x, dtype=np.float64)
    head = 2.0 * x[0] - x[padlen:0:-1]
    tail = 2.0 * x[-1] - x[-2:-padlen - 2:-1]
    ext = np.concatenate([head, x, tail])
    y = lfilter_reference(b, a, ext)
    y = lfilter_reference(b, a, y[::-1])[::-1]
    return y[padlen:padlen + len(x)]


# ---------------------------------------------------------------------------
# Resampling, averaging, windowing
# ---------------------------------------------------------------------------

def upsample_reference(x, from_hz, to_hz):
    """Linear-interpolation upsampling with the last slope extended."""
    n_in = len(x)
    n_out = int(round(n_in * to_hz / from_hz))
    if n_in == 1:
        return np.full(n_out, x[0], dtype=np.float64)
    out = np.zeros(n_out)
    for j in range(n_out):
        t = j * from_hz / to_hz
        if t >= n_in - 1:
            out[j] = x[-1] + (x[-1] - x[-2]) * (t - (n_in - 1))
        else:
            i0 = int(np.floor(t))
            frac = t - i0
            out[j] = x[i0] * (1.0 - frac) + x[i0 + 1] * frac
    return out


def moving_average_reference(x, window_len):
    """Centered moving average with edge-truncated windows.

    For even windows the span is [i - w//2, i + w//2 - 1] around index i,
    matching a full-kernel convolution cropped to "same" length.
    """
    n = len(x)
    shift = (window_len - 1) // 2
    out = np.zeros(n)
    for i in range(n):
        lo = max(0, i + shift - window_len + 1)
        hi = min(n - 1, i + shift)
        out[i] = np.mean(x[lo:hi + 1])
    return out


def count_windows_reference(n, window, hop):
    """Count full windows by walking start offsets."""
    count = 0
    start = 0
    while start + window <= n:
        count += 1
        start += hop
    return count


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def adamw_steps_reference(value, grads, lr, beta1, beta2, eps, weight_decay):
    """Replay AdamW updates element by element for a 1-D parameter.

    grads is a list of gradient vectors, one per step.  Decay multiplies the
    weight directly; the moment estimates never see it.
    """
    value = np.array(value, dtype=np.float64)
    m = np.zeros_like(value)
    v = np.zeros_like(value)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        for j in range(value.shape[0]):
            m[j] = beta1 * m[j] + (1.0 - beta1) * g[j]
            v[j] = beta2 * v[j] + (1.0 - beta2) * g[j] * g[j]
            m_hat = m[j] / (1.0 - beta1 ** t)
            v_hat = v[j] / (1.0 - beta2 ** t)
            value[j] = value[j] - lr * weight_decay * value[j]
            value[j] = value[j] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return value


# ---------------------------------------------------------------------------
# Decision fusion and majority voting
# ---------------------------------------------------------------------------

def fuse_brute_force(prob_rows, rule):
    """Winner class and tie flag computed with plain Python scans."""
    n_classes = len(prob_rows[0])
    support = []
    for c in range(n_classes):
        column = [float(row[c]) for row in prob_rows]
        support.append(sum(column) if rule == "sum" else max(column))
    best = support[0]
    winner = 0
    for c in range(1, n_classes):
        if support[c] > best:
            best = support[c]
            winner = c
    tie = sum(1 for s in support if s == best) > 1
    return winner, tie


def majority_brute_force(binary_votes):
    """Majority label and winning fraction; None for an exact 50/50 split."""
    n_high = sum(binary_votes)
    n = len(binary_votes)
    if 2 * n_high == n:
        return None
    if n_high * 2 > n:
        return 1, n_high / n
    return 0, (n - n_high) / n


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def cross_entropy_reference(logits, labels):
    """Mean cross-entropy of logit rows and its gradient, row by row with
    Python floats: log Z = m + log(sum exp(z - m)) for the row maximum m,
    each row's loss is log Z - z[label], and d/dz is (exp(z - log Z) -
    onehot) / B."""
    bsz = len(logits)
    losses = []
    grad = np.zeros((bsz, len(logits[0])))
    for i, (row, label) in enumerate(zip(logits, labels)):
        row = [float(z) for z in row]
        m = max(row)
        log_z = m + math.log(math.fsum(math.exp(z - m) for z in row))
        losses.append(log_z - row[label])
        for j, z in enumerate(row):
            grad[i, j] = (math.exp(z - log_z) - (1.0 if j == label else 0.0)) / bsz
    return math.fsum(losses) / bsz, grad


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def fd_gradient(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.shape[0]):
        orig = flat[i]
        flat[i] = orig + eps
        up = f(x)
        flat[i] = orig - eps
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * eps)
    return grad
