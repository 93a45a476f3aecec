"""Signal conditioning: filtering, resampling, normalization, windowing.

Each piped channel's conditioning chain is the ``chain`` column of its
``dataio.CHANNEL_CATALOG`` row, and ``preprocess_channel`` runs every chain
through the same steps: upsample to the working rate, Butterworth-filter or
smooth, z-score over the full stream, keep the tail, then cut windows with
50% overlap.  Tensor shapes and the cache key are read from the same row.
Filters are 4th-order Butterworth applied forward and backward, so the net
phase is zero.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Collection
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

# LOW_PASS and WINDOW_SECONDS are named here too, for callers that condition signals
from .dataio import (BAND_PASS, CHANNEL_CATALOG, LOW_PASS, WINDOW_SECONDS, Chain, FilterSpec,
                     RawRecording, write_atomic)

OVERLAP = 0.5
# The FFT leaves room for the impulse response until |p|^i falls below this.
POLE_TAIL_TOLERANCE = 2.0 ** -53  # float64 unit roundoff


class PreprocessError(ValueError):
    """Base class for conditioning failures."""


def butter_zpk(spec: FilterSpec, rate_hz: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Digital zeros, poles and gain of the filter: the analog prototype's
    poles, the low-pass or band-pass transform, then the bilinear transform,
    step for step as ``scipy.signal.butter(..., output="zpk")`` computes them."""
    n = spec.order
    proto = -np.exp(1j * np.pi * np.arange(-n + 1, n, 2, dtype=np.float64) / (2 * n))
    cutoffs = [spec.low_hz, spec.high_hz] if spec.kind == BAND_PASS else [spec.high_hz]
    # pre-warped for the bilinear transform at the normalized rate 2
    warped = 4.0 * np.tan(np.pi * (np.asarray(cutoffs, dtype=np.float64) / (rate_hz / 2)) / 2.0)
    if spec.kind == BAND_PASS:
        bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
        p_lp = proto * bw / 2
        root = np.sqrt(p_lp ** 2 - wo ** 2)
        z, p, k = np.zeros(n), np.concatenate((p_lp + root, p_lp - root)), bw ** n
    else:
        wo = float(warped[0])
        z, p, k = np.zeros(0), wo * proto, wo ** n
    z_d = np.concatenate(((4.0 + z) / (4.0 - z), -np.ones(len(p) - len(z))))
    return z_d, (4.0 + p) / (4.0 - p), k * np.real(np.prod(4.0 - z) / np.prod(4.0 - p))


@lru_cache(maxsize=32)  # the chains use 5 designs
def _design(spec: FilterSpec, rate_hz: float) -> tuple[np.ndarray, np.ndarray, float, int]:
    """The zeros, poles and gain, and the window over which the slowest
    pole's |p|^i stays above POLE_TAIL_TOLERANCE."""
    z, p, k = butter_zpk(spec, rate_hz)
    window = int(np.ceil(np.log(POLE_TAIL_TOLERANCE) / np.log(np.abs(p).max())))
    return z, p, k, window


@lru_cache(maxsize=64)  # 5 designs, each at the few FFT sizes its lengths round up to
def _response(spec: FilterSpec, rate_hz: float, size: int) -> np.ndarray:
    """H(e^jw) at the frequencies of an rfft of ``size`` samples."""
    z, p, k, _ = _design(spec, rate_hz)
    z_inv = np.exp(-2j * np.pi / size * np.arange(size // 2 + 1))
    response = k * (np.prod(1 - z[:, None] * z_inv, axis=0)
                    / np.prod(1 - p[:, None] * z_inv, axis=0))
    response.flags.writeable = False
    return response


# every 2^a 3^b 5^c up to 2^40: the lengths numpy's FFT is fastest at
_FFT_SIZES = np.multiply.outer(np.multiply.outer(2.0 ** np.arange(41), 3.0 ** np.arange(26)),
                               5.0 ** np.arange(18)).ravel()
_FFT_SIZES = np.unique(_FFT_SIZES[_FFT_SIZES <= 2.0 ** 40]).astype(np.int64)


def butterworth_filter(signal: np.ndarray, rate_hz: float, spec: FilterSpec) -> np.ndarray:
    """Zero-phase Butterworth filtering (applied forward then backward).

    Output has the same length as the input.  Cutoffs must sit strictly
    inside (0, rate/2); the signal must be longer than 3x the filter order.
    The result is filtfilt's: odd extension by 3x the order at each end, then
    a forward and a backward pass, each started in the steady state of its
    first sample x0, that is, the response to x - x0 plus H(1) x0.  Each pass
    is one rfft/irfft product with H.  The FFT size is the next 2^a 3^b 5^c
    at least the extended length plus the slowest pole's window, so no term
    of the impulse response above POLE_TAIL_TOLERANCE wraps around.  numpy's
    FFT does not use BLAS, so the result does not depend on its thread count.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if spec.kind == BAND_PASS:
        if not (0.0 < spec.low_hz < spec.high_hz < rate_hz / 2.0):
            raise PreprocessError(
                f"band {spec.low_hz}-{spec.high_hz} Hz invalid at {rate_hz} Hz")
    elif not (0.0 < spec.high_hz < rate_hz / 2.0):
        raise PreprocessError(f"cutoff {spec.high_hz} Hz invalid at {rate_hz} Hz")
    padlen = 3 * spec.order
    n = signal.shape[0]
    if n <= padlen:
        raise PreprocessError(
            f"need more than {padlen} samples for order {spec.order}, got {n}")
    y = np.concatenate((2 * signal[0] - signal[padlen:0:-1], signal,
                        2 * signal[-1] - signal[-2:-padlen - 2:-1]))
    m = y.shape[0]
    *_, window = _design(spec, rate_hz)
    size = int(_FFT_SIZES[np.searchsorted(_FFT_SIZES, m + window)])
    response = _response(spec, rate_hz, size)
    for _ in range(2):  # forward, then backward over the reversed result
        x0 = y[0]
        y = np.fft.irfft(np.fft.rfft(y - x0, size) * response, size)[m - 1::-1]
        y += response[0].real * x0  # response[0] is H(1)
    return y[padlen:padlen + n]


def moving_average(signal: np.ndarray, window_len: int) -> np.ndarray:
    """Centered moving average; windows are truncated at the edges."""
    signal = np.asarray(signal, dtype=np.float64)
    if window_len < 1:
        raise PreprocessError("window length must be >= 1")
    if signal.shape[0] == 0:
        raise PreprocessError("empty signal")
    kernel = np.ones(window_len)
    # crop the full convolution: mode="same" returns max(n, window) samples
    s, n = (window_len - 1) // 2, signal.shape[0]
    sums = np.convolve(signal, kernel)[s:s + n]
    counts = np.convolve(np.ones_like(signal), kernel)[s:s + n]
    return sums / counts


def upsample(signal: np.ndarray, from_hz: float, to_hz: float) -> np.ndarray:
    """Linear-interpolation upsampling to round(n * to/from) samples.

    Interpolation runs on the input-index grid; past the last input sample
    the final segment's slope is extended, so a linear ramp stays a ramp
    over the whole resampled duration.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if to_hz < from_hz:
        raise PreprocessError(f"cannot downsample {from_hz} -> {to_hz} Hz")
    n_in = signal.shape[0]
    if n_in == 0:
        raise PreprocessError("empty signal")
    n_out = int(round(n_in * to_hz / from_hz))
    if n_in == 1:
        return np.full(n_out, signal[0])
    pos = np.arange(n_out) * (from_hz / to_hz)
    out = np.interp(pos, np.arange(n_in), signal)
    beyond = pos > n_in - 1
    if np.any(beyond):
        slope = signal[-1] - signal[-2]
        out[beyond] = signal[-1] + slope * (pos[beyond] - (n_in - 1))
    return out


def zscore(signal: np.ndarray) -> np.ndarray:
    """Standardize to zero mean and unit population (ddof=0) deviation."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape[0] < 2:
        raise PreprocessError("z-score needs at least 2 samples")
    std = signal.std()
    if std == 0.0:
        raise PreprocessError("constant signal has no z-score")
    return (signal - signal.mean()) / std


def take_tail(signal: np.ndarray, n: int) -> np.ndarray:
    """Keep the last ``n`` samples."""
    signal = np.asarray(signal)
    if signal.shape[0] < n:
        raise PreprocessError(f"need {n} samples, got {signal.shape[0]}")
    return signal[signal.shape[0] - n:]


@dataclass
class WindowedTensor:
    """A (T, F) stack of overlapping windows cut from one conditioned stream."""

    values: np.ndarray
    source: tuple[str, str, str] | None = None  # (participant, video, channel)


def _hop(window_samples: int) -> int:
    """The hop between windows, window * (1 - OVERLAP); a PreprocessError
    unless it comes out to a whole number of samples."""
    hop_f = window_samples * (1.0 - OVERLAP)
    hop = int(round(hop_f))
    if hop < 1 or abs(hop_f - hop) > 1e-9:
        raise PreprocessError(
            f"window {window_samples} with overlap {OVERLAP} gives "
            f"non-integer hop {hop_f}")
    return hop


def segment(signal: np.ndarray, window_samples: int,
            source: tuple[str, str, str] | None = None) -> WindowedTensor:
    """Cut a stream into windows overlapping by ``OVERLAP``, dropping any
    short remainder.

    The hop is window * (1 - OVERLAP) and must come out to a whole number of
    samples.  Row t holds samples [t*hop, t*hop + window).
    """
    signal = np.asarray(signal, dtype=np.float64)
    if window_samples < 1:
        raise PreprocessError("window must be >= 1 sample")
    if window_samples > signal.shape[0]:
        raise PreprocessError(
            f"window {window_samples} exceeds signal length {signal.shape[0]}")
    windows = np.lib.stride_tricks.sliding_window_view(signal, window_samples)
    windows = windows[::_hop(window_samples)]
    return WindowedTensor(values=np.ascontiguousarray(windows), source=source)


def chain_for(channel: str) -> Chain:
    """The chain of the channel's catalogue row; a PreprocessError if it has none."""
    row = CHANNEL_CATALOG.get(channel)
    if row is None or row.chain is None:
        raise PreprocessError(f"no conditioning chain for channel {channel!r}")
    return row.chain


def feature_size(channel: str) -> int:
    """Window length (features per timestep) the chain produces for a channel."""
    return chain_for(channel).window


def expected_timesteps(channel: str) -> int:
    """Window count the chain produces for a channel (39 sensor, 19 eye)."""
    chain = chain_for(channel)
    return (chain.tail - chain.window) // _hop(chain.window) + 1


def preprocess_channel(rec: RawRecording) -> WindowedTensor:
    """Run one recording through its channel's full conditioning chain; a
    PreprocessError from any step names the recording."""
    source = (rec.participant_id, rec.video_id, rec.channel)
    try:
        chain = chain_for(rec.channel)
        x = np.asarray(rec.values, dtype=np.float64)
        if chain.rate_hz is not None and rec.sample_rate_hz != chain.rate_hz:
            if rec.sample_rate_hz > chain.rate_hz:
                raise PreprocessError(f"cannot downsample {rec.sample_rate_hz:g} Hz to the "
                                      f"{chain.rate_hz:g} Hz working rate")
            x = upsample(x, float(rec.sample_rate_hz), chain.rate_hz)
        if chain.filter is not None:
            x = butterworth_filter(x, chain.rate_hz, chain.filter)
        if chain.smooth_len is not None:
            x = moving_average(x, chain.smooth_len)
        x = take_tail(zscore(x), chain.tail)
        tensor = segment(x, chain.window, source=source)
        if not np.all(np.isfinite(tensor.values)):
            raise PreprocessError("non-finite values after conditioning")
    except PreprocessError as exc:
        raise PreprocessError(f"{'/'.join(source)}: {exc}") from None
    return tensor


# ---------------------------------------------------------------------------
# On-disk tensor cache
# ---------------------------------------------------------------------------

_MAGIC_DTYPE = "<f8"
_BINARY, _SIDECAR = ".bin", ".json"


def tensor_cache_key(rec: RawRecording) -> str:
    """Content hash of one recording and the chain that conditions it."""
    h = hashlib.sha256()
    h.update(f"{rec.participant_id}|{rec.video_id}|{rec.channel}|"
             f"{rec.sample_rate_hz!r}|v3|{chain_for(rec.channel)!r}|{OVERLAP!r}|".encode())
    h.update(np.ascontiguousarray(rec.timestamps_ms, "<i8"))
    h.update(np.ascontiguousarray(rec.values, _MAGIC_DTYPE))
    return h.hexdigest()[:20]


def _entry_files(stem: Path) -> tuple[Path, Path]:
    """A cache entry is a binary beside a sidecar of ours; other files are foreign."""
    return stem.with_name(stem.name + _BINARY), stem.with_name(stem.name + _SIDECAR)


def entry_stems(cache_dir: Path) -> list[Path]:
    """The stems in ``cache_dir`` that have both entry files, sorted; reads no file."""
    names = {p.name for p in Path(cache_dir).glob("*")}
    return sorted(Path(cache_dir) / n[:-len(_SIDECAR)] for n in names
                  if n.endswith(_SIDECAR) and n[:-len(_SIDECAR)] + _BINARY in names)


def save_tensor(tensor: WindowedTensor, stem: Path) -> None:
    """Write ``stem``.bin (uint32 T,F then float64 row-major, little-endian)
    and, last, a JSON sidecar with the source metadata."""
    binary, sidecar = _entry_files(Path(stem))
    t, f = tensor.values.shape
    write_atomic(binary,
                 struct.pack("<II", t, f) + tensor.values.astype(_MAGIC_DTYPE).tobytes())
    src = tensor.source or ("", "", "")
    meta = {
        "participant_id": src[0],
        "video_id": src[1],
        "channel": src[2],
        "n_windows": t,
        "window_len": f,
        "dtype": _MAGIC_DTYPE,
    }
    write_atomic(sidecar, (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode())


def _read_sidecar(sidecar: Path) -> tuple[tuple[str, str, str], tuple[int, int]] | None:
    """The (source, shape) a sidecar of ours holds, or None for a foreign file."""
    try:
        meta = json.loads(sidecar.read_bytes())
        source = (meta["participant_id"], meta["video_id"], meta["channel"])
        shape = (meta["n_windows"], meta["window_len"])
    except (ValueError, KeyError, TypeError):
        return None
    ours = all(type(v) is str for v in source) and all(type(n) is int for n in shape)
    return (source, shape) if ours else None


def prune_stale_tensors(cache_dir: Path, keys: set[str],
                        sources: set[tuple[str, str, str]]) -> int:
    """Remove each entry whose stem is not in ``keys`` but whose sidecar names
    a (participant, video, channel) in ``sources``: a tensor that a chain or
    data edit superseded.  Returns how many entries went.

    Only an entry whose stem is not a key has its sidecar read, so a cache with
    nothing stale costs one directory listing.  Foreign files and tensors of
    other sources stay.  The sidecar goes first, so an interrupted prune leaves
    a binary that loading ignores.
    """
    pruned = 0
    for stem in entry_stems(cache_dir):
        binary, sidecar = _entry_files(stem)
        meta = None if stem.name in keys else _read_sidecar(sidecar)
        if meta is not None and meta[0] in sources:
            sidecar.unlink()
            binary.unlink()
            pruned += 1
    return pruned


def load_tensor(stem: Path, channels: Collection[str] | None = None) -> WindowedTensor | None:
    """The tensor of the entry at ``stem``, or None, with its binary unread,
    if its sidecar is not ours or names a channel outside ``channels``.
    A binary that does not hold the tensor its sidecar describes raises a
    PreprocessError naming it."""
    binary, sidecar = _entry_files(Path(stem))
    meta = _read_sidecar(sidecar)
    if meta is None or (channels is not None and meta[0][2] not in channels):
        return None
    data = binary.read_bytes()
    try:
        if struct.unpack_from("<II", data) != meta[1]:
            raise ValueError("the sidecar gives another shape")
        values = np.frombuffer(data, _MAGIC_DTYPE, offset=8).reshape(meta[1]).copy()
    except (struct.error, ValueError) as exc:
        raise PreprocessError(f"{binary}: not a cached tensor ({exc}); clear the cache "
                              f"and re-run preprocessing") from None
    return WindowedTensor(values=values, source=meta[0])
