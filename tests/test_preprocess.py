"""Signal conditioning tests against loop-based and filter-design oracles."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal as scipy_signal

from emomsase import dataio, preprocess
from emomsase.dataio import (CHANNEL_CATALOG, DataError, SyntheticSpec, default_synth_channels,
                             make_synthetic)
from emomsase.preprocess import (
    BAND_PASS, LOW_PASS, FilterSpec, PreprocessError, butterworth_filter, chain_for,
    expected_timesteps, feature_size, load_tensor, moving_average,
    preprocess_channel, save_tensor, segment, take_tail, tensor_cache_key,
    upsample, zscore,
)

from reference_impls import (
    butter_design_reference, filtfilt_reference, freq_response_magnitude,
    count_windows_reference, moving_average_reference, upsample_reference,
)

_seeds = st.integers(0, 2**32 - 1)
# every channel the pipeline conditions: the catalogue rows with a chain
PIPED = sorted(ch for ch, row in CHANNEL_CATALOG.items() if row.chain is not None)


# ---------------------------------------------------------------------------
# Butterworth filtering vs a from-scratch design + difference equation
# ---------------------------------------------------------------------------

# The two routes share no code: the package designs in numpy and filters
# in two FFT passes, forward and backward, with H; the oracle designs
# from prototype poles and runs a plain difference equation.  Their
# initial-condition handling differs, so the comparison drops 20 s from
# each end: the slowest pole (radius about 0.995 for the 0.5 Hz edge)
# leaves the mismatch at its 1e-8 arithmetic floor by then, measured
# directly on these bands.  scipy serves below as a second, test-only
# oracle that keeps filtfilt's initial conditions.
_CHAIN_BANDS = [
    ("acc", BAND_PASS, (0.5, 20.0), 64.0),
    ("ecg", BAND_PASS, (0.5, 45.0), 256.0),
    ("bvp", BAND_PASS, (0.5, 4.0), 64.0),
    ("eda", LOW_PASS, 0.5, 64.0),
]


@pytest.mark.parametrize("name,kind,cut,fs", _CHAIN_BANDS,
                         ids=[c[0] for c in _CHAIN_BANDS])
def test_filter_matches_reference_route(name, kind, cut, fs):
    rng = np.random.default_rng(hash(name) % (2**32))
    x = rng.standard_normal(int(60.0 * fs))
    if kind == BAND_PASS:
        spec = FilterSpec(BAND_PASS, low_hz=cut[0], high_hz=cut[1])
        b, a = butter_design_reference(4, cut, fs, "bandpass")
    else:
        spec = FilterSpec(LOW_PASS, high_hz=cut)
        b, a = butter_design_reference(4, cut, fs, "lowpass")
    got = butterworth_filter(x, fs, spec)
    ref = filtfilt_reference(b, a, x, padlen=12)
    trim = int(20.0 * fs)
    npt.assert_allclose(got[trim:-trim], ref[trim:-trim], atol=1e-6)
    assert got.shape == x.shape


def test_reference_design_halves_power_at_cutoffs():
    # sanity-check the oracle itself against the defining filter property
    b, a = butter_design_reference(4, (0.5, 20.0), 64.0, "bandpass")
    npt.assert_allclose(freq_response_magnitude(b, a, 0.5, 64.0),
                        1.0 / np.sqrt(2.0), rtol=1e-9)
    npt.assert_allclose(freq_response_magnitude(b, a, 20.0, 64.0),
                        1.0 / np.sqrt(2.0), rtol=1e-9)
    b, a = butter_design_reference(4, 0.5, 64.0, "lowpass")
    npt.assert_allclose(freq_response_magnitude(b, a, 0.5, 64.0),
                        1.0 / np.sqrt(2.0), rtol=1e-9)


def _tone_gain(spec, fs, tone_hz, seconds=60.0):
    """Amplitude ratio of a pure tone through the zero-phase filter."""
    t = np.arange(int(seconds * fs)) / fs
    x = np.sin(2.0 * np.pi * tone_hz * t)
    y = butterworth_filter(x, fs, spec)
    center = slice(int(10 * fs), -int(10 * fs))
    return np.sqrt(np.mean(y[center] ** 2) / np.mean(x[center] ** 2))


def test_bandpass_amplitude_response():
    spec = FilterSpec(BAND_PASS, low_hz=0.5, high_hz=20.0)
    # mid-band tone passes nearly untouched (|H|^2 because of the two passes)
    assert abs(_tone_gain(spec, 64.0, 5.0) - 1.0) < 0.02
    # tones a decade past either edge collapse
    assert _tone_gain(spec, 64.0, 0.05) < 0.01
    # 4th-order falloff above the 20 Hz edge: |H(30)|^2 is about 0.04
    assert _tone_gain(spec, 64.0, 30.0) < 0.1


def test_lowpass_amplitude_response():
    spec = FilterSpec(LOW_PASS, high_hz=0.5)
    assert abs(_tone_gain(spec, 64.0, 0.05) - 1.0) < 0.02
    assert _tone_gain(spec, 64.0, 5.0) < 0.001


def test_filter_rejects_bad_cutoffs_and_short_signals():
    with pytest.raises(PreprocessError, match=r"band 20\.0-0\.5 Hz invalid at 64\.0 Hz"):
        butterworth_filter(np.zeros(100), 64.0, FilterSpec(BAND_PASS, 20.0, 0.5))
    with pytest.raises(PreprocessError, match=r"band 0\.5-40\.0 Hz invalid at 64\.0 Hz"):
        butterworth_filter(np.zeros(100), 64.0, FilterSpec(BAND_PASS, 0.5, 40.0))
    with pytest.raises(PreprocessError, match=r"cutoff 32\.0 Hz invalid at 64\.0 Hz"):
        butterworth_filter(np.zeros(100), 64.0, FilterSpec(LOW_PASS, high_hz=32.0))
    with pytest.raises(PreprocessError, match="need more than 12 samples for order 4, got 12"):
        butterworth_filter(np.zeros(12), 64.0, FilterSpec(LOW_PASS, high_hz=0.5))
    with pytest.raises(DataError, match="band-pass needs both cutoffs"):
        FilterSpec(BAND_PASS, low_hz=0.5)  # missing the upper cutoff
    with pytest.raises(DataError, match="unknown filter kind 'highpass'"):
        FilterSpec("highpass", low_hz=0.5)


def test_conditioning_designs_each_filter_once(monkeypatch):
    designs = []
    butter_zpk = preprocess.butter_zpk

    def counted(spec, rate_hz):
        designs.append((spec, rate_hz))
        return butter_zpk(spec, rate_hz)

    monkeypatch.setattr(preprocess, "butter_zpk", counted)
    preprocess._design.cache_clear()
    recs, _ = make_synthetic(SyntheticSpec(
        n_participants=1, seed=3, class_separation=1.0,
        channels=default_synth_channels()))
    for rec in recs:
        preprocess_channel(rec)
    assert designs and len(designs) == len(set(designs)), designs


_DESIGNS = sorted({(c.filter, c.rate_hz) for c in map(chain_for, PIPED) if c.filter is not None},
                  key=repr)


def _scipy_wn(spec):
    return [spec.low_hz, spec.high_hz] if spec.kind == BAND_PASS else spec.high_hz


@pytest.mark.parametrize("spec,fs", _DESIGNS, ids=[f"{s.kind}-{s.high_hz}-{fs:g}"
                                                   for s, fs in _DESIGNS])
def test_design_is_scipys_zpk(spec, fs):
    z, p, k = preprocess.butter_zpk(spec, fs)
    ref_z, ref_p, ref_k = scipy_signal.butter(spec.order, _scipy_wn(spec), btype=spec.kind,
                                              fs=fs, output="zpk")
    npt.assert_array_equal(z, ref_z)
    npt.assert_array_equal(p, ref_p)
    assert k == ref_k


@pytest.mark.parametrize("seconds", [60, 300])
@pytest.mark.parametrize("spec,fs", _DESIGNS, ids=[f"{s.kind}-{s.high_hz}-{fs:g}"
                                                   for s, fs in _DESIGNS])
def test_filter_matches_scipy_sosfiltfilt(spec, fs, seconds):
    n = int(seconds * fs)
    rng = np.random.default_rng(seconds)
    x = rng.standard_normal(n) + 3.0 + np.linspace(0.0, 5.0, n)  # noise, offset, drift
    sos = scipy_signal.butter(spec.order, _scipy_wn(spec), btype=spec.kind, fs=fs,
                              output="sos")
    ref = scipy_signal.sosfiltfilt(sos, x, padlen=3 * spec.order)
    npt.assert_allclose(butterworth_filter(x, fs, spec), ref, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [13, 40, 300])
def test_short_signals_match_scipy_sosfiltfilt(n):
    # shorter than the slowest pole's window, which sets the FFT size
    spec = FilterSpec(BAND_PASS, low_hz=0.5, high_hz=20.0)
    x = np.random.default_rng(n).standard_normal(n)
    sos = scipy_signal.butter(4, [0.5, 20.0], btype=BAND_PASS, fs=64.0, output="sos")
    npt.assert_allclose(butterworth_filter(x, 64.0, spec),
                        scipy_signal.sosfiltfilt(sos, x, padlen=12), rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(design=st.sampled_from(_DESIGNS), n=st.integers(13, 40_000), seed=_seeds,
       scale=st.floats(1e-3, 1e3), offset=st.floats(-1e3, 1e3), drift=st.floats(-1e3, 1e3))
def test_filter_matches_scipy_sosfiltfilt_at_any_length(design, n, seed, scale, offset, drift):
    # lengths from 13 samples to 10 min at 64 Hz cross many FFT sizes
    spec, fs = design
    x = (scale * np.random.default_rng(seed).standard_normal(n) + offset
         + drift * np.linspace(0.0, 1.0, n))
    sos = scipy_signal.butter(spec.order, _scipy_wn(spec), btype=spec.kind, fs=fs,
                              output="sos")
    ref = scipy_signal.sosfiltfilt(sos, x, padlen=3 * spec.order)
    npt.assert_allclose(butterworth_filter(x, fs, spec), ref, rtol=0,
                        atol=1e-11 * np.abs(x).max())


def test_filter_spec_refuses_odd_orders():
    for order in (3, 1, 0, 2.0):
        with pytest.raises(DataError, match="filter order must be an even integer"):
            FilterSpec(LOW_PASS, high_hz=0.5, order=order)
    assert FilterSpec(LOW_PASS, high_hz=0.5, order=2).order == 2


_THREAD_SCRIPT = """
import hashlib
from emomsase.dataio import (CHANNEL_CATALOG, SyntheticSpec, default_synth_channels,
                             make_synthetic)
from emomsase.preprocess import preprocess_channel
piped = [ch for ch, row in CHANNEL_CATALOG.items() if row.chain is not None]
recs, _ = make_synthetic(SyntheticSpec(n_participants=1, seed=5, class_separation=1.0,
                                       channels=default_synth_channels(piped)))
h = hashlib.sha256()
for rec in recs:
    h.update(preprocess_channel(rec).values.tobytes())
print(len(recs), h.hexdigest())
"""


def test_conditioning_bytes_do_not_depend_on_blas_threads():
    src = str(Path(preprocess.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT], env=env, check=True,
                             capture_output=True, text=True).stdout
        digests.add(out.strip())
    assert len(digests) == 1, digests


# ---------------------------------------------------------------------------
# Moving average, upsampling, z-score
# ---------------------------------------------------------------------------

def test_moving_average_edge_truncation():
    npt.assert_allclose(moving_average(np.array([0.0, 3.0, 0.0]), 3),
                        [1.5, 1.0, 1.5])
    npt.assert_allclose(moving_average(np.ones(10), 4), np.ones(10))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), window=st.integers(1, 80), seed=_seeds)
def test_moving_average_keeps_length_for_any_window(n, window, seed):
    """Windows longer than the signal truncate to all of it at every sample."""
    x = np.random.default_rng(seed).standard_normal(n)
    out = moving_average(x, window)
    assert out.shape == (n,)
    npt.assert_allclose(out, moving_average_reference(x, window), atol=1e-12)


def test_moving_average_matches_reference():
    rng = np.random.default_rng(7)
    for window in (1, 2, 3, 5, 64):
        x = rng.standard_normal(200)
        npt.assert_allclose(moving_average(x, window),
                            moving_average_reference(x, window), atol=1e-12)
    with pytest.raises(PreprocessError):
        moving_average(x, 0)
    with pytest.raises(PreprocessError, match="empty signal"):
        moving_average(np.array([]), 3)


def test_upsample_ramp_stays_a_ramp():
    out = upsample(np.array([0.0, 16.0]), 4.0, 64.0)
    npt.assert_allclose(out, np.arange(32, dtype=np.float64))


def test_upsample_matches_reference():
    rng = np.random.default_rng(11)
    for n, frm, to in [(240, 4.0, 64.0), (60, 4.0, 64.0), (100, 32.0, 64.0),
                       (50, 3.0, 7.0)]:
        x = rng.standard_normal(n)
        got = upsample(x, frm, to)
        ref = upsample_reference(x, frm, to)
        assert got.shape == ref.shape == (int(round(n * to / frm)),)
        npt.assert_allclose(got, ref, atol=1e-12)


def test_upsample_edge_cases():
    npt.assert_allclose(upsample(np.array([5.0]), 4.0, 64.0), np.full(16, 5.0))
    npt.assert_allclose(upsample(np.array([1.0, 2.0]), 64.0, 64.0), [1.0, 2.0])
    with pytest.raises(PreprocessError):
        upsample(np.array([1.0, 2.0]), 64.0, 4.0)
    with pytest.raises(PreprocessError, match="empty signal"):
        upsample(np.array([]), 4.0, 64.0)


def test_zscore_population_moments():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(500) * 4.0 + 7.0
    z = zscore(x)
    npt.assert_allclose(z.mean(), 0.0, atol=1e-12)
    npt.assert_allclose(z.std(), 1.0, atol=1e-12)  # ddof=0
    npt.assert_allclose(z, (x - x.mean()) / x.std(ddof=0), atol=1e-12)
    with pytest.raises(PreprocessError, match="constant signal has no z-score"):
        zscore(np.full(10, 2.5))
    with pytest.raises(PreprocessError, match="z-score needs at least 2 samples"):
        zscore(np.array([1.0]))


# ---------------------------------------------------------------------------
# Tail and windowing
# ---------------------------------------------------------------------------

def test_take_tail_lengths():
    x = np.arange(3000.0)
    tail = take_tail(x, 2560)  # 40 s at 64 Hz
    assert tail.shape == (2560,)
    npt.assert_array_equal(tail, x[-2560:])
    with pytest.raises(PreprocessError, match="need 2560 samples, got 2559"):
        take_tail(np.zeros(2559), 2560)
    eye = take_tail(np.arange(2500.0), 2000)
    assert eye.shape == (2000,)
    with pytest.raises(PreprocessError, match="need 2000 samples, got 1999"):
        take_tail(np.zeros(1999), 2000)


def test_segment_layout_and_counts():
    rng = np.random.default_rng(13)
    for n, window in [(2560, 128), (10240, 512), (2000, 200), (700, 100)]:
        x = rng.standard_normal(n)
        tensor = segment(x, window)
        hop = window // 2
        assert tensor.values.shape[0] == count_windows_reference(n, window, hop)
        for t in range(tensor.values.shape[0]):
            npt.assert_array_equal(tensor.values[t], x[t * hop:t * hop + window])


def test_segment_rejects_bad_geometry():
    with pytest.raises(PreprocessError, match="window 128 exceeds signal length 100"):
        segment(np.zeros(100), 128)
    with pytest.raises(PreprocessError, match=r"non-integer hop 1\.5"):
        segment(np.zeros(100), 3)  # hop would be 1.5
    with pytest.raises(PreprocessError):
        segment(np.zeros(100), 0)


# Properties over random lengths and rates
@settings(max_examples=40, deadline=None)
@given(seed=_seeds, hop=st.integers(1, 64), extra=st.integers(0, 400))
def test_segment_rows_are_hop_spaced_slices(seed, hop, extra):
    window = 2 * hop
    x = np.random.default_rng(seed).standard_normal(window + extra)
    tensor = segment(x, window)
    assert tensor.values.shape[0] == count_windows_reference(x.shape[0], window, hop)
    for t in range(tensor.values.shape[0]):
        npt.assert_array_equal(tensor.values[t], x[t * hop:t * hop + window])


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, n=st.integers(1, 200), from_hz=st.integers(1, 64),
       ratio=st.floats(1.0, 20.0))
def test_upsample_length_and_values(seed, n, from_hz, ratio):
    to_hz = from_hz * ratio
    x = np.random.default_rng(seed).standard_normal(n)
    got = upsample(x, float(from_hz), to_hz)
    assert got.shape == (int(round(n * to_hz / from_hz)),)
    npt.assert_allclose(got, upsample_reference(x, from_hz, to_hz), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, n=st.integers(2, 500), scale=st.floats(0.5, 10.0),
       offset=st.floats(-10.0, 10.0))
def test_zscore_moments(seed, n, scale, offset):
    z = zscore(offset + scale * np.random.default_rng(seed).standard_normal(n))
    assert abs(z.mean()) <= 1e-12
    assert abs(z.std() - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 300), extra=st.integers(0, 300))
def test_take_tail_keeps_the_last_n(n, extra):
    x = np.arange(float(n + extra))
    npt.assert_array_equal(take_tail(x, n), x[extra:])
    with pytest.raises(PreprocessError, match=f"need {n + extra + 1} samples, got {n + extra}"):
        take_tail(x, n + extra + 1)


def test_expected_shapes_per_channel():
    assert (expected_timesteps("ACC_Z"), feature_size("ACC_Z")) == (39, 128)
    assert (expected_timesteps("EDA"), feature_size("EDA")) == (39, 128)
    assert (expected_timesteps("TEMP"), feature_size("TEMP")) == (39, 128)
    assert (expected_timesteps("ECG1"), feature_size("ECG1")) == (39, 512)
    assert (expected_timesteps("LAT_ACC"), feature_size("LAT_ACC")) == (39, 512)
    assert (expected_timesteps("L_EP_X"), feature_size("L_EP_X")) == (19, 200)
    with pytest.raises(PreprocessError):
        feature_size("MYSTERY")


# ---------------------------------------------------------------------------
# Full per-channel chains
# ---------------------------------------------------------------------------

def test_preprocess_channel_full_chain_shapes():
    piped = sorted(set(dataio.CHANNEL_CATALOG) - {"GSR"})  # GSR is recorded but left out
    assert piped == PIPED
    spec = SyntheticSpec(
        n_participants=1, seed=2, class_separation=1.0,
        channels=default_synth_channels(piped))
    recs, _ = make_synthetic(spec)
    recs = [r for r in recs if r.video_id in ("video01", "video02")]
    assert len(recs) == 2 * len(piped)
    for rec in recs:
        tensor = preprocess_channel(rec)
        assert tensor.values.shape == (expected_timesteps(rec.channel),
                                       feature_size(rec.channel))
        assert np.all(np.isfinite(tensor.values))
        assert tensor.source == (rec.participant_id, rec.video_id, rec.channel)


def test_every_piped_channel_has_a_chain():
    # synth can draw exactly the channels the pipeline conditions
    for row in CHANNEL_CATALOG.values():
        assert (row.tone_hz is None) == (row.chain is None), row


@settings(max_examples=40, deadline=None)
@given(channel=st.sampled_from(PIPED), seed=_seeds, extra=st.floats(0.0, 1.0))
def test_every_chain_gives_its_declared_shape(channel, seed, extra):
    chain = chain_for(channel)
    rate = dataio.CHANNEL_CATALOG[channel].synth_hz
    # the shortest stream that still fills the tail at the working rate
    shortest = chain.tail if chain.rate_hz is None else int(
        np.ceil(chain.tail * rate / chain.rate_hz))
    n = shortest + int(extra * shortest)
    rec = dataio.RawRecording(
        participant_id="p01", video_id="video01",
        domain=dataio.CHANNEL_CATALOG[channel].domain, channel=channel,
        sample_rate_hz=rate,
        timestamps_ms=np.round(np.arange(n) * 1000.0 / rate).astype(np.int64),
        values=np.random.default_rng(seed).standard_normal(n))
    tensor = preprocess_channel(rec)
    assert tensor.values.shape == (expected_timesteps(channel), feature_size(channel))


def test_temp_faster_than_working_rate_is_refused():
    # windowing a 128 Hz stream with the 64 Hz geometry would yield 1 s
    # windows over a 20 s tail under the usual 39x128 shape
    n = 60 * 128
    rec = dataio.RawRecording(
        participant_id="p01", video_id="video01", domain=dataio.Domain.PERIPHERAL,
        channel="TEMP", sample_rate_hz=128.0,
        timestamps_ms=np.round(np.arange(n) * 1000.0 / 128.0).astype(np.int64),
        values=np.random.default_rng(0).standard_normal(n))
    with pytest.raises(PreprocessError,
                       match=r"p01/video01/TEMP: cannot downsample 128 Hz to the 64 Hz"):
        preprocess_channel(rec)


def test_non_finite_conditioning_names_its_recording():
    values = np.random.default_rng(0).standard_normal(2500)
    values[7] = np.nan
    rec = dataio.RawRecording(
        participant_id="p01", video_id="video01", domain=dataio.Domain.HEAD,
        channel="L_EP_Y", sample_rate_hz=1.0,
        timestamps_ms=np.arange(2500, dtype=np.int64) * 1000, values=values)
    with pytest.raises(PreprocessError,
                       match="^p01/video01/L_EP_Y: non-finite values after conditioning$"):
        preprocess_channel(rec)


def test_preprocess_channel_rejects_unknown_channel():
    rec = dataio.RawRecording(
        participant_id="p01", video_id="v01", domain=dataio.Domain.HEAD,
        channel="MYSTERY", sample_rate_hz=64.0,
        timestamps_ms=np.arange(100, dtype=np.int64),
        values=np.zeros(100))
    with pytest.raises(PreprocessError):
        preprocess_channel(rec)


# ---------------------------------------------------------------------------
# Tensor cache
# ---------------------------------------------------------------------------

def _one_recording(seed=0, channel="EDA"):
    spec = SyntheticSpec(n_participants=1, seed=seed, class_separation=1.0,
                         channels=default_synth_channels([channel]))
    recs, _ = make_synthetic(spec)
    return recs[0]


def test_cache_key_depends_on_content_and_identity():
    rec = _one_recording()
    key = tensor_cache_key(rec)
    assert key == tensor_cache_key(rec)  # stable
    assert len(key) == 20

    other = _one_recording(seed=1)
    assert tensor_cache_key(other) != key

    renamed = dataio.RawRecording(
        participant_id="p99", video_id=rec.video_id, domain=rec.domain,
        channel=rec.channel, sample_rate_hz=rec.sample_rate_hz,
        timestamps_ms=rec.timestamps_ms, values=rec.values)
    assert tensor_cache_key(renamed) != key


def _key_from_copies(rec):
    """The cache key as it was built before it hashed the arrays' buffers."""
    h = hashlib.sha256()
    h.update(f"{rec.participant_id}|{rec.video_id}|{rec.channel}|"
             f"{rec.sample_rate_hz!r}|v3|{chain_for(rec.channel)!r}|{preprocess.OVERLAP!r}|"
             .encode())
    h.update(rec.timestamps_ms.astype("<i8").tobytes())
    h.update(rec.values.astype("<f8").tobytes())
    return h.hexdigest()[:20]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=_seeds, step=st.sampled_from([1, 2, 3]),
       ts_dtype=st.sampled_from(["<i8", ">i8", "<i4"]),
       value_dtype=st.sampled_from(["<f8", ">f8", "<f4"]))
def test_cache_key_hashes_the_same_bytes_as_copies(n, seed, step, ts_dtype, value_dtype):
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(1, 100, n * step)).astype(ts_dtype)[::step]
    values = rng.standard_normal(n * step).astype(value_dtype)[::step]
    rec = dataio.RawRecording(
        participant_id="p01", video_id="video01", domain=dataio.Domain.PERIPHERAL,
        channel="EDA", sample_rate_hz=64.0, timestamps_ms=ts, values=values)
    assert tensor_cache_key(rec) == _key_from_copies(rec)


def test_cache_key_follows_the_chain(monkeypatch):
    rec = _one_recording(channel="ACC_Z")
    key = tensor_cache_key(rec)
    row = CHANNEL_CATALOG["ACC_Z"]
    monkeypatch.setitem(CHANNEL_CATALOG, "ACC_Z", row._replace(chain=dataclasses.replace(
        row.chain, filter=dataclasses.replace(row.chain.filter, low_hz=0.4))))
    assert tensor_cache_key(rec) != key
    monkeypatch.setitem(CHANNEL_CATALOG, "ACC_Z", row._replace(
        chain=dataclasses.replace(row.chain, tail=row.chain.tail - 64)))
    assert tensor_cache_key(rec) != key
    monkeypatch.setitem(CHANNEL_CATALOG, "ACC_Z", row)
    assert tensor_cache_key(rec) == key


@pytest.mark.parametrize("channel, key", [
    ("ACC_X", "5a9206566623d155f8f7"),    # motion band at 64 Hz
    ("LAT_ACC", "598fbf036f0b03f1cbfa"),  # motion band at 256 Hz
    ("ECG1", "d0b4cc03c3b9e4471dcd"),
    ("BVP", "5c8d51399551d9130835"),
    ("EDA", "5f063da99085d9890e36"),
    ("TEMP", "3033ec14375dcc3f36c2"),
    ("L_EP_X", "be2c44c2d7ab1b67d69f"),   # eye trace
])
def test_cache_keys_stay_pinned(channel, key):
    # A chain whose repr changes re-keys, and so invalidates, every user's cached
    # tensors of its channel; such a change must come with a new version token.
    row = CHANNEL_CATALOG[channel]
    rec = dataio.RawRecording(
        participant_id="p01", video_id="video01", domain=row.domain, channel=channel,
        sample_rate_hz=row.synth_hz, timestamps_ms=np.arange(4, dtype=np.int64) * 250,
        values=np.array([0.5, -1.25, 2.0, 0.0]))
    assert tensor_cache_key(rec) == key


def test_tensor_save_load_round_trip(tmp_path):
    tensor = preprocess_channel(_one_recording())
    stem = tmp_path / "abc123"
    save_tensor(tensor, stem)
    assert stem.with_suffix(".bin").is_file()
    assert stem.with_suffix(".json").is_file()
    back = load_tensor(stem)
    npt.assert_array_equal(back.values, tensor.values)  # bit-exact
    assert back.values.dtype == np.float64
    assert back.source == tensor.source


def test_tensor_load_rejects_header_mismatch(tmp_path):
    tensor = preprocess_channel(_one_recording())
    stem = tmp_path / "bad"
    save_tensor(tensor, stem)
    sidecar = stem.with_suffix(".json")
    sidecar.write_text(sidecar.read_text().replace('"n_windows": 39',
                                                  '"n_windows": 38'))
    with pytest.raises(PreprocessError):
        load_tensor(stem)
