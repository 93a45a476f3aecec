"""Kernel micro-benchmarks: LSTM layer, Butterworth filtering, tensor cache I/O.

Each kernel is called through the program's public function on seeded
inputs, timed per call, and reported as the median over a fixed number of
repeats after one warm-up call.  Operation counts are computed from the
shapes, not measured: LSTM FLOPs count the matrix products only (two per
multiply-add); the elementwise gate math is left out.
"""

from __future__ import annotations

import time

import numpy as np

from emomsase import autodiff as ad
from emomsase import preprocess

from layers import stem_bytes
from stats import median

HIDDEN = 128
# (B, T, F): both batch sizes the program uses (training 16, predict 128)
# times the first-layer shapes of its three chains (64 Hz, 256 Hz, eye).
LSTM_SHAPES = tuple((b, t, f) for b in (16, 128) for t, f in ((39, 128), (39, 512), (19, 200)))
LSTM_REPEATS = 5
FILTER_RATES_HZ = (64.0, 256.0)
FILTER_SECONDS = 60.0  # one synthetic recording
FILTER_REPEATS = 30
FILTER_SPEC = preprocess.FilterSpec(preprocess.BAND_PASS, low_hz=0.5, high_hz=20.0)
CACHE_SHAPE = (39, 512)
CACHE_REPEATS = 40


def shape_label(b: int, t: int, f: int) -> str:
    return f"b{b}_t{t}_f{f}_h{HIDDEN}"


def lstm_flops(b: int, t: int, f: int) -> tuple[int, int]:
    """Computed (forward, backward) FLOPs of one layer over a leaf input.

    Forward: input projection (BT x F) @ (F x 4H) and T recurrent
    (B x H) @ (H x 4H).  Backward: dW_h and dh per step, and dW_x; no dx,
    because the input is a leaf, as for the first layer of the model.
    """
    fwd = 2 * b * t * 4 * HIDDEN * (f + HIDDEN)
    bwd = 2 * b * t * 4 * HIDDEN * (f + 2 * HIDDEN)
    return fwd, bwd


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_lstm(rng: np.random.Generator) -> dict[str, dict]:
    out = {}
    for b, t, f in LSTM_SHAPES:
        x = ad.leaf(rng.standard_normal((b, t, f)))
        wx = ad.Param("wx", rng.uniform(-0.05, 0.05, (f, 4 * HIDDEN)))
        wh = ad.Param("wh", rng.uniform(-0.05, 0.05, (HIDDEN, 4 * HIDDEN)))
        bias = ad.Param("b", np.zeros(4 * HIDDEN))
        fwd_s, bwd_s = [], []
        for rep in range(LSTM_REPEATS + 1):
            tape = ad.Tape()
            t0 = time.perf_counter()
            h = ad.lstm_layer(tape, x, wx, wh, bias)
            t1 = time.perf_counter()
            tape.backward(h)  # a one-op tape: only the LSTM closure replays
            t2 = time.perf_counter()
            if rep:
                fwd_s.append(t1 - t0)
                bwd_s.append(t2 - t1)
        fwd_flops, bwd_flops = lstm_flops(b, t, f)
        fwd, bwd = median(fwd_s), median(bwd_s)
        out[shape_label(b, t, f)] = {
            "fwd_ms": 1000.0 * fwd, "bwd_ms": 1000.0 * bwd,
            "fwd_flops_computed": fwd_flops, "bwd_flops_computed": bwd_flops,
            "gflop_s": (fwd_flops + bwd_flops) / (fwd + bwd) / 1e9,
        }
    return out


def bench_filter(rng: np.random.Generator) -> dict[str, dict]:
    out = {}
    for rate in FILTER_RATES_HZ:
        signal = rng.standard_normal(int(FILTER_SECONDS * rate))
        preprocess.butterworth_filter(signal, rate, FILTER_SPEC)
        per_call = median([_timed(lambda: preprocess.butterworth_filter(signal, rate, FILTER_SPEC))
                           for _ in range(FILTER_REPEATS)])
        out[f"{int(rate)}hz"] = {
            "ms": 1000.0 * per_call, "samples": signal.shape[0],
            "bytes_moved_computed": 2 * signal.nbytes,  # read input, write output
            "msample_s": signal.shape[0] / per_call / 1e6,
        }
    return out


def bench_cache_io(rng: np.random.Generator, work_dir) -> dict[str, dict]:
    tensor = preprocess.WindowedTensor(values=rng.standard_normal(CACHE_SHAPE),
                                       source=("p00", "video00", "LAT_ACC"))
    stem = work_dir / "kernel_tensor"
    preprocess.save_tensor(tensor, stem)
    nbytes = stem_bytes(stem)
    save = median([_timed(lambda: preprocess.save_tensor(tensor, stem))
                   for _ in range(CACHE_REPEATS)])
    load = median([_timed(lambda: preprocess.load_tensor(stem)) for _ in range(CACHE_REPEATS)])
    loaded = preprocess.load_tensor(stem)
    if not np.array_equal(loaded.values, tensor.values):
        raise AssertionError("load_tensor did not return what save_tensor wrote")
    return {
        "save_tensor": {"ms": 1000.0 * save, "bytes_moved": nbytes, "mb_per_s": nbytes / save / 1e6},
        "load_tensor": {"ms": 1000.0 * load, "bytes_moved": nbytes, "mb_per_s": nbytes / load / 1e6},
    }


def run_kernels(seed: int, work_dir) -> tuple[dict, dict[str, tuple[float, str]]]:
    """All micro-benchmarks: (full report, per-layer metrics)."""
    rng = np.random.default_rng(seed)
    report = {"lstm_layer": bench_lstm(rng), "butterworth_filter": bench_filter(rng),
              "cache_io": bench_cache_io(rng, work_dir)}
    m: dict[str, tuple[float, str]] = {}
    for label, r in report["lstm_layer"].items():
        m[f"autodiff.lstm_layer.fwd_ms.{label}"] = (r["fwd_ms"], "ms")
        m[f"autodiff.lstm_layer.bwd_ms.{label}"] = (r["bwd_ms"], "ms")
        m[f"autodiff.lstm_layer.gflop_s.{label}"] = (r["gflop_s"], "GFLOP/s")
    for label, r in report["butterworth_filter"].items():
        m[f"preprocess.butterworth_filter.ms_p50.{label}"] = (r["ms"], "ms")
    for fn, r in report["cache_io"].items():
        m[f"preprocess.{fn}.mb_per_s"] = (r["mb_per_s"], "MB/s")
    return report, m
