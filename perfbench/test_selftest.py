"""Self-tests of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 -m pytest perfbench

They need neither the program nor a benchmark run.
"""

import json
import statistics
import types
from pathlib import Path

import pytest

from spans import Tracer, self_times
from stats import (SAMPLES_BEYOND_TAIL, percentile, relative_spread, tail_percentile,
                   valid_name, valid_unit)

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n, expected", [(0, 50), (5, 50), (20, 50), (21, 52), (50, 80),
                                         (100, 90), (200, 95), (1000, 99), (10**6, 99)])
def test_tail_percentile_examples(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_keeps_ten_samples_beyond_and_is_the_highest_such():
    for n in range(20, 5000):
        p = tail_percentile(n)
        assert n * (1 - p / 100) >= SAMPLES_BEYOND_TAIL - 1e-9
        if p < 99:
            assert n * (1 - (p + 1) / 100) < SAMPLES_BEYOND_TAIL


def test_percentile_interpolates_and_handles_empty():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile(list(range(101)), 90) == 90.0
    assert percentile([], 50) == 0.0


def test_relative_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.5, 9.8, 10.1]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / q2)


def span(name, start, end, parent=-1):
    return [name, start, end, parent, None]


def test_self_time_subtracts_disjoint_children():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 3.0, 0), span("c", 5.0, 6.0, 0),
             span("d", 1.5, 2.0, 1)]
    assert self_times(spans) == pytest.approx([7.0, 1.5, 1.0, 0.5])


def test_self_time_counts_overlap_once_and_clips_to_the_parent():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 4.0, 0), span("c", 3.0, 5.0, 0),
             span("d", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_nests_spans_and_restores_attributes():
    tracer = Tracer()
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer.wrap(mod, "inner", "m.inner", tag=lambda a, k, r: r)
    tracer.wrap(mod, "outer", "m.outer")
    with tracer.span("root"):
        assert mod.outer(3) == 8
    names = [s[0] for s in tracer.spans]
    assert names == ["root", "m.outer", "m.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert tracer.spans[2][4] == 4
    assert all(s[1] <= s[2] for s in tracer.spans)
    tracer.restore()
    assert mod.inner is original


def test_tape_record_spans_are_named_by_the_recording_op():
    class Tape:
        def __init__(self):
            self.steps = []

        def record(self, fn):
            self.steps.append(fn)

    def lstm_layer(tape, out):
        def back():
            out.append("ran")
        tape.record(back)

    original = Tape.record
    tracer = Tracer()
    tracer.wrap_tape_record(Tape)
    tape, out = Tape(), []
    lstm_layer(tape, out)
    tape.steps[0]()
    tracer.restore()
    assert out == ["ran"]
    assert [s[0] for s in tracer.spans] == ["backward.lstm_layer"]
    assert Tape.record is original


@pytest.mark.parametrize("name", ["setup_s", "model.forward.ms_p50", "a-b.c_9",
                                  "9lives", "x" * 64])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é", "x" * 65])
def test_invalid_names(name):
    assert not valid_name(name)


def test_units():
    assert all(valid_unit(u) for u in ("s", "ms", "MB/s", "GFLOP/s", "count", "%", "1/s"))
    assert not any(valid_unit(u) for u in ("", "m s", "x" * 17))


def test_benchmark_json_follows_its_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    metric_names = [m["name"] for g in ("end_to_end", "per_layer") for m in spec[g]]
    assert all(valid_name(n) for n in names)
    assert len(set(metric_names)) == len(metric_names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(valid_unit(m["unit"]) and m["better"] in ("lower", "higher")
               for g in ("end_to_end", "per_layer") for m in spec[g])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for path in spec["paths"]:
        assert (ROOT / path).is_dir() and not path.startswith("/") and ".." not in path
