"""What the traced run wraps, and the per-layer metrics its spans give.

Every wrapped name is a module or class attribute that the program itself
looks up at call time (``cli`` calls ``preprocess.*`` and ``evaluate.*``
through the module, ``model`` calls ``ad.lstm_layer``, ``evaluate`` calls
its own global ``fit``), so replacing the attribute traces the program's own
calls without editing it.  Metrics are per traced pass: totals are divided
by the number of traced passes.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from pathlib import Path

from emomsase import autodiff, dataio, evaluate, model, preprocess, train

from spans import END, NAME, PARENT, START, TAG, Tracer, self_times
from stats import median, percentile, tail_percentile

CHAINS = ("band64", "band256", "eda", "temp", "eye")

# Ops whose backward closures the default model records.
BACKWARD_OPS = ("lstm_layer", "dot_last", "softmax", "weighted_sum",
                "merge_pairs_mean", "concat", "stack_rows", "mean_axis",
                "matmul", "relu", "sigmoid", "mul", "reshape", "add", "nll_mean")

# Per-layer metrics the ingest probe measures; every other metric comes from
# the workload's own traced passes.
PROBE_LAYERS = ("dataio.", "preprocess.tensor_cache_key.", "preprocess.cache_hit_ratio.",
                "preprocess.preprocess_channel.", "preprocess.butterworth_filter.",
                "preprocess.save_tensor.")

FORWARD = "model.EmoMsase.forward"
FIT = "train.fit"
LSTM = "autodiff.lstm_layer"
LSTM_BACKWARD = "backward.lstm_layer"


def chain_of(rec) -> str:
    """Conditioning chain a recording runs through (see preprocess_channel)."""
    if rec.channel in dataio.EYE_CHANNELS:
        return "eye"
    if rec.channel in ("EDA", "TEMP"):
        return rec.channel.lower()
    rate = preprocess.feature_size(rec.channel) / preprocess.WINDOW_SECONDS
    return f"band{int(rate)}"


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def stem_bytes(stem) -> int:
    stem = Path(stem)
    return stem.with_suffix(".bin").stat().st_size + stem.with_suffix(".json").stat().st_size


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer; ``tracer.restore()`` undoes it."""
    w = tracer.wrap
    w(dataio, "make_synthetic", "dataio.make_synthetic")
    w(dataio, "write_dataset", "dataio.write_dataset", tag=lambda a, k, r: dir_bytes(a[2]))
    w(dataio, "load_recordings", "dataio.load_recordings",
      tag=lambda a, k, r: dir_bytes(a[0]))
    w(preprocess, "tensor_cache_key", "preprocess.tensor_cache_key")
    w(preprocess, "preprocess_channel", "preprocess.preprocess_channel",
      tag=lambda a, k, r: chain_of(a[0]))
    w(preprocess, "butterworth_filter", "preprocess.butterworth_filter")
    w(preprocess, "save_tensor", "preprocess.save_tensor", tag=lambda a, k, r: stem_bytes(a[1]))
    w(preprocess, "load_tensor", "preprocess.load_tensor", tag=lambda a, k, r: stem_bytes(a[0]))
    w(autodiff, "lstm_layer", LSTM)
    w(autodiff.Tape, "backward", "autodiff.Tape.backward")
    tracer.wrap_tape_record(autodiff.Tape)
    w(model, "msa", "model.msa")
    w(model, "se_recalibrate", "model.se_recalibrate")
    w(model, "fuse_and_classify", "model.fuse_and_classify")
    w(model.EmoMsase, "forward", FORWARD)
    w(model.EmoMsase, "predict", "model.EmoMsase.predict")
    w(evaluate, "fit", FIT)
    w(train, "evaluate_loss", "train.evaluate_loss")
    w(train.AdamW, "step", "train.AdamW.step")
    w(evaluate, "build_labeled_set", "evaluate.build_labeled_set")
    w(evaluate, "run_experiment", "evaluate.run_experiment")
    w(evaluate, "write_results_csv", "evaluate.write_results_csv")
    w(evaluate, "write_report_json", "evaluate.write_report_json")
    # Called once at the top of each fold inside run_experiment: a fold marker.
    w(evaluate.Fold, "check_disjoint", "evaluate.Fold.check_disjoint")


class Profile:
    """Span statistics of the traced passes of one run."""

    def __init__(self, spans: list[list], n_passes: int):
        self.spans = spans
        self.n = max(1, n_passes)
        self.selfs = self_times(spans)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.stage: list[str | None] = []
        for i, s in enumerate(spans):
            self.by_name[s[NAME]].append(i)
            # parents are opened, hence appended, before their children
            inherited = self.stage[s[PARENT]] if s[PARENT] >= 0 else None
            self.stage.append(s[NAME] if s[NAME].startswith("stage.") else inherited)
        self.starts = [s[START] for s in spans]

    def dur(self, i: int) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def total(self, name: str) -> float:
        return sum(self.dur(i) for i in self.by_name[name]) / self.n

    def self_total(self, name: str) -> float:
        return sum(self.selfs[i] for i in self.by_name[name]) / self.n

    def count(self, name: str) -> float:
        return len(self.by_name[name]) / self.n

    def ms(self, name: str) -> list[float]:
        return [1000.0 * self.dur(i) for i in self.by_name[name]]

    def parent_name(self, i: int) -> str | None:
        p = self.spans[i][PARENT]
        return self.spans[p][NAME] if p >= 0 else None

    def names(self) -> set[str]:
        """Names of the spans recorded (``by_name`` also holds empty lookups)."""
        return {name for name, idx in self.by_name.items() if idx}

    def hit_ratio(self, stage: str) -> float:
        keys = [i for i in self.by_name["preprocess.tensor_cache_key"] if self.stage[i] == stage]
        misses = [i for i in self.by_name["preprocess.preprocess_channel"]
                  if self.stage[i] == stage]
        return 1.0 - len(misses) / len(keys) if keys else 0.0

    def steps(self) -> list[tuple[float, float]]:
        """Train steps: from a forward called by fit to the next AdamW.step end."""
        out, start = [], None
        for i, s in enumerate(self.spans):
            if s[NAME] == FORWARD and self.parent_name(i) == FIT:
                start = s[START]
            elif s[NAME] == "train.AdamW.step" and start is not None:
                out.append((start, s[END]))
                start = None
        return out

    def step_shares(self) -> dict[str, float]:
        """Self time per span name inside train steps, as a share of step time.

        LSTM forward and backward share the key ``lstm_layer``; time no
        traced span covers is ``untraced``.
        """
        steps = self.steps()
        total = sum(e - s for s, e in steps)
        if not total:
            return {}
        buckets: dict[str, float] = defaultdict(float)
        for s, e in steps:
            lo = bisect.bisect_left(self.starts, s)
            hi = bisect.bisect_right(self.starts, e)
            for i in range(lo, hi):
                if self.spans[i][END] <= e:
                    name = self.spans[i][NAME]
                    key = "lstm_layer" if name in (LSTM, LSTM_BACKWARD) else name
                    buckets[key] += self.selfs[i]
        buckets["untraced"] = total - sum(buckets.values())
        return {k: v / total for k, v in buckets.items()}

    def folds(self) -> list[float]:
        out = []
        for r in self.by_name["evaluate.run_experiment"]:
            marks = [self.spans[i][START] for i in self.by_name["evaluate.Fold.check_disjoint"]
                     if self.spans[i][PARENT] == r]
            bounds = marks + [self.spans[r][END]]
            out.extend(b - a for a, b in zip(bounds, bounds[1:]))
        return out

    def tail(self, values: list[float]) -> float:
        return percentile(values, tail_percentile(len(values)))

    def metrics(self) -> dict[str, tuple[float, str]]:
        m: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            m[name] = (float(value), unit)

        def tagged_mb(name):
            return sum(self.spans[i][TAG] or 0 for i in self.by_name[name]) / 1e6 / self.n

        put("dataio.make_synthetic.s", self.total("dataio.make_synthetic"), "s")
        put("dataio.write_dataset.s", self.total("dataio.write_dataset"), "s")
        put("dataio.write_dataset.mb", tagged_mb("dataio.write_dataset"), "MB")
        load_s = self.total("dataio.load_recordings")
        put("dataio.load_recordings.s", load_s, "s")
        put("dataio.load_recordings.mb_per_s",
            tagged_mb("dataio.load_recordings") / load_s if load_s else 0.0, "MB/s")

        put("preprocess.tensor_cache_key.s", self.total("preprocess.tensor_cache_key"), "s")
        put("preprocess.cache_hit_ratio.cold", self.hit_ratio("stage.preprocess_cold"), "ratio")
        put("preprocess.cache_hit_ratio.warm", self.hit_ratio("stage.preprocess_warm"), "ratio")
        put("preprocess.preprocess_channel.s", self.total("preprocess.preprocess_channel"), "s")
        for chain in CHAINS:
            ms = [1000.0 * self.dur(i) for i in self.by_name["preprocess.preprocess_channel"]
                  if self.spans[i][TAG] == chain]
            put(f"preprocess.preprocess_channel.ms_p50.{chain}", median(ms), "ms")
        put("preprocess.butterworth_filter.calls",
            self.count("preprocess.butterworth_filter"), "count")
        put("preprocess.butterworth_filter.s", self.total("preprocess.butterworth_filter"), "s")
        for fn in ("save_tensor", "load_tensor"):
            put(f"preprocess.{fn}.s", self.total(f"preprocess.{fn}"), "s")
            put(f"preprocess.{fn}.mb", tagged_mb(f"preprocess.{fn}"), "MB")

        backward_ms = self.ms("autodiff.Tape.backward")
        put("autodiff.Tape.backward.ms_p50", median(backward_ms), "ms")
        put("autodiff.Tape.backward.ms_tail", self.tail(backward_ms), "ms")
        put("autodiff.Tape.backward.calls", self.count("autodiff.Tape.backward"), "count")
        for op in BACKWARD_OPS:
            put(f"autodiff.backward.{op}.s", self.self_total(f"backward.{op}"), "s")

        forward_ms = self.ms(FORWARD)
        put("model.forward.ms_p50", median(forward_ms), "ms")
        put("model.forward.ms_tail", self.tail(forward_ms), "ms")
        put("model.forward.calls", self.count(FORWARD), "count")
        put("model.predict.s", self.total("model.EmoMsase.predict"), "s")
        lstm_in_forward = sum(self.selfs[i] for i in self.by_name[LSTM]
                              if self.parent_name(i) == FORWARD)
        forward_s = sum(forward_ms) / 1000.0
        put("model.lstm_share", lstm_in_forward / forward_s if forward_s else 0.0, "ratio")
        for fn in ("msa", "se_recalibrate", "fuse_and_classify"):
            put(f"model.{fn}.s", self.total(f"model.{fn}"), "s")

        step_ms = [1000.0 * (e - s) for s, e in self.steps()]
        put("train.step.ms_p50", median(step_ms), "ms")
        put("train.step.ms_tail", self.tail(step_ms), "ms")
        put("train.step.lstm_share", self.step_shares().get("lstm_layer", 0.0), "ratio")
        put("train.AdamW.step.ms_p50", median(self.ms("train.AdamW.step")), "ms")
        put("train.evaluate_loss.s", self.total("train.evaluate_loss"), "s")
        put("train.fit.steps", self.count("train.AdamW.step"), "count")
        put("train.fit.epochs", self.count("train.evaluate_loss"), "count")

        put("evaluate.build_labeled_set.s", self.total("evaluate.build_labeled_set"), "s")
        put("evaluate.run_experiment.fold_s_p50", median(self.folds()), "s")
        put("evaluate.write_results_csv.s", self.total("evaluate.write_results_csv"), "s")
        put("evaluate.write_report_json.s", self.total("evaluate.write_report_json"), "s")
        return m

    def sample_counts(self) -> dict[str, dict]:
        """Sample count and tail percentile behind each percentile metric."""
        out = {}
        for label, values in (("autodiff.Tape.backward", self.ms("autodiff.Tape.backward")),
                              ("model.forward", self.ms(FORWARD)),
                              ("train.step", [e - s for s, e in self.steps()])):
            out[label] = {"n": len(values), "tail_percentile": tail_percentile(len(values))}
        return out
