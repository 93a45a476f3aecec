"""The workloads: set-up, one timed pass, and the correctness gates.

Every set-up builds the same kind of input from the workload seed: a
synthetic dataset made in memory and conditioned into a tensor cache
through the library (no CSV round trip).  The timed pass then drives the
program the way a user does: through ``cli.main`` for the batch commands,
and for inference through the loader and stacking ``run`` uses, then
``EmoMsase.predict``.  Each pass is a sequence of named stages; a stage is
one span ``stage.<name>`` and the pass time is the sum of its stages, so
the gates, which run between and after stages, are not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np

from emomsase import cli, dataio, evaluate, preprocess
from emomsase.dataio import LabelLookup
from emomsase.model import EmoMsase

SEPARATION = 2.0
# Test accuracy the train workload must reach; the seed commit scores 1.0
# on this data with one epoch.
ACCURACY_FLOOR = 0.75
PREDICT_BATCH = 128
FORWARD_BATCH = 16
AGREEMENT_SAMPLES = 32
# Largest allowed |predict - forward| and |row sum - 1| of a probability.
PROB_TOLERANCE = 1e-9

_PREPROCESS_LINE = re.compile(r"^(\S+): (\d+) recordings -> (\d+)x(\d+) \((\d+) cached\)$")


def default_channels() -> list[str]:
    """The channels `emomsase synth` and `run` use by default, in their order."""
    return [ch for d in cli.DEFAULTS["domains"] for ch in cli.DEFAULTS["channels"][d]]


class CommandFailed(RuntimeError):
    pass


def run_cli(*argv) -> str:
    """Run one CLI command in this process and return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code:
        raise CommandFailed(f"emomsase {argv[0]} exited {code}")
    return out.getvalue()


def build_cache(root: Path, seed: int, participants: int) -> tuple[Path, Path, int]:
    """Synthesise, condition and cache a dataset; return (cache, ratings, recordings)."""
    spec = dataio.SyntheticSpec(
        n_participants=participants, seed=seed, class_separation=SEPARATION,
        channels=dataio.default_synth_channels(default_channels()))
    recordings, ratings = dataio.make_synthetic(spec)
    cache = root / "cache"
    cache.mkdir(parents=True)
    for rec in recordings:
        preprocess.save_tensor(preprocess.preprocess_channel(rec),
                               cache / preprocess.tensor_cache_key(rec))
    dataio.write_dataset([], ratings, root / "data")
    return cache, root / "data" / "ratings.csv", len(recordings)


def chain_shape(channel: str) -> tuple[int, int]:
    return preprocess.expected_timesteps(channel), preprocess.feature_size(channel)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _stats(directory: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir()}


def _preprocess_counts(stdout: str) -> tuple[int, int, dict[str, tuple[int, int]]]:
    """(recordings, cache hits, channel -> shape) from `emomsase preprocess` output."""
    n = hits = 0
    shapes = {}
    for line in stdout.splitlines():
        m = _PREPROCESS_LINE.match(line)
        if m:
            n += int(m[2])
            hits += int(m[5])
            shapes[m[1]] = (int(m[3]), int(m[4]))
    return n, hits, shapes


class Workload:
    participants: int

    def samples(self) -> int:
        """Participant-video samples in the workload's dataset."""
        return self.participants * dataio.N_VIDEOS


class Ingest(Workload):
    """`emomsase synth`, then `preprocess` into an empty cache, then again.

    Not a timed workload: on a shared 2-vCPU host its pass time spread
    0.18 to 0.47 (IQR / median) over ten runs, against a bound of 0.24 to 0.25.
    Each traced run instead runs one traced pass of it as a probe, which
    measures the dataio and preprocess layers and the ingest stages.
    """

    name = "ingest"
    participants = 1
    stages = ("synth", "preprocess_cold", "preprocess_warm")

    def setup(self, root: Path, seed: int) -> dict:
        cache, _, n = build_cache(root / "reference", seed, self.participants)
        return {"seed": seed, "reference": _files(cache), "recordings": n}

    def run_pass(self, st: dict, tracer, pass_dir: Path) -> dict:
        data, cache = pass_dir / "data", pass_dir / "cache"
        with tracer.span("stage.synth"):
            run_cli("synth", "--out", data, "--participants", self.participants,
                    "--separation", SEPARATION, "--seed", st["seed"])
        with tracer.span("stage.preprocess_cold"):
            cold = run_cli("preprocess", "--data", data, "--cache", cache)
        before = _stats(cache)
        with tracer.span("stage.preprocess_warm"):
            warm = run_cli("preprocess", "--data", data, "--cache", cache)
        return {"cache": cache, "cold": cold, "warm": warm, "before": before}

    def check(self, st: dict, out: dict) -> tuple[list[str], object]:
        fails = []
        n_rec = st["recordings"]
        n, hits, shapes = _preprocess_counts(out["cold"])
        if (n, hits) != (n_rec, 0):
            fails.append(f"cold pass: {hits} hits over {n} recordings, expected 0 over {n_rec}")
        n, hits, _ = _preprocess_counts(out["warm"])
        if (n, hits) != (n_rec, n_rec):
            fails.append(f"warm pass: {hits} hits over {n} recordings, expected all {n_rec}")
        if _stats(out["cache"]) != out["before"]:
            fails.append("warm pass rewrote the cache")
        for channel, shape in shapes.items():
            if shape != chain_shape(channel):
                fails.append(f"{channel}: tensors {shape}, chain gives {chain_shape(channel)}")
        for sidecar in out["cache"].glob("*.json"):
            tensor = preprocess.load_tensor(sidecar.with_suffix(""))
            if tensor.values.shape != chain_shape(tensor.source[2]):
                fails.append(f"{sidecar.stem}: shape {tensor.values.shape}")
        if _files(out["cache"]) != st["reference"]:
            fails.append("cache differs from the library's conditioning of the same data")
        return fails, None

    def expectations(self, profile) -> dict[str, bool]:
        model_side = [n for n in profile.names()
                      if n.split(".")[0] in ("autodiff", "model", "backward", "train")]
        return {"no autodiff or model spans": not model_side}


class Train(Workload):
    """`emomsase run` with the default model, kfold5, valence, a fixed epoch budget."""

    name = "train"
    participants = 5
    epochs = 1
    stages = ("run",)

    def setup(self, root: Path, seed: int) -> dict:
        cache, ratings, _ = build_cache(root, seed, self.participants)
        config = root / "config.json"
        config.write_text(json.dumps({"train": {"max_epochs": self.epochs, "patience": 0}}))
        return {"cache": cache, "ratings": ratings, "config": config}

    def run_pass(self, st: dict, tracer, pass_dir: Path) -> Path:
        out = pass_dir / "out"
        with tracer.span("stage.run"):
            run_cli("run", "--cache", st["cache"], "--ratings", st["ratings"],
                    "--target", "valence", "--config", st["config"], "--out", out)
        return out

    def check(self, st: dict, out: Path) -> tuple[list[str], object]:
        results = (out / "results.csv").read_bytes()
        report = (out / "report.json").read_bytes()
        rows = [line.split(",") for line in results.decode().splitlines()[1:]]
        accuracy = [float(r[3]) for r in rows if r[2] == "valence_accuracy"]
        fails = []
        if len(accuracy) != 1 or accuracy[0] < ACCURACY_FLOOR:
            fails.append(f"valence accuracy {accuracy} below the floor {ACCURACY_FLOOR}")
        return fails, (results, report)

    def finish(self, st: dict, records: list) -> list[tuple[int, str]]:
        done = [(i, r) for i, r in enumerate(records) if r is not None]
        return [(i, "results.csv or report.json differs from the first pass")
                for i, r in done[1:] if r != done[0][1]]

    def expectations(self, profile) -> dict[str, bool]:
        shares = profile.step_shares()
        lstm = shares.pop("lstm_layer", 0.0)
        return {"lstm_layer forward + backward is the largest share of a train step":
                bool(shares) and lstm > max(shares.values())}


class Infer(Workload):
    """Load and stack the whole cache the way `run` does, then `EmoMsase.predict`."""

    name = "infer"
    participants = 10
    stages = ("cache_load", "predict")

    def setup(self, root: Path, seed: int) -> dict:
        cache, ratings, _ = build_cache(root, seed, self.participants)
        settings = dict(cli.DEFAULTS)
        config = cli._model_config(settings)
        ratings = dataio.load_ratings(ratings)
        videos = sorted({r.video_id for r in ratings})
        lookup = LabelLookup(cli._resolve_labels(settings, ratings, videos), "valence")
        return {"cache": cache, "model": EmoMsase(config), "channels": config.channels,
                "labels": lookup, "inputs": None}

    def run_pass(self, st: dict, tracer, pass_dir: Path) -> np.ndarray:
        with tracer.span("stage.cache_load"):
            samples = cli._load_samples(st["cache"])
            pids = tuple(sorted({s.participant_id for s in samples}))
            st["inputs"] = evaluate.build_labeled_set(samples, st["labels"], st["channels"],
                                                      pids).inputs
        with tracer.span("stage.predict"):
            return st["model"].predict(st["inputs"], batch_size=PREDICT_BATCH)

    def check(self, st: dict, probs: np.ndarray) -> tuple[list[str], object]:
        fails = []
        if probs.shape != (self.samples(), 2):
            fails.append(f"probabilities have shape {probs.shape}")
        if not np.all(np.isfinite(probs)):
            fails.append("non-finite probabilities")
        elif np.max(np.abs(probs.sum(axis=1) - 1.0)) > PROB_TOLERANCE:
            fails.append("a probability row does not sum to 1")
        return fails, probs

    def finish(self, st: dict, records: list) -> list[tuple[int, str]]:
        done = [(i, r) for i, r in enumerate(records) if r is not None]
        if not done:
            return []
        fails = [(i, "predictions differ from the first pass")
                 for i, r in done[1:] if not np.array_equal(r, done[0][1])]
        last_i, last = done[-1]
        for start in range(0, AGREEMENT_SAMPLES, FORWARD_BATCH):
            part = {ch: x[start:start + FORWARD_BATCH] for ch, x in st["inputs"].items()}
            probs, _ = st["model"].forward(part)
            gap = np.max(np.abs(probs.value - last[start:start + FORWARD_BATCH]))
            if not gap <= PROB_TOLERANCE:
                fails.append((last_i, f"predict and B={FORWARD_BATCH} forward differ by {gap:.3g}"))
        return fails

    def expectations(self, profile) -> dict[str, bool]:
        backward = [n for n in profile.names()
                    if n in ("autodiff.Tape.backward", "train.AdamW.step")
                    or n.startswith("backward.")]
        return {"no backward or AdamW spans": not backward}


WORKLOADS = {w.name: w for w in (Train(), Infer())}
INGEST_PROBE = Ingest()
