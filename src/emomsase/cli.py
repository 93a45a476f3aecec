"""Batch entry points: synthesize, preprocess, train/evaluate, check, report.

Settings resolve in three layers: built-in defaults, then a JSON config
file (--config), then explicit command-line flags.  Unknown config keys
are rejected.  The tensor cache directory can also come from the
EMOMSASE_CACHE environment variable.

Exit codes: 0 success, 1 runtime failure (missing files, bad data),
2 usage errors.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from . import dataio, evaluate, preprocess
from .autodiff import NonFiniteActivationError, TapeConsumedError
from .dataio import (BEST_CHANNELS, CHANNEL_CATALOG, DIMENSIONS, BoundaryPolicy, Domain,
                     LabelCase, LabelLookup)
from .gradcheck import grad_check, micro_config
from .model import ModelConfig, VARIANTS
from .train import DTYPE, TrainConfig

CACHE_ENV = "EMOMSASE_CACHE"

SPLITS = {
    "kfold5": lambda pids, seed: evaluate.group_kfold(pids, k=5, seed=seed),
    "loso": lambda pids, seed: evaluate.loso(pids),
}

# the allowed values of each choice setting, as flag or config entry
CHOICES = {
    "labels": tuple(c.value for c in LabelCase),
    "boundary": tuple(b.value for b in BoundaryPolicy),
    "split": tuple(SPLITS),
    "fusion": evaluate.FUSION_MODES,
    "variant": VARIANTS,
    "target": (*DIMENSIONS, "both"),
}


DEFAULTS = {
    **{f.name: f.default for f in fields(ModelConfig) if f.default is not MISSING},
    "labels": "general",
    "boundary": "le4",
    "domains": [d.value for d in Domain],
    "channels": {d.value: [ch for ch in BEST_CHANNELS if CHANNEL_CATALOG[ch].domain is d]
                 for d in Domain},
    "split": "kfold5",
    "fusion": "modality",
    "target": "both",
    "train": {f.name: f.default for f in fields(TrainConfig) if f.name != "seed"},
    "synth": {  # drawn for the channels that run reads
        "participants": 24,
        "separation": 2.0,
    },
    "cache": None,
    "ratings": None,
    "g2": None,
    "out": None,
}


class UsageError(Exception):
    pass


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(cfg) - set(DEFAULTS))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    for key in ("train", "synth"):
        if not isinstance(cfg.get(key, {}), dict):
            raise UsageError(f"config key {key} must hold a JSON object")
        bad = sorted(set(cfg.get(key, {})) - set(DEFAULTS[key]))
        if bad:
            raise UsageError(f"unknown {key} config key(s): {', '.join(bad)}")
    return cfg


def resolve_settings(args: argparse.Namespace) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    settings = copy.deepcopy(DEFAULTS)
    file_cfg = _load_config_file(getattr(args, "config", None))
    for key, value in file_cfg.items():
        if isinstance(value, dict) and isinstance(settings.get(key), dict):
            settings[key].update(value)
        else:
            settings[key] = value
    for key, value in vars(args).items():  # a flag is named after what it sets
        if value is None:
            continue
        if key in DEFAULTS:
            settings[key] = value
        elif key in DEFAULTS["synth"]:
            settings["synth"][key] = value
    if settings["cache"] is None:
        settings["cache"] = os.environ.get(CACHE_ENV)
    for key in ("cache", "ratings", "g2", "out"):
        if not (settings[key] is None or isinstance(settings[key], str)):
            raise UsageError(f"setting {key} must be a path string, not {settings[key]!r}")
    for key in ("cache", "out"):  # the directory settings
        if settings[key] is not None and Path(settings[key]).is_file():
            raise UsageError(f"setting {key} names a file, not a directory: {settings[key]}")
    for key, choices in CHOICES.items():
        if settings[key] not in choices:
            raise UsageError(f"setting {key} must be one of {', '.join(choices)}, "
                             f"not {settings[key]!r}")
    if _cast("seed", settings["seed"], int) < 0:
        raise UsageError(f"setting seed must be >= 0, not {settings['seed']!r}")
    settings["domains"] = _parse_domains(settings["domains"])
    _check_channels(settings["channels"])
    return settings


def _parse_domains(spec: str | list) -> list[str]:
    """Domain names, from a comma string or a list, in ``Domain`` order."""
    canon = {d.value.lower(): d.value for d in Domain}
    tokens = spec.split(",") if isinstance(spec, str) else spec
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise UsageError(f"setting domains must be a list of names, not {spec!r}")
    picked = [token.strip().lower() for token in tokens if token.strip()]
    for token in picked:
        if token not in canon:
            raise UsageError(f"unknown domain {token!r} (choose from {', '.join(canon)})")
    if not picked:
        raise UsageError("no domains given")
    return [d for token, d in canon.items() if token in picked]


def _check_channels(channels) -> None:
    """``channels`` maps domains to lists, each of which ``dataio.check_channels`` judges."""
    if not (isinstance(channels, dict) and all(isinstance(v, list) for v in channels.values())):
        raise UsageError(f"setting channels must map domains to lists, not {channels!r}")
    domains = [d.value for d in Domain]
    for domain, names in channels.items():
        if domain not in domains:
            raise UsageError(f"channels key {domain!r} is not a domain "
                             f"(choose from {', '.join(domains)})")
        try:
            dataio.check_channels(names, domain)
        except dataio.DataError as exc:
            raise UsageError(f"setting channels: {exc}") from None


def _layout(settings: dict) -> list[tuple[str, tuple[str, ...]]]:
    """The (domain, channels) pairs that synth draws and run reads: each
    selected domain that names channels, in ``Domain`` order."""
    layout = [(domain, tuple(settings["channels"][domain]))
              for domain in settings["domains"] if settings["channels"].get(domain)]
    if not layout:
        raise UsageError("no channels configured for the selected domains")
    return layout


def _model_config(settings: dict) -> ModelConfig:
    domain_channels = _layout(settings)
    feature_sizes = {ch: preprocess.feature_size(ch)
                     for _, chs in domain_channels for ch in chs}
    return _record(ModelConfig, settings, domain_channels=tuple(domain_channels),
                   feature_sizes=feature_sizes)


def _train_config(settings: dict) -> TrainConfig:
    return _record(TrainConfig, {**settings["train"], "seed": settings["seed"]})


def _record(record, values: dict, **given):
    """``record`` from ``given`` and each of ``values`` that names another of
    its fields, cast to the type of that field's default."""
    for f in fields(record):
        if f.name in values:
            given[f.name] = _cast(f.name, values[f.name], type(f.default))
    return record(**given)


def _cast(key: str, value, kind: type):
    """``value`` cast to ``kind``; a usage error names the setting ``key``.
    Neither a bool nor a string is a number, and an int setting refuses a fraction."""
    try:
        if isinstance(value, bool) or (isinstance(value, str) and kind is not str) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"setting {key} must be of type {kind.__name__}, "
                         f"not {value!r}") from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    if settings["out"] is None:
        raise UsageError("synth needs --out (or an \"out\" config entry)")
    synth = settings["synth"]
    spec = dataio.SyntheticSpec(
        n_participants=_cast("participants", synth["participants"], int),
        seed=_cast("seed", settings["seed"], int),
        class_separation=_cast("separation", synth["separation"], float),
        channels=tuple(ch for _, chs in _layout(settings) for ch in chs),
    )
    recordings, ratings = dataio.make_synthetic(spec)
    out_dir = Path(settings["out"])
    dataio.write_dataset(recordings, ratings, out_dir,
                         g2_table=dataio.synth_g2_table())
    print(f"wrote {len(recordings)} recordings for {spec.n_participants} "
          f"participants to {out_dir}")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    data_dir = Path(args.data)
    cache_dir = settings["cache"]
    if cache_dir is None:
        raise UsageError(f"no cache directory (use --cache or ${CACHE_ENV})")
    recordings = dataio.load_recordings(data_dir)
    for rec in recordings:  # refuse an unpiped channel before writing anything
        preprocess.chain_for(rec.channel)
    cache_dir = Path(cache_dir)
    cached = {stem.name for stem in preprocess.entry_stems(cache_dir)}
    counts: dict[str, list[int]] = {}
    keys = set()
    for rec in recordings:
        stem = cache_dir / preprocess.tensor_cache_key(rec)
        keys.add(stem.name)
        count = counts.setdefault(rec.channel, [0, 0])  # recordings, hits
        count[0] += 1
        if stem.name in cached:
            count[1] += 1
            continue
        preprocess.save_tensor(preprocess.preprocess_channel(rec), stem)
    for channel, (n, hits) in sorted(counts.items()):
        print(f"{channel}: {n} recordings -> {preprocess.expected_timesteps(channel)}x"
              f"{preprocess.feature_size(channel)} ({hits} cached)")
    sources = {(rec.participant_id, rec.video_id, rec.channel) for rec in recordings}
    pruned = preprocess.prune_stale_tensors(cache_dir, keys, sources)
    if pruned:
        print(f"pruned {pruned} stale tensor(s)")
    return 0


def _load_samples(cache_dir: Path, channels=None) -> list[evaluate.Sample]:
    """Each (float64) cached tensor cast to ``DTYPE``, one sample per participant
    and video; ``run`` holds these tensors once, and every fold references them.

    Given ``channels``, entries of other channels are skipped unread, and a
    cache holding none of them is refused naming them.  A tensor
    not of its chain's shape fails here, naming its entry, before any training.
    """
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        raise UsageError(f"cache directory not found: {cache_dir}")
    by_pair: dict[tuple[str, str], evaluate.Sample] = {}
    for stem in preprocess.entry_stems(cache_dir):
        tensor = preprocess.load_tensor(stem, channels)
        if tensor is None:  # a foreign file, or a channel not asked for
            continue
        pid, vid, channel = tensor.source
        shape = (preprocess.expected_timesteps(channel), preprocess.feature_size(channel))
        if tensor.values.shape != shape:
            raise preprocess.PreprocessError(
                f"cache entry {stem} ({pid}/{vid}/{channel}) holds a {tensor.values.shape} "
                f"tensor, its chain gives {shape}; clear the cache and re-run preprocessing")
        sample = by_pair.setdefault(
            (pid, vid), evaluate.Sample(participant_id=pid, video_id=vid, tensors={}))
        if channel in sample.tensors:
            raise evaluate.EvaluateError(
                f"cache holds duplicate tensors for {pid}/{vid}/{channel}; "
                f"clear the cache and re-run preprocessing")
        sample.tensors[channel] = tensor.values.astype(DTYPE)
    if not by_pair:
        wanted = "" if channels is None else f" of channels {', '.join(channels)}"
        raise UsageError(f"cache {cache_dir} holds no tensors{wanted}")
    return [by_pair[k] for k in sorted(by_pair)]


def _resolve_labels(settings: dict, ratings, videos: list[str]) -> list:
    case = LabelCase(settings["labels"])
    policy = BoundaryPolicy(settings["boundary"])
    g2_table = None
    if case is LabelCase.G2:
        if settings["g2"] is None:
            raise UsageError("label case g2 needs --g2 <table.csv>")
        g2_table = dataio.load_g2_table(Path(settings["g2"]))
    return dataio.derive_labels(ratings, case, policy, g2_table=g2_table,
                                videos=videos)


def cmd_run(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    for key in ("cache", "ratings", "out"):
        if settings[key] is None:
            raise UsageError(f"run needs --{key} (or a config entry)")
    model_cfg = _model_config(settings)
    try:  # refuse a fusion mode the domains cannot serve before loading any data
        evaluate.member_plan(model_cfg, settings["fusion"])
    except evaluate.EvaluateError as exc:
        raise UsageError(str(exc)) from None
    train_cfg = _train_config(settings)
    samples = _load_samples(Path(settings["cache"]), model_cfg.channels)
    ratings = dataio.load_ratings(Path(settings["ratings"]))
    videos = sorted({s.video_id for s in samples})
    assignments = _resolve_labels(settings, ratings, videos)

    dimensions = DIMENSIONS if settings["target"] == "both" else (settings["target"],)

    experiments, logs = [], {}
    for dimension in dimensions:
        lookup = LabelLookup(assignments, dimension)
        covered = lookup.participants()
        pids = sorted({s.participant_id for s in samples})
        if covered:  # per-rater cases restrict the participant pool
            pids = [p for p in pids if p in covered]
        split = SPLITS[settings["split"]](pids, train_cfg.seed)
        entry, fold_logs = evaluate.run_experiment(
            samples, lookup, model_cfg, split,
            fusion=settings["fusion"], train_config=train_cfg)
        experiments.append(entry)
        for fold, members in zip(entry["folds"], fold_logs):
            for name, log in members.items():
                logs[f"{entry['dimension']}_fold{fold['fold']}_{name}.csv"] = log

    out_dir = Path(settings["out"])
    evaluate.write_results_csv(out_dir / "results.csv", experiments)
    evaluate.write_report_json(out_dir / "report.json", experiments)
    for name, log in logs.items():
        dataio.write_csv(out_dir / "logs" / name,
                         ("epoch", "train_loss", "val_loss", "val_accuracy"),
                         [(e + 1, *epoch) for e, epoch in enumerate(
                             zip(log.train_loss, log.val_loss, log.val_accuracy))])
    for e in experiments:
        print(f"{e['combination']} [{e['label_case']}/{e['dimension']}] "
              f"{e['scheme']}/{e['fusion']}: "
              f"accuracy {e['mean_accuracy']:.4f}, recall {e['mean_recall']:.4f}")
    print(f"results written to {out_dir}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    for flag, value in (("--seeds", args.seeds), ("--hidden", args.hidden)):
        if value < 1:
            raise UsageError(f"{flag} must be a positive integer, not {value}")
    tolerance = args.tolerance
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise UsageError(f"--tolerance must be a finite positive number, not {tolerance}")
    worst = 0.0
    ok = True
    for seed in range(args.seeds):
        report = grad_check(micro_config(hidden_size=args.hidden, seed=seed),
                            tolerance=tolerance, seed=seed)
        worst = max(worst, report.max_rel_error)
        if not report.passed:
            ok = False
            for entry in report.failures():
                print(f"seed {seed}: {entry.name} rel err {entry.max_rel_error:.3e}")
    print(f"max relative error {worst:.3e} over {args.seeds} seed(s) "
          f"(tolerance {tolerance:g}): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.report)
    if not path.is_file():
        raise UsageError(f"report not found: {path}")
    try:
        rows = evaluate.results_rows(json.loads(path.read_text())["experiments"])
        width = max((len(r[0]) for r in rows), default=10)
        table = [f"{'combination':<{width}}  {'label_case':<10}  {'metric':<18}  value"]
        table += [f"{combo:<{width}}  {case:<10}  {metric:<18}  {value:.4f}"
                  for combo, case, metric, value in rows]
    except (ValueError, KeyError, TypeError) as exc:
        raise dataio.DataError(f"{path}: not a run report "
                               f"({type(exc).__name__}: {exc})") from None
    print("\n".join(table))
    if args.out is not None:
        dataio.write_csv(args.out, evaluate.RESULTS_COLUMNS, rows)
        print(f"rewrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON settings file")
    p.add_argument("--seed", type=int, help="master random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emomsase",
        description="Multimodal emotion classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--out", help="output directory for the CSV dataset")
    p.add_argument("--participants", type=int, help="number of participants")
    p.add_argument("--separation", type=float,
                   help="class-separation amplitude (0 = unlearnable)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="condition and window raw recordings")
    p.add_argument("--config", help="JSON settings file")
    p.add_argument("--data", required=True, help="directory with manifest.csv")
    p.add_argument("--cache", help=f"tensor cache directory (default ${CACHE_ENV})")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("run", help="train and evaluate on a preprocessed cache")
    _add_common(p)
    p.add_argument("--cache", help=f"tensor cache directory (default ${CACHE_ENV})")
    p.add_argument("--ratings", help="ratings CSV")
    p.add_argument("--g2", help="per-video group label table (for --labels g2)")
    p.add_argument("--labels", choices=CHOICES["labels"], help="labelling scheme")
    p.add_argument("--boundary", choices=CHOICES["boundary"],
                   help="treatment of the midpoint rating 4")
    p.add_argument("--domains", help="comma list: peripheral,trunk,head")
    p.add_argument("--split", choices=CHOICES["split"], help="validation scheme")
    p.add_argument("--fusion", choices=CHOICES["fusion"],
                   help="modality-level or decision-level fusion")
    p.add_argument("--variant", choices=CHOICES["variant"], help="model variant")
    p.add_argument("--target", choices=CHOICES["target"],
                   help="affect dimension(s) to classify")
    p.add_argument("--out", help="output directory for results")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seeds", type=int, default=1, help="number of random draws")
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--hidden", type=int, default=4, help="hidden size of the micro model")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="pretty-print a run report")
    p.add_argument("--report", required=True, help="report.json from a run")
    p.add_argument("--out", help="also rewrite the summary CSV here")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, NonFiniteActivationError, TapeConsumedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
