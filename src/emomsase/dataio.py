"""Channel catalogue, recording and rating ingest, label derivation, synthetic data.

A ``CHANNEL_CATALOG`` row holds a channel's domain, rates, synthetic tone and
conditioning chain; ``check_channels`` decides whether a channel list is usable.

File formats (all CSV with a header row and LF line ends; readers accept CRLF):
  sensor file   timestamp_ms,value          one file per participant/video/channel
  manifest      file,participant_id,video_id,domain,channel,sample_rate_hz
  ratings       participant_id,video_id,valence,arousal,sex   (raw 1..7 scores)
  group table   video_id,g2_valence,g2_arousal                (LV/HV and LA/HA codes)

Binary labels use class index 0 for Low and 1 for High; High is the positive
class throughout the package.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import re
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

LOW = 0
HIGH = 1
DIMENSIONS = ("valence", "arousal")  # each label is Low or High on both, in this order

N_VIDEOS = 13
RATING_MIN = 1
RATING_MAX = 7

# Seconds of signal emitted per synthetic sensor recording, and the number of
# coordinate samples per synthetic eye trace.
SYNTH_DURATION_S = 60.0
SYNTH_EYE_SAMPLES = 2500
SYNTH_NOISE_STD = 1.0

TAIL_SECONDS = 40.0
WINDOW_SECONDS = 2.0
EYE_TAIL_SAMPLES = 2000
EYE_WINDOW_SAMPLES = 200
FILTER_ORDER = 4
BAND_PASS = "bandpass"
LOW_PASS = "lowpass"


class DataError(ValueError):
    """Base class for ingest and labelling failures."""


class Domain(str, Enum):
    PERIPHERAL = "Peripheral"
    TRUNK = "Trunk"
    HEAD = "Head"


class Sex(str, Enum):
    MALE = "Male"
    FEMALE = "Female"


class BoundaryPolicy(str, Enum):
    """How a raw rating of 4 on the 1..7 scale is treated."""

    LE4_LOW = "le4"      # ratings <= 4 are Low, >= 5 are High
    STRICT_GT4 = "strict"  # < 4 Low, > 4 High, exactly 4 is refused


class LabelCase(str, Enum):
    GENERAL = "general"
    MAJORITY = "majority"
    MALES_ONLY = "males"
    G2 = "g2"


@dataclass(frozen=True)
class FilterSpec:
    """A Butterworth band-pass or low-pass filter of even order."""

    kind: str
    low_hz: float | None = None
    high_hz: float | None = None
    order: int = FILTER_ORDER

    def __post_init__(self):
        if self.kind not in (BAND_PASS, LOW_PASS):
            raise DataError(f"unknown filter kind {self.kind!r}")
        if self.high_hz is None or (self.kind == BAND_PASS and self.low_hz is None):
            raise DataError("band-pass needs both cutoffs" if self.kind == BAND_PASS
                            else "low-pass needs a cutoff")
        if type(self.order) is not int or self.order < 2 or self.order % 2:
            raise DataError(f"filter order must be an even integer >= 2, got {self.order!r}")


@dataclass(frozen=True)
class Chain:
    """How one channel is conditioned before windowing.

    ``rate_hz`` is the rate the stream is filtered and windowed at; slower
    streams are upsampled to it.  None marks a sample-indexed eye trace,
    whose declared rate is ignored.  ``tail`` and ``window`` count samples.
    Its ``repr`` is part of every cache key of the channel's tensors.
    """

    rate_hz: float | None
    filter: FilterSpec | None
    smooth_len: int | None
    tail: int
    window: int


def _sensor(rate_hz: float, spec: FilterSpec | None = None, smooth_len: int | None = None):
    return Chain(rate_hz, spec, smooth_len, tail=int(round(TAIL_SECONDS * rate_hz)),
                 window=int(round(WINDOW_SECONDS * rate_hz)))


_MOTION = FilterSpec(BAND_PASS, low_hz=0.5, high_hz=20.0)
_ECG = FilterSpec(BAND_PASS, low_hz=0.5, high_hz=45.0)
_BVP = FilterSpec(BAND_PASS, low_hz=0.5, high_hz=4.0)
_EDA = FilterSpec(LOW_PASS, high_hz=0.5)
_EYE = Chain(None, None, None, EYE_TAIL_SAMPLES, EYE_WINDOW_SAMPLES)


class Channel(NamedTuple):
    """What the package knows of one channel, one row of ``CHANNEL_CATALOG``."""

    domain: Domain          # the domain of the device that records it
    rate_hz: float | None   # fixed by the hardware; None where the manifest declares it
    synth_hz: float         # the rate synthetic data is drawn at
    tone_hz: float | None   # the High-class synthetic tone; None for an unpiped channel
    chain: Chain | None     # its conditioning; None: recorded, but the pipeline leaves it out


# Each tone is chosen to survive its channel's conditioning chain: Hz, or cycles
# per sample for the eye traces, which are unit-rate coordinate streams.
CHANNEL_CATALOG: dict[str, Channel] = {
    "ACC_X": Channel(Domain.PERIPHERAL, 64.0, 64.0, 2.0, _sensor(64.0, _MOTION)),
    "ACC_Y": Channel(Domain.PERIPHERAL, 64.0, 64.0, 2.0, _sensor(64.0, _MOTION)),
    "ACC_Z": Channel(Domain.PERIPHERAL, 64.0, 64.0, 2.0, _sensor(64.0, _MOTION)),
    "TEMP": Channel(Domain.PERIPHERAL, None, 4.0, 0.3, _sensor(64.0, smooth_len=64)),  # 1 s mean
    "EDA": Channel(Domain.PERIPHERAL, 4.0, 4.0, 0.25, _sensor(64.0, _EDA)),
    "BVP": Channel(Domain.PERIPHERAL, 64.0, 64.0, 2.0, _sensor(64.0, _BVP)),
    "ECG1": Channel(Domain.TRUNK, 256.0, 256.0, 5.0, _sensor(256.0, _ECG)),
    "ECG2": Channel(Domain.TRUNK, 256.0, 256.0, 5.0, _sensor(256.0, _ECG)),
    "LAT_ACC": Channel(Domain.TRUNK, 256.0, 256.0, 2.0, _sensor(256.0, _MOTION)),
    "LONG_ACC": Channel(Domain.TRUNK, 256.0, 256.0, 2.0, _sensor(256.0, _MOTION)),
    "VERT_ACC": Channel(Domain.TRUNK, 256.0, 256.0, 2.0, _sensor(256.0, _MOTION)),
    "GSR": Channel(Domain.TRUNK, 256.0, 256.0, None, None),
    "L_EP_X": Channel(Domain.HEAD, None, 1.0, 0.025, _EYE),
    "L_EP_Y": Channel(Domain.HEAD, None, 1.0, 0.025, _EYE),
    "L_EP_Z": Channel(Domain.HEAD, None, 1.0, 0.025, _EYE),
    "R_EP_X": Channel(Domain.HEAD, None, 1.0, 0.025, _EYE),
    "R_EP_Y": Channel(Domain.HEAD, None, 1.0, 0.025, _EYE),
    "R_EP_Z": Channel(Domain.HEAD, None, 1.0, 0.025, _EYE),
}

EYE_CHANNELS = tuple(name for name, row in CHANNEL_CATALOG.items() if row.chain is _EYE)
# The paper's best channel combination, in domain order: what synth and run default to.
BEST_CHANNELS = ("ACC_Z", "EDA", "TEMP", "LAT_ACC", "LONG_ACC",
                 "L_EP_X", "L_EP_Y", "L_EP_Z", "R_EP_Y", "R_EP_Z")


def check_channels(names, domain: str | None = None) -> None:
    """A DataError unless each of ``names`` is catalogued, has a conditioning
    chain, belongs to ``domain`` when one is named, and appears once."""
    for i, name in enumerate(names):
        row = CHANNEL_CATALOG.get(name) if isinstance(name, str) else None
        if row is None:
            raise DataError(f"unknown channel {name!r}")
        if row.chain is None:
            raise DataError(f"channel {name!r} has no conditioning chain")
        if domain is not None and row.domain != domain:
            raise DataError(f"channel {name!r} is not a {domain} channel")
        if name in names[:i]:
            raise DataError(f"channel {name!r} is listed more than once")


@dataclass
class RawRecording:
    """One channel of one participant watching one video."""

    participant_id: str
    video_id: str
    channel: str  # its CHANNEL_CATALOG row holds its domain
    sample_rate_hz: float
    timestamps_ms: np.ndarray  # int64, strictly increasing
    values: np.ndarray         # float64

    def validate(self) -> None:
        """Check timestamp monotonicity and agreement with the declared rate."""
        ts = self.timestamps_ms
        if ts.shape[0] == 0:
            raise DataError(
                f"{self.participant_id}/{self.video_id}/{self.channel}: empty recording")
        if ts.shape != self.values.shape:
            raise DataError(
                f"{self.participant_id}/{self.video_id}/{self.channel}: "
                f"{ts.shape[0]} timestamps vs {self.values.shape[0]} values")
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise DataError(f"{self.participant_id}/{self.video_id}/{self.channel}: "
                            f"sample rate must be finite and > 0, not {self.sample_rate_hz}")
        diffs = np.diff(ts)
        if diffs.size and diffs.min() <= 0:
            row = int(np.argmax(diffs <= 0)) + 1
            raise DataError(
                f"{self.participant_id}/{self.video_id}/{self.channel}: "
                f"timestamp not increasing at sample {row}")
        if ts.shape[0] >= 2:
            expected = 1000.0 / self.sample_rate_hz
            observed = (ts[-1] - ts[0]) / (ts.shape[0] - 1)
            if abs(observed - expected) > 0.05 * expected:
                raise DataError(
                    f"{self.participant_id}/{self.video_id}/{self.channel}: "
                    f"declared {self.sample_rate_hz} Hz but observed spacing "
                    f"{observed:.3f} ms (expected {expected:.3f} ms)")


@dataclass(frozen=True)
class SamRating:
    """Raw self-assessment scores for one participant and video."""

    participant_id: str
    video_id: str
    valence: int
    arousal: int
    sex: Sex


@dataclass(frozen=True)
class LabelAssignment:
    """Binary valence/arousal labels attached to a video or a rater-video pair.

    ``participant_id`` is None for per-video cases (Majority, G2).  Majority
    labels record the winning vote fraction for each dimension.
    """

    case: LabelCase
    video_id: str
    valence: int  # LOW or HIGH
    arousal: int
    participant_id: str | None = None
    valence_fraction: float | None = None
    arousal_fraction: float | None = None


def binarize_rating(raw: int, policy: BoundaryPolicy = BoundaryPolicy.LE4_LOW) -> int:
    """Collapse a raw 1..7 rating to LOW or HIGH under the given boundary policy."""
    raw = int(raw)
    if raw < RATING_MIN or raw > RATING_MAX:
        raise DataError(f"rating {raw} outside {RATING_MIN}..{RATING_MAX}")
    if policy is BoundaryPolicy.LE4_LOW:
        return LOW if raw <= 4 else HIGH
    if policy is BoundaryPolicy.STRICT_GT4:
        if raw == 4:
            raise DataError(
                "rating 4 is neither low nor high under the strict boundary policy")
        return LOW if raw < 4 else HIGH
    raise DataError(f"unknown boundary policy {policy!r}")


def _majority(labels: list[int], video_id: str, dimension: str) -> tuple[int, float]:
    n_high = sum(1 for v in labels if v == HIGH)
    frac_high = n_high / len(labels)
    if frac_high == 0.5:
        raise DataError(
            f"video {video_id}: {dimension} votes split exactly 50/50 "
            f"({n_high}/{len(labels)} high)")
    if frac_high > 0.5:
        return HIGH, frac_high
    return LOW, 1.0 - frac_high


def derive_labels(
    ratings: list[SamRating],
    case: LabelCase,
    policy: BoundaryPolicy = BoundaryPolicy.LE4_LOW,
    g2_table: dict[str, tuple[int, int]] | None = None,
    videos: list[str] | None = None,
) -> list[LabelAssignment]:
    """Turn raw ratings into binary label assignments for one labelling scheme.

    General and MalesOnly yield one assignment per (participant, video);
    Majority and G2 yield one per video.  ``videos``, when given, is the full
    video set expected to be covered (a missing one raises a DataError).
    G2 ignores the individual ratings and passes ``g2_table`` through.
    """
    pool = ratings
    if case is LabelCase.MALES_ONLY:
        pool = [r for r in ratings if r.sex is Sex.MALE]
    if case is LabelCase.G2:
        if g2_table is None:
            raise DataError("G2 labels need the per-video group table")
        out = [
            LabelAssignment(case=case, video_id=vid, valence=val, arousal=aro)
            for vid, (val, aro) in sorted(g2_table.items())
        ]
    elif not pool:
        raise DataError(f"no ratings available for label case {case.value!r}")
    elif case in (LabelCase.GENERAL, LabelCase.MALES_ONLY):
        out = [
            LabelAssignment(
                case=case,
                video_id=r.video_id,
                participant_id=r.participant_id,
                **{dim: binarize_rating(getattr(r, dim), policy) for dim in DIMENSIONS},
            )
            for r in pool
        ]
    elif case is LabelCase.MAJORITY:
        by_video: dict[str, list[SamRating]] = {}
        for r in pool:
            by_video.setdefault(r.video_id, []).append(r)
        out = []
        for vid in sorted(by_video):
            votes = {dim: _majority([binarize_rating(getattr(r, dim), policy)
                                     for r in by_video[vid]], vid, dim) for dim in DIMENSIONS}
            out.append(LabelAssignment(
                case=case, video_id=vid, **{dim: v[0] for dim, v in votes.items()},
                **{f"{dim}_fraction": v[1] for dim, v in votes.items()}))
    else:
        raise DataError(f"unknown label case {case!r}")
    missing = sorted(set(videos or ()) - {a.video_id for a in out})
    if missing:
        raise DataError(f"no ratings for video(s): {', '.join(missing)}")
    return out


class LabelLookup:
    """Maps (participant, video) to a class index for one affect dimension."""

    def __init__(self, assignments: list[LabelAssignment], dimension: str):
        if dimension not in DIMENSIONS:
            raise DataError(f"unknown label dimension {dimension!r}")
        if not assignments:
            raise DataError("no label assignments")
        self.dimension = dimension
        self.case_name = assignments[0].case.value
        self._by_pair: dict[tuple[str, str], int] = {}
        self._by_video: dict[str, int] = {}
        for a in assignments:
            label = getattr(a, dimension)
            if a.participant_id is None:
                self._by_video[a.video_id] = label
            else:
                self._by_pair[(a.participant_id, a.video_id)] = label

    def class_for(self, participant_id: str, video_id: str) -> int | None:
        pair = self._by_pair.get((participant_id, video_id))
        if pair is not None:
            return pair
        return self._by_video.get(video_id)

    def participants(self) -> set[str]:
        """Participants explicitly covered (empty for per-video cases)."""
        return {pid for pid, _ in self._by_pair}


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic class-conditioned synthetic dataset.

    Each of ``channels`` is a ``CHANNEL_CATALOG`` name, drawn at its row's
    ``synth_hz``. Positive-class recordings carry an additive sinusoid at the
    row's ``tone_hz``, of amplitude ``class_separation``, on top of
    unit-variance noise; at 0 the two classes are statistically identical.
    """

    n_participants: int
    seed: int
    class_separation: float
    channels: tuple[str, ...]

    def __post_init__(self):
        if self.n_participants <= 0:
            raise DataError("need at least one participant")
        if not (np.isfinite(self.class_separation) and self.class_separation >= 0):
            raise DataError(f"class separation must be finite and non-negative, "
                            f"not {self.class_separation}")
        if not self.channels:
            raise DataError("need at least one channel")
        check_channels(self.channels)


def default_synth_channels(channels: list[str] | None = None) -> tuple[str, ...]:
    """Channel names for a ``SyntheticSpec``, the best combination by default."""
    return tuple(BEST_CHANNELS if channels is None else channels)


def video_class(video_index: int) -> int:
    """Injected class for synthetic video number ``video_index`` (0-based)."""
    return video_index % 2


def synth_video_ids() -> list[str]:
    return [f"video{i + 1:02d}" for i in range(N_VIDEOS)]


def make_synthetic(spec: SyntheticSpec) -> tuple[list[RawRecording], list[SamRating]]:
    """Generate recordings and consistent ratings for every participant/video.

    Ratings follow the injected class on both dimensions (6 for High, 2 for
    Low), so every labelling scheme recovers the class.  Output is
    bit-identical for identical specs.
    """
    rng = np.random.default_rng(spec.seed)
    videos = synth_video_ids()
    recordings: list[RawRecording] = []
    ratings: list[SamRating] = []
    for p in range(spec.n_participants):
        pid = f"p{p + 1:02d}"
        sex = Sex.FEMALE if p % 4 == 3 else Sex.MALE
        for v, vid in enumerate(videos):
            cls = video_class(v)
            for channel in spec.channels:
                row = CHANNEL_CATALOG[channel]
                n = (SYNTH_EYE_SAMPLES if channel in EYE_CHANNELS
                     else int(round(SYNTH_DURATION_S * row.synth_hz)))
                t = np.arange(n, dtype=np.float64) / row.synth_hz
                x = rng.standard_normal(n) * SYNTH_NOISE_STD
                phase = rng.uniform(0.0, 2.0 * np.pi)
                if cls == HIGH:
                    x = x + spec.class_separation * np.sin(2.0 * np.pi * row.tone_hz * t + phase)
                recordings.append(RawRecording(
                    participant_id=pid,
                    video_id=vid,
                    channel=channel,
                    sample_rate_hz=row.synth_hz,
                    timestamps_ms=np.round(np.arange(n) * 1000.0 / row.synth_hz).astype(np.int64),
                    values=x,
                ))
            score = 6 if cls == HIGH else 2
            ratings.append(SamRating(
                participant_id=pid, video_id=vid,
                valence=score, arousal=score, sex=sex))
    return recordings, ratings


def synth_g2_table() -> dict[str, tuple[int, int]]:
    """Per-video group labels matching the synthetic class assignment."""
    return {vid: (video_class(v), video_class(v)) for v, vid in enumerate(synth_video_ids())}


# ---------------------------------------------------------------------------
# CSV readers and writers
# ---------------------------------------------------------------------------

# Group-table codes per dimension: Low or High, then the dimension's initial.
_LEVEL_CODES = {dim: {LOW: f"L{dim[0].upper()}", HIGH: f"H{dim[0].upper()}"}
                for dim in DIMENSIONS}

SENSOR_COLUMNS = ("timestamp_ms", "value")
MANIFEST_COLUMNS = ("file", "participant_id", "video_id", "domain", "channel",
                    "sample_rate_hz")
RATINGS_COLUMNS = ("participant_id", "video_id", "valence", "arousal", "sex")
G2_COLUMNS = ("video_id", *(f"g2_{dim}" for dim in DIMENSIONS))


def level_code(dimension: str, label: int) -> str:
    return _LEVEL_CODES[dimension][label]


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``path`` whole or not at all, via a temporary sibling, making its
    parents if they are missing."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        try:
            tmp.write_bytes(data)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    """Write a header and rows as LF-terminated CSV, atomically; floats by repr."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(itertools.chain([header], rows))
    write_atomic(path, buf.getvalue().encode())


def read_csv(path: Path, what: str, columns: tuple[str, ...], parse, key=()) -> list:
    """``parse(row)`` for each row, a dict by column name, of the table at ``path``.

    Malformed input raises a DataError naming the file, and the line for a row;
    one that ``parse`` raises passes through as it is.  No two rows may agree
    on the ``key`` columns.
    """
    if not Path(path).is_file():
        raise DataError(f"{what} not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise DataError(f"{path}: no {missing[0]!r} column")
        out = []
        seen: dict[tuple[str, ...], int] = {}
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if None in row or any(row[c] is None for c in columns):  # long or short
                raise DataError(f"{where}: expected {len(columns)} fields")
            ident = tuple(row[c] for c in key)
            if key and seen.setdefault(ident, reader.line_num) != reader.line_num:
                raise DataError(f"{where}: {'/'.join(ident)} repeats line {seen[ident]}")
            try:
                out.append(parse(row))
            except DataError:
                raise
            except (KeyError, ValueError) as exc:
                raise DataError(f"{where}: bad value ({exc})") from None
    return out


def write_recording_csv(rec: RawRecording, path: Path) -> None:
    write_csv(path, SENSOR_COLUMNS, zip(rec.timestamps_ms.tolist(), rec.values.tolist()))


def write_dataset(recordings: list[RawRecording], ratings: list[SamRating],
                  out_dir: Path, g2_table: dict[str, tuple[int, int]] | None = None) -> None:
    """Write sensor files plus manifest, ratings and group-table CSVs."""
    out_dir = Path(out_dir)
    manifest_rows = []
    for rec in recordings:
        fname = f"{rec.participant_id}_{rec.video_id}_{rec.channel}.csv"
        write_recording_csv(rec, out_dir / fname)
        manifest_rows.append((fname, rec.participant_id, rec.video_id,
                              CHANNEL_CATALOG[rec.channel].domain.value, rec.channel,
                              rec.sample_rate_hz))
    write_csv(out_dir / "manifest.csv", MANIFEST_COLUMNS, manifest_rows)
    write_csv(out_dir / "ratings.csv", RATINGS_COLUMNS,
              [(r.participant_id, r.video_id, r.valence, r.arousal, r.sex.value)
               for r in ratings])
    if g2_table is not None:
        write_csv(out_dir / "g2_table.csv", G2_COLUMNS,
                  [(vid, *map(level_code, DIMENSIONS, labels))
                   for vid, labels in sorted(g2_table.items())])


def _read_sensor_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The timestamps and values of one sensor file, all finite and each
    timestamp a whole number; a DataError names the file, and the line of a
    bad row."""
    try:
        with warnings.catch_warnings():  # a file with no rows is our error, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2,
                              comments=None)  # no table has comments
    except ValueError as exc:
        # numpy counts data rows from 0 in a conversion error, from 1 in a column change
        found = re.search(r" at row (\d+)", str(exc))
        if found is None:
            raise DataError(f"{path}: {exc}") from None
        row, what = int(found[1]) - ("columns changed" in str(exc)), str(exc).replace(found[0], "")
    else:
        if data.size == 0:
            raise DataError(f"{path}: no data rows")
        if data.shape[1] != 2:
            raise DataError(f"{path}: expected two columns ({','.join(SENSOR_COLUMNS)})")
        finite = np.isfinite(data)
        bad = ~finite.all(axis=1) | (data[:, 0] != np.trunc(data[:, 0]))
        if not bad.any():
            return data[:, 0].astype(np.int64), data[:, 1]
        row = int(np.argmax(bad))
        col = int(np.argmin(finite[row]))  # 0 if both are finite: a fractional timestamp
        what = (f"{SENSOR_COLUMNS[col]} {float(data[row, col])!r} is not "
                + ("a whole number" if finite[row].all() else "finite"))
    with open(path) as fh:  # loadtxt skips empty lines, and the header is line 1
        line = [n for n, text in enumerate(fh, 1) if n > 1 and text.strip("\r\n")][row]
    raise DataError(f"{path} line {line}: {what}")


def _load_recording(data_dir: Path, row: dict) -> RawRecording:
    fpath = data_dir / row["file"]
    channel, raw_rate = row["channel"], row["sample_rate_hz"]
    try:
        rate = float(raw_rate)
    except ValueError:
        raise DataError(f"{fpath}: sample_rate_hz {raw_rate!r} is not a number") from None
    if channel not in CHANNEL_CATALOG:
        raise DataError(f"{fpath}: unknown channel {channel!r}")
    entry = CHANNEL_CATALOG[channel]
    if row["domain"] != entry.domain.value:
        raise DataError(f"{fpath}: {channel} belongs to domain "
                        f"{entry.domain.value}, manifest says {row['domain']!r}")
    if entry.rate_hz is not None and rate != entry.rate_hz:
        raise DataError(f"{fpath}: {channel} runs at {entry.rate_hz:g} Hz, "
                        f"manifest declares {rate:g} Hz")
    if not fpath.is_file():
        raise DataError(f"recording not found: {fpath}")
    ts, values = _read_sensor_csv(fpath)
    rec = RawRecording(
        participant_id=row["participant_id"],
        video_id=row["video_id"],
        channel=channel,
        sample_rate_hz=rate,
        timestamps_ms=ts,
        values=values,
    )
    rec.validate()
    return rec


def load_recordings(data_dir: Path) -> list[RawRecording]:
    """Load and validate every recording named by ``data_dir``/manifest.csv."""
    manifest = Path(data_dir) / "manifest.csv"
    recordings = read_csv(manifest, "manifest", MANIFEST_COLUMNS,
                          lambda row: _load_recording(manifest.parent, row),
                          key=("participant_id", "video_id", "channel"))
    if not recordings:
        raise DataError(f"{manifest}: no data rows")
    return recordings


def _score(text: str) -> int:
    score = int(text)
    if not RATING_MIN <= score <= RATING_MAX:
        raise ValueError(f"rating {score} outside {RATING_MIN}..{RATING_MAX}")
    return score


def load_ratings(path: Path) -> list[SamRating]:
    return read_csv(path, "ratings file", RATINGS_COLUMNS, lambda row: SamRating(
        participant_id=row["participant_id"],
        video_id=row["video_id"],
        **{dim: _score(row[dim]) for dim in DIMENSIONS},
        sex=Sex(row["sex"]),
    ), key=("participant_id", "video_id"))


def load_g2_table(path: Path) -> dict[str, tuple[int, int]]:
    levels = {dim: {code: label for label, code in codes.items()}
              for dim, codes in _LEVEL_CODES.items()}
    return dict(read_csv(path, "group table", G2_COLUMNS, lambda row: (
        row["video_id"],
        tuple(levels[dim][row[f"g2_{dim}"].strip()] for dim in DIMENSIONS),
    ), key=("video_id",)))
