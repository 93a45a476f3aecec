"""Ingest, rating binarization, label derivation and synthetic data tests."""

import csv
import itertools
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from emomsase import dataio
from emomsase.dataio import (
    HIGH, LOW, BoundaryPolicy, DataError, LabelCase, LabelLookup,
    RawRecording, SamRating, Sex, SyntheticSpec, binarize_rating,
    derive_labels, make_synthetic, synth_video_ids, video_class,
)

from fixtures import CLIP_CONSENSUS, consensus_ratings
from reference_impls import majority_brute_force


def _rating(val, aro, pid="p01", vid="video01", sex=Sex.MALE):
    return SamRating(participant_id=pid, video_id=vid,
                     valence=val, arousal=aro, sex=sex)


# ---------------------------------------------------------------------------
# Rating binarization
# ---------------------------------------------------------------------------

def test_binarize_le4_boundary():
    assert [binarize_rating(r) for r in range(1, 8)] == \
        [LOW, LOW, LOW, LOW, HIGH, HIGH, HIGH]


def test_binarize_strict_boundary():
    strict = BoundaryPolicy.STRICT_GT4
    assert binarize_rating(3, strict) == LOW
    assert binarize_rating(5, strict) == HIGH
    with pytest.raises(DataError, match="neither low nor high"):
        binarize_rating(4, strict)


def test_binarize_rejects_out_of_scale():
    for raw in (0, 8, -1):
        with pytest.raises(DataError):
            binarize_rating(raw)


# ---------------------------------------------------------------------------
# Label derivation
# ---------------------------------------------------------------------------

def test_general_labels_one_per_rating():
    ratings = [_rating(6, 2, pid="a"), _rating(2, 6, pid="b")]
    out = derive_labels(ratings, LabelCase.GENERAL)
    assert len(out) == 2
    assert (out[0].valence, out[0].arousal) == (HIGH, LOW)
    assert (out[1].valence, out[1].arousal) == (LOW, HIGH)
    assert out[0].participant_id == "a"


def test_males_only_filters_raters():
    ratings = [_rating(6, 6, pid="m", sex=Sex.MALE),
               _rating(2, 2, pid="f", sex=Sex.FEMALE)]
    out = derive_labels(ratings, LabelCase.MALES_ONLY)
    assert [a.participant_id for a in out] == ["m"]
    with pytest.raises(DataError):
        derive_labels([_rating(6, 6, sex=Sex.FEMALE)], LabelCase.MALES_ONLY)


def test_majority_exhaustive_small_votes():
    """Every vote multiset of up to 5 raw scores against a brute-force count."""
    checked = 0
    for size in range(1, 6):
        for combo in itertools.combinations_with_replacement(range(1, 8), size):
            ratings = [_rating(v, v, pid=f"p{i:02d}") for i, v in enumerate(combo)]
            votes = [binarize_rating(v) for v in combo]
            expected = majority_brute_force(votes)
            if expected is None:
                with pytest.raises(DataError, match="split exactly 50/50"):
                    derive_labels(ratings, LabelCase.MAJORITY)
            else:
                label, frac = expected
                out = derive_labels(ratings, LabelCase.MAJORITY)
                assert len(out) == 1
                assert out[0].valence == label
                assert out[0].arousal == label
                npt.assert_allclose(out[0].valence_fraction, frac)
            checked += 1
    assert checked == 791  # all multisets of sizes 1..5 over 7 scores


def test_majority_strict_policy_refuses_midpoint_votes():
    ratings = [_rating(4, 5), _rating(6, 5, pid="p02")]
    with pytest.raises(DataError, match="neither low nor high"):
        derive_labels(ratings, LabelCase.MAJORITY, BoundaryPolicy.STRICT_GT4)


def test_consensus_fixture_reproduced_exactly():
    """The frozen 23-rater vote counts map to the expected codes and percents."""
    out = derive_labels(consensus_ratings(), LabelCase.MAJORITY)
    by_vid = {a.video_id: a for a in out}
    assert len(by_vid) == 13
    for clip, _, _, (aro_code, aro_pct), (val_code, val_pct) in CLIP_CONSENSUS:
        a = by_vid[clip]
        assert dataio.level_code("arousal", a.arousal) == aro_code
        assert dataio.level_code("valence", a.valence) == val_code
        assert round(100.0 * a.arousal_fraction, 2) == aro_pct
        assert round(100.0 * a.valence_fraction, 2) == val_pct


def test_g2_passthrough_and_video_cover():
    table = {"v1": (HIGH, LOW), "v2": (LOW, HIGH)}
    out = derive_labels([], LabelCase.G2, g2_table=table)
    assert {(a.video_id, a.valence, a.arousal) for a in out} == \
        {("v1", HIGH, LOW), ("v2", LOW, HIGH)}
    with pytest.raises(DataError):
        derive_labels([], LabelCase.G2)  # no table
    with pytest.raises(DataError, match=r"no ratings for video\(s\): v3$"):
        derive_labels([], LabelCase.G2, g2_table=table, videos=["v1", "v2", "v3"])


@pytest.mark.parametrize("case", list(LabelCase))
def test_every_label_case_refuses_an_unrated_video(case):
    ratings = [_rating(6, 2, pid="a"), _rating(2, 6, pid="b", vid="video02")]
    table = {"video01": (HIGH, LOW), "video02": (LOW, HIGH)}
    assert derive_labels(ratings, case, g2_table=table, videos=["video01", "video02"])
    with pytest.raises(DataError, match=r"no ratings for video\(s\): video03$"):
        derive_labels(ratings, case, g2_table=table, videos=["video01", "video02", "video03"])


def test_label_lookup_pair_and_video_fallback():
    per_rater = derive_labels([_rating(6, 2, pid="a"), _rating(2, 6, pid="b")],
                              LabelCase.GENERAL)
    lk = LabelLookup(per_rater, "valence")
    assert lk.class_for("a", "video01") == HIGH
    assert lk.class_for("b", "video01") == LOW
    assert lk.class_for("c", "video01") is None
    assert lk.participants() == {"a", "b"}
    assert lk.case_name == "general"

    per_video = derive_labels([], LabelCase.G2, g2_table={"v": (LOW, HIGH)})
    lk2 = LabelLookup(per_video, "arousal")
    assert lk2.class_for("anyone", "v") == HIGH
    assert lk2.participants() == set()
    with pytest.raises(DataError):
        LabelLookup(per_video, "happiness")
    with pytest.raises(DataError):
        LabelLookup([], "valence")


# ---------------------------------------------------------------------------
# Recording validation
# ---------------------------------------------------------------------------

def _recording(ts, values, rate=64.0):
    return RawRecording(
        participant_id="p01", video_id="v01", channel="ACC_Z", sample_rate_hz=rate,
        timestamps_ms=np.asarray(ts, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64))


def test_validate_accepts_clean_recording():
    n = 256
    ts = np.round(np.arange(n) * 1000.0 / 64.0).astype(np.int64)
    _recording(ts, np.zeros(n)).validate()


def test_validate_rejects_empty_and_mismatched():
    with pytest.raises(DataError):
        _recording([], []).validate()
    with pytest.raises(DataError):
        _recording([0, 16], [1.0]).validate()
    with pytest.raises(DataError):
        _recording([0, 16], [1.0, 2.0], rate=0.0).validate()


def test_validate_rejects_non_monotone_timestamps():
    with pytest.raises(DataError, match="timestamp not increasing at sample 2"):
        _recording([0, 16, 16, 47], np.zeros(4)).validate()
    with pytest.raises(DataError, match="timestamp not increasing at sample 2"):
        _recording([0, 31, 16, 47], np.zeros(4)).validate()


def test_validate_rejects_rate_disagreement():
    # spacing says 32 ms (31.25 Hz) but the declared rate is 64 Hz
    ts = np.arange(64, dtype=np.int64) * 32
    with pytest.raises(DataError, match="declared 64.0 Hz but observed spacing 32.000 ms"):
        _recording(ts, np.zeros(64)).validate()


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def test_video_class_alternates():
    classes = [video_class(i) for i in range(13)]
    assert classes == [0, 1] * 6 + [0]
    assert classes.count(LOW) == 7 and classes.count(HIGH) == 6


def test_make_synthetic_shapes_and_determinism():
    spec = SyntheticSpec(n_participants=2, seed=5, class_separation=1.0,
                         channels=dataio.default_synth_channels(["EDA", "L_EP_Y"]))
    recs_a, ratings_a = make_synthetic(spec)
    recs_b, ratings_b = make_synthetic(spec)
    assert len(recs_a) == 2 * 13 * 2
    assert len(ratings_a) == 2 * 13
    for ra, rb in zip(recs_a, recs_b):
        npt.assert_array_equal(ra.values, rb.values)
        npt.assert_array_equal(ra.timestamps_ms, rb.timestamps_ms)
    assert ratings_a == ratings_b
    # different seed, different noise
    other, _ = make_synthetic(
        SyntheticSpec(n_participants=2, seed=6, class_separation=1.0,
                      channels=spec.channels))
    assert not np.array_equal(other[0].values, recs_a[0].values)


def test_make_synthetic_ratings_follow_class():
    spec = SyntheticSpec(n_participants=1, seed=0, class_separation=2.0,
                         channels=dataio.default_synth_channels(["EDA"]))
    _, ratings = make_synthetic(spec)
    for r in ratings:
        idx = synth_video_ids().index(r.video_id)
        want = 6 if video_class(idx) == HIGH else 2
        assert r.valence == want and r.arousal == want


def test_make_synthetic_recordings_validate():
    spec = SyntheticSpec(n_participants=1, seed=1, class_separation=0.0,
                         channels=dataio.default_synth_channels(
                             ["ACC_Z", "EDA", "TEMP", "ECG1", "L_EP_X"]))
    recs, _ = make_synthetic(spec)
    for rec in recs:
        rec.validate()


def test_synthetic_spec_validation():
    chans = dataio.default_synth_channels(["EDA"])
    with pytest.raises(DataError):
        SyntheticSpec(n_participants=0, seed=0, class_separation=1.0, channels=chans)
    with pytest.raises(DataError):
        SyntheticSpec(n_participants=1, seed=0, class_separation=-0.1, channels=chans)
    with pytest.raises(DataError):
        SyntheticSpec(n_participants=1, seed=0, class_separation=1.0, channels=())
    for channels, message in [(["EDA", "Hed"], "unknown channel 'Hed'"),
                              (["GSR"], "channel 'GSR' has no conditioning chain"),
                              (["EDA", "TEMP", "EDA"], "channel 'EDA' is listed more than once")]:
        with pytest.raises(DataError, match=f"^{message}"):
            SyntheticSpec(n_participants=1, seed=0, class_separation=1.0,
                          channels=dataio.default_synth_channels(channels))


# Every non-finite float64: the all-ones exponent with any mantissa (0 is
# infinity, the rest are NaNs) and either sign.
_NON_FINITE = st.builds(
    lambda negative, bits: float(np.uint64(bits | negative << 63).view(np.float64)),
    st.integers(0, 1), st.integers(0x7FF0_0000_0000_0000, 0x7FFF_FFFF_FFFF_FFFF))


@settings(max_examples=30, deadline=None)
@given(separation=_NON_FINITE)
def test_synthetic_spec_rejects_non_finite_separation(separation):
    assert not np.isfinite(separation)
    with pytest.raises(DataError, match="finite and non-negative"):
        SyntheticSpec(n_participants=1, seed=0, class_separation=separation,
                      channels=dataio.default_synth_channels(["EDA"]))


def test_synth_g2_table_matches_classes():
    table = dataio.synth_g2_table()
    for i, vid in enumerate(synth_video_ids()):
        assert table[vid] == (video_class(i), video_class(i))


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_dataset_round_trip(tmp_path):
    spec = SyntheticSpec(n_participants=2, seed=3, class_separation=1.5,
                         channels=dataio.default_synth_channels(["EDA", "TEMP"]))
    recs, ratings = make_synthetic(spec)
    dataio.write_dataset(recs, ratings, tmp_path, g2_table=dataio.synth_g2_table())

    loaded = dataio.load_recordings(tmp_path)
    assert len(loaded) == len(recs)
    by_key = {(r.participant_id, r.video_id, r.channel): r for r in loaded}
    with open(tmp_path / "manifest.csv", newline="") as fh:
        domains = {(row["participant_id"], row["video_id"], row["channel"]): row["domain"]
                   for row in csv.DictReader(fh)}
    for rec in recs:
        key = (rec.participant_id, rec.video_id, rec.channel)
        back = by_key[key]
        npt.assert_array_equal(back.timestamps_ms, rec.timestamps_ms)
        npt.assert_array_equal(back.values, rec.values)  # repr round trip is exact
        assert domains[key] == dataio.CHANNEL_CATALOG[rec.channel].domain.value
        assert back.sample_rate_hz == rec.sample_rate_hz

    assert dataio.load_ratings(tmp_path / "ratings.csv") == ratings
    assert dataio.load_g2_table(tmp_path / "g2_table.csv") == dataio.synth_g2_table()


def test_load_recordings_missing_files(tmp_path):
    with pytest.raises(DataError, match="manifest not found"):
        dataio.load_recordings(tmp_path)
    (tmp_path / "manifest.csv").write_text(
        "file,participant_id,video_id,domain,channel,sample_rate_hz\n"
        "gone.csv,p01,v01,Peripheral,EDA,4.0\n")
    with pytest.raises(DataError, match=r"recording not found: .*gone\.csv"):
        dataio.load_recordings(tmp_path)


def _manifest_row(tmp_path, domain, channel, rate):
    """A one-row manifest whose sensor file would fail to parse."""
    (tmp_path / "rec.csv").write_text("timestamp_ms,value\nnot,numbers\n")
    (tmp_path / "manifest.csv").write_text(
        "file,participant_id,video_id,domain,channel,sample_rate_hz\n"
        f"rec.csv,p01,video01,{domain},{channel},{rate}\n")


def test_load_recordings_rejects_unknown_channel(tmp_path):
    _manifest_row(tmp_path, "Trunk", "SPO2", 64.0)
    with pytest.raises(DataError, match=r"rec\.csv: unknown channel 'SPO2'"):
        dataio.load_recordings(tmp_path)


def test_load_recordings_rejects_domain_disagreement(tmp_path):
    _manifest_row(tmp_path, "Trunk", "EDA", 4.0)
    with pytest.raises(DataError, match=r"rec\.csv: EDA belongs to domain Peripheral"):
        dataio.load_recordings(tmp_path)


def test_load_recordings_rejects_rate_off_native(tmp_path):
    _manifest_row(tmp_path, "Trunk", "ECG1", 128.0)
    with pytest.raises(DataError, match=r"rec\.csv: ECG1 runs at 256 Hz"):
        dataio.load_recordings(tmp_path)


def test_load_recordings_rejects_non_numeric_rate(tmp_path):
    _manifest_row(tmp_path, "Head", "L_EP_X", "fast")
    with pytest.raises(DataError, match=r"rec\.csv: sample_rate_hz 'fast' is not a number"):
        dataio.load_recordings(tmp_path)


def test_manifest_refuses_a_repeated_recording(tmp_path):
    (tmp_path / "rec.csv").write_text("timestamp_ms,value\n0,0.5\n250,0.25\n")
    row = "rec.csv,p01,video01,Peripheral,EDA,4.0\n"
    (tmp_path / "manifest.csv").write_text(
        "file,participant_id,video_id,domain,channel,sample_rate_hz\n" + row + row)
    with pytest.raises(DataError, match=r"\.csv line 3: p01/video01/EDA repeats line 2"):
        dataio.load_recordings(tmp_path)


@pytest.mark.parametrize("rows, line, message", [
    ("0,0.5\n250,abc\n", 3, "'abc'"),
    ("0,0.5\n# note\n250,nan\n", 3, "columns changed"),  # a comment is no row
    ("0,0.5\n250,2.0 # note\n", 3, r"'2\.0 # note'"),
    ("0,0.5\n250,0.7\n500,abc\n", 4, "'abc'"),
    ("0,0.5\n\n250,0.7\n500,0.9,1.1\n", 5, "columns changed from 2 to 3"),  # after a blank
    ("0,0.5\n \n250,0.7\n", 3, "columns changed from 2 to 1"),  # spaces make a row
], ids=["not-a-number", "comment-line", "trailing-comment", "third-row", "after-blank-line",
        "whitespace-line"])
def test_unparseable_sensor_value_names_its_file(tmp_path, rows, line, message):
    (tmp_path / "rec.csv").write_text("timestamp_ms,value\n" + rows)
    (tmp_path / "manifest.csv").write_text(
        "file,participant_id,video_id,domain,channel,sample_rate_hz\n"
        "rec.csv,p01,video01,Peripheral,EDA,4.0\n")
    with pytest.raises(DataError, match=rf"rec\.csv line {line}: .*{message}") as exc:
        dataio.load_recordings(tmp_path)
    assert " at row " not in str(exc.value)  # numpy's own count is gone


@pytest.mark.filterwarnings("error")  # numpy's empty-input warning must not escape
def test_sensor_file_without_rows_says_so(tmp_path):
    _manifest_row(tmp_path, "Peripheral", "EDA", 4.0)
    (tmp_path / "rec.csv").write_text("timestamp_ms,value\n")
    with pytest.raises(DataError, match=r"rec\.csv: no data rows"):
        dataio.load_recordings(tmp_path)


# Text with the characters CSV must quote or keep, and no line breaks.
_FIELD = st.text(alphabet=st.sampled_from(list('ab ,"\';\té')), max_size=6)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_FIELD, st.floats(allow_nan=False, allow_infinity=False),
                               _FIELD), max_size=5),
       crlf=st.booleans())
def test_write_csv_then_read_csv_round_trips(tmp_path_factory, rows, crlf):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    columns = ("name", "value", "note")
    dataio.write_csv(path, columns, rows)
    assert b"\r" not in path.read_bytes()
    if crlf:  # tables from elsewhere may end their lines in CRLF
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    back = dataio.read_csv(path, "table", columns,
                           lambda r: (r["name"], float(r["value"]), r["note"]))
    assert back == rows  # floats go out by repr, so they come back exact


def test_write_into_an_existing_directory_makes_no_directory(tmp_path, monkeypatch):
    made = []
    monkeypatch.setattr(Path, "mkdir", lambda self, *a, **k: made.append(self))
    dataio.write_atomic(tmp_path / "out.bin", b"bytes")
    assert (tmp_path / "out.bin").read_bytes() == b"bytes"
    assert made == []
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_level_codes():
    assert dataio.level_code("valence", LOW) == "LV"
    assert dataio.level_code("valence", HIGH) == "HV"
    assert dataio.level_code("arousal", LOW) == "LA"
    assert dataio.level_code("arousal", HIGH) == "HA"
