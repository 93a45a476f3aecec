"""Command-line workflows: synth, preprocess, run, gradcheck, report."""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emomsase
from emomsase import autodiff as ad
from emomsase import dataio, preprocess
from emomsase.cli import (DEFAULTS, _load_samples, _model_config, _train_config,
                          build_parser, main, resolve_settings)
from emomsase.model import VARIANTS, ModelConfig
from emomsase.train import DTYPE, TrainConfig

EYE_ONLY = {
    "domains": ["Head"],
    "channels": {"Head": ["L_EP_Y"]},
}


def _write_config(tmp_path, extra):
    cfg = dict(EYE_ONLY)
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_synth_then_preprocess_then_cache_hits(tmp_path, capsys):
    cfg = _write_config(tmp_path, {})
    data = tmp_path / "data"
    cache = tmp_path / "cache"

    assert main(["synth", "--config", cfg, "--out", str(data),
                 "--participants", "3"]) == 0
    assert "wrote 39 recordings for 3 participants" in capsys.readouterr().out
    assert (data / "manifest.csv").is_file()
    assert (data / "ratings.csv").is_file()
    assert len(dataio.load_recordings(data)) == 39

    assert main(["preprocess", "--config", cfg, "--data", str(data),
                 "--cache", str(cache)]) == 0
    assert "L_EP_Y: 39 recordings -> 19x200 (0 cached)" in capsys.readouterr().out
    assert len(list(cache.glob("*.bin"))) == 39
    assert len(list(cache.glob("*.json"))) == 39

    # a second pass finds every tensor already cached
    assert main(["preprocess", "--config", cfg, "--data", str(data),
                 "--cache", str(cache)]) == 0
    assert "(39 cached)" in capsys.readouterr().out


def test_cache_directory_from_environment(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, {})
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--out", str(data), "--participants", "3"])
    monkeypatch.setenv("EMOMSASE_CACHE", str(tmp_path / "envcache"))
    assert main(["preprocess", "--config", cfg, "--data", str(data)]) == 0
    assert (tmp_path / "envcache").is_dir()
    capsys.readouterr()


def test_flag_beats_config_beats_default(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"synth": {"participants": 4}})
    assert main(["synth", "--config", cfg,
                 "--out", str(tmp_path / "a")]) == 0
    assert "for 4 participants" in capsys.readouterr().out
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--participants", "2"]) == 0
    assert "for 2 participants" in capsys.readouterr().out


def test_chain_edit_invalidates_the_cache(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, {
        "hidden_size": 8, "target": "valence", "split": "loso",
        "train": {"max_epochs": 1, "patience": 0, "batch_size": 8},
    })
    data, cache = tmp_path / "data", tmp_path / "cache"
    main(["synth", "--config", cfg, "--out", str(data), "--participants", "3"])
    assert main(["preprocess", "--config", cfg, "--data", str(data),
                 "--cache", str(cache)]) == 0
    row = dataio.CHANNEL_CATALOG["L_EP_Y"]
    monkeypatch.setitem(dataio.CHANNEL_CATALOG, "L_EP_Y", row._replace(
        chain=dataclasses.replace(row.chain, tail=row.chain.tail + 100)))
    capsys.readouterr()
    assert main(["preprocess", "--config", cfg, "--data", str(data),
                 "--cache", str(cache)]) == 0
    printed = capsys.readouterr().out
    assert "L_EP_Y: 39 recordings -> 20x200 (0 cached)" in printed
    assert "pruned 39 stale tensor(s)" in printed
    # the superseded tensors are gone, so the cache trains without clearing
    assert len(list(cache.glob("*.bin"))) == len(list(cache.glob("*.json"))) == 39
    assert main(["run", "--config", cfg, "--cache", str(cache),
                 "--ratings", str(data / "ratings.csv"),
                 "--out", str(tmp_path / "out")]) == 0
    # a warm pass finds nothing stale and says nothing about pruning
    capsys.readouterr()
    assert main(["preprocess", "--config", cfg, "--data", str(data),
                 "--cache", str(cache)]) == 0
    printed = capsys.readouterr().out
    assert "(39 cached)" in printed and "pruned" not in printed


def test_pruning_keeps_foreign_files_and_unlisted_tensors(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, {})
    data, cache = tmp_path / "data", tmp_path / "cache"
    main(["synth", "--config", cfg, "--out", str(data), "--participants", "1"])
    assert main(["preprocess", "--config", cfg, "--data", str(data),
                 "--cache", str(cache)]) == 0
    # a tensor pair of a participant this manifest does not list
    stray = preprocess.WindowedTensor(np.zeros((19, 200)), ("p99", "video01", "L_EP_Y"))
    preprocess.save_tensor(stray, cache / "unlisted")
    # files that are not tensor pairs, and a pair that is not a tensor
    foreign = {"notes.txt": b"hello", "lone.json": b"{}", "other.json": b"[1, 2]",
               "other.bin": b"\0", "broken.json": b"{not json", "broken.bin": b""}
    for name, content in foreign.items():
        (cache / name).write_bytes(content)
    row = dataio.CHANNEL_CATALOG["L_EP_Y"]
    monkeypatch.setitem(dataio.CHANNEL_CATALOG, "L_EP_Y", row._replace(
        chain=dataclasses.replace(row.chain, tail=row.chain.tail + 100)))
    capsys.readouterr()
    assert main(["preprocess", "--config", cfg, "--data", str(data),
                 "--cache", str(cache)]) == 0
    assert "pruned 13 stale tensor(s)" in capsys.readouterr().out
    for name, content in foreign.items():
        assert (cache / name).read_bytes() == content
    assert preprocess.load_tensor(cache / "unlisted").source == stray.source
    assert len(list(cache.glob("*.bin"))) == 13 + 3  # new tensors, stray, other, broken


def test_unpiped_channel_writes_nothing(tmp_path, capsys):
    cfg = _write_config(tmp_path, {})
    data, cache = tmp_path / "data", tmp_path / "cache"
    main(["synth", "--config", cfg, "--out", str(data), "--participants", "1"])
    n = 512  # 2 s of GSR, which the trunk unit records but no chain conditions
    gsr = dataio.RawRecording(
        participant_id="p01", video_id="video01", channel="GSR", sample_rate_hz=256.0,
        timestamps_ms=np.round(np.arange(n) * 1000.0 / 256.0).astype(np.int64),
        values=np.zeros(n))
    dataio.write_recording_csv(gsr, data / "gsr.csv")
    with open(data / "manifest.csv", "a") as fh:
        fh.write("gsr.csv,p01,video01,Trunk,GSR,256.0\n")
    capsys.readouterr()
    assert main(["preprocess", "--config", cfg, "--data", str(data),
                 "--cache", str(cache)]) == 1
    assert "no conditioning chain for channel 'GSR'" in capsys.readouterr().err
    assert list(cache.glob("*")) == []


def _exit_and_error(argv):
    """``main``'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_rule_judges_every_channel_list(tmp_path_factory, data):
    # one domain's names, a misspelling, non-strings; repeats come by drawing
    domain = data.draw(st.sampled_from([d.value for d in dataio.Domain]))
    pool = [ch for ch, row in dataio.CHANNEL_CATALOG.items() if row.domain == domain]
    names = data.draw(st.lists(st.sampled_from([*pool, "Hed", 3, ["EDA"]]),
                               min_size=1, max_size=4))
    rules = []
    for owner_domain in (None, domain):
        try:
            dataio.check_channels(names, owner_domain)
            rules.append(None)
        except dataio.DataError as exc:
            rules.append(str(exc))
    rule = rules[0]
    assert rules[1] == rule  # every name is of this domain or of none

    try:
        dataio.SyntheticSpec(n_participants=1, seed=0, class_separation=1.0,
                             channels=tuple(names))
        assert rule is None, names
    except dataio.DataError as exc:
        assert str(exc) == rule, names

    tmp = tmp_path_factory.mktemp("channels")
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps({"domains": [domain], "channels": {domain: names}}))
    # an accepted list gets as far as the refused participant count
    code, err = _exit_and_error(["synth", "--config", str(cfg), "--out", str(tmp / "data"),
                                 "--participants", "0"])
    assert (code, err) == ((2, f"error: setting channels: {rule}\n") if rule
                           else (1, "error: need at least one participant\n")), names
    assert not (tmp / "data").exists()

    # an accepted list gets as far as the missing manifest
    code, err = _exit_and_error(["preprocess", "--config", str(cfg), "--data", str(tmp),
                                 "--cache", str(tmp / "cache")])
    assert (code, err) == ((2, f"error: setting channels: {rule}\n") if rule
                           else (1, f"error: manifest not found: {tmp / 'manifest.csv'}\n")), names


def test_interrupted_sidecar_write_is_a_miss(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, {})
    data, cache = tmp_path / "data", tmp_path / "cache"
    main(["synth", "--config", cfg, "--out", str(data), "--participants", "1"])
    real_replace = os.replace

    def failing_replace(src, dst):
        if str(dst).endswith(".json"):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(["preprocess", "--config", cfg, "--data", str(data),
                 "--cache", str(cache)]) == 1
    # the binary landed, its sidecar did not, and no temporary file is left
    assert [p.suffix for p in cache.iterdir()] == [".bin"]
    monkeypatch.setattr(os, "replace", real_replace)
    capsys.readouterr()
    assert main(["preprocess", "--config", cfg, "--data", str(data),
                 "--cache", str(cache)]) == 0
    assert "L_EP_Y: 13 recordings -> 19x200 (0 cached)" in capsys.readouterr().out
    assert len(list(cache.glob("*.json"))) == 13


@pytest.fixture(scope="module")
def small_cache(tmp_path_factory):
    """A conditioned three-participant eye-channel cache and its dataset."""
    root = tmp_path_factory.mktemp("small")
    cfg = _write_config(root, {
        "hidden_size": 8, "target": "valence", "split": "loso",
        "train": {"max_epochs": 1, "patience": 0, "batch_size": 8},
    })
    main(["synth", "--config", cfg, "--out", str(root / "data"), "--participants", "3"])
    assert main(["preprocess", "--config", cfg, "--data", str(root / "data"),
                 "--cache", str(root / "cache")]) == 0
    return root


def _run_argv(root, out, ratings=None, cache=None):
    return ["run", "--config", str(root / "config.json"), "--cache", str(cache or root / "cache"),
            "--ratings", str(ratings or root / "data" / "ratings.csv"), "--out", str(out)]


MANIFEST_HEADER = "file,participant_id,video_id,domain,channel,sample_rate_hz\n"
RATINGS_HEADER = "participant_id,video_id,valence,arousal,sex\n"
G2_HEADER = "video_id,g2_valence,g2_arousal\n"


@pytest.mark.parametrize("table, text, line", [
    ("manifest.csv", MANIFEST_HEADER.replace(",sample_rate_hz", "")
     + "x.csv,p01,video01,Head,L_EP_Y\n", None),
    ("ratings.csv", RATINGS_HEADER.replace(",sex", "") + "p01,video01,6,6\n", None),
    ("ratings.csv", RATINGS_HEADER + "p01,video01,6,6,Male\np01,video02,low,2,Male\n", 3),
    ("g2_table.csv", G2_HEADER + "video01,XX,HA\n", 2),
    ("g2_table.csv", G2_HEADER + "video01,HV,HA\nvideo02,LV\n", 3),
    ("ratings.csv", RATINGS_HEADER + "p01,video01,6,6,Male,6\n", 2),
    ("ratings.csv", RATINGS_HEADER + "p01,video01,6,6,Male\np01,video01,2,2,Male\n", 3),
    ("g2_table.csv", G2_HEADER + "video01,HV,HA\nvideo01,LV,LA\n", 3),
    ("g2_table.csv", G2_HEADER + "video01,HA,HA\n", 2),
    ("ratings.csv", RATINGS_HEADER + "p01,video01,9,2,Male\n", 2),
    ("manifest.csv", MANIFEST_HEADER, None),
], ids=["manifest-no-rate-column", "ratings-no-sex-column", "ratings-not-a-number",
        "g2-unknown-code", "g2-short-row", "ratings-long-row", "ratings-repeated-pair",
        "g2-repeated-video", "g2-arousal-code-for-valence", "ratings-out-of-scale",
        "manifest-no-rows"])
def test_malformed_table_exits_1_naming_file_and_line(small_cache, tmp_path, capsys,
                                                      table, text, line):
    path = tmp_path / table
    path.write_text(text)
    if table == "manifest.csv":
        argv = ["preprocess", "--data", str(tmp_path), "--cache", str(tmp_path / "cache")]
    elif table == "ratings.csv":
        argv = _run_argv(small_cache, tmp_path / "out", ratings=path)
    else:
        argv = _run_argv(small_cache, tmp_path / "out") + ["--labels", "g2", "--g2", str(path)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}" + (f" line {line}: " if line else ": "))
    assert "Traceback" not in err
    assert not (tmp_path / "cache").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("row, line, message", [
    ("1000,nan", 3, "value nan is not finite"),
    ("1000,-inf", 3, "value -inf is not finite"),
    ("nan,0.5", 3, "timestamp_ms nan is not finite"),
    ("1000.5,0.5", 3, "timestamp_ms 1000.5 is not a whole number"),
    ("\n1000,nan", 4, "value nan is not finite"),  # a blank line still counts
], ids=["value-nan", "value-inf", "timestamp-nan", "timestamp-fraction", "after-blank-line"])
def test_bad_sensor_row_exits_1_naming_file_and_line(tmp_path, capsys, row, line, message):
    cfg = _write_config(tmp_path, {})
    data, cache = tmp_path / "data", tmp_path / "cache"
    assert main(["synth", "--config", cfg, "--out", str(data), "--participants", "1"]) == 0
    path = data / "p01_video07_L_EP_Y.csv"
    lines = path.read_text().split("\n")
    lines[2] = row  # the second data row
    path.write_text("\n".join(lines))
    capsys.readouterr()
    argv = ["preprocess", "--config", cfg, "--data", str(data), "--cache", str(cache)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path} line {line}: {message}\n"
    assert list(cache.glob("*.bin")) == []


def test_run_names_the_channels_a_cache_lacks(small_cache, tmp_path, capsys):
    """An eye-only cache read for peripheral channels is refused, naming them."""
    cfg = _write_config(tmp_path, {"domains": ["Peripheral"],
                                   "channels": {"Peripheral": ["EDA", "TEMP"]}})
    argv = _run_argv(small_cache, tmp_path / "out")
    argv[argv.index("--config") + 1] = cfg
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: cache {small_cache / 'cache'} holds no tensors of channels EDA, TEMP\n")
    assert not (tmp_path / "out").exists()


def test_run_skips_foreign_cache_files_and_names_a_corrupt_tensor(small_cache, tmp_path,
                                                                  capsys):
    cache = tmp_path / "cache"
    shutil.copytree(small_cache / "cache", cache)
    ours = sorted(cache.glob("*.bin"))
    foreign = {"notes.txt": b"hello", "lone.json": b"{}", "other.json": b"[1, 2]",
               "other.bin": b"\0", "broken.json": b"{not json", "broken.bin": b""}
    for name, content in foreign.items():
        (cache / name).write_bytes(content)
    argv = ["run", "--config", str(small_cache / "config.json"), "--cache", str(cache),
            "--ratings", str(small_cache / "data" / "ratings.csv")]
    assert main(_run_argv(small_cache, tmp_path / "clean")) == 0
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert ((tmp_path / "out" / "report.json").read_bytes()
            == (tmp_path / "clean" / "report.json").read_bytes())
    capsys.readouterr()
    data = ours[0].read_bytes()
    for torn in (data[:-3], data[:5]):  # a torn body, then a torn header
        ours[0].write_bytes(torn)
        assert main(argv + ["--out", str(tmp_path / "again")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ours[0]}: not a cached tensor")
        assert "Traceback" not in err


def test_wrong_shape_tensor_fails_at_load_naming_its_entry(small_cache, tmp_path, capsys,
                                                           monkeypatch):
    cache = tmp_path / "cache"
    shutil.copytree(small_cache / "cache", cache)
    stem = preprocess.entry_stems(cache)[0]
    tensor = preprocess.load_tensor(stem)
    preprocess.save_tensor(preprocess.WindowedTensor(tensor.values[:-1], tensor.source), stem)

    def no_fit(*args, **kwargs):
        raise AssertionError("training started on a cache with a wrong-shape tensor")

    monkeypatch.setattr("emomsase.evaluate.fit", no_fit)
    capsys.readouterr()
    assert main(_run_argv(small_cache, tmp_path / "out", cache=cache)) == 1
    err = capsys.readouterr().err
    pid, vid, channel = tensor.source
    assert err.startswith(f"error: cache entry {stem} ({pid}/{vid}/{channel}) holds a (18, 200)")
    assert "its chain gives (19, 200)" in err and "Traceback" not in err


def test_run_skips_channels_its_model_does_not_read(small_cache, tmp_path, monkeypatch):
    """Tensors of a channel the model does not read change no output byte, and
    their binaries are never read, so even a duplicate of one is no error."""
    cache = tmp_path / "cache"
    shutil.copytree(small_cache / "cache", cache)
    for i, stem in enumerate(preprocess.entry_stems(small_cache / "cache")):
        pid, vid, _ = preprocess.load_tensor(stem).source
        extra = preprocess.WindowedTensor(np.ones((19, 200)), (pid, vid, "L_EP_X"))
        preprocess.save_tensor(extra, cache / f"extra{i}")
        if i == 0:
            preprocess.save_tensor(extra, cache / "extra_duplicate")
    read = []
    real_read_bytes = Path.read_bytes

    def recording_read_bytes(path):
        read.append(path.name)
        return real_read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", recording_read_bytes)
    assert main(_run_argv(small_cache, tmp_path / "clean")) == 0
    read.clear()
    assert main(_run_argv(small_cache, tmp_path / "extra", cache=cache)) == 0
    monkeypatch.undo()
    extra_files = [name for name in read if name.startswith("extra")]
    assert extra_files and all(name.endswith(".json") for name in extra_files)

    def outputs(out):
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    clean, extra = outputs(tmp_path / "clean"), outputs(tmp_path / "extra")
    assert any(p.parts[0] == "logs" for p in clean) and clean == extra


@pytest.mark.parametrize("fusion", ["modality", "sum"])
def test_run_bytes_do_not_depend_on_the_process_count(tmp_path, monkeypatch, fusion):
    """One process or two, ``run`` writes the same results.csv, report.json
    and logs/, byte for byte."""
    cfg = _write_config(tmp_path, {
        "domains": ["Peripheral", "Head"],
        "channels": {"Peripheral": ["EDA"], "Trunk": [], "Head": ["L_EP_Y"]},
        "hidden_size": 8, "target": "valence", "split": "loso", "fusion": fusion,
        "train": {"max_epochs": 2, "patience": 2, "batch_size": 8},
    })
    data, cache = tmp_path / "data", tmp_path / "cache"
    assert main(["synth", "--config", cfg, "--out", str(data), "--participants", "3"]) == 0
    assert main(["preprocess", "--config", cfg, "--data", str(data), "--cache", str(cache)]) == 0
    written = []
    for cpus in (1, 2):
        monkeypatch.setattr("emomsase.evaluate.usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"out{cpus}"
        assert main(["run", "--config", cfg, "--cache", str(cache),
                     "--ratings", str(data / "ratings.csv"), "--out", str(out)]) == 0
        written.append({p.relative_to(out): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()})
    members = 1 if fusion == "modality" else 2
    assert len([p for p in written[0] if p.parts[0] == "logs"]) == 3 * members
    assert written[0] == written[1]


@pytest.mark.parametrize("target", ["results.csv", "report.json"])
def test_interrupted_output_write_leaves_no_partial_file(small_cache, tmp_path, capsys,
                                                         monkeypatch, target):
    real_replace = os.replace

    def failing_replace(src, dst):
        if str(dst).endswith(target):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    out = tmp_path / "out"
    assert main(_run_argv(small_cache, out)) == 1
    assert "disk full" in capsys.readouterr().err
    assert not (out / target).exists()
    assert list(out.rglob("*.tmp")) == []


@pytest.mark.parametrize("content", ["[]", '{"experiments": [{}]}', "not json"])
def test_malformed_report_exits_1_naming_the_file(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    path.write_text(content)
    assert main(["report", "--report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a run report")
    assert "Traceback" not in err


def test_run_then_report_round_trip(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "hidden_size": 8,
        "target": "valence",
        "split": "loso",
        "train": {"max_epochs": 2, "patience": 2, "batch_size": 8},
    })
    data = tmp_path / "data"
    cache = tmp_path / "cache"
    out = tmp_path / "out"
    main(["synth", "--config", cfg, "--out", str(data), "--participants", "3"])
    main(["preprocess", "--config", cfg, "--data", str(data),
          "--cache", str(cache)])
    capsys.readouterr()

    assert main(["run", "--config", cfg, "--cache", str(cache),
                 "--ratings", str(data / "ratings.csv"),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "Head [general/valence] loso/modality" in printed
    assert f"results written to {out}" in printed

    results = (out / "results.csv").read_text()
    assert results.splitlines()[0] == "combination,label_case,metric,value"
    assert len(results.splitlines()) == 3  # accuracy and recall for valence

    report = json.loads((out / "report.json").read_text())
    assert len(report["experiments"]) == 1
    assert report["experiments"][0]["scheme"] == "loso"
    assert len(report["experiments"][0]["folds"]) == 3

    for fold in range(3):
        log = out / "logs" / f"valence_fold{fold}_model.csv"
        lines = log.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_accuracy"
        assert len(lines) >= 2

    # the report command re-derives the same summary CSV from the JSON
    summary = tmp_path / "summary.csv"
    assert main(["report", "--report", str(out / "report.json"),
                 "--out", str(summary)]) == 0
    assert summary.read_text() == results
    assert "valence_accuracy" in capsys.readouterr().out


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seeds", "1"]) == 0
    assert "(tolerance 0.001): PASS" in capsys.readouterr().out
    # an impossible tolerance must surface as a failing exit code
    assert main(["gradcheck", "--seeds", "1", "--tolerance", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_synth_refuses_a_non_finite_separation(tmp_path, capsys):
    for value in ("nan", "inf", "-1"):
        out = tmp_path / value
        assert main(["synth", "--out", str(out), "--participants", "1",
                     "--separation", value]) == 1, value
        assert "class separation must be finite and non-negative" in capsys.readouterr().err
        assert not out.exists(), value


@pytest.mark.parametrize("setting, value, message", [
    ("learning_rate", float("nan"), "learning rate must be finite and > 0, not nan"),
    ("learning_rate", float("inf"), "learning rate must be finite and > 0, not inf"),
    ("weight_decay", float("nan"), "weight decay must be finite and >= 0, not nan"),
    ("weight_decay", -1.0, "weight decay must be finite and >= 0, not -1.0")])
def test_run_refuses_a_non_finite_training_rate(tmp_path, monkeypatch, capsys,
                                                setting, value, message):
    def no_load(*args, **kwargs):
        raise AssertionError("a refused setting must stop before any data loads")
    monkeypatch.setattr("emomsase.cli._load_samples", no_load)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"train": {setting: value}}))  # json writes NaN and Infinity
    assert main(["run", "--config", str(cfg), "--cache", str(tmp_path / "cache"),
                 "--ratings", "r.csv", "--out", str(tmp_path / "o")]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("channel", ["TEMP", "L_EP_Y"])
def test_preprocess_refuses_a_non_finite_sample_rate(tmp_path, capsys, channel):
    """A ``nan`` rate fails validation, naming the recording, before any
    tensor is written: neither the TEMP chain, which resamples by the rate,
    nor the eye chain, which ignores it, gets to run."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"channels": {"Peripheral": ["TEMP"], "Trunk": [],
                                            "Head": ["L_EP_Y"]}}))
    data, cache = tmp_path / "data", tmp_path / "cache"
    assert main(["synth", "--config", str(cfg), "--out", str(data),
                 "--participants", "1"]) == 0
    manifest = data / "manifest.csv"
    lines = manifest.read_text().splitlines(keepends=True)
    (row,) = [i for i, line in enumerate(lines) if line.startswith(f"p01_video02_{channel}.csv,")]
    lines[row] = lines[row].rsplit(",", 1)[0] + ",nan\n"  # rows before it are well formed
    manifest.write_text("".join(lines))
    capsys.readouterr()
    assert main(["preprocess", "--data", str(data), "--cache", str(cache)]) == 1
    err = capsys.readouterr().err
    assert f"error: p01/video02/{channel}: sample rate must be finite and > 0, not nan" in err
    assert not list(cache.glob("*.bin"))


def test_preprocess_names_the_recording_it_cannot_condition(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"domains": ["Peripheral"], "channels": {"Peripheral": ["TEMP"]}}))
    data, cache = tmp_path / "data", tmp_path / "cache"
    assert main(["synth", "--config", str(cfg), "--out", str(data),
                 "--participants", "1", "--seed", "3"]) == 0
    flat = data / "p01_video02_TEMP.csv"
    header, *rows = flat.read_text().splitlines()
    flat.write_text("\n".join([header, *(row.split(",")[0] + ",33.5" for row in rows)]) + "\n")
    capsys.readouterr()
    assert main(["preprocess", "--data", str(data), "--cache", str(cache)]) == 1
    assert capsys.readouterr().err == "error: p01/video02/TEMP: constant signal has no z-score\n"


def test_gradcheck_refuses_flags_that_check_nothing(monkeypatch, capsys):
    def no_check(*args, **kwargs):
        raise AssertionError("a refused flag must stop before any check runs")
    monkeypatch.setattr("emomsase.cli.grad_check", no_check)
    for flag, value in [("--seeds", "0"), ("--seeds", "-3"), ("--hidden", "0"),
                        ("--tolerance", "-1"), ("--tolerance", "0"),
                        ("--tolerance", "nan"), ("--tolerance", "inf")]:
        assert main(["gradcheck", flag, value]) == 2, (flag, value)
        captured = capsys.readouterr()
        assert f"error: {flag} must be" in captured.err and captured.out == ""


def test_usage_errors_exit_2(tmp_path, capsys, monkeypatch):
    assert main(["synth"]) == 2  # no output directory anywhere

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    bad.write_text(json.dumps({"train": {"momentum": 0.9}}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    bad.write_text("not json")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    assert main(["run"]) == 2  # cache, ratings and out all missing
    assert main(["run", "--cache", str(tmp_path / "nope"),
                 "--ratings", "r.csv", "--out", str(tmp_path / "o"),
                 "--domains", "knees"]) == 2
    run = ["run", "--cache", str(tmp_path / "nope"), "--ratings", "r.csv",
           "--out", str(tmp_path / "o")]
    synth = ["synth", "--out", str(tmp_path / "x")]
    taken = tmp_path / "taken"  # a file where a directory setting points
    taken.write_text("")
    for command, cfg, message in [
            (["synth", "--out", str(taken)], {},
             f"setting out names a file, not a directory: {taken}"),
            (["preprocess", "--data", str(tmp_path), "--cache", str(taken)], {},
             f"setting cache names a file, not a directory: {taken}"),
            (["run", "--cache", str(tmp_path), "--ratings", "r.csv", "--out", str(taken)], {},
             f"setting out names a file, not a directory: {taken}"),
            (["synth", "--out", str(taken / "sub")], {},  # a file on the way to the directory
             f"setting out names a file, not a directory: {taken}"),
            (["preprocess", "--data", str(tmp_path), "--cache", str(taken / "sub")], {},
             f"setting cache names a file, not a directory: {taken}"),
            (["run", "--cache", str(tmp_path), "--ratings", "r.csv",
              "--out", str(taken / "sub" / "deeper")], {},
             f"setting out names a file, not a directory: {taken}"),
            (run, {"train": {"learning_rate": None}}, "setting learning_rate must be"),
            (run, {"hidden_size": [8]}, "setting hidden_size must be"),
            (run, {"hidden_size": "big"}, "setting hidden_size must be"),
            (run, {"hidden_size": 8.9}, "setting hidden_size must be of type int"),
            (run, {"train": {"batch_size": True}}, "setting batch_size must be of type int"),
            (run, {"train": {"learning_rate": True}}, "setting learning_rate must be"),
            (run, {"hidden_size": "8"}, "setting hidden_size must be of type int"),
            (run, {"train": {"learning_rate": "1e-2"}},
             "setting learning_rate must be of type float"),
            (run, {"fusion": "bogus"}, "setting fusion must be one of"),
            (run, {"target": "dominance"}, "setting target must be one of"),
            (run, {"labels": "bogus"}, "setting labels must be one of"),
            (run, {"boundary": "le5"}, "setting boundary must be one of"),
            (run, {"variant": "transformer"}, "setting variant must be one of"),
            (run, {"split": "holdout"}, "setting split must be one of"),
            (run, {"domains": ["peripheral", "knees"]}, "unknown domain 'knees'"),
            (run, {"domains": 3}, "setting domains must be a list"),
            (run, {"channels": {"Head": ["ACC_Z"]}},
             "setting channels: channel 'ACC_Z' is not a Head channel"),
            (run, {"channels": {"Head": ["BOGUS"]}}, "setting channels: unknown channel 'BOGUS'"),
            (run, {"channels": {"Hed": ["ACC_Z"]}}, "channels key 'Hed' is not a domain"),
            (run, {"channels": {"Head": "L_EP_Y"}}, "setting channels must map"),
            (run, {"channels": {"Trunk": ["GSR"]}},
             "setting channels: channel 'GSR' has no conditioning chain"),
            (run, {"domains": ["Head"], "channels": {"Head": ["L_EP_Y", "L_EP_Y"]}},
             "setting channels: channel 'L_EP_Y' is listed more than once"),
            (run, {"fusion": "sum", "domains": ["Head"]},
             "decision fusion needs at least two domains"),
            (synth, {"synth": {"participants": None}}, "setting participants must be"),
            (synth, {"synth": {"separation": "wide"}}, "setting separation must be"),
            (synth, {"synth": {"participants": "6"}}, "setting participants must be of type int"),
            (synth, {"seed": None}, "setting seed must be"),
            (synth, {"channels": {"Head": ["Hed"]}}, "setting channels: unknown channel 'Hed'"),
            (synth, {"channels": {"Trunk": ["GSR"]}},
             "setting channels: channel 'GSR' has no conditioning chain"),
            (synth, {"channels": {"Peripheral": "EDA"}}, "setting channels must map"),
            (synth, {"domains": ["Peripheral"], "channels": {"Peripheral": []}},
             "no channels configured for the selected domains"),
            (synth, {"channels": {"Peripheral": ["EDA", "TEMP", "EDA"]}},
             "setting channels: channel 'EDA' is listed more than once"),
            (synth, {"synth": {"channels": ["EDA"]}}, "unknown synth config key(s): channels"),
            (["synth"], {"out": 5}, "setting out must be a path string, not 5"),
            (["run"], {"cache": ["x"], "ratings": "r.csv", "out": "o"},
             "setting cache must be a path string, not ['x']"),
            (["preprocess", "--data", str(tmp_path)], {"cache": 3},
             "setting cache must be a path string, not 3")]:
        bad.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main([*command, "--config", str(bad)]) == 2, cfg
        assert f"error: {message}" in capsys.readouterr().err, cfg
    assert not (tmp_path / "x").exists()  # no refused synth wrote anything

    def no_load(*args, **kwargs):
        raise AssertionError("a refused seed must stop before any data loads")
    monkeypatch.setattr("emomsase.cli._load_samples", no_load)
    monkeypatch.setattr("emomsase.dataio.make_synthetic", no_load)
    bad.write_text(json.dumps({"seed": -1}))
    for argv in ([*run, "--seed", "-1"], [*run, "--seed", "-1", "--split", "loso"],
                 [*synth, "--seed", "-1"], [*run, "--config", str(bad)],
                 [*synth, "--config", str(bad)]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert "error: setting seed must be >= 0, not -1" in capsys.readouterr().err, argv
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["run", "--split", "holdout"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_config_numbers_cast_only_when_exact(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"hidden_size": 8.0, "train": {"learning_rate": 1},
                               "variant": VARIANTS[-1]}))
    settings = resolve_settings(build_parser().parse_args(["run", "--config", str(cfg)]))
    assert _model_config(settings).hidden_size == 8
    assert _model_config(settings).variant == VARIANTS[-1]  # a string setting takes a string
    assert _train_config(settings).learning_rate == 1.0


def test_load_samples_casts_the_float64_cache_to_the_training_dtype(small_cache):
    cache = small_cache / "cache"
    samples = _load_samples(cache)
    stems = preprocess.entry_stems(cache)
    assert sum(len(s.tensors) for s in samples) == len(stems)
    for stem in stems:
        tensor = preprocess.load_tensor(stem)
        pid, vid, channel = tensor.source
        (sample,) = [s for s in samples if (s.participant_id, s.video_id) == (pid, vid)]
        values = sample.tensors[channel]
        assert tensor.values.dtype == np.float64 and values.dtype == DTYPE
        assert np.array_equal(values, tensor.values.astype(np.float32))


def test_config_domains_parse_like_the_flag(tmp_path):
    cfg = tmp_path / "c.json"
    for domains in (["peripheral", "Trunk"], "trunk, PERIPHERAL"):
        cfg.write_text(json.dumps({"domains": domains}))
        args = build_parser().parse_args(["run", "--config", str(cfg)])
        assert resolve_settings(args)["domains"] == ["Peripheral", "Trunk"]
    args = build_parser().parse_args(["run", "--domains", "trunk,peripheral"])
    assert resolve_settings(args)["domains"] == ["Peripheral", "Trunk"]


def test_cli_defaults_are_the_records_defaults():
    assert _train_config(DEFAULTS) == TrainConfig(seed=0)
    model = _model_config(DEFAULTS)
    for f in dataclasses.fields(ModelConfig):
        if f.default is not dataclasses.MISSING:
            assert getattr(model, f.name) == f.default
    assert model.channels == dataio.BEST_CHANNELS


def test_runtime_errors_exit_1(tmp_path, capsys, monkeypatch):
    assert main(["preprocess", "--data", str(tmp_path / "missing"),
                 "--cache", str(tmp_path / "cache")]) == 1
    assert main(["report", "--report", str(tmp_path / "none.json")]) == 2
    cfg = _write_config(tmp_path, {})
    data = tmp_path / "data"
    cache = tmp_path / "cache2"
    main(["synth", "--config", cfg, "--out", str(data), "--participants", "6"])
    main(["preprocess", "--config", cfg, "--data", str(data),
          "--cache", str(cache)])
    assert main(["run", "--config", cfg, "--cache", str(cache),
                 "--ratings", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "out")]) == 1
    capsys.readouterr()
    # a manifest row that disagrees with the channel catalogue
    bad = tmp_path / "bad_manifest"
    bad.mkdir()
    (bad / "manifest.csv").write_text(
        "file,participant_id,video_id,domain,channel,sample_rate_hz\n"
        "x.csv,p01,video01,Trunk,L_EP_Y,1.0\n")
    assert main(["preprocess", "--data", str(bad), "--cache", str(cache)]) == 1
    assert "x.csv: L_EP_Y belongs to domain Head" in capsys.readouterr().err
    # a sample rate that is not a number
    (bad / "manifest.csv").write_text(
        "file,participant_id,video_id,domain,channel,sample_rate_hz\n"
        "x.csv,p01,video01,Head,L_EP_Y,fast\n")
    assert main(["preprocess", "--data", str(bad), "--cache", str(cache)]) == 1
    assert "x.csv: sample_rate_hz 'fast' is not a number" in capsys.readouterr().err
    # a diverging step turns the activations non-finite
    huge_lr = _write_config(tmp_path, {"train": {"learning_rate": 1e200}})
    with pytest.warns(RuntimeWarning):  # the weights overflow before the activations do
        assert main(["run", "--config", huge_lr, "--cache", str(cache),
                     "--ratings", str(data / "ratings.csv"),
                     "--out", str(tmp_path / "out")]) == 1
    assert "error: non-finite" in capsys.readouterr().err
    # a replayed (or inference) tape is a runtime error, not a traceback
    def replayed(tape, out, seed=1.0):
        raise ad.TapeConsumedError("tape already replayed")
    monkeypatch.setattr(ad.Tape, "backward", replayed)
    assert main(["gradcheck", "--seeds", "1"]) == 1
    assert "error: tape already replayed" in capsys.readouterr().err


def test_every_package_export_resolves():
    assert [name for name in emomsase.__all__ if not hasattr(emomsase, name)] == []


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "emomsase", "gradcheck", "--seeds", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
