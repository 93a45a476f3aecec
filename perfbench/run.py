"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {train,infer} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Set-up runs several times and its median
is ``setup_s``; timed passes of the workload then repeat, closed loop with
one caller, until ``--seconds`` have passed (at least two passes).  With
``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` passes alternate untraced and traced,
one traced ingest pass and the kernel micro-benchmarks follow, and the
last line carries the per-layer metrics.  Every pass is checked by its
workload's correctness gates, and a traced run also by the profile its
workload predicts; each failure counts in ``failed``.  A full report
(provenance, stage times, gates, profile, kernels) goes to
``.perfbench/results/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_PASSES = 2
# Stages of all workloads; the traced run reports each, 0 where a workload has none.
STAGES = ("synth", "preprocess_cold", "preprocess_warm", "run", "cache_load", "predict")


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def host_reference_s() -> float:
    """Time a fixed computation that never calls the program.

    An interpreter loop, numpy elementwise math and a small matrix product:
    when this drifts between runs, the host's speed moved, not the program's.
    """
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    x = np.linspace(0.0, 1.0, 100_000)
    for _ in range(30):
        np.tanh(x) * np.exp(-x)
    a, b = np.ones((128, 256)), np.ones((256, 512))
    for _ in range(30):
        a @ b
    return time.perf_counter() - t0


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or a note when there is none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "nproc": nproc, "cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
        "git_commit": git_commit(ROOT), "workload_seed": seed,
    }


def load_contract() -> dict:
    """BENCHMARK.json, with its metric names and units checked."""
    from stats import valid_name, valid_unit

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not valid_name(metric["name"]) or not valid_unit(metric["unit"]):
                raise ValueError(f"invalid metric {metric}")
    return spec


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def stage_seconds(tracer, pass_idx: int) -> dict[str, float]:
    from spans import END, NAME, PARENT, START

    return {s[NAME][len("stage."):]: s[END] - s[START] for s in tracer.spans[pass_idx + 1:]
            if s[PARENT] == pass_idx and s[NAME].startswith("stage.")}


def timed_pass(wl, state, tracer, pass_dir: Path, kind: str) -> tuple[dict, object]:
    """One pass: its stages timed inside a ``pass`` span, then its gates.

    A ``traced`` or ``probe`` pass runs with every layer instrumented.
    """
    import layers

    if kind != "plain":
        layers.instrument(tracer)
    try:
        try:
            with tracer.span("pass") as idx:
                outcome = wl.run_pass(state, tracer, pass_dir)
        finally:
            tracer.restore()  # the gates below must not be traced
        fails, record = wl.check(state, outcome)
    except Exception as exc:  # a failing pass is counted, not fatal
        fails, record = [f"{type(exc).__name__}: {exc}"], None
    shutil.rmtree(pass_dir, ignore_errors=True)
    stages = stage_seconds(tracer, idx)
    return {"kind": kind, "stages": stages, "seconds": sum(stages.values()),
            "failures": fails}, record


def run(args) -> dict:
    """Set up, run the passes, check them; return the full report."""
    import layers
    import stats
    from kernels import run_kernels
    from spans import Tracer
    from workloads import INGEST_PROBE, WORKLOADS

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Files live only seconds: each set-up replaces the last one's and each
    # pass's files go right after its gates, so most data is deleted before
    # the operating system writes it to disk.  With every file kept until
    # the run ended, ingest pass times grew from one run to the next.
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work / "setup", ignore_errors=True)
            t0 = time.perf_counter()
            state = wl.setup(work / "setup", args.seed)
            setups.append(time.perf_counter() - t0)

        plain, full, probe = Tracer(), Tracer(), Tracer()
        passes, records, host_refs = [], [], []
        deadline = time.perf_counter() + args.seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            host_refs.append(host_reference_s())
            traced = bool(args.trace) and len(passes) % 2 == 1
            entry, record = timed_pass(wl, state, full if traced else plain,
                                       work / f"pass{len(passes)}",
                                       "traced" if traced else "plain")
            passes.append(entry)
            records.append(record)
        for i, msg in wl.finish(state, records):
            passes[i]["failures"].append(msg)

        kernels, kernel_metrics = {}, {}
        if args.trace:
            try:
                probe_state = INGEST_PROBE.setup(work / "probe_setup", args.seed)
                entry, _ = timed_pass(INGEST_PROBE, probe_state, probe, work / "probe", "probe")
            except Exception as exc:
                entry = {"kind": "probe", "stages": {}, "seconds": 0.0,
                         "failures": [f"ingest probe: {type(exc).__name__}: {exc}"]}
            passes.append(entry)
            try:
                kernels, kernel_metrics = run_kernels(args.seed, work)
            except Exception as exc:
                passes.append({"kind": "kernels", "stages": {}, "seconds": 0.0,
                               "failures": [f"kernels: {type(exc).__name__}: {exc}"]})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    traced_passes = [p for p in passes if p["kind"] == "traced"]
    if args.trace:
        profile = layers.Profile(full.spans, len(traced_passes))
        probe_profile = layers.Profile(probe.spans, 1)
        expectations = wl.expectations(profile)
        for claim, held in INGEST_PROBE.expectations(probe_profile).items():
            expectations[f"ingest probe: {claim}"] = held
        passes.append({"kind": "profile", "stages": {}, "seconds": 0.0,
                       "failures": [f"profile expectation not met: {claim}"
                                    for claim, held in expectations.items() if not held]})

    plain_passes = [p for p in passes if p["kind"] == "plain" and p["stages"]]
    probe_stages = next((p["stages"] for p in passes if p["kind"] == "probe"), {})

    def stage_median(name):
        return stats.median([p["stages"][name] for p in plain_passes if name in p["stages"]])

    stage_m, own_stages = {}, {}
    for name in STAGES:
        seconds = probe_stages.get(name) or stage_median(name)
        if name == "predict":
            metric = ("stage.predict_samples_per_s",
                      (wl.samples() / seconds if seconds else 0.0, "samples/s"))
        else:
            metric = (f"stage.{name}_s", (seconds, "s"))
        stage_m[metric[0]] = metric[1]
        if name in wl.stages:
            own_stages[metric[0]] = metric[1]
    end_to_end = {
        "setup_s": (stats.median(setups), "s"),
        "pass_s": (stats.median([p["seconds"] for p in plain_passes]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    host_ms = (1000.0 * stats.median(host_refs), "ms")
    failed = sum(1 for p in passes if p["failures"])
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "setup_runs_s": setups, "passes": passes,
        "attempted": len(passes), "failed": failed,
        "failed_ratio": failed / len(passes),
        "end_to_end": end_to_end,
        "stages": {**own_stages, "host.reference_ms": host_ms},
    }
    if args.trace:
        probe_m = probe_profile.metrics()
        layer_m = {name: probe_m[name] if name.startswith(layers.PROBE_LAYERS) else value
                   for name, value in profile.metrics().items()}
        untraced = end_to_end["pass_s"][0]
        traced = stats.median([p["seconds"] for p in traced_passes])
        trace_m = {
            "trace.pass_s.untraced": (untraced, "s"), "trace.pass_s.traced": (traced, "s"),
            "trace.overhead_share": (traced / untraced - 1.0 if untraced else 0.0, "ratio"),
            "trace.spans": (len(full.spans) / max(1, len(traced_passes)), "count"),
            "host.reference_ms": host_ms,
        }
        report.update({
            "per_layer": {**layer_m, **kernel_metrics, **stage_m, **trace_m},
            "percentile_samples": profile.sample_counts(),
            "step_shares": profile.step_shares(),
            "expectations": expectations,
            "kernels": kernels, "spans": full.export(), "probe_spans": probe.export(),
        })
    return report


def main(argv=None) -> int:
    if not (ROOT / "src" / "emomsase" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    contract = load_contract()
    prov = provenance(args.seed, nproc)

    report = run(args)
    report["provenance"] = prov
    group = "per_layer" if args.trace else "end_to_end"
    produced = report[group]
    metrics = {}
    for metric in contract[group]:
        value, unit = produced[metric["name"]]
        if unit != metric["unit"]:
            raise ValueError(f"{metric['name']}: unit {unit}, BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = {"value": value, "unit": unit}

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    shown = {**report["end_to_end"], **report["stages"], **report.get("per_layer", {})}
    for name, (value, unit) in shown.items():
        print(f"{name:<52} {value:>14.6g} {unit}")
    print(f"{'failed_ratio':<52} {report['failed_ratio']:>14.6g} failed/attempted")
    for p in report["passes"]:
        for msg in p["failures"]:
            print(f"GATE FAILED: {msg}")
    for claim, held in report.get("expectations", {}).items():
        print(f"profile expectation {'held' if held else 'NOT MET'}: {claim}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"report {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
