"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads train infer --seeds 1-10

For every workload and end-to-end metric this prints the median of the
runs and the interquartile distance as a share of the median (the rule
``stats.relative_spread`` implements), next to a third of the metric's
bound from BENCHMARK.json.  Runs go one after another, never in parallel,
so they do not compete for the CPUs; their result lines are appended to
``.perfbench/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, relative_spread

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    log = ROOT / ".perfbench" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(last)
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        if len(args.seeds) < 2:
            continue
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            spread = relative_spread(vals)
            print(f"{workload:<8} {metric['name']:<14} median {median(vals):<12.5g} "
                  f"spread {spread:.4f}  (a third of the bound: {metric['bound'] / 3:.4f})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
