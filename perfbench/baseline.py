"""Run the benchmark over several seeds and summarize it as a baseline JSON.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 40 --out baseline.json

For each workload it runs `run.py --trace 0` once per seed, one run at a
time, and records each end-to-end metric's median, quartiles and spread
(the distance between the quartiles as a share of the median), the output
digest of every seed and the failed runs.  It then runs `run.py --trace 1`
on the first seed and records the per-layer metrics.  Run it from the root
of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = ROOT / ".perfbench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return report, json.loads(saved.read_text())["digest"]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    import numpy
    summary = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        entry = {"attempted": 0, "failed": 0, "digests": {}}
        for seed in seeds:
            report, digest = bench(workload, seed, args.seconds, 0)
            entry["attempted"] += report["attempted"]
            entry["failed"] += report["failed"]
            entry["digests"][str(seed)] = digest
            for name, metric in report["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        entry["end_to_end"] = {name: {"unit": units[name], **summarize(v)}
                               for name, v in values.items()}
        report, _ = bench(workload, seeds[0], args.seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {name: metric["value"] for name, metric in report["metrics"].items()}
        summary["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {stats['median']:.6g} spread {stats['spread']:.3f}")
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
