"""The laglearn benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports laglearn from src/
and writes only under .perfbench_out/.  The seed is the experiment seed of
the workload's generated config.

--trace 0 runs `run_experiment` in fresh child processes, one at a time,
until S seconds are used.  It reports the wall time and the round x trials
per unit of time over all those runs, in units of a reference loop, and the
medians of set-up time (import to validated config) and of peak RSS.
--trace 1 runs the workload once untraced, twice with spans around every
call into a layer and once under tracemalloc, and reports the per-layer
metrics; it does not look at S.

Every run's outputs are checked (see child.py), and all runs of one seed
must write byte-identical outputs.  A run that raises or fails a check
counts as failed.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, config_text

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
TIME_LIMIT_S = 170.0        # the whole invocation must end well within 180 s
COVERAGE_TOLERANCE = 0.03   # layer self times must add up to the traced wall time

# Times of runs are given in units of a reference loop timed in the same
# child (see child.reference_s): the machine's speed drifts too much for raw
# wall times to be compared between invocations.
END_TO_END = {
    "wall_ref": "ref",
    "round_trials_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def inputs_hash(config: Path) -> str:
    """SHA-256 over the config and the package sources that produce the outputs."""
    digest = hashlib.sha256(config.read_bytes())
    for path in sorted((ROOT / "src" / "laglearn").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".ini"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Invocation:
    """Child runs of one workload and seed, within one time limit."""

    def __init__(self, workload: str, seed: int, horizon: int | None):
        self.workload = workload
        self.seed = seed
        self.work = OUT / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "config.ini"
        self.config.write_text(config_text(workload, seed, horizon), encoding="utf-8")
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.runs: list[dict] = []

    def child(self, mode: str) -> dict:
        """Run one child process; record it unless it only warms caches."""
        run_id = f"{self.workload}-seed{self.seed}-{mode}{len(self.runs)}"
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(CHILD), mode, str(self.config), str(out), run_id]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                                  timeout=max(self.deadline - time.monotonic(), 1.0))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"errors": ["child printed nothing"]}
        except subprocess.TimeoutExpired:
            result = {"errors": [f"{mode} run did not end within the time limit"]}
        except json.JSONDecodeError as exc:
            result = {"errors": [f"unreadable child result: {exc}"]}
        result.setdefault("errors", [])
        result["mode"] = mode
        if mode != "warm":
            self.runs.append(result)
        return result

    def time_left(self) -> bool:
        return time.monotonic() < self.deadline

    def check_digests(self) -> tuple[str | None, str]:
        """Fail every run whose outputs differ from this seed's other runs.

        The digest is also compared with earlier invocations on the same
        config and sources, and reported against the committed baseline.
        """
        digests = [r["digest"] for r in self.runs if "digest" in r and not r["errors"]]
        if not digests:
            return None, "no digest"
        digest = collections.Counter(digests).most_common(1)[0][0]
        record_path = OUT / "digests.json"
        record = json.loads(record_path.read_text()) if record_path.exists() else {}
        key = f"{self.workload}|{self.seed}|{inputs_hash(self.config)}"
        earlier = record.setdefault(key, digest)
        record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
        for r in self.runs:
            if "digest" not in r:
                continue
            if r["digest"] != digest:
                r["errors"].append("outputs differ from the other runs of this seed")
            elif digest != earlier:
                r["errors"].append("outputs differ from an earlier run of this seed")
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        known = baseline.get("workloads", {}).get(self.workload, {}).get(
            "digests", {}).get(str(self.seed))
        return digest, "none recorded" if known is None else (
            "match" if known == digest else "differs")

    def ok(self, mode: str) -> list[dict]:
        return [r for r in self.runs if r["mode"] == mode and not r["errors"]]


def run_end_to_end(invocation: Invocation, seconds: float) -> None:
    start = time.monotonic()
    durations: list[float] = []
    while invocation.time_left() and (
            not durations or time.monotonic() - start + statistics.mean(durations) <= seconds):
        began = time.monotonic()
        invocation.child("plain")
        durations.append(time.monotonic() - began)


def end_to_end_metrics(invocation: Invocation) -> dict[str, float]:
    ok = invocation.ok("plain")
    if not ok:
        return {}
    walls = [r["wall_s"] for r in ok]
    pct, tail = spans.tail(walls)
    print(f"  wall_s p50 {statistics.median(walls):.4f} s, "
          f"p{pct:g} {tail:.4f} s over {len(walls)} runs"
          + (" (fewer than 20 runs: the tail shown is the maximum)" if pct == 100 else ""))
    print(f"  round_trials_per_s {statistics.median(r['round_trials'] / r['wall_s'] for r in ok):.6g}"
          f" 1/s, reference loop {statistics.median(r['reference_s'] for r in ok):.4f} s")
    # Total wall time over total reference time, so that the noise of single
    # reference timings averages out.
    wall_ref = sum(walls) / sum(r["reference_s"] for r in ok)
    return {
        "wall_ref": wall_ref,
        "round_trials_per_ref": ok[0]["round_trials"] / wall_ref,
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in ok),
    }


def run_per_layer(invocation: Invocation) -> None:
    for stale in invocation.work.glob("spans-*.npz"):
        stale.unlink()
    for mode in ("plain", "trace", "trace", "mem"):
        invocation.child(mode)


def per_layer_metrics(invocation: Invocation) -> dict[str, float]:
    """Fail traced runs whose counts differ or whose layers miss time, then
    combine the metrics of the runs that passed."""
    plain, first, second, mem = invocation.runs
    exact = [name for name, (unit, _) in spans.METRICS.items() if unit in spans.EXACT_UNITS]
    if not first["errors"] and not second["errors"]:
        differ = [n for n in exact if first["layer"].get(n) != second["layer"].get(n)]
        if differ:
            second["errors"].append(f"counts differ between traced runs: {', '.join(differ)}")
    for r in invocation.ok("trace"):
        coverage = sum(r["layer"][f"layer.{layer}.self_s"] for layer in spans.LAYERS) \
            / r["layer"]["trace.wall_s"]
        if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
            r["errors"].append(f"layer self times cover {coverage:.3f} of the traced wall time")

    ok = invocation.ok("trace")
    if not ok or plain["errors"] or mem["errors"]:
        return {}
    metrics = {name: value if name in exact else statistics.median(r["layer"][name] for r in ok)
               for name, value in ok[0]["layer"].items()}
    metrics["environment.trajectory_kb_per_round"] = \
        mem["layer"]["environment.trajectory_kb_per_round"]
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain["wall_s"]
    wall = metrics["trace.wall_s"]
    shares = ", ".join(f"{layer} {metrics[f'layer.{layer}.self_s'] / wall:.1%}"
                       for layer in spans.LAYERS)
    print(f"  layer self-time shares of the traced wall time: {shares}")
    return metrics


def main(argv=None, horizon: int | None = None) -> int:
    """Run the benchmark; `horizon` shortens every workload (tests only)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "laglearn" / "__init__.py").is_file():
        print(f"error: no laglearn sources under {ROOT / 'src'}; "
              "run the benchmark from a source checkout", file=sys.stderr)
        return 2

    invocation = Invocation(args.workload, args.seed, horizon)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    warm = invocation.child("warm")
    if warm["errors"]:
        print(f"error: laglearn does not import or the config is invalid: {warm['errors']}",
              file=sys.stderr)
        return 1
    if args.trace:
        run_per_layer(invocation)
    else:
        run_end_to_end(invocation, args.seconds)
    digest, baseline = invocation.check_digests()
    if args.trace:
        metrics = per_layer_metrics(invocation)
        units = {name: unit for name, (unit, _) in spans.METRICS.items()}
    else:
        metrics = end_to_end_metrics(invocation)
        units = END_TO_END

    failed = [r for r in invocation.runs if r["errors"]]
    for r in failed:
        print(f"  failed {r['mode']} run: {r['errors']}")
    print(f"  {len(invocation.runs)} runs, {len(failed)} failed "
          f"(error_rate {len(failed) / max(len(invocation.runs), 1):.3f}); "
          f"output digest {digest} (committed baseline: {baseline})")
    if not metrics:
        print("error: the runs the metrics come from failed; nothing to report", file=sys.stderr)
        return 1

    report = {
        "correct": not failed,
        "attempted": len(invocation.runs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "digest": digest, "runs": invocation.runs}, indent=1))
    for name, unit in units.items():
        print(f"  {name} {metrics[name]:.6g} {unit}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
