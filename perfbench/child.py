"""One laglearn run in a fresh process, driven the way `laglearn run` drives it.

    python3 perfbench/child.py MODE CONFIG OUT_DIR RUN_ID

MODE is one of:

* ``warm``: import laglearn and validate the config, nothing else.
* ``plain``: time `run_experiment` without tracing, then a reference loop.
* ``trace``: time `run_experiment` with spans around the calls into each layer.
* ``mem``: measure with tracemalloc the memory that the first `run_game`
  call holds per round, then stop.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPLAY_GAP_LIMIT = 1e-9
REFERENCE_ROUNDS = 20_000
REFERENCE_CHUNK = 1_000
REFERENCE_MIN_S = 0.4
REFERENCE_SHARE = 0.1


class _Kept:
    def __init__(self, anchor, weight: float):
        self.anchor = anchor
        self.weight = weight


def reference_s(min_seconds: float) -> float:
    """Time per REFERENCE_ROUNDS rounds of a fixed loop, run for `min_seconds` or more.

    One round does the kinds of work one round of laglearn's game does:
    it validates a one-element array, takes a step, keeps a small object
    and an array copy, and formats a CSV row.  That takes about 10 us on a
    2-core x86 VM with Python 3.11.  The loop's speed tracks how fast the
    machine runs at that moment, so a run's wall time divided by it stays
    steady when the machine's speed drifts.
    """
    import numpy as np
    x = np.zeros(1)
    kept, copies, rows = [], {}, []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < min_seconds:
        for t in range(rounds, rounds + REFERENCE_CHUNK):
            v = np.asarray(x, dtype=float)
            if not np.all(np.isfinite(v)):
                raise ValueError("reference loop diverged")
            item = _Kept(np.array([t * 1e-5]), 0.5)
            kept.append(item)
            copies[t] = v.copy()
            x = v - 0.01 * (v - item.anchor)
            rows.append(f"{t},{float(np.linalg.norm(x))!r},{float(x[0])!r}\n")
        rounds += REFERENCE_CHUNK
    return (time.perf_counter() - start) * REFERENCE_ROUNDS / rounds


def non_finite(node, path: str = "manifest") -> list[str]:
    """Paths of the numbers in a JSON tree that are NaN or infinite."""
    if isinstance(node, bool):
        return []
    if isinstance(node, (int, float)):
        return [] if math.isfinite(node) else [path]
    if isinstance(node, dict):
        return [p for key, value in node.items() for p in non_finite(value, f"{path}.{key}")]
    if isinstance(node, list):
        return [p for i, value in enumerate(node) for p in non_finite(value, f"{path}[{i}]")]
    return []


def output_digest(out: Path) -> tuple[str, int]:
    """SHA-256 over the names and bytes of every output file, and their total size."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        size += len(data)
    return digest.hexdigest(), size


def check_outputs(cfg, out: Path, trial_seed) -> list[str]:
    """Every problem found in the outputs of one run; empty when they are correct."""
    errors = []
    with open(out / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    bad = non_finite(manifest)
    if bad:
        errors.append(f"non-finite manifest values: {', '.join(bad[:5])}")
    if manifest["trial_seeds"] != [trial_seed(cfg.seed, i) for i in range(cfg.trials)]:
        errors.append("manifest trial_seeds differ from trial_seed(seed, i)")
    if cfg.kind == "single-run":
        gap = manifest["metrics"]["replay_gap"]
        if not gap <= REPLAY_GAP_LIMIT:
            errors.append(f"replay_gap {gap!r} exceeds {REPLAY_GAP_LIMIT}")
    listed = set(manifest["outputs"]) | {"manifest.json"}
    present = {p.name for p in out.iterdir()}
    if listed != present:
        errors.append(f"output files {sorted(present)} differ from the manifest's {sorted(listed)}")
    return errors


class _GameMeasured(Exception):
    def __init__(self, kb_per_round: float):
        super().__init__(kb_per_round)
        self.kb_per_round = kb_per_round


def _kb_per_round(experiments, environment, cfg, out: Path) -> float:
    original = environment.run_game

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            traj = original(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        raise _GameMeasured(peak / 1024 / traj.horizon)

    environment.run_game = measured
    try:
        experiments.run_experiment(cfg, out, threads=1)
    except _GameMeasured as done:
        return done.kb_per_round
    finally:
        environment.run_game = original
    raise RuntimeError("run_experiment played no game")


def run(mode: str, config: Path, out: Path, run_id: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import laglearn
    from laglearn import environment, experiments
    cfg = experiments.parse_config(config)
    problems = experiments.validate_config(cfg)
    setup_s = time.perf_counter() - t0
    if problems:
        raise ValueError(f"invalid config: {'; '.join(problems)}")
    if Path(laglearn.__file__).resolve().parent != ROOT / "src" / "laglearn":
        raise RuntimeError(f"imported laglearn from {laglearn.__file__}, not from {ROOT / 'src'}")

    result = {"mode": mode, "run_id": run_id, "setup_s": setup_s}
    if mode == "warm":
        return result
    if mode == "mem":
        result["layer"] = {"environment.trajectory_kb_per_round":
                           _kb_per_round(experiments, environment, cfg, out)}
        return result

    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer(run_id)
        spans.instrument(tracer)
    try:
        start = time.perf_counter()
        experiments.run_experiment(cfg, out, threads=1)
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()

    # Peak RSS is read before the reference loop, which allocates too.  The
    # loop runs for a tenth of the run's time, so long runs get a steadier
    # reference; the next child's run starts about a set-up time later.
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "plain":
        result["reference_s"] = reference_s(max(REFERENCE_MIN_S, REFERENCE_SHARE * wall_s))
    result["wall_s"] = wall_s
    result["round_trials"] = sum(arm.horizon for _, arm in experiments.expand_arms(cfg)) * cfg.trials
    result["errors"] = check_outputs(cfg, out, experiments.trial_seed)
    result["digest"], output_bytes = output_digest(out)
    if tracer is not None:
        result["layer"] = spans.layer_metrics(tracer, wall_s)
        result["layer"]["experiments.output_bytes"] = output_bytes
        tracer.save(out.parent / f"spans-{run_id}.npz")
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[0] not in ("warm", "plain", "trace", "mem"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, config, out, run_id = argv
    try:
        result = run(mode, Path(config), Path(out), run_id)
    except Exception:  # one failed run is counted by the caller, not fatal
        traceback.print_exc()
        result = {"mode": mode, "run_id": run_id, "errors": [traceback.format_exc(limit=1)]}
    result.setdefault("errors", [])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
