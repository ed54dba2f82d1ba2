"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The smoke tests start child processes at a tiny horizon, about a minute in all.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402


def test_self_times_subtract_direct_children_only():
    # root [0, 10] -> a [1, 3], b [4, 8] -> c [5, 6]; then a second root [11, 12].
    start = [0.0, 1.0, 4.0, 5.0, 11.0]
    end = [10.0, 3.0, 8.0, 6.0, 12.0]
    parent = [-1, 0, 0, 2, -1]
    own = spans.self_times(start, end, parent)
    assert own.tolist() == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])
    assert own[:4].sum() == pytest.approx(end[0] - start[0])


def test_count_within_counts_spans_starting_inside_outer_spans():
    assert spans.count_within([0.5, 1.5, 2.5, 4.5, 9.0], [1.0, 4.0], [2.0, 5.0]) == 2
    assert spans.count_within([1.0], [], []) == 0


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert spans.tail(np.arange(5.0)) == (100.0, 4.0)
    assert spans.tail(np.arange(30.0))[0] == 50.0
    assert spans.tail(np.arange(200.0))[0] == 95.0


def test_tracer_records_nesting_and_counts():
    tracer = spans.Tracer("unit")
    inner = tracer.spanned("b.inner", lambda: 1)
    outer = tracer.spanned("a.outer", lambda: inner() + inner())
    counted = tracer.counted("a.count", lambda x: x)
    assert outer() == 2 and counted(3) == 3
    recorded = tracer.spans()
    assert [tracer.names[i] for i in recorded["name"]] == ["a.outer", "b.inner", "b.inner"]
    assert recorded["parent"].tolist() == [-1, 0, 0]
    assert tracer.counts["a.count"] == 1


def _laglearn_attributes() -> dict:
    import laglearn
    from laglearn import (environment, evaluation, experiments, feedback, geometry,
                          learners, losses)
    found = {}
    for module in (laglearn, environment, evaluation, experiments, feedback, geometry,
                   learners, losses):
        for name, value in vars(module).items():
            found[(module.__name__, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    found[(module.__name__, name, attr)] = member
    return found


def test_instrument_patches_and_restore_puts_every_original_back(tmp_path):
    from laglearn import environment, experiments
    before = _laglearn_attributes()
    tracer = spans.Tracer("restore")
    spans.instrument(tracer)
    try:
        assert environment.run_game is not before[("laglearn.environment", "run_game")]
        config = tmp_path / "c.ini"
        config.write_text(config_text("lag-sweep", 3, horizon=40))
        cfg = experiments.parse_config(config)
        experiments.run_experiment(cfg, tmp_path / "out", threads=1)
    finally:
        tracer.restore()
    after = _laglearn_attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    metrics = spans.layer_metrics(tracer, wall_s=1.0)
    assert metrics["feedback.ready_at.calls_per_round"] == 1.0
    assert metrics["learners.play.calls"] == 3 * 10 * 40


def test_check_outputs_reports_bad_manifests(tmp_path):
    from laglearn import experiments
    cfg = experiments.ExperimentConfig(kind="single-run", trials=2, seed=5)
    manifest = {"trial_seeds": [experiments.trial_seed(5, i) for i in range(2)],
                "metrics": {"replay_gap": 0.0}, "outputs": ["run.csv"]}
    (tmp_path / "run.csv").write_text("t\n")
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert child.check_outputs(cfg, tmp_path, experiments.trial_seed) == []

    manifest["trial_seeds"][1] += 1
    manifest["metrics"]["replay_gap"] = 1e-6
    manifest["arms"] = {"run": {"final_regret_mean": math.nan}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "stray.csv").write_text("t\n")
    errors = child.check_outputs(cfg, tmp_path, experiments.trial_seed)
    assert len(errors) == 4
    assert "manifest.arms.run.final_regret_mean" in errors[0]


def _benchmark_metric_names(kind: str) -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in declared[kind]]


def test_declared_metrics_match_what_the_benchmark_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == spans.METRICS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace)], horizon=30)
    printed = capsys.readouterr().out
    assert code == 0
    report = json.loads(printed.strip().splitlines()[-1])
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    names = _benchmark_metric_names("per_layer" if trace else "end_to_end")
    assert sorted(report["metrics"]) == sorted(names)
    for name in names:
        assert f"  {name} " in printed
        assert math.isfinite(report["metrics"][name]["value"])
