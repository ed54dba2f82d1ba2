"""In-memory spans and counts around the calls into each laglearn module.

A `Tracer` replaces public functions and methods of the package with
wrappers.  A span wrapper records the span's name, start, end and parent
span; a count wrapper only counts calls.  Spans live in flat arrays until
`save` writes them out, and `restore` puts every original object back.

Self time is a span's duration minus the time its child spans cover.  In
one thread child spans never overlap, so that cover is the sum of the
children's durations, and the self times of all spans add up to the
duration of the root span.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

# The package's modules, one layer each.  `cli` only dispatches arguments.
LAYERS = ("environment", "learners", "losses", "feedback", "geometry",
          "evaluation", "experiments")

# Per-layer metrics: name -> (unit, better).  Metrics with an exact unit
# must repeat exactly for the same seed.
METRICS = {
    "geometry.as_vector.calls_per_round": ("calls/round", "lower"),
    "geometry.project.calls": ("count", "lower"),
    "geometry.project.self_s": ("s", "lower"),
    "learners.play.calls": ("count", "lower"),
    "learners.play.self_s": ("s", "lower"),
    "learners.observe.calls": ("count", "lower"),
    "learners.observe.self_s": ("s", "lower"),
    "losses.grad.calls": ("count", "lower"),
    "losses.grad.self_s": ("s", "lower"),
    "losses.construct.calls": ("count", "lower"),
    "losses.construct.self_s": ("s", "lower"),
    "losses.value.calls": ("count", "lower"),
    "losses.value.self_s": ("s", "lower"),
    "feedback.push.self_s": ("s", "lower"),
    "feedback.ready_at.self_s": ("s", "lower"),
    "feedback.ready_at.calls_per_round": ("calls/round", "lower"),
    "feedback.realize.s": ("s", "lower"),
    "environment.take.s": ("s", "lower"),
    "environment.score.self_s": ("s", "lower"),
    "environment.run_game.self_s": ("s", "lower"),
    "environment.flags.count": ("count", "lower"),
    "environment.trajectory_kb_per_round": ("KB/round", "lower"),
    "evaluation.offline_optimum.self_s": ("s", "lower"),
    "evaluation.offline_optimum.calls": ("count", "lower"),
    "evaluation.offline_optimum.project_calls": ("count", "lower"),
    "evaluation.comparator_converged_ratio": ("ratio", "higher"),
    "evaluation.regret.self_s": ("s", "lower"),
    "evaluation.replay_gap.s": ("s", "lower"),
    "evaluation.aggregate.s": ("s", "lower"),
    "evaluation.write_csv.s": ("s", "lower"),
    "experiments.trial_s.p50": ("s", "lower"),
    "experiments.trial_s.tail": ("s", "lower"),
    "experiments.trial_s.tail_pct": ("percentile", "higher"),
    "experiments.trial_s.samples": ("count", "higher"),
    "experiments.run_single.self_s": ("s", "lower"),
    "experiments.run_experiment.self_s": ("s", "lower"),
    "experiments.output_bytes": ("bytes", "lower"),
    "experiments.round_trials": ("count", "higher"),
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_coverage": ("s/s", "higher"),
}
EXACT_UNITS = ("count", "calls/round", "bytes", "ratio", "percentile")

TAIL_PERCENTILES = (50, 75, 90, 95, 99)


class Tracer:
    """Spans and counts of one run, identified by `run_id`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._open = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def spanned(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(result)` may add counts at the same place."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_id, start, end, parent, open_ = (
            self.name_id, self.start, self.end, self.parent, self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """`fn` wrapped so that each call adds one to `counts[name]`."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        """Set `owner.attr` (a module or class attribute) to `wrapper`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every patched attribute, last patched first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict:
        """The spans as arrays: name id, start, end, parent index (-1 for a root)."""
        return {
            "name": np.frombuffer(self.name_id, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names, dtype=str),
                 **self.spans())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    cover = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(cover, parent[nested], duration[nested])
    return duration - cover


def count_within(inner_start, outer_start, outer_end) -> int:
    """How many inner spans start inside one of the (disjoint) outer spans."""
    order = np.argsort(outer_start)
    lo = np.asarray(outer_start, dtype=float)[order]
    hi = np.asarray(outer_end, dtype=float)[order]
    inner = np.asarray(inner_start, dtype=float)
    idx = np.searchsorted(lo, inner, side="right") - 1
    hit = idx >= 0
    return int(np.sum(inner[hit] < hi[idx[hit]]))


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest of TAIL_PERCENTILES with at least ten
    samples beyond it, or (100, max) when there are fewer than twenty samples."""
    values = np.asarray(values, dtype=float)
    best = (100.0, float(values.max()))
    for pct in TAIL_PERCENTILES:
        if values.size * (100 - pct) / 100 >= 10:
            best = (float(pct), float(np.percentile(values, pct)))
    return best


def _classes_defining(base: type, attr: str) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if attr in vars(cls) and cls not in found:
            found.append(cls)
    return found


def instrument(tracer: Tracer) -> None:
    """Wrap the calls into each laglearn layer with spans and counts."""
    import laglearn
    from laglearn import (environment, evaluation, experiments, feedback, geometry,
                          learners, losses)

    def span_methods(name, base, attr, after=None):
        for cls in _classes_defining(base, attr):
            tracer.patch(cls, attr, tracer.spanned(name, vars(cls)[attr], after))

    def span_function(name, module, attr, after=None):
        tracer.patch(module, attr, tracer.spanned(name, vars(module)[attr], after))

    def game_done(traj):
        tracer.counts["rounds"] += traj.horizon
        tracer.counts["environment.flags"] += len(traj.flags)

    def solved(solution):
        tracer.counts["evaluation.offline_optimum.converged"] += bool(solution.converged)

    def spanned_factory(factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return tracer.spanned("losses.construct", factory(*args, **kwargs))
        return wrapper

    as_vector = geometry.as_vector
    for module in (laglearn, environment, evaluation, experiments, feedback, geometry,
                   learners, losses):
        if vars(module).get("as_vector") is as_vector:
            tracer.patch(module, "as_vector", tracer.counted("geometry.as_vector", as_vector))

    span_methods("geometry.project", geometry.ConvexBody, "project")
    span_methods("learners.play", learners.BaseLearner, "play")
    span_methods("learners.observe", learners.BaseLearner, "observe")
    span_methods("losses.grad", losses.Loss, "grad")
    span_methods("losses.value", losses.Loss, "value")
    for factory in ("uniform_quadratic", "fixed_loss"):
        tracer.patch(environment, factory, spanned_factory(vars(environment)[factory]))
    span_methods("feedback.push", feedback.FeedbackBuffer, "push")
    span_methods("feedback.ready_at", feedback.FeedbackBuffer, "ready_at")
    span_methods("feedback.realize", feedback.DelaySchedule, "realize")
    span_methods("environment.take", environment.ContextStream, "take")
    span_methods("environment.score", environment.LinearScoring, "score")
    span_function("environment.run_game", environment, "run_game", after=game_done)
    span_function("evaluation.offline_optimum", evaluation, "offline_optimum", after=solved)
    span_function("evaluation.regret", evaluation, "regret")
    span_methods("evaluation.replay_gap", evaluation.Trajectory, "replay_gap")
    span_function("evaluation.aggregate", evaluation, "aggregate")
    span_function("evaluation.write_csv", evaluation, "write_csv")
    span_function("experiments.run_single", experiments, "run_single")
    span_function("experiments.run_experiment", experiments, "run_experiment")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose `run_experiment` took `wall_s`."""
    spans = tracer.spans()
    own = self_times(spans["start"], spans["end"], spans["parent"])
    duration = spans["end"] - spans["start"]
    width = len(tracer.names)
    calls = dict(zip(tracer.names, np.bincount(spans["name"], minlength=width).tolist()))
    self_s = dict(zip(tracer.names, np.bincount(spans["name"], own, width).tolist()))
    total_s = dict(zip(tracer.names, np.bincount(spans["name"], duration, width).tolist()))
    rounds = tracer.counts["rounds"]

    out: dict[str, float] = {}
    for name in ("geometry.project", "learners.play", "learners.observe", "losses.grad",
                 "losses.construct", "losses.value", "evaluation.offline_optimum"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("geometry.project", "learners.play", "learners.observe", "losses.grad",
                 "losses.construct", "losses.value", "feedback.push", "feedback.ready_at",
                 "environment.score", "environment.run_game", "evaluation.offline_optimum",
                 "evaluation.regret", "experiments.run_single", "experiments.run_experiment"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("feedback.realize", "environment.take", "evaluation.replay_gap",
                 "evaluation.aggregate", "evaluation.write_csv"):
        out[f"{name}.s"] = total_s.get(name, 0.0)

    out["geometry.as_vector.calls_per_round"] = tracer.counts["geometry.as_vector"] / rounds
    out["feedback.ready_at.calls_per_round"] = calls.get("feedback.ready_at", 0) / rounds
    out["environment.flags.count"] = tracer.counts["environment.flags"]

    def starts_ends(name):
        if name not in tracer.names:
            return np.empty(0), np.empty(0)
        chosen = spans["name"] == tracer.names.index(name)
        return spans["start"][chosen], spans["end"][chosen]

    solve_start, solve_end = starts_ends("evaluation.offline_optimum")
    out["evaluation.offline_optimum.project_calls"] = count_within(
        starts_ends("geometry.project")[0], solve_start, solve_end)
    out["evaluation.comparator_converged_ratio"] = (
        tracer.counts["evaluation.offline_optimum.converged"] / max(solve_start.size, 1))

    trial_start, trial_end = starts_ends("experiments.run_single")
    trials = trial_end - trial_start
    pct, value = tail(trials)
    out["experiments.trial_s.p50"] = float(np.median(trials))
    out["experiments.trial_s.tail"] = value
    out["experiments.trial_s.tail_pct"] = pct
    out["experiments.trial_s.samples"] = int(trials.size)
    out["experiments.round_trials"] = rounds

    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for name, v in self_s.items() if name.split(".")[0] == layer)
    out["trace.spans"] = int(spans["name"].size)
    out["trace.wall_s"] = wall_s
    out["trace.self_coverage"] = float(own.sum()) / wall_s
    return out
