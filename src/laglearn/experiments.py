"""Batch experiment harness behind the command-line interface.

Experiments are described by flat INI configs (sections: experiment,
learner, sweep, stream, loss, delays).  One experiment expands into one
or more arms (a delay sweep, a correlation sweep, a learner-vs-baseline
pair, a horizon scaling check, or a single run); every arm runs the same
trials with the same derived per-trial seeds, so arms are compared under
common random numbers.  Outputs are one CSV of aggregated curves per arm
plus a manifest recording the fully resolved configuration, the seeds,
and headline metrics.  An arm's trials are played as one lockstep batch,
recorded as one trajectory and one regret report whose row k is trial k,
and rerunning the manifest's config reproduces every byte.  A single run
also writes trajectory.csv and its replay gap and flags, all of the first
trial.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import environment, evaluation, feedback, geometry, learners, losses
from .evaluation import RegretReport, Trajectory
from .geometry import Ball, ConvexBody, EuclideanMap, MirrorMap, NegativeEntropyMap, Simplex

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

KINDS = ("delay-sweep", "correlation-sweep", "baseline-compare", "scaling-check", "single-run")
LEARNERS = ("ogd", "omd", "adversarial", "naive")
SCHEDULES = ("sqrt", "strongly-convex", "constant")
STREAMS = ("gaussian", "pentagon", "csv")
FAMILIES = ("quadratic", "norm", "power", "exp")
DELAY_KINDS = ("fixed", "adversarial", "file")

OUT_DIR_ENV = "LAGLEARN_OUT_DIR"


def mix64(z: int) -> int:
    """SplitMix-style 64-bit finalizer."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def trial_seed(base_seed: int, index: int) -> int:
    return mix64((base_seed + (index + 1) * _GAMMA) & _MASK64)


# ---------------------------------------------------------------------------
# Configuration model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = ""
    horizon: int = 1000
    trials: int = 1
    seed: int = 0
    out_dir: str | None = None

    learner: str = "ogd"
    schedule: str = "sqrt"
    sigma: float | str | None = None      # number or "auto"
    gamma: float | None = None
    eta: float | str | None = None        # number or "auto"
    beta: float | None = None
    lam: float | str = "coupled"          # number or "coupled"
    tau: int = 0
    warmup: int = 0                       # dummy-candidate rounds = warmup * tau
    mirror: str = "euclidean"

    sweep_taus: tuple[int, ...] | None = None
    sweep_rhos: tuple[float, ...] | None = None
    sweep_horizons: tuple[int, ...] | None = None

    stream: str = "gaussian"
    rho: float = 0.0
    mean: float = 1.0
    variance: float = 1.0
    d1: int = 1
    d2: int = 1
    radius: float = 4.0
    context_path: str | None = None

    family: str = "quadratic"
    coefficients: str = "uniform"         # "uniform" draws a,b ~ U[0,1] per round
    a: float = 1.0
    b: float = 0.0
    m: int = 2
    sigma1: float = 1.0

    delay_kind: str = "fixed"
    d_max: int = 20
    delay_path: str | None = None


def _parse_scalar(text: str, keywords: tuple[str, ...]):
    token = text.strip()
    if token.lower() in keywords:
        return token.lower()
    return float(token)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.replace(",", " ").split())


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.replace(",", " ").split())


_SCHEMA = {
    ("experiment", "kind"): ("kind", str.strip),
    ("experiment", "horizon"): ("horizon", int),
    ("experiment", "trials"): ("trials", int),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "out_dir"): ("out_dir", str.strip),
    ("learner", "kind"): ("learner", str.strip),
    ("learner", "schedule"): ("schedule", str.strip),
    ("learner", "sigma"): ("sigma", lambda s: _parse_scalar(s, ("auto",))),
    ("learner", "gamma"): ("gamma", float),
    ("learner", "eta"): ("eta", lambda s: _parse_scalar(s, ("auto",))),
    ("learner", "beta"): ("beta", float),
    ("learner", "lam"): ("lam", lambda s: _parse_scalar(s, ("coupled",))),
    ("learner", "tau"): ("tau", int),
    ("learner", "warmup"): ("warmup", int),
    ("learner", "mirror"): ("mirror", str.strip),
    ("sweep", "tau"): ("sweep_taus", _parse_int_list),
    ("sweep", "rho"): ("sweep_rhos", _parse_float_list),
    ("sweep", "horizon"): ("sweep_horizons", _parse_int_list),
    ("stream", "kind"): ("stream", str.strip),
    ("stream", "rho"): ("rho", float),
    ("stream", "mean"): ("mean", float),
    ("stream", "variance"): ("variance", float),
    ("stream", "d1"): ("d1", int),
    ("stream", "d2"): ("d2", int),
    ("stream", "radius"): ("radius", float),
    ("stream", "path"): ("context_path", str.strip),
    ("loss", "family"): ("family", str.strip),
    ("loss", "coefficients"): ("coefficients", str.strip),
    ("loss", "a"): ("a", float),
    ("loss", "b"): ("b", float),
    ("loss", "m"): ("m", int),
    ("loss", "sigma1"): ("sigma1", float),
    ("delays", "kind"): ("delay_kind", str.strip),
    ("delays", "d_max"): ("d_max", int),
    ("delays", "path"): ("delay_path", str.strip),
}


class ConfigFileError(ValueError):
    """Unparseable or invalid configuration; `errors` lists every problem."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def parse_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigFileError([f"{path}: {exc}"]) from exc

    overrides = {}
    errors = []
    for section in parser.sections():
        for option, raw in parser.items(section):
            key = (section, option)
            if key not in _SCHEMA:
                errors.append(f"{section}.{option}: unknown option")
                continue
            attr, convert = _SCHEMA[key]
            try:
                overrides[attr] = convert(raw)
            except (TypeError, ValueError):
                errors.append(f"{section}.{option}: cannot parse {raw!r}")
    if errors:
        raise ConfigFileError(errors)
    return ExperimentConfig(**overrides)


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """Every problem that keeps `cfg` from running, named by INI field or section.

    If the option checks pass, each arm is built as `run_single` builds it,
    from the first trial's seeds, and reports its first failing piece.
    """
    errors = []

    if cfg.kind not in KINDS:
        errors.append(f"experiment.kind: must be one of {', '.join(KINDS)}")
    if cfg.horizon < 1:
        errors.append("experiment.horizon: must be >= 1")
    if cfg.trials < 1:
        errors.append("experiment.trials: must be >= 1")

    if cfg.learner not in LEARNERS:
        errors.append(f"learner.kind: must be one of {', '.join(LEARNERS)}")
    elif cfg.kind == "baseline-compare" and cfg.learner == "naive":
        errors.append("learner.kind: baseline-compare plays naive as its baseline arm; "
                      "compare another learner")
    if cfg.tau < 0:
        errors.append("learner.tau: must be >= 0")
    if cfg.warmup < 0:
        errors.append("learner.warmup: must be >= 0")

    if cfg.learner in ("ogd", "omd"):
        if cfg.schedule not in SCHEDULES:
            errors.append(f"learner.schedule: must be one of {', '.join(SCHEDULES)}")
        elif cfg.schedule == "sqrt":
            if cfg.sigma is None:
                errors.append("learner.sigma: sqrt schedule needs sigma > 0 or 'auto'")
        elif cfg.schedule == "strongly-convex":
            if cfg.gamma is None:
                errors.append("learner.gamma: strongly-convex schedule needs gamma > 0")
        elif cfg.schedule == "constant":
            if not isinstance(cfg.eta, float):
                errors.append("learner.eta: constant schedule needs a numeric eta > 0")
        # A single run may read a delay file; `_build_arm` checks that it is all tau + 1.
        if cfg.delay_kind == "adversarial" or (cfg.delay_kind != "fixed"
                                               and cfg.kind != "single-run"):
            errors.append("delays.kind: fixed-lag learners need fixed delays")
    if cfg.learner == "omd":
        if cfg.mirror not in ("euclidean", "negentropy"):
            errors.append("learner.mirror: must be euclidean or negentropy")
        elif cfg.mirror == "negentropy" and cfg.stream != "csv":
            errors.append("learner.mirror: negentropy needs simplex data from a csv stream")
    if cfg.learner == "adversarial":
        if cfg.eta is None:
            errors.append("learner.eta: adversarial learner needs eta > 0 or 'auto'")
        if not isinstance(cfg.lam, float):
            errors.append("learner.lam: adversarial learner needs a numeric lam")

    if cfg.kind == "delay-sweep" and not cfg.sweep_taus:
        errors.append("sweep.tau: delay-sweep needs a tau list")
    if cfg.kind == "correlation-sweep" and not cfg.sweep_rhos:
        errors.append("sweep.rho: correlation-sweep needs a rho list")
    if cfg.kind == "scaling-check" and not cfg.sweep_horizons:
        errors.append("sweep.horizon: scaling-check needs a horizon list")
    if cfg.sweep_taus and any(t < 0 for t in cfg.sweep_taus):
        errors.append("sweep.tau: entries must be >= 0")
    if cfg.sweep_rhos and any(not -1.0 <= r <= 1.0 for r in cfg.sweep_rhos):
        errors.append("sweep.rho: entries must lie in [-1, 1]")
    if cfg.sweep_horizons and any(h < 1 for h in cfg.sweep_horizons):
        errors.append("sweep.horizon: entries must be >= 1")
    for option, entries in (("tau", cfg.sweep_taus), ("rho", cfg.sweep_rhos),
                            ("horizon", cfg.sweep_horizons)):
        if entries and len(set(entries)) < len(entries):  # one arm, one label, one csv
            errors.append(f"sweep.{option}: entries must be distinct")

    if cfg.stream not in STREAMS:
        errors.append(f"stream.kind: must be one of {', '.join(STREAMS)}")
    if not -1.0 <= cfg.rho <= 1.0:
        errors.append("stream.rho: must lie in [-1, 1]")
    if cfg.variance <= 0:
        errors.append("stream.variance: must be positive")
    if cfg.d2 < 1 or cfg.d1 < cfg.d2:
        errors.append("stream.d1/d2: need d1 >= d2 >= 1")
    if cfg.radius <= 0:
        errors.append("stream.radius: must be positive")
    if cfg.stream == "csv" and not cfg.context_path:
        errors.append("stream.path: csv stream needs a file path")
    if cfg.stream == "pentagon" and (cfg.d1 < 2 or cfg.d2 != 2):
        errors.append("stream.d1/d2: pentagon stream needs d2 = 2 and d1 >= 2")

    if cfg.family not in FAMILIES:
        errors.append(f"loss.family: must be one of {', '.join(FAMILIES)}")
    if cfg.coefficients not in ("uniform", "fixed"):
        errors.append("loss.coefficients: must be uniform or fixed")

    if cfg.delay_kind not in DELAY_KINDS:
        errors.append(f"delays.kind: must be one of {', '.join(DELAY_KINDS)}")
    if cfg.delay_kind == "file" and not cfg.delay_path:
        errors.append("delays.path: file delays need a file path")

    covered = [label for label, arm in expand_arms(cfg) if arm.warmup * arm.tau >= arm.horizon]
    if covered:
        errors.append("learner.warmup: warm-up rounds (warmup * tau) cover the horizon of arm "
                      + ", ".join(covered))
    if errors:
        return errors

    seeds = [trial_seed(cfg.seed, 0)]
    for _, arm in expand_arms(cfg):
        try:
            _build_arm(arm, seeds)
        except ConfigFileError as exc:
            errors.extend(exc.errors)
    return list(dict.fromkeys(errors))  # arms that fail alike report it once


# ---------------------------------------------------------------------------
# Building game pieces from a config
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _section(name: str):
    """Re-raise a ValueError or OSError as a ConfigFileError under INI section `name`."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ConfigFileError([f"{name}: {exc}"]) from exc


def _mirror_map(cfg: ExperimentConfig) -> MirrorMap:
    """The gradient learners' mirror map: entropic only for omd with mirror = negentropy."""
    if cfg.learner == "omd" and cfg.mirror == "negentropy":
        return NegativeEntropyMap()
    return EuclideanMap()


def _hidden_body(cfg: ExperimentConfig) -> ConvexBody:
    if cfg.stream == "pentagon":
        return geometry.regular_polygon(5, center=(1.0, 1.0), circumradius=1.0)
    if isinstance(_mirror_map(cfg), NegativeEntropyMap):
        return Simplex(cfg.d2)
    return Ball(np.zeros(cfg.d2), cfg.radius)


@_section("stream")
def _build_stream(cfg: ExperimentConfig, seed: int, body: ConvexBody):
    if cfg.stream == "gaussian":
        return environment.GaussianStream(
            d1=cfg.d1, d2=cfg.d2, mean=cfg.mean, variance=cfg.variance, rho=cfg.rho,
            body_hidden=body, seed=seed)
    if cfg.stream == "pentagon":
        return environment.PolygonStream(
            body, d1=cfg.d1, mean=cfg.mean, variance=cfg.variance, seed=seed)
    return environment.ExplicitStream.from_csv(cfg.context_path, cfg.d1, cfg.d2)


def _family(cfg: ExperimentConfig) -> tuple[type[losses.Loss], dict]:
    """The loss class of `cfg.family` and its fixed coefficients.

    Uniform quadratics draw a from [0, 1] each round, so a = 1 bounds them.
    """
    if cfg.family == "quadratic":
        if cfg.coefficients == "uniform":
            return losses.QuadraticLoss, {"a": 1.0}
        return losses.QuadraticLoss, {"a": cfg.a, "b": cfg.b}
    if cfg.family == "norm":
        return losses.NormLoss, {}
    if cfg.family == "power":
        return losses.PowerLoss, {"m": cfg.m}
    return losses.ExpLoss, {"a": cfg.a, "s": cfg.sigma1, "m": cfg.m}


def _loss_factory(cfg: ExperimentConfig):
    if cfg.family == "quadratic" and cfg.coefficients == "uniform":
        return environment.uniform_quadratic()
    loss, coefficients = _family(cfg)
    return environment.fixed_loss(loss, **coefficients)


@_section("loss")
def _auto_lipschitz(cfg: ExperimentConfig, body: ConvexBody) -> float:
    """Gradient-norm bound for tuning: worst case over the body's diameter."""
    loss, coefficients = _family(cfg)
    return loss(np.zeros(cfg.d2), **coefficients).lipschitz_bound(2.0 * body.radius_bound)


def _pull(cfg: ExperimentConfig) -> tuple[float, bool]:
    """The learner's (lam, coupled): `lam = coupled` tracks eta(t), signed like rho."""
    if cfg.lam == "coupled":
        return (1.0 if cfg.rho >= 0 else -1.0), True
    return float(cfg.lam), False


def _resolve_sigma(cfg: ExperimentConfig, body: ConvexBody, smoothness: float):
    if cfg.sigma == "auto":
        return learners.sigma_for_mirror(_auto_lipschitz(cfg, body), body.radius_bound,
                                         max(cfg.tau, 1), smoothness)
    return float(cfg.sigma)


def _build_schedule(cfg: ExperimentConfig, body: ConvexBody, smoothness: float,
                    delays: list, horizon: int):
    if cfg.learner == "adversarial":
        # A constant step, tuned to each trial's realized delay sum when "auto".
        if cfg.eta == "auto":
            L = _auto_lipschitz(cfg, body)
            eta = [learners.eta_for_arbitrary_delay(L, body.radius_bound, float(cfg.lam), horizon,
                                                    int(schedule.realize(horizon).sum()))
                   for schedule in delays]
        else:
            eta = float(cfg.eta)
        return learners.ConstantStep(value=eta, beta_override=cfg.beta)
    if cfg.schedule == "sqrt":
        return learners.InverseSqrtStep(sigma=_resolve_sigma(cfg, body, smoothness),
                                        tau=cfg.tau, beta_override=cfg.beta)
    if cfg.schedule == "strongly-convex":
        return learners.InverseTimeStep(gamma=float(cfg.gamma), tau=cfg.tau,
                                        beta_override=cfg.beta)
    return learners.ConstantStep(value=float(cfg.eta), tau=cfg.tau, beta_override=cfg.beta)


@_section("learner")
def _build_learner(cfg: ExperimentConfig, body: ConvexBody, delays: list, horizon: int):
    if cfg.learner == "naive":
        return learners.NaiveLearner(body)
    mirror = _mirror_map(cfg)
    schedule = _build_schedule(cfg, body, mirror.smoothness, delays, horizon)
    return learners.GradientLearner(body, schedule, *_pull(cfg), mirror)


@_section("delays")
def _build_delays(cfg: ExperimentConfig, seeds: list[int]) -> list:
    """One delay schedule per trial seed; a delay file is parsed once, and its
    frozen schedule shared by every trial."""
    if cfg.delay_kind == "adversarial":
        return [feedback.RandomDelay(d_max=cfg.d_max, seed=trial_seed(seed, 2)) for seed in seeds]
    if cfg.delay_kind == "fixed":
        shared = feedback.FixedDelay(cfg.tau)
    else:
        shared = feedback.delays_from_file(cfg.delay_path)
    return [shared] * len(seeds)


def resolve_arm(cfg: ExperimentConfig) -> dict:
    """Trial-independent resolved parameters of one arm, as the manifest records them."""
    body = _hidden_body(cfg)
    resolved = dataclasses.asdict(cfg)
    resolved.pop("out_dir")
    resolved.pop("seed")
    resolved.pop("trials")
    resolved["body"] = body.describe()
    if cfg.learner in ("ogd", "omd") and cfg.schedule == "sqrt":
        resolved["sigma_resolved"] = _resolve_sigma(cfg, body, _mirror_map(cfg).smoothness)
    if cfg.learner == "adversarial" and cfg.eta == "auto":
        resolved["eta_resolved"] = "auto(per-trial delay sum)"
    return resolved


def _build_arm(cfg: ExperimentConfig, seeds: list[int]):
    """The hidden body, streams, delay schedules and learner of the trials of `seeds`.

    A piece that cannot be built raises ConfigFileError under its INI section.
    """
    body = _hidden_body(cfg)
    streams = [_build_stream(cfg, trial_seed(seed, 0), body) for seed in seeds]
    if cfg.stream == "csv" and streams[0].remaining < cfg.horizon:
        raise ConfigFileError([f"stream.path: csv stream has {streams[0].remaining} rows, "
                               f"fewer than the horizon {cfg.horizon}"])
    delays = _build_delays(cfg, seeds)
    if cfg.delay_kind == "file" and len(delays[0].delays) < cfg.horizon:
        raise ConfigFileError([f"delays.path: delay file has {len(delays[0].delays)} delays, "
                               f"fewer than the horizon {cfg.horizon}"])
    # A delay sum that fits in int64 keeps every due round, s + d - 1 <= sum, in it too.
    if cfg.delay_kind == "file":
        option, most = "delays.path", sum(delays[0].delays[:cfg.horizon])
    elif cfg.delay_kind == "adversarial":
        option, most = "delays.d_max", cfg.horizon * cfg.d_max
    else:
        option = "sweep.tau" if cfg.kind == "delay-sweep" else "learner.tau"
        most = cfg.horizon * (cfg.tau + 1)
    if most > feedback.INT64_MAX:
        raise ConfigFileError([f"{option}: a trial's delays may sum to {most}, more than int64 "
                               f"holds ({feedback.INT64_MAX})"])
    if cfg.delay_kind == "file" and cfg.learner in ("ogd", "omd"):
        wrong = [d for d in delays[0].delays[:cfg.horizon] if d != cfg.tau + 1]
        if wrong:
            raise ConfigFileError([f"delays.path: delay file has delay {wrong[0]}; a fixed-lag "
                                   f"learner needs every delay to be tau + 1 = {cfg.tau + 1}"])
    _auto_lipschitz(cfg, body)  # rejects a loss with no finite gradient bound on the body
    learner = _build_learner(cfg, body, delays, cfg.horizon)
    return body, streams, delays, learner


def run_single(cfg: ExperimentConfig, seeds: list[int],
               solved: list | None = None) -> tuple[Trajectory, RegretReport]:
    """One arm's seeded trials: build the pieces, play them in lockstep, measure regret.

    Row k of the trajectory and of the report is the trial of `seeds[k]`.
    `solved` is handed to `evaluation.regret`: the previous arm's
    comparator problem, whose solve this arm reuses if it scores the same
    losses.
    """
    body, streams, delays, learner = _build_arm(cfg, seeds)
    scoring = environment.LinearScoring.default(cfg.d1, cfg.d2)
    trajectory = environment.run_game(
        learner, streams, delays, _loss_factory(cfg), scoring, cfg.horizon,
        seeds=[trial_seed(seed, 1) for seed in seeds])
    return trajectory, evaluation.regret(trajectory, body, skip_rounds=cfg.warmup * cfg.tau,
                                         solved=solved)


# ---------------------------------------------------------------------------
# Whole experiments
# ---------------------------------------------------------------------------

def expand_arms(cfg: ExperimentConfig) -> list[tuple[str, ExperimentConfig]]:
    if cfg.kind == "delay-sweep":
        return [(f"tau{t}", dataclasses.replace(cfg, tau=t)) for t in cfg.sweep_taus or ()]
    if cfg.kind == "correlation-sweep":
        return [(f"rho{r:g}", dataclasses.replace(cfg, rho=r)) for r in cfg.sweep_rhos or ()]
    if cfg.kind == "scaling-check":
        return [(f"T{h}", dataclasses.replace(cfg, horizon=h)) for h in cfg.sweep_horizons or ()]
    if cfg.kind == "baseline-compare":
        return [(cfg.learner, cfg), ("naive", dataclasses.replace(cfg, learner="naive"))]
    return [("run", cfg)]


def run_experiment(cfg: ExperimentConfig, out_dir, threads: int = 1) -> dict:
    """Run all arms and trials; write per-arm CSVs and a manifest.

    Returns the manifest dictionary (also written to manifest.json).  Each
    arm plays all its trials as one lockstep batch; `threads` accepts only
    1 and stays for the benchmark harness, which passes it.  An arm that
    scores the previous arm's losses, bit for bit, on the same body reuses
    its comparator solve (see `evaluation.regret`); what is shared lives
    only as long as this call.  When an arm
    fails, the files and directories this call wrote are removed before
    the error propagates, so a failed run leaves no partial outputs.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    errors = validate_config(cfg)
    if errors:
        raise ConfigFileError(errors)

    out = Path(out_dir)
    created = [path for path in (out, *out.parents) if not path.exists()]
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        return _write_experiment(cfg, out, written)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for directory in created:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _write_experiment(cfg: ExperimentConfig, out: Path, written: list[Path]) -> dict:
    """`run_experiment` after validation, adding each output to `written` before writing it."""
    seeds = [trial_seed(cfg.seed, i) for i in range(cfg.trials)]

    manifest: dict = {
        "kind": cfg.kind,
        "base_seed": cfg.seed,
        "trials": cfg.trials,
        "trial_seeds": seeds,
        "resolved": {},
        "arms": {},
        "metrics": {},
        "outputs": [],
    }

    scaling_points = []
    solved: list = []  # the previous arm's comparator problem, for the next to reuse

    for label, arm in expand_arms(cfg):
        manifest["resolved"][label] = resolve_arm(arm)
        traj, report = run_single(arm, seeds, solved)

        if cfg.kind == "single-run":  # the single-run outputs describe the first trial
            traj_file = out / "trajectory.csv"
            written.append(traj_file)
            evaluation.write_trajectory_csv(traj, traj_file)
            manifest["outputs"].append(traj_file.name)
            manifest["metrics"]["replay_gap"] = float(traj.replay_gap()[0])
            manifest["metrics"]["flags"] = [flag for trial, flag in traj.flags if trial == 0]

        curves = evaluation.aggregate(report)
        csv_path = out / f"{label}.csv"
        written.append(csv_path)
        evaluation.write_csv(curves, csv_path)
        manifest["outputs"].append(csv_path.name)

        final = {
            "csv": csv_path.name,
            "final_cum_loss_mean": float(curves.cum_loss_mean[-1]),
            "final_cum_loss_stderr": float(curves.cum_loss_stderr[-1]),
            "final_regret_mean": float(curves.regret_mean[-1]),
            "final_regret_stderr": float(curves.regret_stderr[-1]),
            "delay_sum_mean": float(np.mean(traj.delays.sum(axis=1))),
        }
        manifest["arms"][label] = final

        if cfg.kind == "scaling-check":
            scaling_points.append((arm.horizon, final["final_regret_mean"],
                                   final["delay_sum_mean"]))

    if cfg.kind == "scaling-check" and len(scaling_points) >= 3:
        if sum(r > 0.0 for _, r, _ in scaling_points) >= 3:  # the fit keeps positive regrets
            fit = evaluation.fit_scaling([(v, r) for v, r, _ in scaling_points])
            manifest["metrics"]["regret_exponent"] = fit.exponent
            manifest["metrics"]["regret_exponent_halfwidth"] = fit.halfwidth
        manifest["metrics"]["regret_over_sqrt_delay_sum"] = {
            f"T{v}": r / float(np.sqrt(d)) for v, r, d in scaling_points
        }
    if cfg.kind == "baseline-compare":
        arms = manifest["arms"]
        ratio = arms["naive"]["final_cum_loss_mean"] / arms[cfg.learner]["final_cum_loss_mean"]
        manifest["metrics"]["naive_to_learner_cum_loss_ratio"] = ratio

    manifest_path = out / "manifest.json"
    written.append(manifest_path)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    manifest["outputs"].append(manifest_path.name)
    return manifest


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def preset_names() -> list[str]:
    root = resources.files("laglearn").joinpath("presets")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".ini"))


def preset_path(name: str) -> Path:
    root = resources.files("laglearn").joinpath("presets")
    candidate = root.joinpath(f"{name}.ini")
    if not candidate.is_file():
        raise FileNotFoundError(f"no preset named {name!r}; have {', '.join(preset_names())}")
    return Path(str(candidate))


def resolve_config_arg(arg: str) -> Path:
    """A config argument is either a file path or a shipped preset name."""
    path = Path(arg)
    if path.is_file():
        return path
    try:
        return preset_path(arg)
    except FileNotFoundError:
        raise FileNotFoundError(f"{arg!r} is neither a config file nor a preset name")
