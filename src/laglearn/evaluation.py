"""Regret measurement: offline comparator, regret curves, scaling fits.

Regret over a horizon T compares the learner's accumulated loss against
the single best fixed decision in hindsight:

    regret(T) = sum_t f_t(x_t)  -  min_{y in body} sum_t f_t(y)

The prefix series regret(t) reuses the horizon-T comparator, the fixed
benchmark the guarantees are stated against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .feedback import FeedbackBuffer
from .geometry import Array, ConvexBody, norms
from .losses import ExpLoss, Loss, NormLoss, PowerLoss, QuadraticLoss


@dataclass
class Trajectory:
    """Per-round record of one trial, replayable from its stored losses."""

    horizon: int
    dim: int
    estimates: Array                 # (T, dim) estimates actually played
    loss_values: Array               # (T,) f_t evaluated at the decision
    score_errors: Array              # (T,) |score with estimate - true score|
    score_error_losses: Array        # (T,) radial profile applied to the score error
    loss: Loss                       # the T losses, one row per round
    delays: Array                    # (T,) per-round delays d_t
    delay_sum: int
    seed: int
    flags: tuple[str, ...] = ()

    @cached_property
    def delivered(self) -> tuple[tuple[int, ...], ...]:
        """The source rounds delivered at each round, from the delays."""
        buffer = FeedbackBuffer(self.delays)
        return tuple(tuple(buffer.ready_at(t)[1].tolist()) for t in range(1, self.horizon + 1))

    def replay_gap(self) -> float:
        """Max |stored loss value - loss re-evaluated at the stored estimate|."""
        gaps = np.abs(self.loss.value(self.estimates) - self.loss_values)
        return float(np.max(gaps, initial=0.0, where=~np.isnan(gaps)))


class Trajectories(tuple):
    """The trajectories of one lockstep game, in trial order."""

    @property
    def horizon(self) -> int:
        return self[0].horizon

    @property
    def flags(self) -> tuple[str, ...]:
        return tuple(flag for traj in self for flag in traj.flags)


@dataclass
class OfflineSolution:
    point: Array
    total: float
    converged: bool = True


@dataclass
class RegretReport:
    horizon: int
    regret: Array                    # (T,) prefix regret with the fixed comparator
    cum_loss: Array                  # (T,)
    comparator: Array
    comparator_loss: float
    delay_sum: int
    converged: bool = True


@dataclass
class AggregateCurves:
    horizon: int
    trials: int
    cum_loss_mean: Array
    cum_loss_stderr: Array
    regret_mean: Array
    regret_stderr: Array


@dataclass
class ScalingFit:
    exponent: float
    halfwidth: float
    points_used: int


def harmonic(n: int) -> float:
    """n-th harmonic number (sum of 1/k, k = 1..n)."""
    if n < 1:
        return 0.0
    return float(np.sum(1.0 / np.arange(1, n + 1)))


# ---------------------------------------------------------------------------
# Offline comparator
# ---------------------------------------------------------------------------

def offline_optimum(losses: Loss | list[Loss], body: ConvexBody,
                    max_iters: int = 100_000, restarts: int = 5,
                    seed: int = 0, method: str = "auto") -> OfflineSolution:
    """Best fixed decision: argmin over the body of the summed losses.

    Quadratic families admit a closed form (the summed quadratic is a
    single isotropic quadratic, so projecting its weighted-mean center is
    exact); one-dimensional norm losses reduce to the median.  Everything
    else runs projected gradient descent with step 1/(L n), stopping when
    the displacement drops below 1e-8, restarted from `restarts` random
    points with the best kept.  `method="iterative"` forces the gradient
    path even where a closed form exists (used to cross-check the two).
    `losses` is one loss with a row per round, or a list of single losses
    of one family.
    """
    if method not in ("auto", "iterative"):
        raise ValueError("method must be 'auto' or 'iterative'")
    if not isinstance(losses, Loss):
        losses = Loss.stack(losses)
    if losses.anchor.ndim != 2 or len(losses.anchor) == 0:
        raise ValueError("need a nonempty list of losses")
    dim = losses.dim
    if body.dim != dim:
        raise ValueError("body dimension does not match the losses")

    objective, gradient = _sum_oracles(losses)

    if method == "auto" and isinstance(losses, QuadraticLoss):
        weights = losses.a
        center = (weights[:, None] * losses.anchor).sum(axis=0) / weights.sum()
        point = body.project(center)
        return OfflineSolution(point=point, total=objective(point), converged=True)

    if method == "auto" and isinstance(losses, NormLoss) and dim == 1:
        median = float(np.median(losses.anchor[:, 0]))
        point = body.project(np.array([median]))
        return OfflineSolution(point=point, total=objective(point), converged=True)

    radius = body.radius_bound + float(np.max(norms(losses.anchor)))
    lipschitz = losses.lipschitz_bound(radius)
    step = 1.0 / (lipschitz * len(losses.anchor))
    rng = np.random.default_rng(seed)

    best_point = None
    best_value = np.inf
    any_converged = False
    for _ in range(restarts):
        x = body.sample(rng)
        converged = False
        for _ in range(max_iters):
            x_next = body.project(x - step * gradient(x))
            if float(np.linalg.norm(x_next - x)) <= 1e-8:
                x = x_next
                converged = True
                break
            x = x_next
        value = objective(x)
        if value < best_value:
            best_point, best_value = x, value
        any_converged = any_converged or converged

    if not any_converged:
        warnings.warn("offline comparator search hit the iteration budget", RuntimeWarning)
    return OfflineSolution(point=best_point, total=best_value, converged=any_converged)


def _sum_oracles(losses: Loss):
    """Value and gradient of the summed objective, vectorized per family."""
    anchors = losses.anchor

    if isinstance(losses, QuadraticLoss):
        a = losses.a
        b_total = float(sum(losses.b.tolist()))

        def value(x):
            r2 = np.sum((x - anchors) ** 2, axis=1)
            return float(np.dot(a, r2)) + b_total

        def grad(x):
            return 2.0 * np.sum(a[:, None] * (x - anchors), axis=0)

        return value, grad

    if isinstance(losses, NormLoss):
        def value(x):
            return float(np.sum(np.linalg.norm(x - anchors, axis=1)))

        def grad(x):
            diff = x - anchors
            r = np.linalg.norm(diff, axis=1)
            keep = r > 0
            return np.sum(diff[keep] / r[keep, None], axis=0)

        return value, grad

    if isinstance(losses, PowerLoss) and np.all(losses.m == losses.m[0]):
        m = int(losses.m[0])

        def value(x):
            r = np.linalg.norm(x - anchors, axis=1)
            return float(np.sum(r**m))

        def grad(x):
            diff = x - anchors
            r = np.linalg.norm(diff, axis=1)
            if m == 1:
                keep = r > 0
                return np.sum(diff[keep] / r[keep, None], axis=0)
            return m * np.sum(r[:, None] ** (m - 2) * diff, axis=0)

        return value, grad

    coefficients = (losses.a, losses.s, losses.m) if isinstance(losses, ExpLoss) else ()
    if coefficients and all(np.all(c == c[0]) for c in coefficients):
        a, s, m = float(losses.a[0]), float(losses.s[0]), int(losses.m[0])

        def value(x):
            r = np.linalg.norm(x - anchors, axis=1)
            return float(a * np.sum(np.exp(r**m / s**2)))

        def grad(x):
            diff = x - anchors
            r = np.linalg.norm(diff, axis=1)
            if m == 1:
                keep = r > 0
                w = a / s**2 * np.exp(r[keep] / s**2)
                return np.sum(w[:, None] * diff[keep] / r[keep, None], axis=0)
            w = a * m / s**2 * r ** (m - 2) * np.exp(r**m / s**2)
            return np.sum(w[:, None] * diff, axis=0)

        return value, grad

    def value(x):
        return float(np.sum(losses.value(x)))

    def grad(x):
        return np.sum(losses.grad(x), axis=0)

    return value, grad


# ---------------------------------------------------------------------------
# Regret
# ---------------------------------------------------------------------------

def regret(traj: Trajectory, body: ConvexBody, skip_rounds: int = 0) -> RegretReport:
    """Regret curve of a finished trajectory against the hindsight optimum.

    `skip_rounds` drops that many initial rounds from the reported regret
    (and from the comparator's objective): the dummy-candidate warm-up.
    The cumulative-loss curve always covers every round.
    """
    if traj.loss.anchor.shape[0] != traj.horizon:
        raise ValueError("trajectory is incomplete")
    if not 0 <= skip_rounds < traj.horizon:
        raise ValueError("skip_rounds must lie in [0, horizon)")
    scored = traj.loss[skip_rounds:]
    solution = offline_optimum(scored, body)
    comparator_values = np.zeros(traj.horizon)
    comparator_values[skip_rounds:] = scored.value(solution.point)
    scored_loss = traj.loss_values.copy()
    scored_loss[:skip_rounds] = 0.0
    cum_loss = np.cumsum(traj.loss_values)
    series = np.cumsum(scored_loss) - np.cumsum(comparator_values)

    return RegretReport(
        horizon=traj.horizon,
        regret=series,
        cum_loss=cum_loss,
        comparator=solution.point,
        comparator_loss=solution.total,
        delay_sum=traj.delay_sum,
        converged=solution.converged,
    )


def fit_scaling(points) -> ScalingFit:
    """Least-squares power-law exponent from (scale, regret) pairs.

    Fits log regret against log scale; returns the slope and its 95%
    confidence half-width.  Nonpositive regrets are dropped; fewer than 3
    surviving points is an error.
    """
    from scipy import stats  # deferred: loading it dominates the time of `import laglearn`
    kept = [(float(v), float(r)) for v, r in points if r > 0.0]
    for v, _ in kept:
        if v <= 0.0:
            raise ValueError("scale values must be positive")
    if len(kept) < 3:
        raise ValueError(f"need at least 3 positive points, have {len(kept)}")
    log_v = np.log([v for v, _ in kept])
    log_r = np.log([r for _, r in kept])
    fit = stats.linregress(log_v, log_r)
    if np.isnan(fit.stderr) or fit.stderr == 0.0:
        halfwidth = 0.0
    else:
        halfwidth = float(fit.stderr * stats.t.ppf(0.975, len(kept) - 2))
    return ScalingFit(exponent=float(fit.slope), halfwidth=halfwidth, points_used=len(kept))


def aggregate(reports: list[RegretReport]) -> AggregateCurves:
    """Pointwise mean and standard error over trials of one configuration."""
    if not reports:
        raise ValueError("nothing to aggregate")
    cum = np.stack([r.cum_loss for r in reports])
    reg = np.stack([r.regret for r in reports])
    n = len(reports)

    def stderr(stack):
        if n < 2:
            return np.zeros(stack.shape[1])
        return np.std(stack, axis=0, ddof=1) / np.sqrt(n)

    return AggregateCurves(
        horizon=reports[0].horizon,
        trials=n,
        cum_loss_mean=cum.mean(axis=0),
        cum_loss_stderr=stderr(cum),
        regret_mean=reg.mean(axis=0),
        regret_stderr=stderr(reg),
    )


def write_csv(curves: AggregateCurves, path) -> None:
    """Serialize aggregated curves: t, cum_loss_mean/stderr, regret_mean/stderr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,cum_loss_mean,cum_loss_stderr,regret_mean,regret_stderr\n")
        for i in range(curves.horizon):
            fh.write(
                f"{i + 1},{float(curves.cum_loss_mean[i])!r},{float(curves.cum_loss_stderr[i])!r},"
                f"{float(curves.regret_mean[i])!r},{float(curves.regret_stderr[i])!r}\n"
            )
