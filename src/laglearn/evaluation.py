"""Regret measurement: offline comparator, regret curves, scaling fits.

Regret over a horizon T compares the learner's accumulated loss against
the single best fixed decision in hindsight:

    regret(T) = sum_t f_t(x_t)  -  min_{y in body} sum_t f_t(y)

The prefix series regret(t) reuses the horizon-T comparator, the fixed
benchmark the guarantees are stated against.

`regret` measures all the trials of one game at once: a single
`offline_optimum` call solves every trial's comparator as one batch, whose
rows are the trials for the closed forms and trials x restarts for
projected gradient descent.  Each row rounds exactly as solving its trial
alone does, so a trial's comparator does not depend on the batch it is in.
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


class OfflineSolutions(tuple):
    """The comparators of one batched solve, one `OfflineSolution` per trial."""

    @property
    def converged(self) -> bool:
        """Whether every trial's search converged."""
        return all(solution.converged for solution in self)


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
                    seed: int = 0, method: str = "auto") -> OfflineSolutions:
    """Best fixed decision of each trial: argmin over the body of its summed losses.

    `losses` is one loss whose anchors have shape (trials, T, d), one
    problem per trial.  Anchors of shape (T, d), or a list of single losses
    of one family, are a batch of one.  Returns one solution per trial.

    Quadratic families admit a closed form (the summed quadratic is a
    single isotropic quadratic, so projecting its weighted-mean center is
    exact); one-dimensional norm losses reduce to the median.  Everything
    else runs projected gradient descent on trials x restarts rows at once:
    every trial starts from the same `restarts` random points, each row
    steps by its trial's 1/(L n) and freezes once its displacement drops
    below 1e-8, and each trial keeps its restart of lowest objective (the
    first, on ties).  A row's arithmetic is that of solving its trial
    alone, so batching does not change a bit.  `method="iterative"` forces
    the gradient path even where a closed form exists (used to cross-check
    the two).
    """
    if method not in ("auto", "iterative"):
        raise ValueError("method must be 'auto' or 'iterative'")
    if not isinstance(losses, Loss):
        losses = Loss.stack(losses)
    if losses.anchor.ndim == 2:
        losses = losses[None]
    if losses.anchor.ndim != 3 or 0 in losses.anchor.shape:
        raise ValueError("need a nonempty list of losses")
    trials, horizon, dim = losses.anchor.shape
    if body.dim != dim:
        raise ValueError("body dimension does not match the losses")

    objective, gradient = _sum_oracles(losses)
    solved = np.ones((trials, 1), dtype=bool)

    if method == "auto" and isinstance(losses, QuadraticLoss):
        weights = losses.a
        center = (weights[..., None] * losses.anchor).sum(axis=1) / weights.sum(axis=1)[:, None]
        return _best_restarts(body.project(center)[:, None], objective, solved)

    if method == "auto" and isinstance(losses, NormLoss) and dim == 1:
        median = np.median(losses.anchor[..., 0], axis=1)
        return _best_restarts(body.project(median[:, None])[:, None], objective, solved)

    radius = body.radius_bound + np.max(norms(losses.anchor), axis=1)
    lipschitz = np.array([losses[k].lipschitz_bound(r) for k, r in enumerate(radius.tolist())])
    step = (1.0 / (lipschitz * horizon))[:, None, None]
    rng = np.random.default_rng(seed)
    starts = np.stack([body.sample(rng) for _ in range(restarts)])
    x = np.broadcast_to(starts, (trials, restarts, dim)).copy()
    frozen = np.zeros((trials, restarts), dtype=bool)
    for _ in range(max_iters):
        x_next = body.project(x - step * gradient(x))
        settled = norms(x_next - x) <= 1e-8
        x = np.where(frozen[..., None], x, x_next)
        frozen |= settled
        if frozen.all():
            break
    return _best_restarts(x, objective, frozen)


def _best_restarts(x: Array, objective, converged: Array) -> OfflineSolutions:
    """Each trial's restart row of lowest objective, the first on ties.

    `x` holds the final points (trials, restarts, d) and `converged` which
    rows converged; a trial converged if any of its restarts did.
    """
    values = objective(x)
    values = np.where(np.isnan(values), np.inf, values)
    best = np.argmin(values, axis=1)
    rows = np.arange(len(x))
    converged = converged.any(axis=1)
    if not converged.all():
        warnings.warn("offline comparator search hit the iteration budget", RuntimeWarning)
    return OfflineSolutions(
        OfflineSolution(point=point, total=total, converged=ok)
        for point, total, ok in zip(x[rows, best], values[rows, best].tolist(),
                                    converged.tolist()))


# np.linalg.norm sums a row of fewer than this many squares in order, and
# a longer one pairwise.
_PAIRWISE_FROM = 8


def _squared_norms(diff: Array, out: Array | None = None, spare: Array | None = None) -> Array:
    """Sum of squares over the leading coordinate axis of `diff`.

    Rounded as `np.linalg.norm(axis=-1)` rounds the same numbers laid out
    coordinate-last: in order below `_PAIRWISE_FROM` coordinates, by numpy's
    own pairwise sum from there up.  `out` and `spare`, when given, are
    arrays of the result's shape to work in.
    """
    if len(diff) >= _PAIRWISE_FROM:
        return np.add.reduce(np.moveaxis(diff * diff, 0, -1).copy(), axis=-1, out=out)
    total = np.multiply(diff[0], diff[0], out=out)
    for coordinate in diff[1:]:
        total += np.multiply(coordinate, coordinate, out=spare)
    return total


def _sum_rounds(terms: Array, kinks: Array | None = None) -> Array:
    """Sum over the trailing rounds axis of `terms` (d, trials, rows, T),
    returned coordinate-last as (trials, rows, d).

    Rounded as `np.sum(axis=0)` rounds one row's (T, d) array: numpy adds
    the rounds pairwise when d == 1, where they are contiguous, and in
    order when d >= 2.  Overwrites `terms`.  A row with rounds in `kinks`
    (trials, rows, T) is summed again on its own, over its other rounds
    only, as the single solve leaves a kink's zero subgradient out.
    """
    if len(terms) == 1:
        total = np.add.reduce(terms, axis=-1)
    else:
        sums = np.add.accumulate(terms, axis=-1, out=terms if kinks is None else None)
        total = sums[..., -1].copy()
    if kinks is not None:
        for k, row in zip(*np.nonzero(kinks.any(axis=-1))):
            total[:, k, row] = np.sum(terms[:, k, row].T[~kinks[k, row]], axis=0)
    return np.moveaxis(total, 0, -1)


def _sum_directions(numerator: Array, r: Array) -> Array:
    """Sum over the rounds of numerator / r, skipping the kinks where r == 0."""
    kinks = r == 0
    terms = np.divide(numerator, r, out=numerator, where=~kinks)
    return _sum_rounds(terms, kinks if kinks.any() else None)


def _sum_oracles(losses: Loss):
    """Value and gradient of each trial's summed objective, per family.

    `losses` holds anchors (trials, T, d).  The oracles take points
    (trials, rows, d) and return values (trials, rows) and gradients
    (trials, rows, d).  Offsets from the anchors are laid out
    coordinate-major, (d, trials, rows, T), so that every step runs along
    contiguous rounds, in arrays the gradient reuses from one call to the
    next.  Each family keeps the formula of a single solve term by term
    (sums of squares as `np.linalg.norm` takes them, not `sqrt(vecdot)`),
    and `_squared_norms` and `_sum_rounds` add in the order numpy adds one
    trial's (T, d) arrays.
    """
    anchors = np.ascontiguousarray(losses.anchor.transpose(2, 0, 1))[:, :, None]
    arrays: dict[str, Array] = {}

    def reused(name, shape):
        if name not in arrays or arrays[name].shape != shape:
            arrays[name] = np.empty(shape)
        return arrays[name]

    def offsets(x):
        """Offsets (d, trials, rows, T) from the anchors and their squared norms."""
        shape = (len(anchors), len(x), x.shape[1], anchors.shape[-1])
        diff = np.subtract(x.transpose(2, 0, 1)[..., None], anchors, out=reused("diff", shape))
        return diff, _squared_norms(diff, reused("squares", shape[1:]), reused("spare", shape[1:]))

    def distances(x):
        diff, squares = offsets(x)
        return diff, np.sqrt(squares, out=squares)

    if isinstance(losses, QuadraticLoss):
        a = losses.a[:, None, :]
        b_total = np.array([float(sum(row)) for row in losses.b.tolist()])[:, None]

        def value(x):
            return np.vecdot(a, offsets(x)[1]) + b_total

        def grad(x):
            diff = offsets(x)[0]
            return 2.0 * _sum_rounds(np.multiply(a, diff, out=diff))

        return value, grad

    if isinstance(losses, NormLoss):
        def value(x):
            return np.add.reduce(distances(x)[1], axis=-1)

        def grad(x):
            return _sum_directions(*distances(x))

        return value, grad

    if isinstance(losses, PowerLoss) and np.all(losses.m == losses.m.flat[0]):
        m = int(losses.m.flat[0])

        def value(x):
            return np.add.reduce(distances(x)[1] ** m, axis=-1)

        def grad(x):
            diff, r = distances(x)
            if m == 1:
                return _sum_directions(diff, r)
            return m * _sum_rounds(np.multiply(r ** (m - 2), diff, out=diff))

        return value, grad

    coefficients = (losses.a, losses.s, losses.m) if isinstance(losses, ExpLoss) else ()
    if coefficients and all(np.all(c == c.flat[0]) for c in coefficients):
        a, s, m = float(losses.a.flat[0]), float(losses.s.flat[0]), int(losses.m.flat[0])

        def value(x):
            return a * np.add.reduce(np.exp(distances(x)[1] ** m / s**2), axis=-1)

        def grad(x):
            diff, r = distances(x)
            if m == 1:
                w = a / s**2 * np.exp(r / s**2)
                return _sum_directions(np.multiply(w, diff, out=diff), r)
            w = a * m / s**2 * r ** (m - 2) * np.exp(r**m / s**2)
            return _sum_rounds(np.multiply(w, diff, out=diff))

        return value, grad

    # Mixed coefficients: the family's own row-wise oracles, coordinate-last.
    rows = losses[:, None]

    def value(x):
        return np.add.reduce(rows.value(x[:, :, None]), axis=-1)

    def grad(x):
        return np.sum(rows.grad(x[:, :, None]), axis=2)

    return value, grad


# ---------------------------------------------------------------------------
# Regret
# ---------------------------------------------------------------------------

def regret(trajectories: Trajectories, body: ConvexBody,
           skip_rounds: int = 0) -> list[RegretReport]:
    """Regret curves of an arm's finished trajectories, one report per trial.

    Each trial is measured against its own hindsight optimum; one
    `offline_optimum` call solves the comparators of every trial.
    `skip_rounds` drops that many initial rounds from the reported regret
    (and from the comparator's objective): the dummy-candidate warm-up.
    The cumulative-loss curve always covers every round.
    """
    horizon = trajectories.horizon
    if any(traj.loss.anchor.shape[0] != traj.horizon for traj in trajectories):
        raise ValueError("trajectory is incomplete")
    if not 0 <= skip_rounds < horizon:
        raise ValueError("skip_rounds must lie in [0, horizon)")
    scored = Loss.stack([traj.loss[skip_rounds:] for traj in trajectories])
    solutions = offline_optimum(scored, body)
    comparator_values = np.zeros((len(trajectories), horizon))
    comparator_values[:, skip_rounds:] = scored.value(
        np.stack([solution.point for solution in solutions])[:, None])
    loss_values = np.stack([traj.loss_values for traj in trajectories])
    scored_loss = loss_values.copy()
    scored_loss[:, :skip_rounds] = 0.0
    cum_loss = np.cumsum(loss_values, axis=1)
    series = np.cumsum(scored_loss, axis=1) - np.cumsum(comparator_values, axis=1)

    return [
        RegretReport(
            horizon=horizon,
            regret=series[k],
            cum_loss=cum_loss[k],
            comparator=solution.point,
            comparator_loss=solution.total,
            delay_sum=traj.delay_sum,
            converged=solution.converged,
        )
        for k, (traj, solution) in enumerate(zip(trajectories, solutions))]


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
