"""Regret measurement: offline comparator, regret curves, scaling fits.

Regret over a horizon T compares the learner's accumulated loss against
the single best fixed decision in hindsight:

    regret(T) = sum_t f_t(x_t)  -  min_{y in body} sum_t f_t(y)

The prefix series regret(t) reuses the horizon-T comparator, the fixed
benchmark the guarantees are stated against.

One `Trajectory` records all the trials of one game and one
`RegretReport` their regret; row k of every array is trial k.  `regret`
measures the trials at once: a single `offline_optimum` call solves every
trial's comparator as one batch, whose rows are the trials for the closed
forms and trials x restarts for projected gradient descent.  Each row
rounds exactly as solving its trial alone does, so a trial's comparator
does not depend on the batch it is in.  `aggregate` reduces a report's
rows to their mean and standard error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .feedback import FeedbackBuffer
from .geometry import Array, ConvexBody, norms
from .losses import ExpLoss, Loss, NormLoss, PowerLoss, QuadraticLoss


# CSV rows are formatted from `tolist()` chunks of this many rounds, never
# from a list of the whole horizon.
CSV_CHUNK = 4096


@dataclass
class Trajectory:
    """Per-round record of one lockstep game, replayable from its stored losses.

    Row k of every array is trial k, and trial k's flags are tagged k.
    """

    estimates: Array                 # (trials, T, dim) estimates actually played
    loss_values: Array               # (trials, T) f_t evaluated at the decision
    score_errors: Array              # (trials, T) |score with estimate - true score|
    score_error_losses: Array        # (trials, T) radial profile applied to the score error
    loss: Loss                       # anchors (trials, T, dim): each trial's T losses
    delays: Array                    # (trials, T) per-round delays d_t
    flags: tuple[tuple[int, str], ...] = ()  # (trial, flag) pairs, in trial order

    @property
    def horizon(self) -> int:
        return self.delays.shape[1]

    def delivered(self, trial: int) -> tuple[tuple[int, ...], ...]:
        """The source rounds delivered at each round of `trial`, from its delays."""
        buffer = FeedbackBuffer(self.delays[trial])
        sources = iter(buffer.sources.tolist())
        return tuple(tuple(islice(sources, n)) for n in np.diff(buffer.starts[1:]).tolist())

    def replay_gap(self) -> Array:
        """Per trial, max |stored loss value - loss re-evaluated at the stored estimate|."""
        gaps = np.abs(self.loss.value(self.estimates) - self.loss_values)
        return np.max(gaps, axis=1, initial=0.0, where=~np.isnan(gaps))


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
    """Regret of one arm's trials: row k of every array is trial k."""

    regret: Array                    # (trials, T) prefix regret with the fixed comparator
    cum_loss: Array                  # (trials, T)
    comparator: Array                # (trials, dim)
    comparator_loss: Array           # (trials,)
    converged: Array                 # (trials,) whether each comparator search converged


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

def regret(trajectory: Trajectory, body: ConvexBody, skip_rounds: int = 0) -> RegretReport:
    """Regret curves of an arm's finished trials.

    Each trial is measured against its own hindsight optimum; one
    `offline_optimum` call solves the comparators of every trial.
    `skip_rounds` drops that many initial rounds from the reported regret
    (and from the comparator's objective): the dummy-candidate warm-up.
    The cumulative-loss curve always covers every round.
    """
    horizon = trajectory.horizon
    if trajectory.loss.anchor.shape[1] != horizon:
        raise ValueError("trajectory is incomplete")
    if not 0 <= skip_rounds < horizon:
        raise ValueError("skip_rounds must lie in [0, horizon)")
    scored = trajectory.loss[:, skip_rounds:]
    solutions = offline_optimum(scored, body)
    comparator = np.stack([solution.point for solution in solutions])
    comparator_values = np.zeros((len(comparator), horizon))
    comparator_values[:, skip_rounds:] = scored.value(comparator[:, None])
    scored_loss = trajectory.loss_values.copy()
    scored_loss[:, :skip_rounds] = 0.0
    return RegretReport(
        regret=np.cumsum(scored_loss, axis=1) - np.cumsum(comparator_values, axis=1),
        cum_loss=np.cumsum(trajectory.loss_values, axis=1),
        comparator=comparator,
        comparator_loss=np.array([solution.total for solution in solutions]),
        converged=np.array([solution.converged for solution in solutions]),
    )


# scipy 1.17.1's `stats.t.ppf(0.975, df)` for df = 1..30, printed as these
# reprs: the two-sided 95% Student t quantiles.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378,
)


def _t975(df: int) -> float:
    """Two-sided 95% Student t quantile with `df` degrees of freedom.

    Up to df = 30 it is scipy's value from `_T975`.  Beyond, the 4-term
    Cornish-Fisher expansion about the normal quantile z (Abramowitz &
    Stegun 26.7.5), within 1.3e-8 relative of scipy for df = 31..10^6.
    """
    if df <= len(_T975):
        return _T975[df - 1]
    z = 1.959963984540054
    terms = ((z**3 + z) / 4,
             (5 * z**5 + 16 * z**3 + 3 * z) / 96,
             (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / 384,
             (79 * z**9 + 776 * z**7 + 1482 * z**5 - 1920 * z**3 - 945 * z) / 92160)
    return z + sum(g / df**k for k, g in enumerate(terms, start=1))


def fit_scaling(points) -> ScalingFit:
    """Least-squares power-law exponent from (scale, regret) pairs.

    Fits log regret against log scale; returns the slope and its 95%
    confidence half-width, stderr * _t975(n - 2).  The arithmetic is scipy's
    `stats.linregress`, step for step, so the slope and its stderr keep
    scipy's bits.  Nonpositive regrets are dropped; fewer than 3 surviving
    points, or scales that are all equal, is an error.
    """
    kept = [(float(v), float(r)) for v, r in points if r > 0.0]
    for v, _ in kept:
        if v <= 0.0:
            raise ValueError("scale values must be positive")
    if len(kept) < 3:
        raise ValueError(f"need at least 3 positive points, have {len(kept)}")
    log_v = np.log([v for v, _ in kept])
    log_r = np.log([r for _, r in kept])
    if log_v.max() == log_v.min():
        raise ValueError("cannot fit an exponent when every scale is equal")
    ssxm, ssxym, _, ssym = np.cov(log_v, log_r, bias=1).flat
    halfwidth = 0.0  # every regret equal: linregress gives r = nan and no stderr
    if ssym != 0.0:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
        df = len(kept) - 2
        halfwidth = float(np.sqrt((1 - r**2) * ssym / ssxm / df) * _t975(df))
    return ScalingFit(exponent=float(ssxym / ssxm), halfwidth=halfwidth, points_used=len(kept))


def aggregate(report: RegretReport) -> AggregateCurves:
    """Pointwise mean and standard error over the trials of one configuration."""
    cum, reg = report.cum_loss, report.regret
    trials, horizon = reg.shape
    if trials == 0:
        raise ValueError("nothing to aggregate")

    def stderr(stack):
        if trials < 2:
            return np.zeros(horizon)
        return np.std(stack, axis=0, ddof=1) / np.sqrt(trials)

    return AggregateCurves(
        horizon=horizon,
        trials=trials,
        cum_loss_mean=cum.mean(axis=0),
        cum_loss_stderr=stderr(cum),
        regret_mean=reg.mean(axis=0),
        regret_stderr=stderr(reg),
    )


def write_csv(curves: AggregateCurves, path) -> None:
    """Serialize aggregated curves: t, cum_loss_mean/stderr, regret_mean/stderr."""
    columns = (curves.cum_loss_mean, curves.cum_loss_stderr, curves.regret_mean,
               curves.regret_stderr)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,cum_loss_mean,cum_loss_stderr,regret_mean,regret_stderr\n")
        for lo in range(0, curves.horizon, CSV_CHUNK):
            rows = zip(*(column[lo:lo + CSV_CHUNK].tolist() for column in columns))
            fh.write("".join(f"{t},{a!r},{b!r},{c!r},{d!r}\n"
                             for t, (a, b, c, d) in enumerate(rows, start=lo + 1)))
