"""Regret measurement: offline comparator, regret curves, scaling fits, CSV files.

Regret over a horizon T compares the learner's accumulated loss against
the single best fixed decision in hindsight:

    regret(T) = sum_t f_t(x_t)  -  min_{y in body} sum_t f_t(y)

The prefix series regret(t) reuses the horizon-T comparator, the fixed
benchmark the guarantees are stated against.

One `Trajectory` records all the trials of one game, one `OfflineSolution`
their comparators and one `RegretReport` their regret; row k of every
array is trial k.  `regret` measures the trials at once: a single
`offline_optimum` call solves every trial's comparator as one batch, one
row per trial, and certifies each row by its Frank-Wolfe gap.  Each row
rounds exactly as solving its trial alone does, so a trial's comparator
does not depend on the batch it is in.  `aggregate` reduces a report's
rows to their mean and standard error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import count

import numpy as np

from .feedback import delivery_order
from .geometry import Array, ConvexBody, norms
from .losses import Loss, NormLoss, QuadraticLoss


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
    loss: Loss                       # anchors (trials, T, dim): each trial's T losses
    delays: Array                    # (trials, T) per-round delays d_t
    flags: tuple[tuple[int, str], ...] = ()  # (trial, flag) pairs, in trial order

    @property
    def horizon(self) -> int:
        return self.delays.shape[1]

    def replay_gap(self) -> Array:
        """Per trial, max |stored loss value - loss re-evaluated at the stored estimate|."""
        gaps = np.abs(self.loss.value(self.estimates) - self.loss_values)
        return np.max(gaps, axis=1, initial=0.0, where=~np.isnan(gaps))


# A comparator is certified once its Frank-Wolfe gap, a bound on its total
# minus the least total, is at most this share of its total (or of 1, if
# larger).  Criterion 8's 1e-6 match of the quadratic points needs <= 1e-6.
GAP_TOLERANCE = 1e-7
MAX_STEPS = 3_000  # trial steps, accepted or not, before giving up uncertified


def _certified(gap, total):
    return gap <= GAP_TOLERANCE * np.maximum(total, 1.0)


@dataclass
class OfflineSolution:
    """The comparators of one batched solve: row k of every array is trial k."""

    point: Array                     # (trials, dim)
    total: Array                     # (trials,)
    gap: Array                       # (trials,) Frank-Wolfe gap: total - least total <= gap

    @property
    def converged(self) -> bool:
        """Whether the gap certifies every trial's total to `GAP_TOLERANCE`."""
        return bool(_certified(self.gap, self.total).all())


@dataclass
class RegretReport:
    """Regret of one arm's trials: row k of every array is trial k."""

    regret: Array                    # (trials, T) prefix regret with the fixed comparator
    cum_loss: Array                  # (trials, T)
    comparator: Array                # (trials, dim)
    comparator_loss: Array           # (trials,)
    converged: Array                 # (trials,) whether each comparator's gap certifies it


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


# ---------------------------------------------------------------------------
# Offline comparator
# ---------------------------------------------------------------------------

def offline_optimum(losses: Loss | list[Loss], body: ConvexBody,
                    method: str = "auto") -> OfflineSolution:
    """Best fixed decision of each trial: argmin over the body of its summed losses.

    `losses` is one loss whose anchors have shape (trials, T, d), one
    problem per trial.  Anchors of shape (T, d), or a list of single losses
    of one family, are a batch of one.  Returns one `OfflineSolution` whose
    row k is trial k's point and total, with the Frank-Wolfe gap that
    certifies it.

    Projected gradient descent starts from the closed form where there is
    one, which certifies at once: the projected weighted-mean center of a
    quadratic sum, the projected median of 1-d norm losses.  Otherwise it
    starts from the projected anchor mean.  Each trial's step 1/L follows
    Armijo's rule (Beck & Teboulle 2009): L doubles on a rejected step and
    halves after an accepted one.  A trial stops once its gap is within
    `GAP_TOLERANCE`; one still uncertified after `MAX_STEPS` steps is
    returned with a `RuntimeWarning`.  Every step is row-wise, so a trial's
    answer does not depend on its batch.  `method="iterative"` skips the
    closed forms (to cross-check them).
    """
    if method not in ("auto", "iterative"):
        raise ValueError("method must be 'auto' or 'iterative'")
    if not isinstance(losses, Loss):
        losses = Loss.stack(losses)
    if losses.anchor.ndim == 2:
        losses = losses[None]
    if losses.anchor.ndim != 3 or 0 in losses.anchor.shape:
        raise ValueError("need a nonempty list of losses")
    dim = losses.anchor.shape[-1]
    if body.dim != dim:
        raise ValueError("body dimension does not match the losses")

    if method == "auto" and isinstance(losses, QuadraticLoss):
        weights = losses.a
        start = (weights[..., None] * losses.anchor).sum(axis=1) / weights.sum(axis=1)[:, None]
    elif method == "auto" and isinstance(losses, NormLoss) and dim == 1:
        start = _median(losses.anchor[..., 0])[:, None]
    else:
        start = losses.anchor.mean(axis=1)
    solution = OfflineSolution(*_descend(losses, body, body.project(start)))
    if not solution.converged:
        warnings.warn("offline comparator is not certified: its Frank-Wolfe gap is above "
                      "the tolerance", RuntimeWarning)
    return solution


def _median(rows: Array) -> Array:
    """`np.median(rows, axis=-1)` by numpy's own steps, bit for bit: partition
    at the middle (and at the last place, where a NaN sorts to), take the
    mean of the middle one or two, and give a row whose last entry is NaN a
    NaN.  `np.median`'s NaN check imports `numpy.ma`, about 20 ms."""
    n = rows.shape[-1]
    middle = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    part = np.partition(rows, middle + [-1], axis=-1)
    median = part[..., middle[0]:n // 2 + 1].mean(axis=-1)
    last = part[..., -1]
    np.copyto(median, last, where=np.isnan(last))
    return median


def _totals(losses: Loss, x: Array) -> Array:
    """Each trial's summed losses at its row of x."""
    return np.add.reduce(losses.value(x[:, None]), axis=-1)


def _oracles(losses: Loss, body: ConvexBody, x: Array):
    """Each trial's Frank-Wolfe gap max_y <g, x - y> at x, and g.

    g is the summed gradient, but at kinks the kinked terms add a ball of
    radius sum radial'(0+), which cancels the rest as far as it reaches:
    g is the subgradient of least norm, and a minimum on anchors has gap 0.
    """
    g = losses.grad(x[:, None]).sum(axis=1)
    slopes = losses.kink_slope()
    if slopes.any():
        ball = np.add.reduce(np.where(losses.distance(x[:, None]) == 0.0, slopes, 0.0), -1)
        length = norms(g)
        cancelled = np.divide(ball, length, out=np.ones_like(ball), where=length > 0)
        g *= 1.0 - np.minimum(cancelled, 1.0)[:, None]
    return np.vecdot(g, x - body.linear_minimizer(g)), g


def _descend(losses: Loss, body: ConvexBody, x: Array):
    """Projected gradient descent from x with backtracking, until every trial
    is certified.  A step that overflows has no finite total, and is rejected.

    Each point is evaluated once: an accepted trial keeps the total its
    step (or its snap to a kink) was tried at, which is the total at the
    point it moves to, since every evaluation is row-wise."""
    kinks = losses.kink_slope() > 0
    with np.errstate(all="ignore"):
        total = _totals(losses, x)
        gap, g = _oracles(losses, body, x)
        curvature = np.ones(len(x))
        for _ in range(MAX_STEPS):
            open_ = ~_certified(gap, total)
            if not open_.any():
                break
            step = body.project(x - g / curvature[:, None])
            moved = step - x
            tried = _totals(losses, step)
            bound = total + np.vecdot(g, moved) + curvature / 2 * np.vecdot(moved, moved)
            accepted = open_ & np.isfinite(tried) & (tried <= bound)
            if kinks.any() and not accepted[open_].all():
                # No gradient step lands on a kink: a trial whose step was rejected
                # moves to its nearest kinked anchor if that lowers its total.
                r = np.where(kinks, losses.distance(x[:, None]), np.inf)
                snap = body.project(losses.anchor[np.arange(len(x)), np.argmin(r, axis=1)])
                snap_total = _totals(losses, snap)
                snapped = open_ & ~accepted & (snap_total < total)
                step, accepted = np.where(snapped[:, None], snap, step), accepted | snapped
                tried = np.where(snapped, snap_total, tried)
            curvature *= np.where(accepted, 0.5, np.where(open_, 2.0, 1.0))
            if accepted.any():
                x[accepted], total[accepted] = step[accepted], tried[accepted]
                gap[accepted], g[accepted] = _oracles(losses[accepted], body, x[accepted])
    return x, total, gap


# ---------------------------------------------------------------------------
# Regret
# ---------------------------------------------------------------------------

def regret(trajectory: Trajectory, body: ConvexBody, skip_rounds: int = 0,
           solved: list | None = None) -> RegretReport:
    """Regret curves of an arm's finished trials.

    Each trial is measured against its own hindsight optimum; one
    `offline_optimum` call solves the comparators of every trial, and the
    report's `converged` says which of them their gaps certify.
    `skip_rounds` drops that many initial rounds from the reported regret
    (and from the comparator's objective): the dummy-candidate warm-up.
    The cumulative-loss curve always covers every round.

    `solved` lets the arms of one experiment share a solve.  It holds the
    problem of the last arm measured through it, as [losses, skip_rounds,
    body description, solution], or nothing yet.  An arm whose losses
    equal those bit for bit (`Loss.same_bits`), and that skips as many
    rounds on a body of the same description, scores the same problem and
    reuses those comparators; any other arm is solved.  Either way the
    arm's own problem then takes their place, so `solved` keeps no losses
    alive but the last arm's.
    """
    horizon = trajectory.horizon
    if trajectory.loss.anchor.shape[1] != horizon:
        raise ValueError("trajectory is incomplete")
    if not 0 <= skip_rounds < horizon:
        raise ValueError("skip_rounds must lie in [0, horizon)")
    scored = trajectory.loss[:, skip_rounds:]
    problem = [trajectory.loss, skip_rounds, body.describe()]
    if solved and solved[1:3] == problem[1:] and problem[0].same_bits(solved[0]):
        solution = solved[3]
    else:
        solution = offline_optimum(scored, body)
    if solved is not None:
        solved[:] = problem + [solution]
    comparator_values = np.zeros((len(solution.point), horizon))
    comparator_values[:, skip_rounds:] = scored.value(solution.point[:, None])
    scored_loss = trajectory.loss_values.copy()
    scored_loss[:, :skip_rounds] = 0.0
    return RegretReport(
        regret=np.cumsum(scored_loss, axis=1) - np.cumsum(comparator_values, axis=1),
        cum_loss=np.cumsum(trajectory.loss_values, axis=1),
        comparator=solution.point,
        comparator_loss=solution.total,
        converged=_certified(solution.gap, solution.total),
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
    """Serialize aggregated curves: t, cum_loss_mean/stderr, regret_mean/stderr.

    Each float is written as its `repr`, CSV_CHUNK rounds at a time.
    """
    columns = (curves.cum_loss_mean, curves.cum_loss_stderr, curves.regret_mean,
               curves.regret_stderr)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,cum_loss_mean,cum_loss_stderr,regret_mean,regret_stderr\n")
        for lo in range(0, curves.horizon, CSV_CHUNK):
            _write_rows(fh, lo + 1,
                        [map(repr, column[lo:lo + CSV_CHUNK].tolist()) for column in columns])


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """The first trial's rounds: loss, score error, delivered sources and estimate.

    CSV_CHUNK rounds at a time.  A float is written as its `repr`; the loss,
    score-error and estimate columns of a chunk are laid out as one array,
    and when it repeats floats (`_reprs`), each distinct one is formatted
    once.  The sources a round delivers are joined by ";", cut from the
    first trial's delivery order at its `starts`.
    """
    estimates, loss_values, errors = traj.estimates[0], traj.loss_values[0], traj.score_errors[0]
    # Only the sources and starts are kept while the rows are formatted,
    # which lowers peak memory.
    pair_sources, pair_starts = delivery_order(traj.delays[:1])[1:]
    coord_cols = ",".join(f"estimate_{j}" for j in range(estimates.shape[1]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"t,loss,score_error,delivered,{coord_cols}\n")
        for lo in range(0, traj.horizon, CSV_CHUNK):
            hi = lo + CSV_CHUNK
            # Rounds lo + 1..hi deliver the pairs pair_starts[lo + 1]:pair_starts[hi + 1].
            starts = pair_starts[lo + 1:hi + 2].tolist()
            first = starts[0]
            sources = list(map(str, pair_sources[first:starts[-1]].tolist()))
            delivered = [";".join(sources[a - first:b - first]) for a, b in zip(starts, starts[1:])]
            loss_text, error_text, *coords = _reprs(
                np.vstack([loss_values[lo:hi], errors[lo:hi], estimates[lo:hi].T]))
            _write_rows(fh, lo + 1, [loss_text, error_text, delivered, *coords])


def _reprs(floats: Array) -> list:
    """The `repr` of each float of a 2-d array, as one iterable per row.

    The distinct bit patterns are counted first, over the int64 view, which
    keeps -0.0 apart from 0.0.  When fewer than 3/4 of the fields are
    distinct, each distinct float is formatted once (`np.unique`) and every
    field looked up among their reprs; otherwise every field is formatted,
    since the lookup would cost more than it saves.  On a 2-core x86 VM a
    chunk of 16,384 fields breaks even near 85% distinct, and the count
    costs about 1% of formatting it.
    """
    bits = floats.view(np.int64)
    ordered = np.sort(bits, axis=None)
    count = 1 + np.count_nonzero(ordered[1:] != ordered[:-1])
    del ordered  # freed before np.unique allocates, which keeps the peak RSS down
    if 4 * count >= 3 * floats.size:
        return [map(repr, row) for row in floats.tolist()]
    distinct, which = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return text[which.reshape(floats.shape)].tolist()


def _write_rows(fh, first: int, columns) -> None:
    """Write CSV rows numbered from round `first`: the round, then one field
    from each column.  A column is an iterable of strings, and the rows end
    with the shortest one.  The rows are built a column at a time, not a
    row at a time."""
    fh.write("\n".join(map(",".join, zip(map(str, count(first)), *columns))))
    fh.write("\n")
