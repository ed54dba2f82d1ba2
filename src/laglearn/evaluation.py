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

`write_csv` and `write_trajectory_csv` write each float as its `repr`,
byte for byte.  They build a chunk of rows as one uint8 matrix of
NUL-padded cells in numpy and write its bytes with the padding dropped:
no Python string per field.  `_float_text` finds a float's digits with
Ryu's shortest-digit algorithm in uint64 arithmetic, and calls `repr`
only for the floats outside the algorithm's common path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .feedback import delivery_order
from .geometry import Array, ConvexBody, norms
from .losses import Loss, NormLoss, QuadraticLoss


# CSV rows are built a chunk of this many rounds at a time, never for the
# whole horizon: a chunk's cells and the formatter's temporaries are all a
# writer holds beyond the record and its delivery order, 0.5 to 0.7 MiB at
# 1,024 rounds.  2,048 rounds format faster, but hold about twice that,
# which lifts a long single run's trajectory writer above the run's peak.
CSV_CHUNK = 1024


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
        gaps = self.loss.value(self.estimates)
        gaps -= self.loss_values
        np.abs(gaps, out=gaps)
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
    Beyond the gradients, which `grad` takes in place, and at kinks the
    distances, it copies no array of the rows.
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
           solution: OfflineSolution | None = None) -> RegretReport:
    """Regret curves of an arm's finished trials.

    Each trial is measured against its own hindsight optimum; one
    `offline_optimum` call solves the comparators of every trial, and the
    report's `converged` says which of them their gaps certify.
    `skip_rounds` drops that many initial rounds from the reported regret
    (and from the comparator's objective): the dummy-candidate warm-up.
    The cumulative-loss curve always covers every round.
    `solution`, if given, is the solve of this very problem, the losses
    after `skip_rounds` on `body`, and no solve is made.
    The prefix sums and their difference are taken in place.
    """
    horizon = trajectory.horizon
    if trajectory.loss.anchor.shape[1] != horizon:
        raise ValueError("trajectory is incomplete")
    if not 0 <= skip_rounds < horizon:
        raise ValueError("skip_rounds must lie in [0, horizon)")
    scored = trajectory.loss[:, skip_rounds:]
    if solution is None:
        solution = offline_optimum(scored, body)
    comparator = scored.value(solution.point[:, None])  # its loss in each scored round
    if skip_rounds:  # the skipped rounds add 0.0 to both curves
        comparator = np.concatenate([np.zeros((len(comparator), skip_rounds)), comparator],
                                    axis=1)
    curve = trajectory.loss_values.copy()
    curve[:, :skip_rounds] = 0.0
    # The prefix sums, then their difference, in place.
    np.cumsum(curve, axis=1, out=curve)
    curve -= np.cumsum(comparator, axis=1, out=comparator)
    del comparator
    return RegretReport(
        regret=curve,
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
    """Pointwise mean and standard error over the trials of one configuration.

    One trial's standard error is one read-only broadcast of 0.0, and its
    mean is its row (`_mean_of_one`): neither copies the horizon.
    """
    cum, reg = report.cum_loss, report.regret
    trials, horizon = reg.shape
    if trials == 0:
        raise ValueError("nothing to aggregate")
    if trials == 1:
        zero = np.broadcast_to(0.0, horizon)
        return AggregateCurves(horizon=horizon, trials=1, cum_loss_mean=_mean_of_one(cum[0]),
                               cum_loss_stderr=zero, regret_mean=_mean_of_one(reg[0]),
                               regret_stderr=zero)

    def stderr(stack):
        return np.std(stack, axis=0, ddof=1) / np.sqrt(trials)

    return AggregateCurves(
        horizon=horizon,
        trials=trials,
        cum_loss_mean=cum.mean(axis=0),
        cum_loss_stderr=stderr(cum),
        regret_mean=reg.mean(axis=0),
        regret_stderr=stderr(reg),
    )


def _mean_of_one(row: Array) -> Array:
    """`mean(axis=0)` of one row, bit for bit.  The mean adds the row to
    0.0, which keeps every float but turns -0.0 into 0.0 (and quiets a
    signalling NaN, which arithmetic never makes): so the row itself,
    unless it holds -0.0."""
    return row + 0.0 if np.signbit(row[row == 0.0]).any() else row


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------

def write_csv(curves: AggregateCurves, path) -> None:
    """Serialize aggregated curves: t, cum_loss_mean/stderr, regret_mean/stderr.

    CSV_CHUNK rounds at a time, each float written as its `repr`.  A chunk
    is one (rows, 5) matrix of cells (`_CELL`): its round numbers are
    formatted by `_int_text`, and its columns' floats as one array by
    `_float_text`.  A column broadcast from one float, such as the standard
    error of one trial (`aggregate`), is formatted once for the file.
    """
    columns = (curves.cum_loss_mean, curves.cum_loss_stderr, curves.regret_mean,
               curves.regret_stderr)
    same = [j for j, column in enumerate(columns) if column.strides == (0,)]
    spread = [j for j in range(4) if j not in same]
    same_text = _float_text(np.array([columns[j][:1] for j in same]).ravel())
    with open(path, "wb") as fh:
        fh.write(b"t,cum_loss_mean,cum_loss_stderr,regret_mean,regret_stderr\n")
        for lo in range(0, curves.horizon, CSV_CHUNK):
            rows = min(CSV_CHUNK, curves.horizon - lo)
            cells = np.empty((rows, 5, _CELL), np.uint8)
            cells[:, 0, :_TEXT] = _int_text(np.arange(lo + 1, lo + rows + 1))
            cells[:, 1 + np.array(same, int), :_TEXT] = same_text
            floats = np.empty((rows, len(spread)))
            for k, j in enumerate(spread):
                floats[:, k] = columns[j][lo:lo + rows]
            cells[:, 1 + np.array(spread, int), :_TEXT] = _float_text(floats.ravel()).reshape(
                rows, len(spread), _TEXT)
            cells[:, :, _TEXT] = ord(",")
            cells[:, -1, _TEXT] = ord("\n")
            fh.write(_unpadded(cells))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """The first trial's rounds: loss, score error, delivered sources and estimate.

    CSV_CHUNK rounds at a time, each float written as its `repr`.  The
    sources a round delivers are joined by ";", cut from the first trial's
    delivery order at its `starts`.  A chunk's cells (`_CELL`) are first
    each row's round, loss, score error and estimate, its floats formatted
    as one array, then one cell per delivered source, or an empty cell for
    a round that delivers none; one gather puts them in row order.  Beyond
    the record, the writer holds that order's int32 sources and starts, 8
    bytes a round, and one chunk's cells.
    """
    estimates, loss_values, errors = traj.estimates[0], traj.loss_values[0], traj.score_errors[0]
    (pair_sources,), (pair_starts,) = delivery_order(traj.delays[:1])
    dim = estimates.shape[1]
    fixed = 3 + dim  # a row's cells but its sources: round, loss, score error, estimate
    coord_cols = ",".join(f"estimate_{j}" for j in range(dim))
    with open(path, "wb") as fh:
        fh.write(f"t,loss,score_error,delivered,{coord_cols}\n".encode())
        for lo in range(0, traj.horizon, CSV_CHUNK):
            hi = min(lo + CSV_CHUNK, traj.horizon)
            rows = hi - lo
            # Rounds lo + 1..hi deliver the pairs pair_starts[lo + 1]:pair_starts[hi + 1].
            starts = pair_starts[lo + 1:hi + 2]
            counts = np.diff(starts)
            slots = np.maximum(counts, 1)
            slot_row = np.repeat(np.arange(rows), slots)
            cells = np.empty((rows * fixed + len(slot_row), _CELL), np.uint8)
            row_cells = cells[:rows * fixed].reshape(rows, fixed, _CELL)
            row_cells[:, 0, :_TEXT] = _int_text(np.arange(lo + 1, hi + 1))
            floats = np.concatenate([loss_values[lo:hi, None], errors[lo:hi, None],
                                     estimates[lo:hi]], axis=1)
            row_cells[:, 1:, :_TEXT] = _float_text(floats.ravel()).reshape(rows, fixed - 1, _TEXT)
            row_cells[:, :, _TEXT] = ord(",")
            row_cells[:, -1, _TEXT] = ord("\n")
            # A round's sources take its first counts[r] slots, ";" after each
            # but the last; an empty slot is a round that delivers none.
            slot_cells = cells[rows * fixed:]
            slot_cells[:] = 0
            slot_cells[:, _TEXT] = ord(";")
            slot_end = np.cumsum(slots)
            slot_cells[slot_end - 1, _TEXT] = ord(",")
            taken = np.repeat(slot_end - slots - (starts[:-1] - starts[0]), counts)
            taken += np.arange(len(taken))
            slot_cells[taken, :_TEXT] = _int_text(pair_sources[starts[0]:starts[-1]])
            # Row r is its 3 leading cells, its slots, then its estimate.
            order = np.empty(len(cells), np.intp)
            row_start = np.arange(rows) * fixed + slot_end - slots
            place = row_start[:, None] + np.arange(fixed)
            place[:, 3:] += slots[:, None]
            order[place.ravel()] = np.arange(rows * fixed)
            order[slot_row * fixed + np.arange(len(slot_row)) + 3] = np.arange(
                rows * fixed, len(cells))
            fh.write(_unpadded(cells.view(f"V{_CELL}")[order]))


# A CSV field is formatted into _TEXT bytes, NUL-padded: 24 holds the
# longest float repr, '-2.2250738585072014e-308'.  A cell is a field and
# the separator after it; a writer builds a chunk's cells as one uint8
# matrix and writes its bytes with the padding dropped.
_TEXT = 24
_CELL = _TEXT + 1


def _unpadded(cells) -> bytes:
    return cells.tobytes().translate(None, b"\0")


# `_float_text` formats a float with Ryu's shortest-digit algorithm (Adams,
# "Ryu: fast float-to-string conversion", PLDI 2018), which gives the digits
# of `repr`: the fewest that read back as the float, nearest to it.  It
# takes the algorithm's common path, for 2**-14 <= |x| < 2**50, biased
# exponents _LOW_EXPONENT.._HIGH_EXPONENT: every float below, under 1e-4, is
# written with an exponent, and above, Ryu's q is at most 1, its
# trailing-zero case.  In that range its table of powers of 5 holds 5**i
# exactly for i <= 22, so its 4*m2*5**i fits 107 bits.
_LOW_EXPONENT, _HIGH_EXPONENT = 1009, 1072
_U = np.uint64


def _ryu_table():
    """Per biased exponent: Ryu's q, 5**i with i = -e2 - q, and e10 = e2 + q."""
    q, pow5, e10 = [], [], []
    for biased in range(_LOW_EXPONENT, _HIGH_EXPONENT + 1):
        e2 = biased - 1023 - 52 - 2  # the exponent of the unit of 4 * m2
        q_ = len(str(5 ** -e2)) - 2  # floor(log10(5**-e2)) - 1
        q.append(q_)
        pow5.append(5 ** (-e2 - q_))
        e10.append(e2 + q_)
    return np.array(q, _U), np.array(pow5, _U), np.array(e10, np.intp)


_Q, _POW5, _E10 = _ryu_table()
_POW10 = np.array([10 ** k for k in range(20)], _U)
_HALF = np.array([1] + [5 * 10 ** k for k in range(19)], _U)  # half of 10**k; 1 for k = 0
# The 4-digit groups 0000..9999 as little-endian words: byte j is digit j.
_DIGITS4 = sum((np.arange(10000, dtype=_U) // _U(10 ** (3 - j)) % _U(10) + _U(ord("0")))
               << _U(8 * j) for j in range(4))


def _masks(word):
    """Byte masks of text word `word` (bytes 8 * word .. 8 * word + 7).

    A float's 20 digits, zero-padded, show from digit s on, with "." before
    digit p: indexed by p * 20 + s, the digits before the point (s <= i < p)
    and after it (p <= i < 20); indexed by p, the "." at byte p + 1.  An
    int's 24 digits, zero-padded, show from digit s on: indexed by s.
    """
    low = [(1 << 8 * min(max(i - 8 * word, 0), 8)) - 1 for i in range(25)]  # bytes below i
    return (np.array([low[p] & ~low[s] for p in range(21) for s in range(20)], _U),
            np.array([low[20] & ~low[p] for p in range(21) for _ in range(20)], _U),
            np.array([low[p + 2] & ~low[p + 1] & 0x2E2E2E2E2E2E2E2E for p in range(21)], _U),
            np.array([low[24] & ~low[s] for s in range(25)], _U))


_BEFORE, _AFTER, _DOT, _FROM = zip(*map(_masks, range(3)))


def _digit_words(v, words, count):
    """Write v's last 4 * count digits into the rows of `words`, a uint64
    array of one row per 8 digits, most significant first: digit group i of
    4 is half i % 2 of row i // 2.  v, an int64 array, is overwritten."""
    for i in range(count - 1, -1, -1):
        if i:
            high = v // 10000
            v -= high * 10000
        group = _DIGITS4[v]
        if i % 2:
            group <<= _U(32)
        if i % 2 or i == count - 1:
            words[i // 2] = group
        else:
            words[i // 2] |= group
        if i:
            v = high


def _int_text(values):
    """(n, _TEXT) uint8: each nonnegative int's decimal digits, NUL-padded."""
    v = np.array(values, dtype=np.int64)
    words = np.zeros((3, len(v)), _U)
    if len(v):
        count = (len(str(v.max())) + 7) // 8
        start = 8 * count - np.maximum(np.searchsorted(_POW10, v.view(_U), side="right"), 1)
        _digit_words(v, words, 2 * count)
        for j in range(count):
            words[j] &= _FROM[j][start]
    return _text(words)


def _text(words):
    """(n, _TEXT) uint8 from a (3, n) uint64 array of little-endian words."""
    return np.ascontiguousarray(words.T).astype("<u8", copy=False).view(np.uint8)


def _float_text(values):
    """(n, _TEXT) uint8: the `repr` of each float of a 1-d array, NUL-padded.

    Every float is taken through Ryu's common path with its exponent
    clipped to the path's range, and written from the digits it gives when
    their layout is "ddd.ddd" or "0.000ddd": its text is the digits from the
    first significant one, or from the "0" before the point, with the point
    placed and the sign before them.  Each of the other floats is written
    as its `repr`, each distinct one formatted once: zeros, non-finite and
    subnormal floats, those outside the path's range, Ryu's trailing-zero
    cases, and integer-valued or exponent layouts.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(_U)
    digits, exponent, ok = _shortest(bits & ~_U(1 << 63))
    n = np.searchsorted(_POW10, digits, side="right")
    p = exponent
    p += 20  # the fraction's first digit among the 20
    ok &= (p - 1).view(_U) < _U(19)  # 0 < -exponent
    ok &= n + p > 16  # -4 < n + exponent
    p *= ok
    key = np.minimum(20 - n, p - 1)  # the text's first digit
    del n
    key *= ok
    key += p * 20
    words = np.empty((3, len(bits)), _U)
    _digit_words(digits.view(np.int64), words, 5)  # 20 digits, zero-padded
    del digits
    # The sign is byte 0, digit i before the point byte i + 1, the point byte
    # p + 1 and digit i after it byte i + 2.  Each row is laid out in place.
    carry = bits >> _U(63)
    carry *= _U(ord("-"))
    for w, shown in enumerate(words):
        before = shown & _BEFORE[w][key]
        shown &= _AFTER[w][key]  # the digits after the point
        next_carry = before >> _U(56)
        next_carry |= shown >> _U(48)
        before <<= _U(8)
        shown <<= _U(16)
        shown |= before
        shown |= carry
        shown |= _DOT[w][p]
        carry = next_carry
    del before, carry, next_carry, key, p
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        distinct, which = np.unique(bits[fallback], return_inverse=True)
        text = np.array(list(map(repr, distinct.view(np.float64).tolist())), f"S{_TEXT}")
        words[:, fallback] = text.view("<u8").reshape(-1, 3)[which].T
    return _text(words)


def _shortest(magnitude):
    """Ryu's common path on float bits of positive sign: each float's
    shortest digits, their exponent, and whether the path covers the float:
    whether it lies in the path's range and is not a case of trailing zeros.
    The digits of a float it does not cover are of no use.

    vr, vp and vm are floor((4 * m2 + c) * 5**i / 2**q) for c = 0, 2 and
    -1 - mmShift, taken from one 107-bit product on 32-bit limbs.  Digits
    are removed while vp // 10 > vm // 10; vr's remaining digits are
    rounded up when the last one removed is 5 or more, or when they equal
    vm's, which lies outside the interval.  The arithmetic runs in place
    where it can, which keeps a chunk's temporaries few.
    """
    row = (magnitude >> _U(52)).view(np.int64) - _LOW_EXPONENT
    covered = row.view(_U) <= _U(_HIGH_EXPONENT - _LOW_EXPONENT)
    np.clip(row, 0, _HIGH_EXPONENT - _LOW_EXPONENT, out=row)
    q, pow5 = _Q[row], _POW5[row]
    mv = magnitude & _U((1 << 52) - 1)
    mm_shift = (mv != 0).view(np.uint8)
    mv |= _U(1 << 52)
    mv <<= _U(2)
    # The product 4 * m2 * 5**i: high and low words from 32-bit limbs.
    high, low = mv >> _U(32), mv
    low &= _U(0xFFFFFFFF)
    pow5_high, pow5_low = pow5 >> _U(32), pow5 & _U(0xFFFFFFFF)
    middle = low * pow5_high
    low *= pow5_low
    pow5_low *= high
    middle += pow5_low
    high *= pow5_high
    del pow5_high, pow5_low
    carry = middle << _U(32)
    middle >>= _U(32)
    high += middle
    low += carry
    high += low < carry
    del middle, carry
    # vr = product >> q, and rest = product mod 2**q.
    high <<= _U(64) - q
    vr = low >> q
    vr |= high
    del high
    rest = low
    rest &= (_U(1) << q) - _U(1)
    vp = pow5 << _U(1)
    vp += rest
    vp >>= q
    vp += vr
    vm = rest.view(np.int64) - (pow5.view(np.int64) << mm_shift)
    vm >>= q.view(np.int64)
    vm = vm.view(_U)
    vm += vr
    covered &= rest != 0
    del pow5, q, rest
    # The removals that hold are a prefix: count three on every float, then
    # search the rest, at most 15 as vr has at most 19 digits, by halves on
    # the covered floats that took three.
    removed = np.zeros(len(vr), np.uint8)
    p, m = vp, vm
    for _ in range(3):
        p, m = p // _U(10), m // _U(10)
        removed += (p > m).view(np.uint8)
    removed = removed.astype(np.intp)
    more = np.flatnonzero((removed == 3) & covered)
    p, m = p[more], m[more]
    for step in (8, 4, 2, 1):
        scaled_p, scaled_m = p // _U(10**step), m // _U(10**step)
        held = scaled_p > scaled_m
        p, m = np.where(held, scaled_p, p), np.where(held, scaled_m, m)
        removed[more[held]] += step
    del vp
    scale = _POW10[removed]
    digits = vr // scale
    vm //= scale
    up = vm == digits
    scale *= digits
    vr -= scale  # the removed digits
    up |= vr >= _HALF[removed]
    digits += up
    removed += _E10[row]
    return digits, removed, covered
