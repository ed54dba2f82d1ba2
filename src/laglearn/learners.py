"""Online learners for estimating a delayed context.

All learners play an estimate each round and, once the loss of an earlier
round is finally delivered, move against its gradient evaluated at the
decision that was actually played back then: the game records every
decision and takes the gradients there, in blocks of played rounds, before
they are delivered.  A correlation pull nudges the next estimate toward
(or away from) the freshly observed part of the next context.  One
gradient learner covers every delay setting: at the end of round t it
moves against the sum of the gradients delivered then, the delivery set
F_t,

    x_{t+1} = proj( x_t - eta_t sum_{s in F_t} g_s + beta_t * w_t * k_{t+1} )

where k_{t+1} is the known context of the next round cut to the
estimate's dimension, and the correlation weight w_t is a constant lam,
or lam * eta_t when coupled.  A fixed lag tau is the case F_t = {t - tau};
with any delays a set may hold several gradients or none.  A mirror map
routes the same move through its dual space (the Euclidean map is the
plain step above), and maps with a built-in domain skip the projection.

The sample-mean baseline ignores gradients entirely and plays the average
of all hidden contexts revealed so far.  Those are known before round 1,
so it plays the whole horizon in one call, in one pass over the buffer's
delivery order.

A learner plays a batch of independent trials in lockstep: its iterate
holds one row per trial, and every step acts on all rows at once.  It
plays a block of rounds per call: the game calls it once per run of
rounds whose delivered feedback is all known when the run starts, so
every move of the block is known up front.  The game hands a gradient
learner its feedback already summed per round: row t of one round-major
array of totals holds, per trial, the sum of the gradients delivered at
the end of round t, so a block reads one slice of it.  The gradient
learner forms the block's moves as one array and, under the Euclidean map,
walks them as one running sum that it projects once, summing again only
from where the projection moved a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feedback import FeedbackBuffer
from .geometry import Array, ConvexBody, EuclideanMap, MirrorMap


class NonFiniteGradient(ValueError):
    """Raised when a delivered gradient, or the step built from it, has NaN or infinite entries."""


# ---------------------------------------------------------------------------
# Step-size schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class StepSchedule:
    """Per-round step size eta(t), zero through the warm-up rounds t <= tau.

    A schedule gives its step s = t - tau >= 1 rounds past the warm-up as
    `rate(s)`, for one s or an array of them, and `table` lays eta(t) and
    the pull weight beta(t) out for a whole horizon.  beta(t) equals
    eta(t) unless `beta_override` sets a constant past the warm-up.
    """

    tau: int = 0
    beta_override: float | None = None

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")

    def rate(self, s):
        raise NotImplementedError

    def table(self, horizon: int) -> tuple[Array, Array]:
        """eta(t) and beta(t) for t = 0..horizon, as two arrays indexed by t.

        An entry is a scalar, or a (trials, 1) column for a per-trial step.
        """
        column = np.shape(self.rate(1))
        etas = np.zeros((horizon + 1,) + column)
        past = np.arange(1, max(horizon - self.tau, 0) + 1)
        etas[self.tau + 1:] = self.rate(past.reshape((-1,) + (1,) * len(column)))
        if self.beta_override is None:
            return etas, etas
        betas = np.zeros_like(etas)
        betas[self.tau + 1:] = self.beta_override
        return etas, betas


@dataclass(frozen=True)
class InverseSqrtStep(StepSchedule):
    """eta(t) = sigma / sqrt(t - tau) for t > tau, else 0."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        super().__post_init__()

    def rate(self, s):
        return self.sigma / np.sqrt(s)


@dataclass(frozen=True)
class InverseTimeStep(StepSchedule):
    """eta(t) = 1 / (gamma (t - tau)) for t > tau; pairs with strongly convex losses."""

    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        super().__post_init__()

    def rate(self, s):
        return 1.0 / (self.gamma * s)


@dataclass(frozen=True)
class ConstantStep(StepSchedule):
    """eta(t) = value for t > tau, else 0.

    `value` is one step for every trial or one per trial; a per-trial
    value is kept as a column, one row per trial.
    """

    value: float | Array

    def __post_init__(self):
        value = np.asarray(self.value, dtype=float)
        if np.any(value <= 0):
            raise ValueError("step size must be positive")
        if value.ndim:
            object.__setattr__(self, "value", value.reshape(-1, 1))
        super().__post_init__()

    def rate(self, s):
        return self.value


# ---------------------------------------------------------------------------
# Step-size tuning
# ---------------------------------------------------------------------------

def sigma_for_mirror(L: float, R: float, tau: int, smoothness: float) -> float:
    """Self-consistent sqrt-schedule scale for a fixed lag tau.

    The scale should equal R / (L' sqrt(tau L_M)), where L' = L + sigma R
    already contains the scale and L_M is the map smoothness (1 for the
    Euclidean map), so sigma^2 = R^2 / (tau L_M L'^2).  With c =
    sqrt(tau L_M) that is the positive root of c R s^2 + c L s - R = 0,
    taken in a form stable for small R (multiplied through by the
    conjugate).
    """
    if smoothness <= 0:
        raise ValueError("map smoothness must be positive")
    if L <= 0 or R < 0 or tau < 1:
        raise ValueError("need L > 0, R >= 0, tau >= 1")
    scale = math.sqrt(tau * smoothness)
    b = scale * L
    discriminant = b * b + 4.0 * scale * R * R
    if not math.isfinite(discriminant):
        raise ValueError(f"gradient bound L = {L:g} is too large to tune sigma: L^2 overflows")
    return 2.0 * R / (b + math.sqrt(discriminant))


def eta_for_arbitrary_delay(L: float, R: float, lam: float, horizon: int,
                            delay_sum: int) -> float:
    """Constant step for arbitrary delays: 1/eta^2 = T(L^2 + 2|lam| L R) + 4 L^2 D."""
    if L <= 0 or R < 0 or horizon < 1 or delay_sum < horizon:
        raise ValueError("need L > 0, R >= 0, horizon >= 1, delay_sum >= horizon")
    squared = horizon * (L * L + 2.0 * abs(lam) * L * R) + 4.0 * L * L * delay_sum
    if not math.isfinite(squared):
        raise ValueError(f"gradient bound L = {L:g} is too large to tune eta: L^2 overflows")
    return 1.0 / math.sqrt(squared)


# ---------------------------------------------------------------------------
# Block-by-block learner drivers
# ---------------------------------------------------------------------------

class BaseLearner:
    """Shared block protocol used by the game loop.

    A learner holds its iterate `estimate` in its feasible `body` and the
    last round `t` whose feedback it observed; nothing else of the game's
    history.  `start(trials, horizon, buffer)` gives the iterate one row
    per trial: the decisions of round 1; `buffer` is the game's
    `FeedbackBuffer`, for a learner that reads its delivery order (a
    gradient learner reads none of it, and may be started with None).
    `play(lo, hi, feedback, known, estimates)` observes the feedback
    delivered at the end of rounds lo..hi-1 and writes the decisions of
    rounds lo+1..hi that lie within the horizon into the trial-major record
    `estimates`, at columns lo..hi-1; the iterate after round hi - 1 stays
    in `estimate`.  `known[:, t]` is the known context of round t + 1.  The
    game calls `play` once per block of rounds whose feedback is all known
    when the block starts, so a learner that reads anchors gets the whole
    horizon, lo..hi = 1..T+1, as one block.  When `uses_gradients` is True,
    `feedback` is the round-major array of totals: row t holds, per trial,
    the sum of the gradients delivered at the end of round t, each taken at
    the recorded decision of its source round, and `play` reads rows
    lo..hi-1 only.  Otherwise it is the losses' anchors in the buffer's
    delivery order, one row per pair of `buffer.rows` and `buffer.sources`.
    `lag` is the fixed lag a learner needs (every delay lag + 1, checked by
    the game loop before round 1), or None for a learner that takes any
    delays: the sample-mean baseline, and a gradient learner whose schedule
    has tau = 0.
    """

    lag: int | None = None
    uses_gradients = True

    def __init__(self, body: ConvexBody, estimate: Array):
        self.body = body
        self.estimate = estimate
        self.t = 0

    def start(self, trials: int, horizon: int, buffer: FeedbackBuffer | None) -> None:
        self.estimate = np.broadcast_to(self.estimate, (trials, self.body.dim)).copy()

    def play(self, lo: int, hi: int, feedback: Array, known: Array, estimates: Array) -> None:
        raise NotImplementedError

    def _advance(self, lo: int, hi: int) -> None:
        if lo != self.t + 1 or hi <= lo:
            raise RuntimeError(f"rounds must be played in order; expected a block from "
                               f"{self.t + 1}")
        self.t = hi - 1


class GradientLearner(BaseLearner):
    """Delayed (mirror) gradient descent with a correlation pull.

    The schedule's tau is the lag.  With tau > 0 each row's delivery set
    is the one gradient of round t - tau, and nothing moves through the
    warm-up rounds t <= tau; with tau = 0 the learner takes any delays and
    moves against the sum of whatever each round delivers.  The correlation
    weight is `lam`, or `lam * eta(t)` when `coupled` (the config's `lam =
    coupled` passes lam = 1 or -1, signed like rho).  `start` tabulates
    eta(t) and beta(t) for every round, and a block reads its columns there.

    A block's moves are all known when it starts, so `play` forms them at
    once, on (rounds, trials, dim) arrays: the move of round t is 0.0 - eta
    * total, or beta * pull - eta * total with a pull, the same elementwise
    operations as one round's step.  Under the Euclidean map the path is
    then a running sum from the iterate, which `np.cumsum` adds in
    sequence, as x + move does, broken only where the projection moves a
    point: the whole block is projected once, and from the first round
    where a row moved, the projected point replaces the sum and the sum is
    taken again.  The warm-up rounds are never projected, so a start point
    outside the body (the origin, for the pentagon) stays until the first
    step.  A round that delivers nothing to a learner with no pull steps
    by 0.0 (the iterate is never -0.0), and the ball and the polygon, the
    bodies a Euclidean learner is built with, give back a point their
    projection returned bit for bit, so such a round changes no bit.  The
    entropic map neither adds nor projects, so it takes its moves one
    round after another.
    """

    def __init__(self, body: ConvexBody, schedule: StepSchedule, lam: float = 0.0,
                 coupled: bool = False, mirror: MirrorMap = EuclideanMap()):
        super().__init__(body, mirror.initial_point(body.dim))
        self.schedule = schedule
        self.lam = float(lam)
        self.coupled = coupled
        self.mirror = mirror
        self.lag = schedule.tau or None

    def start(self, trials: int, horizon: int, buffer: FeedbackBuffer | None) -> None:
        etas, betas = self.schedule.table(horizon)
        if etas.ndim > 1 and etas.shape[1] != trials:
            raise ValueError(f"{etas.shape[1]} step sizes for {trials} trials")
        # Round t's eta and beta as (1 or trials, 1) columns of a (rounds, trials, dim) block.
        self.etas = etas.reshape(horizon + 1, -1, 1)
        self.betas = betas.reshape(horizon + 1, -1, 1)
        super().start(trials, horizon, buffer)

    def play(self, lo, hi, totals, known, estimates) -> None:
        self._advance(lo, hi)
        horizon = estimates.shape[1]
        x = self.estimate
        # The warm-up rounds keep the start point.
        first = min(max(self.schedule.tau + 1, lo), hi)
        if first > lo:
            estimates[:, lo:min(first, horizon)] = x[:, None]
            if first == hi:
                return
        n, (trials, dim) = hi - first, x.shape
        total = totals[first:hi]
        eta = self.etas[first:hi]
        # steps[0] is the iterate and steps[j] the move of round first + j - 1.
        steps = np.empty((n + 1, trials, dim))
        steps[0] = x
        if self.lam:
            w = self.lam * eta if self.coupled else self.lam
            ahead = known[:, first:hi, :dim].swapaxes(0, 1)  # the contexts of the next rounds
            if len(ahead) < n:  # no pull after the last round
                ahead = np.concatenate([ahead, np.zeros((1, trials, dim))])
            np.subtract(self.betas[first:hi] * (w * ahead), eta * total, out=steps[1:])
        else:
            np.subtract(0.0, eta * total, out=steps[1:])
        finite = np.isfinite(steps[1:])
        if np.count_nonzero(finite) < finite.size:
            j = int(np.argmin(finite.reshape(n, -1).all(axis=1)))
            what = "gradient" if not np.isfinite(total[j]).all() else "step"
            raise NonFiniteGradient(f"{what} has NaN or infinite entries at round {first + j}")
        if self.mirror.needs_projection:  # the Euclidean map, whose update is x + move
            path = np.add.accumulate(steps, axis=0)  # np.cumsum, with less overhead
            done = 1
            while done <= n:
                projected = self.body.project(path[done:])
                moved = projected != path[done:]
                j = moved.argmax()  # the first moved coordinate, if any
                if not moved.flat[j]:
                    break
                c = done + j // (trials * dim)
                path[c] = steps[c] = projected[c - done]
                np.add.accumulate(steps[c:], axis=0, out=path[c:])
                done = c + 1
        else:
            path = steps  # each move gives way to the point it leads to
            for j in range(1, n + 1):
                path[j] = self.mirror.update(path[j - 1], steps[j])
        estimates[:, first:min(hi, horizon)] = path[1:horizon - first + 1].swapaxes(0, 1)
        self.estimate = path[n]


class NaiveLearner(BaseLearner):
    """Sample-mean baseline: plays the average of the revealed hidden contexts.

    Its feedback is each round's anchor, the hidden context itself, and
    each row plays `np.mean` of its revealed anchors in delivery order.  The
    anchors are known before round 1, so the game hands them over in the
    delivery order of the buffer the learner is started with, and `play`
    takes the whole horizon as one block; it refuses any other.  It lays
    each row's anchors out once, after a slot 0 for the start point, and
    counts once how many each row has revealed by each round.  Slot n then
    becomes the mean of the first n anchors, which the row plays while it
    has revealed n.  In two or more dimensions numpy's mean adds the anchors
    one after another from +0.0, so one `np.add.accumulate` divided by n
    gives its bits; in one dimension it sums pairwise, so there `np.mean`
    runs once per distinct count, over the rows that reach it.
    """

    uses_gradients = False

    def __init__(self, body: ConvexBody):
        super().__init__(body, np.zeros(body.dim))

    def start(self, trials: int, horizon: int, buffer: FeedbackBuffer | None) -> None:
        super().start(trials, horizon, buffer)
        self.rows, self.starts = buffer.rows, buffer.starts

    def play(self, lo, hi, anchors, known, estimates) -> None:
        # Mean of points of a convex set stays inside it; no projection.
        trials, horizon, dim = estimates.shape
        if (lo, hi) != (1, horizon + 1):
            raise RuntimeError(f"the sample-mean baseline plays rounds 1..{horizon} as one "
                               f"block, not {lo}..{hi - 1}")
        self._advance(lo, hi)
        rows = self.rows[:self.starts[-1]]  # the pairs due within the horizon
        # seen[k, i]: the anchors row k has revealed by the end of round i + 1.
        rounds = np.repeat(np.arange(horizon), np.diff(self.starts[1:]))
        seen = np.bincount(rows * horizon + rounds, minlength=trials * horizon)
        seen = seen.reshape(trials, horizon).cumsum(1)
        # Slot j of row k is its j-th anchor in delivery order, which a stable sort keeps.
        order = np.argsort(rows, kind="stable")
        grouped = rows[order]
        slots = np.arange(1, len(grouped) + 1) - np.searchsorted(grouped, grouped)
        means = np.zeros((trials, int(seen[:, -1].max()) + 1, dim))
        means[grouped, slots] = anchors[:len(rows)][order]
        at = np.arange(trials)[:, None]
        if dim > 1:
            np.add.accumulate(means, axis=1, out=means)
            counts = np.arange(means.shape[1])[:, None]
            np.divide(means, counts, out=means, where=counts > 0)
        else:
            # Longest prefix first: a mean overwrites only a slot that no shorter prefix reads.
            reached = np.zeros(means.shape[:2], dtype=bool)
            reached[at, seen] = True
            reached[:, 0] = False  # slot 0 is the start point
            for n in np.flatnonzero(reached.any(axis=0))[::-1].tolist():
                group = np.flatnonzero(reached[:, n])
                means[group, n] = np.mean(means[group, 1:n + 1], axis=1)
        means[:, 0] = self.estimate  # played until a row's first anchor arrives
        path = means[at, seen]
        estimates[:, 1:] = path[:, :-1]
        self.estimate = path[:, -1].copy()
