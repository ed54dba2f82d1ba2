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
of all hidden contexts revealed so far.

A learner plays a batch of independent trials in lockstep: its iterate
holds one row per trial, and every step acts on all rows at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# Round-by-round learner drivers
# ---------------------------------------------------------------------------

class BaseLearner:
    """Shared play/observe protocol used by the game loop.

    A learner holds its iterate `estimate` in its feasible `body` and the
    last round `t` it played; nothing else of the game's history.
    `start(trials, horizon)` gives the iterate one row per trial, and
    `play(t)` returns the round-t decisions, one row per trial: the iterate
    itself, which `observe` may change in place.  The game copies every
    decision into its record, and a round's feedback is taken at the recorded
    decision: the gradient of the source round's loss there (or, when
    `uses_gradients` is False, the loss's anchor).  `observe` gets the
    (rows, feedback) pairs delivered at the end of round t, ordered by row
    and then by source round, with the next round's known context (None
    after the last round).  `lag` is the fixed lag a learner needs (every
    delay lag + 1, checked by the game loop before round 1), or None for
    a learner that takes any delays: the sample-mean baseline, and a
    gradient learner whose schedule has tau = 0.
    """

    lag: int | None = None
    uses_gradients = True

    def __init__(self, body: ConvexBody, estimate: Array):
        self.body = body
        self.estimate = estimate
        self.t = 0

    def start(self, trials: int, horizon: int) -> None:
        self.estimate = np.broadcast_to(self.estimate, (trials, self.body.dim)).copy()

    def play(self, t: int) -> Array:
        if t != self.t + 1:
            raise RuntimeError(f"rounds must be played in order; expected {self.t + 1}")
        self.t = t
        return self.estimate

    def observe(self, rows: Array, feedback: Array, next_known) -> None:
        raise NotImplementedError


class GradientLearner(BaseLearner):
    """Delayed (mirror) gradient descent with a correlation pull.

    The schedule's tau is the lag.  With tau > 0 each row's delivery set
    is the one gradient of round t - tau, and nothing moves through the
    warm-up rounds t <= tau; with tau = 0 the learner takes any delays and
    sums whatever each round delivers, in source order.  The correlation
    weight is `lam`, or `lam * eta(t)` when `coupled` (the config's `lam =
    coupled` passes lam = 1 or -1, signed like rho).  `start` tabulates
    eta(t) and beta(t) for every round, and each round reads them there.

    After round 1, a round that delivers nothing to a learner whose pull
    is disabled (lam = 0) leaves the iterate where it is and returns at
    once.  Round 1 is never skipped for being idle, so a start point
    outside the body (the origin, for the pentagon) is projected into it
    once the warm-up ends.  Under a projecting map the skip changes no
    bit: the step would be x + 0.0 (the move is formed as 0.0 - eta *
    total, never -0.0) and every projection gives back a point it
    returned.  Under a map that skips projection the step would only
    renormalize the iterate; the one learner that uses such a map, omd,
    plays fixed delays, under which every round past the warm-up delivers.
    """

    def __init__(self, body: ConvexBody, schedule: StepSchedule, lam: float = 0.0,
                 coupled: bool = False, mirror: MirrorMap = EuclideanMap()):
        super().__init__(body, mirror.initial_point(body.dim))
        self.schedule = schedule
        self.lam = float(lam)
        self.coupled = coupled
        self.mirror = mirror
        self.lag = schedule.tau or None

    def start(self, trials: int, horizon: int) -> None:
        etas, betas = self.schedule.table(horizon)
        if etas.ndim > 1 and etas.shape[1] != trials:
            raise ValueError(f"{etas.shape[1]} step sizes for {trials} trials")
        # Round t reads a scalar schedule's eta(t) and beta(t) as Python
        # floats, and a per-trial one's as (trials, 1) columns.
        self.eta_at, self.beta_at = ((etas.item, betas.item) if etas.ndim == 1
                                     else (etas.__getitem__, betas.__getitem__))
        super().start(trials, horizon)

    def observe(self, rows, feedback, next_known) -> None:
        t = self.t
        if t <= self.schedule.tau or t > 1 and not len(rows) and not self.lam:
            return
        # A fixed lag delivers one gradient per row; so do as many sorted
        # rows as trials with no repeats.
        trials = len(self.estimate)
        if self.lag is not None or len(rows) == trials and (trials == 1 or np.all(np.diff(rows))):
            total = feedback  # one gradient per row, in row order
        else:
            total = np.zeros(self.estimate.shape)
            np.add.at(total, rows, feedback)  # row by row in source order
        eta = self.eta_at(t)
        if self.lam:
            w = self.lam * eta if self.coupled else self.lam
            pull = (np.zeros(self.body.dim) if next_known is None or not np.any(w)
                    else w * next_known[..., :self.body.dim])
            move = self.beta_at(t) * pull - eta * total
        else:
            move = 0.0 - eta * total
        if np.count_nonzero(np.isfinite(move)) < move.size:
            what = "gradient" if not np.isfinite(total).all() else "step"
            raise NonFiniteGradient(f"{what} has NaN or infinite entries at round {t}")
        out = self.mirror.update(self.estimate, move)
        self.estimate = self.body.project(out) if self.mirror.needs_projection else out


class NaiveLearner(BaseLearner):
    """Sample-mean baseline: plays the average of the revealed hidden contexts.

    Its feedback is each round's anchor, the hidden context itself, and
    each row plays `np.mean` of its revealed anchors in delivery order.  In
    two or more dimensions numpy sums them one after another, starting
    from 0.0, so a running sum per row gives the same bits; in one
    dimension it sums pairwise, so there the revealed anchors of each trial
    are kept in delivery order as a prefix of one (horizon, 1) block.
    """

    uses_gradients = False

    def __init__(self, body: ConvexBody):
        super().__init__(body, np.zeros(body.dim))

    def start(self, trials: int, horizon: int) -> None:
        super().start(trials, horizon)
        self.count = np.zeros(trials, dtype=np.int64)
        if self.body.dim == 1:
            self.revealed = np.empty((trials, horizon, 1))
        else:
            self.sums = np.zeros((trials, self.body.dim))

    def observe(self, rows, feedback, next_known) -> None:
        if not len(rows):
            return
        # Mean of points of a convex set stays inside it; no projection.
        updated, arrived = np.unique(rows, return_counts=True)
        if self.body.dim > 1:
            np.add.at(self.sums, rows, feedback)  # one anchor at a time, in delivery order
            self.count[updated] += arrived
            self.estimate[updated] = self.sums[updated] / self.count[updated][:, None]
            return
        # rows is sorted, so each row's deliveries are one run in source order.
        slots = self.count[rows] + np.arange(len(rows)) - np.searchsorted(rows, rows)
        self.revealed[rows, slots] = feedback
        self.count[updated] += arrived
        # One mean per group of rows that have revealed the same count.
        counts = self.count[updated]
        for n in np.unique(counts).tolist():
            group = updated[counts == n]
            self.estimate[group] = np.mean(self.revealed[group, :n], axis=1)
