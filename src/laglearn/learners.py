"""Online learners for estimating a delayed context.

All learners play an estimate each round and, once the loss of an earlier
round is finally delivered, move against its gradient evaluated at the
decision that was actually played back then.  A correlation pull nudges
the next estimate toward (or away from) the freshly observed part of the
next context.  One gradient learner covers every delay setting: at the
end of round t it moves against the sum of the gradients delivered then,
the delivery set F_t,

    x_{t+1} = proj( x_t - eta_t sum_{s in F_t} g_s + beta_t * pull_{t+1} )

where pull is the (signed, possibly dimension-reduced) known context of
the next round.  A fixed lag tau is the case F_t = {t - tau}; with any
delays a set may hold several gradients or none.  A mirror map routes the
same move through its dual space (the Euclidean map is the plain step
above), and maps with a built-in domain skip the projection.

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

class StepSchedule:
    """Per-round step size eta(t), zero through the warm-up rounds t <= tau.

    The pull weight beta(t) equals eta(t) unless an explicit constant
    override is supplied.
    """

    tau: int
    beta_override: float | None

    def eta(self, t: int) -> float:
        raise NotImplementedError

    def beta(self, t: int) -> float:
        if self.beta_override is not None:
            return self.beta_override if t > self.tau else 0.0
        return self.eta(t)


@dataclass(frozen=True)
class InverseSqrtStep(StepSchedule):
    """eta(t) = sigma / sqrt(t - tau) for t > tau, else 0."""

    sigma: float
    tau: int = 0
    beta_override: float | None = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")

    def eta(self, t: int) -> float:
        if t <= self.tau:
            return 0.0
        return self.sigma / math.sqrt(t - self.tau)


@dataclass(frozen=True)
class InverseTimeStep(StepSchedule):
    """eta(t) = 1 / (gamma (t - tau)) for t > tau; pairs with strongly convex losses."""

    gamma: float
    tau: int = 0
    beta_override: float | None = None

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")

    def eta(self, t: int) -> float:
        if t <= self.tau:
            return 0.0
        return 1.0 / (self.gamma * (t - self.tau))


@dataclass(frozen=True)
class ConstantStep(StepSchedule):
    """eta(t) = value for t > tau, else 0.

    `value` is one step for every trial or one per trial; a per-trial
    value is kept as a column, one row per trial.
    """

    value: float | Array
    tau: int = 0
    beta_override: float | None = None

    def __post_init__(self):
        value = np.asarray(self.value, dtype=float)
        if np.any(value <= 0):
            raise ValueError("step size must be positive")
        if value.ndim:
            object.__setattr__(self, "value", value.reshape(-1, 1))
        if self.tau < 0:
            raise ValueError("tau must be >= 0")

    def eta(self, t: int) -> float:
        return self.value if t > self.tau else 0.0


# ---------------------------------------------------------------------------
# Correlation pull
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Influence:
    """Linear pull from the known context into the hidden-context space.

    pull(x) = weight * reduce(x), where reduce truncates the d1-dimensional
    known context to the d2-dimensional estimate space and weight is either
    a fixed signed value or tracks the running step size with a chosen sign
    (positive when the two context parts are believed positively correlated).
    """

    dim_out: int
    lam: float | None = None        # fixed signed weight; None = track step size
    sign: float = 1.0               # sign used when tracking the step size

    @staticmethod
    def constant(lam: float, dim_out: int) -> "Influence":
        return Influence(dim_out=dim_out, lam=float(lam))

    @staticmethod
    def coupled(dim_out: int, sign: float = 1.0) -> "Influence":
        if sign not in (-1.0, 1.0):
            sign = 1.0 if sign >= 0 else -1.0
        return Influence(dim_out=dim_out, lam=None, sign=sign)

    @staticmethod
    def disabled(dim_out: int) -> "Influence":
        return Influence(dim_out=dim_out, lam=0.0)

    def weight(self, eta_t: float) -> float:
        if self.lam is not None:
            return self.lam
        return self.sign * eta_t

    def reduce(self, known) -> Array:
        """Map each row of known context into the estimate space."""
        v = np.asarray(known, dtype=float)
        if v.shape[-1] < self.dim_out:
            raise ValueError("known context smaller than the estimate dimension")
        return v[..., : self.dim_out]

    def pull(self, known, eta_t) -> Array:
        """weight * reduce(known); zero vector when the stream has ended."""
        w = np.asarray(self.weight(eta_t))
        if known is None or not w.any():
            return np.zeros(self.dim_out)
        return w * self.reduce(known)


# ---------------------------------------------------------------------------
# Learner state
# ---------------------------------------------------------------------------

@dataclass
class LearnerState:
    """Current estimate and last round played; no history.

    `estimate` has one row per trial (or is a single point); the game
    loop hands each delivered gradient over once its due round comes.
    """

    estimate: Array
    body: ConvexBody
    t: int = 0


def naive_estimate(revealed, dim: int) -> Array:
    """Sample mean of all hidden contexts revealed so far (zeros when none)."""
    if len(revealed) == 0:
        return np.zeros(dim)
    return np.mean(np.asarray(revealed, dtype=float).reshape(len(revealed), dim), axis=0)


# ---------------------------------------------------------------------------
# Step-size tuning
# ---------------------------------------------------------------------------

def sigma_for_fixed_delay(L: float, R: float, tau: int) -> float:
    """Self-consistent sqrt-schedule scale for a fixed lag.

    The scale should equal R / (L' sqrt(tau)) where L' = L + sigma R already
    contains the scale, so we solve the quadratic
    sqrt(tau) R sigma^2 + sqrt(tau) L sigma - R = 0 for its positive root:
    the mirror-descent scale with map smoothness 1.
    """
    return sigma_for_mirror(L, R, tau, 1.0)


def sigma_for_mirror(L: float, R: float, tau: int, smoothness: float) -> float:
    """Sqrt-schedule scale for mirror descent; same fixed point with the
    map smoothness folded in: sigma^2 = R^2 / (tau L_M L'^2)."""
    if smoothness <= 0:
        raise ValueError("map smoothness must be positive")
    if L <= 0 or R < 0 or tau < 1:
        raise ValueError("need L > 0, R >= 0, tau >= 1")
    return _tuning_root(L, R, math.sqrt(tau * smoothness))


def _tuning_root(L: float, R: float, scale: float) -> float:
    # Positive root of scale*R*s^2 + scale*L*s - R = 0, in a form stable
    # for small R (multiply through by the conjugate).
    b = scale * L
    if R == 0.0:
        return 0.0
    return 2.0 * R / (b + math.sqrt(b * b + 4.0 * scale * R * R))


def eta_for_arbitrary_delay(L: float, R: float, lam: float, horizon: int,
                            delay_sum: int) -> float:
    """Constant step for arbitrary delays: 1/eta^2 = T(L^2 + 2|lam| L R) + 4 L^2 D."""
    if L <= 0 or R < 0 or horizon < 1 or delay_sum < horizon:
        raise ValueError("need L > 0, R >= 0, horizon >= 1, delay_sum >= horizon")
    return 1.0 / math.sqrt(horizon * (L * L + 2.0 * abs(lam) * L * R) + 4.0 * L * L * delay_sum)


# ---------------------------------------------------------------------------
# Round-by-round learner drivers
# ---------------------------------------------------------------------------

class BaseLearner:
    """Shared play/observe protocol used by the game loop.

    `start(trials, horizon)` gives the iterate one row per trial, and
    `play(t)` returns the round-t decisions, one row per trial.  The
    feedback of a round is the gradient of each trial's loss at its
    decision (or, when `uses_gradients` is False, the loss's anchor), taken when
    the round is played and held by the game until its due round; `observe`
    then gets the (rows, feedback) pairs delivered at the end of round t,
    ordered by row and then by source round, with the next round's known
    context (None after the last round).  `lag` is the fixed lag a learner
    needs (every delay lag + 1, checked by the game loop before round 1) or
    None for any delays.
    """

    state: LearnerState
    lag: int | None = None
    uses_gradients = True

    def start(self, trials: int, horizon: int) -> None:
        self.state.estimate = np.broadcast_to(
            self.state.estimate, (trials, self.state.body.dim)).copy()

    def play(self, t: int) -> Array:
        if t != self.state.t + 1:
            raise RuntimeError(f"rounds must be played in order; expected {self.state.t + 1}")
        self.state.t = t
        return self.state.estimate.copy()

    def observe(self, rows: Array, feedback: Array, next_known) -> None:
        raise NotImplementedError

    @property
    def estimate(self) -> Array:
        return self.state.estimate.copy()


class GradientLearner(BaseLearner):
    """Delayed (mirror) gradient descent with a correlation pull.

    With `any_delays` False the learner needs a fixed lag, the schedule's
    tau, so each row's delivery set is the one gradient of round t - tau;
    with `any_delays` True it sums whatever each round delivers, in source
    order.  Nothing moves through the warm-up rounds t <= tau, before the
    first delivery of a fixed lag.
    """

    def __init__(self, body: ConvexBody, schedule: StepSchedule,
                 influence: Influence | None = None, mirror: MirrorMap = EuclideanMap(),
                 any_delays: bool = False):
        if any_delays and schedule.tau:
            raise ValueError("a learner for any delays takes a schedule with tau = 0")
        self.schedule = schedule
        self.mirror = mirror
        self.lag = None if any_delays else schedule.tau
        self.influence = influence if influence is not None else Influence.disabled(body.dim)
        self.state = LearnerState(estimate=mirror.initial_point(body.dim), body=body)

    def start(self, trials: int, horizon: int) -> None:
        steps = np.shape(self.schedule.eta(self.schedule.tau + 1))
        if steps and steps[0] != trials:
            raise ValueError(f"{steps[0]} step sizes for {trials} trials")
        super().start(trials, horizon)

    def observe(self, rows, feedback, next_known) -> None:
        state, t = self.state, self.state.t
        if t <= self.schedule.tau:
            return
        if self.lag is None:
            total = np.zeros(state.estimate.shape)
            np.add.at(total, rows, feedback)  # row by row in source order
        else:
            total = feedback  # the lag check leaves one gradient per row
        eta = self.schedule.eta(t)
        move = self.schedule.beta(t) * self.influence.pull(next_known, eta) - eta * total
        if not np.isfinite(move).all():
            what = "gradient" if not np.isfinite(total).all() else "step"
            raise NonFiniteGradient(f"{what} has NaN or infinite entries at round {t}")
        out = self.mirror.update(state.estimate, move)
        state.estimate = state.body.project(out) if self.mirror.needs_projection else out


class NaiveLearner(BaseLearner):
    """Sample-mean baseline: plays the average of the revealed hidden contexts.

    Its feedback is each round's anchor, the hidden context itself; the
    revealed anchors of each trial are kept in delivery order as a prefix
    of one (horizon, dim) block.
    """

    uses_gradients = False

    def __init__(self, body: ConvexBody):
        self.state = LearnerState(estimate=np.zeros(body.dim), body=body)

    def start(self, trials: int, horizon: int) -> None:
        super().start(trials, horizon)
        self.revealed = np.empty((trials, horizon, self.state.body.dim))
        self.count = np.zeros(trials, dtype=np.int64)

    def observe(self, rows, feedback, next_known) -> None:
        if not len(rows):
            return
        # rows is sorted, so each row's deliveries are one run in source order.
        slots = self.count[rows] + np.arange(len(rows)) - np.searchsorted(rows, rows)
        self.revealed[rows, slots] = feedback
        updated, arrived = np.unique(rows, return_counts=True)
        self.count[updated] += arrived
        # Mean of points of a convex set stays inside it; no projection.
        # One mean per group of rows that have revealed the same count.
        counts = self.count[updated]
        for n in np.unique(counts).tolist():
            group = updated[counts == n]
            self.state.estimate[group] = np.mean(self.revealed[group, :n], axis=1)
