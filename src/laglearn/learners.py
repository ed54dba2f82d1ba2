"""Online learners for estimating a delayed context.

All learners play an estimate each round and, once the loss of an earlier
round is finally delivered, move against its gradient evaluated at the
decision that was actually played back then.  A correlation pull nudges
the next estimate toward (or away from) the freshly observed part of the
next context.  Update for the fixed-lag gradient learner:

    x_{t+1} = proj( x_t - eta_t g_{t-tau} + beta_t * pull_{t+1} )

where g_{t-tau} is the gradient of the most recent completely known loss
and pull is the (signed, possibly dimension-reduced) known context.  The
mirror-descent variant routes the same step through a mirror map, and the
arbitrary-delay variant consumes whole delivery sets with a constant step:

    x_{t+1} = proj( x_t - eta * sum_{s in F_t} g_s + beta * pull_{t+1} )

The sample-mean baseline ignores gradients entirely and plays the average
of all hidden contexts revealed so far.

A learner plays a batch of independent trials in lockstep: its iterate
holds one row per trial, and every step acts on all rows at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Array, ConvexBody, MirrorMap

MIRROR_CLAMP_FLAG = "mirror_update_clamped"


class NonFiniteGradient(ValueError):
    """Raised when a delivered gradient has NaN or infinite entries."""


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

    def describe(self) -> str:
        raise NotImplementedError


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

    def describe(self) -> str:
        return f"sqrt(sigma={self.sigma}, tau={self.tau})"


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

    def describe(self) -> str:
        return f"inverse-time(gamma={self.gamma}, tau={self.tau})"


@dataclass(frozen=True)
class ConstantStep(StepSchedule):
    """eta(t) = value for t > tau, else 0."""

    value: float
    tau: int = 0
    beta_override: float | None = None

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("step size must be positive")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")

    def eta(self, t: int) -> float:
        return self.value if t > self.tau else 0.0

    def describe(self) -> str:
        return f"constant(eta={self.value}, tau={self.tau})"


# ---------------------------------------------------------------------------
# Correlation pull
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Influence:
    """Linear pull from the known context into the hidden-context space.

    pull(x) = weight * reduce(x), where reduce maps the d1-dimensional known
    context to the d2-dimensional estimate space (truncation by default, or
    a configured linear map) and weight is either a fixed signed value or
    tracks the running step size with a chosen sign (positive when the two
    context parts are believed positively correlated).
    """

    dim_out: int
    lam: float | None = None        # fixed signed weight; None = track step size
    sign: float = 1.0               # sign used when tracking the step size
    matrix: np.ndarray | None = None

    @staticmethod
    def constant(lam: float, dim_out: int, matrix=None) -> "Influence":
        return Influence(dim_out=dim_out, lam=float(lam), matrix=matrix)

    @staticmethod
    def coupled(dim_out: int, sign: float = 1.0, matrix=None) -> "Influence":
        if sign not in (-1.0, 1.0):
            sign = 1.0 if sign >= 0 else -1.0
        return Influence(dim_out=dim_out, lam=None, sign=sign, matrix=matrix)

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
        if self.matrix is not None:
            out = v @ np.asarray(self.matrix).T
            if out.shape[-1] != self.dim_out:
                raise ValueError("reduction matrix output dimension mismatch")
            return out
        if v.shape[-1] < self.dim_out:
            raise ValueError("known context smaller than the estimate dimension")
        return v[..., : self.dim_out]

    def pull(self, known, eta_t) -> Array:
        """weight * reduce(known); zero vector when the stream has ended."""
        w = np.asarray(self.weight(eta_t))
        if known is None or not w.any():
            return np.zeros(self.dim_out)
        return w * self.reduce(known)

    def describe(self) -> str:
        if self.lam is not None:
            return f"influence(lam={self.lam})"
        return f"influence(coupled, sign={int(self.sign)})"


# ---------------------------------------------------------------------------
# Learner state and update steps
# ---------------------------------------------------------------------------

@dataclass
class LearnerState:
    """Current estimate, last round played and numerical flags; no history.

    `estimate` has one row per trial (or is a single point).  `flags`
    holds (round, row, flag) events; the game loop hands each delivered
    gradient over once its due round comes.
    """

    estimate: Array
    body: ConvexBody
    t: int = 0
    flags: list[tuple[int, int, str]] = field(default_factory=list)


def _combined_step(state, eta, beta, influence, grad, next_known) -> Array:
    g = np.asarray(grad, dtype=float)
    if not np.isfinite(g).all():
        raise NonFiniteGradient(f"gradient has NaN or infinite entries at round {state.t}")
    return beta * influence.pull(next_known, eta) - eta * g


def step_ogd(state: LearnerState, schedule: StepSchedule, influence: Influence,
             grad, next_known) -> Array:
    """Projected gradient step on the freshest completely known loss."""
    t = state.t
    if t <= schedule.tau:
        raise RuntimeError(f"update at round {t} before the warm-up ({schedule.tau}) finished")
    move = _combined_step(state, schedule.eta(t), schedule.beta(t), influence, grad, next_known)
    state.estimate = state.body.project(state.estimate + move)
    return state.estimate


def step_omd(state: LearnerState, mirror: MirrorMap, schedule: StepSchedule,
             influence: Influence, grad, next_known) -> Array:
    """Mirror-descent step: the same move routed through the mirror map.

    With the Euclidean map this reproduces `step_ogd` exactly.  Maps with a
    built-in domain (the entropic map normalizes onto the simplex) skip the
    Euclidean projection.
    """
    t = state.t
    if t <= schedule.tau:
        raise RuntimeError(f"update at round {t} before the warm-up ({schedule.tau}) finished")
    move = _combined_step(state, schedule.eta(t), schedule.beta(t), influence, grad, next_known)
    clamped: list[int] = []
    out = mirror.update(state.estimate, move, clamped=clamped)
    state.flags.extend((t, row, MIRROR_CLAMP_FLAG) for row in clamped)
    if mirror.needs_projection:
        out = state.body.project(out)
    state.estimate = out
    return state.estimate


def step_adversarial(state: LearnerState, eta, beta, influence: Influence,
                     total, next_known) -> Array:
    """Constant-step update over a whole delivery set (possibly empty).

    `total` is the sum of the delivered gradients of each row, each taken
    at the decision of its source round and added in source-round order;
    an empty set sums to zero and leaves only the correlation pull.
    """
    move = _combined_step(state, eta, beta, influence, total, next_known)
    state.estimate = state.body.project(state.estimate + move)
    return state.estimate


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
    sqrt(tau) R sigma^2 + sqrt(tau) L sigma - R = 0 for its positive root.
    """
    if L <= 0 or R < 0 or tau < 1:
        raise ValueError("need L > 0, R >= 0, tau >= 1")
    return _tuning_root(L, R, math.sqrt(tau))


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

    def describe(self) -> str:
        raise NotImplementedError


class OgdLearner(BaseLearner):
    """Fixed-lag projected gradient descent with a correlation pull."""

    def __init__(self, body: ConvexBody, schedule: StepSchedule, influence: Influence | None = None):
        self.schedule = schedule
        self.lag = schedule.tau
        self.influence = influence if influence is not None else Influence.disabled(body.dim)
        self.state = LearnerState(estimate=np.zeros(body.dim), body=body)

    def observe(self, rows, feedback, next_known) -> None:
        # The lag check leaves one gradient per row from round lag + 1 on.
        if len(rows):
            step_ogd(self.state, self.schedule, self.influence, feedback, next_known)

    def describe(self) -> str:
        return f"ogd({self.schedule.describe()}, {self.influence.describe()})"


class OmdLearner(BaseLearner):
    """Fixed-lag mirror descent; Euclidean map reproduces OgdLearner exactly."""

    def __init__(self, body: ConvexBody, mirror: MirrorMap, schedule: StepSchedule,
                 influence: Influence | None = None):
        self.mirror = mirror
        self.schedule = schedule
        self.lag = schedule.tau
        self.influence = influence if influence is not None else Influence.disabled(body.dim)
        self.state = LearnerState(estimate=mirror.initial_point(body.dim), body=body)

    def observe(self, rows, feedback, next_known) -> None:
        if len(rows):
            step_omd(self.state, self.mirror, self.schedule, self.influence, feedback,
                     next_known)

    def describe(self) -> str:
        return (f"omd({self.mirror.describe()}, {self.schedule.describe()}, "
                f"{self.influence.describe()})")


class AdversarialLearner(BaseLearner):
    """Constant-step gradient descent that absorbs whole delivery sets."""

    def __init__(self, body: ConvexBody, eta, beta: float | None = None,
                 influence: Influence | None = None):
        """`eta` is one step for every trial or one per trial."""
        eta = np.asarray(eta, dtype=float)
        if np.any(eta <= 0):
            raise ValueError("eta must be positive")
        self.eta = eta[:, None] if eta.ndim else float(eta)
        self.beta = float(beta) if beta is not None else self.eta
        self.influence = influence if influence is not None else Influence.disabled(body.dim)
        self.state = LearnerState(estimate=np.zeros(body.dim), body=body)

    def start(self, trials: int, horizon: int) -> None:
        if np.ndim(self.eta) and len(self.eta) != trials:
            raise ValueError(f"{len(self.eta)} step sizes for {trials} trials")
        super().start(trials, horizon)

    def observe(self, rows, feedback, next_known) -> None:
        total = np.zeros(self.state.estimate.shape)
        np.add.at(total, rows, feedback)  # row by row in source order
        step_adversarial(self.state, self.eta, self.beta, self.influence, total, next_known)

    def describe(self) -> str:
        return f"adversarial(eta={self.eta}, beta={self.beta}, {self.influence.describe()})"


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
        for k in updated.tolist():
            self.state.estimate[k] = naive_estimate(self.revealed[k, :self.count[k]],
                                                    self.state.body.dim)

    def describe(self) -> str:
        return "naive-mean"
