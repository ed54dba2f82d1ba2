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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Array, ConvexBody, MirrorMap, as_vector
from .losses import Loss


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
        v = as_vector(known)
        if self.matrix is not None:
            out = self.matrix @ v
            if out.size != self.dim_out:
                raise ValueError("reduction matrix output dimension mismatch")
            return out
        if v.size < self.dim_out:
            raise ValueError("known context smaller than the estimate dimension")
        return v[: self.dim_out]

    def pull(self, known, eta_t: float) -> Array:
        """weight * reduce(known); zero vector when the stream has ended."""
        w = self.weight(eta_t)
        if known is None or w == 0.0:
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

    The game loop hands each delivered loss over with its source round's estimate.
    """

    estimate: Array
    body: ConvexBody
    t: int = 0
    flags: list[str] = field(default_factory=list)


def _combined_step(state, eta, beta, influence, grad, next_known) -> Array:
    return beta * influence.pull(next_known, eta) - eta * grad


def step_ogd(state: LearnerState, schedule: StepSchedule, influence: Influence,
             grad, next_known) -> Array:
    """Projected gradient step on the freshest completely known loss."""
    t = state.t
    if t <= schedule.tau:
        raise RuntimeError(f"update at round {t} before the warm-up ({schedule.tau}) finished")
    g = as_vector(grad, state.estimate.size)
    move = _combined_step(state, schedule.eta(t), schedule.beta(t), influence, g, next_known)
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
    g = as_vector(grad, state.estimate.size)
    move = _combined_step(state, schedule.eta(t), schedule.beta(t), influence, g, next_known)
    out = mirror.update(state.estimate, move, flags=state.flags)
    if mirror.needs_projection:
        out = state.body.project(out)
    state.estimate = out
    return state.estimate


def step_adversarial(state: LearnerState, eta: float, beta: float,
                     influence: Influence, grads: list[Array],
                     next_known) -> Array:
    """Constant-step update over a whole delivery set (possibly empty).

    `grads` holds the gradients of the delivered losses, each evaluated at
    the decision of its source round, in delivery (source-round) order; they
    are summed in that order.  An empty set leaves only the correlation pull.
    """
    total = np.zeros(state.estimate.size)
    for g in grads:
        total = total + as_vector(g, state.estimate.size)
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

    `play(t)` returns the round-t decision; `observe` consumes the losses
    delivered at the end of round t, as (loss, decision played at the loss's
    round) pairs in source-round order, together with the next round's
    known context.  `lag` is the fixed lag a learner needs (every delay
    lag + 1, checked by the game loop before round 1) or None for any delays.
    """

    state: LearnerState
    lag: int | None = None

    def play(self, t: int) -> Array:
        if t != self.state.t + 1:
            raise RuntimeError(f"rounds must be played in order; expected {self.state.t + 1}")
        self.state.t = t
        return self.state.estimate.copy()

    def observe(self, delivered: list[tuple[Loss, Array]], next_known) -> None:
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

    def observe(self, delivered, next_known) -> None:
        for loss, decision in delivered:
            g = loss.grad(decision, flags=self.state.flags)
            step_ogd(self.state, self.schedule, self.influence, g, next_known)

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

    def observe(self, delivered, next_known) -> None:
        for loss, decision in delivered:
            g = loss.grad(decision, flags=self.state.flags)
            step_omd(self.state, self.mirror, self.schedule, self.influence, g, next_known)

    def describe(self) -> str:
        return (f"omd({self.mirror.describe()}, {self.schedule.describe()}, "
                f"{self.influence.describe()})")


class AdversarialLearner(BaseLearner):
    """Constant-step gradient descent that absorbs whole delivery sets."""

    def __init__(self, body: ConvexBody, eta: float, beta: float | None = None,
                 influence: Influence | None = None):
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.eta = float(eta)
        self.beta = float(beta) if beta is not None else float(eta)
        self.influence = influence if influence is not None else Influence.disabled(body.dim)
        self.state = LearnerState(estimate=np.zeros(body.dim), body=body)

    def observe(self, delivered, next_known) -> None:
        grads = [loss.grad(decision, flags=self.state.flags) for loss, decision in delivered]
        step_adversarial(self.state, self.eta, self.beta, self.influence, grads, next_known)

    def describe(self) -> str:
        return f"adversarial(eta={self.eta}, beta={self.beta}, {self.influence.describe()})"


class NaiveLearner(BaseLearner):
    """Sample-mean baseline: plays the average of the revealed hidden contexts."""

    def __init__(self, body: ConvexBody):
        self.revealed: list[Array] = []
        self.state = LearnerState(estimate=np.zeros(body.dim), body=body)

    def observe(self, delivered, next_known) -> None:
        for loss, _ in delivered:
            self.revealed.append(loss.anchor.copy())
        if delivered:
            # Mean of points of a convex set stays inside it; no projection.
            self.state.estimate = naive_estimate(self.revealed, self.state.body.dim)

    def describe(self) -> str:
        return "naive-mean"
