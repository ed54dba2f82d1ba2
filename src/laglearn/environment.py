"""Context streams, the separable scoring function, and the game loop.

Each round an agent arrives with a context split into a known part
(revealed immediately) and a hidden part (revealed only after a delay).
The learner posts an estimate of the hidden part, the adversary anchors a
loss at the true hidden part, and the loss enters the feedback buffer to
be delivered after its delay.  The learner sees hidden information only
through delivered losses, never directly.

Scores are separable, score(known, hidden) = known_part + hidden_part,
with the hidden component 1-Lipschitz, so the per-round score error is
bounded by the loss the game already measures:

    radial(|score(k, est) - score(k, hidden)|) <= radial(||est - hidden||)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import Trajectory
from .feedback import DelaySchedule, FeedbackBuffer
from .geometry import Array, Ball, ConvexBody, Polygon, as_vector
from .learners import BaseLearner
from .losses import Loss, QuadraticLoss

DEFAULT_RADIUS = 4.0  # wide enough that projecting unit-variance draws barely matters


class StreamExhausted(RuntimeError):
    """Raised when an explicit stream runs out of rows."""


class ConfigError(ValueError):
    """Raised before round 1 when the game pieces do not fit together."""


@dataclass(frozen=True)
class ContextPair:
    """One agent's context: the immediately known part and the delayed part."""

    known: Array
    hidden: Array

    def __post_init__(self):
        known = as_vector(self.known)
        hidden = as_vector(self.hidden)
        if known.size < hidden.size:
            raise ValueError("known part must have at least the hidden part's dimension")
        object.__setattr__(self, "known", known)
        object.__setattr__(self, "hidden", hidden)


class ContextStream:
    """Source of context pairs; `take(n)` returns (known, hidden) row arrays."""

    d1: int
    d2: int
    body_hidden: ConvexBody | None

    def take(self, n: int) -> tuple[Array, Array]:
        raise NotImplementedError

    def draw(self) -> ContextPair:
        known, hidden = self.take(1)
        return ContextPair(known[0], hidden[0])

    def describe(self) -> str:
        raise NotImplementedError


class GaussianStream(ContextStream):
    """Correlated Gaussian pairs, projected into their bodies per draw.

    Coordinate j of the hidden part is built from coordinate j of the known
    part as hidden = mean + sd (rho z1 + sqrt(1 - rho^2) z2) with z1 the
    known part's own standard draw, so the pairwise correlation is rho
    exactly; extra known coordinates (when d1 > d2) are independent.
    """

    def __init__(self, d1: int = 1, d2: int = 1, mean: float = 1.0,
                 variance: float = 1.0, rho: float = 0.0,
                 body_known: ConvexBody | None = None,
                 body_hidden: ConvexBody | None = None, seed: int = 0):
        if d2 < 1 or d1 < d2:
            raise ValueError("need d1 >= d2 >= 1")
        if not -1.0 <= rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if variance <= 0:
            raise ValueError("variance must be positive")
        self.d1, self.d2 = int(d1), int(d2)
        self.mean = float(mean)
        self.sd = float(np.sqrt(variance))
        self.rho = float(rho)
        self.body_known = body_known or Ball(np.zeros(self.d1), DEFAULT_RADIUS)
        self.body_hidden = body_hidden or Ball(np.zeros(self.d2), DEFAULT_RADIUS)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)

    def take(self, n: int) -> tuple[Array, Array]:
        z1 = self._rng.standard_normal((n, self.d1))
        z2 = self._rng.standard_normal((n, self.d2))
        known = self.mean + self.sd * z1
        mix = self.rho * z1[:, : self.d2] + np.sqrt(1.0 - self.rho**2) * z2
        hidden = self.mean + self.sd * mix
        return self.body_known.project_many(known), self.body_hidden.project_many(hidden)

    def describe(self) -> str:
        return (f"gaussian(d1={self.d1}, d2={self.d2}, mean={self.mean}, "
                f"sd={self.sd}, rho={self.rho})")


class PolygonStream(ContextStream):
    """Hidden contexts uniform over a convex polygon; known part Gaussian."""

    def __init__(self, polygon: Polygon, d1: int = 2, mean: float = 1.0,
                 variance: float = 1.0, body_known: ConvexBody | None = None,
                 seed: int = 0):
        if d1 < 2:
            raise ValueError("known part needs d1 >= 2 to cover the planar hidden part")
        self.polygon = polygon
        self.d1, self.d2 = int(d1), 2
        self.mean = float(mean)
        self.sd = float(np.sqrt(variance))
        self.body_known = body_known or Ball(np.zeros(self.d1), DEFAULT_RADIUS)
        self.body_hidden = polygon
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)

    def take(self, n: int) -> tuple[Array, Array]:
        known = self.mean + self.sd * self._rng.standard_normal((n, self.d1))
        hidden = self.polygon.sample_many(n, self._rng)
        return self.body_known.project_many(known), hidden

    def describe(self) -> str:
        return f"polygon-uniform({self.polygon.describe()}, d1={self.d1})"


class ExplicitStream(ContextStream):
    """A fixed list of context pairs, consumed in order."""

    def __init__(self, known_rows, hidden_rows, body_hidden: ConvexBody | None = None):
        known = np.asarray(known_rows, dtype=float)
        hidden = np.asarray(hidden_rows, dtype=float)
        if known.ndim == 1:
            known = known[:, None]
        if hidden.ndim == 1:
            hidden = hidden[:, None]
        if known.shape[0] != hidden.shape[0]:
            raise ValueError("known and hidden row counts differ")
        if known.shape[1] < hidden.shape[1]:
            raise ValueError("need d1 >= d2")
        self._known = known
        self._hidden = hidden
        self._cursor = 0
        self.d1 = known.shape[1]
        self.d2 = hidden.shape[1]
        self.body_hidden = body_hidden

    @classmethod
    def from_csv(cls, path, d1: int, d2: int, body_hidden: ConvexBody | None = None):
        """One row per round: d1 known coordinates followed by d2 hidden ones."""
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
        if rows.shape[1] != d1 + d2:
            raise ValueError(f"expected {d1 + d2} columns, file has {rows.shape[1]}")
        return cls(rows[:, :d1], rows[:, d1:], body_hidden=body_hidden)

    def take(self, n: int) -> tuple[Array, Array]:
        remaining = self._known.shape[0] - self._cursor
        if n > remaining:
            raise StreamExhausted(f"requested {n} rounds, only {remaining} remain")
        lo = self._cursor
        self._cursor += n
        return self._known[lo:self._cursor].copy(), self._hidden[lo:self._cursor].copy()

    def describe(self) -> str:
        return f"explicit(rows={self._known.shape[0]}, d1={self.d1}, d2={self.d2})"


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearScoring:
    """Separable linear score; the hidden component must be 1-Lipschitz."""

    w_known: Array
    w_hidden: Array
    c_known: float = 1.0
    c_hidden: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "w_known", as_vector(self.w_known))
        object.__setattr__(self, "w_hidden", as_vector(self.w_hidden))
        if abs(self.c_hidden) * float(np.linalg.norm(self.w_hidden)) > 1.0 + 1e-12:
            raise ValueError("hidden score component exceeds the 1-Lipschitz bound")

    @staticmethod
    def default(d1: int, d2: int) -> "LinearScoring":
        return LinearScoring(
            w_known=np.full(d1, 1.0 / np.sqrt(d1)),
            w_hidden=np.full(d2, 1.0 / np.sqrt(d2)),
        )

    def known_part(self, known) -> float:
        return self.c_known * float(np.dot(self.w_known, known))

    def hidden_part(self, hidden) -> float:
        return self.c_hidden * float(np.dot(self.w_hidden, hidden))

    def score(self, known, hidden) -> float:
        return self.known_part(known) + self.hidden_part(hidden)


# ---------------------------------------------------------------------------
# Per-round loss construction (the adversary)
# ---------------------------------------------------------------------------

def uniform_quadratic():
    """Quadratic loss with coefficients drawn uniformly from [0, 1] each round."""
    def make(anchor, rng: np.random.Generator) -> Loss:
        a, b = rng.uniform(size=2)
        return QuadraticLoss(anchor, a=max(a, 1e-12), b=b)
    make.description = "quadratic(a~U[0,1], b~U[0,1])"
    return make


def fixed_loss(prototype: type, **params):
    """The same loss family and coefficients every round."""
    def make(anchor, rng: np.random.Generator) -> Loss:
        return prototype(anchor, **params)
    joined = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
    make.description = f"{prototype.__name__}({joined})"
    return make


# ---------------------------------------------------------------------------
# Game loop
# ---------------------------------------------------------------------------

def run_game(learner: BaseLearner, stream: ContextStream, delays: DelaySchedule,
             loss_factory, scoring: LinearScoring, horizon: int,
             seed: int = 0, fingerprint: str = "") -> Trajectory:
    """Play `horizon` rounds and record everything regret needs.

    Per round: draw the context, let the learner post its estimate, anchor
    a loss at the true hidden context, record both, queue the round with
    its delay, and hand whatever the buffer releases to the learner as
    (loss, decision) pairs read from those records, together with the next
    round's known context (the update at the horizon boundary sees no
    known context and uses a zero pull).  `seed` drives only the
    adversary's per-round loss coefficients.
    """
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    dim = stream.d2
    if learner.state.body.dim != dim:
        raise ConfigError(
            f"learner body dimension {learner.state.body.dim} does not match "
            f"the hidden context dimension {dim}")
    if scoring.w_known.size != stream.d1 or scoring.w_hidden.size != dim:
        raise ConfigError("scoring weights do not match the stream dimensions")

    delay_values = delays.realize(horizon)
    if learner.lag is not None and np.any(delay_values != learner.lag + 1):
        raise ConfigError(f"fixed-lag learner needs every delay to be tau + 1 = {learner.lag + 1}")
    known, hidden = stream.take(horizon)
    rng = np.random.default_rng(seed)
    buffer = FeedbackBuffer()

    losses: list[Loss] = []
    estimates = np.empty((horizon, dim))
    loss_values = np.empty(horizon)
    score_errors = np.empty(horizon)
    score_error_losses = np.empty(horizon)
    delivered_sets: list[tuple[int, ...]] = []
    env_flags: list[str] = []

    for i in range(horizon):
        t = i + 1
        estimate = estimates[i] = learner.play(t)
        loss = loss_factory(hidden[i], rng)
        if loss.dim != dim:
            raise ConfigError("loss factory produced the wrong dimension")
        losses.append(loss)
        buffer.push(t, int(delay_values[i]))

        loss_values[i] = loss.value(estimate)
        err = abs(scoring.score(known[i], estimate) - scoring.score(known[i], hidden[i]))
        score_errors[i] = err
        score_error_losses[i] = loss.radial(err)
        if score_error_losses[i] > loss_values[i] + 1e-9 * max(1.0, abs(loss_values[i])):
            env_flags.append(f"score_chain_violated_at_{t}")

        ready = buffer.ready_at(t)
        delivered_sets.append(ready)
        next_known = known[i + 1] if t < horizon else None
        learner.observe([(losses[s - 1], estimates[s - 1]) for s in ready], next_known)

    return Trajectory(
        horizon=horizon,
        dim=dim,
        estimates=estimates,
        loss_values=loss_values,
        score_errors=score_errors,
        score_error_losses=score_error_losses,
        delivered=tuple(delivered_sets),
        losses=losses,
        delays=delay_values,
        delay_sum=buffer.delay_sum,
        seed=seed,
        fingerprint=fingerprint,
        flags=tuple(learner.state.flags) + tuple(env_flags),
    )
