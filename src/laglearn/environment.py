"""Context streams, the separable scoring function, and the game loop.

Each round an agent arrives with a context split into a known part
(revealed immediately) and a hidden part (revealed only after a delay).
The learner posts an estimate of the hidden part, the adversary anchors a
loss at the true hidden part, and the game records both.  When the round's
feedback is delivered, after its delay, the game takes it from those
records: the loss's gradient at the recorded estimate, or its anchor for
the sample-mean baseline.  The learner sees hidden information only
through delivered feedback, never directly.  The
independent trials of one configuration are played in lockstep, as one
game on (trials, dim) arrays, and recorded as one `Trajectory` whose
row k is trial k.

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

# One per gradient delivered in time that is the zero subgradient at a kink (`Loss.kinks`).
ZERO_SUBGRADIENT_FLAG = "zero_subgradient_at_anchor"


class StreamExhausted(RuntimeError):
    """Raised when an explicit stream runs out of rows."""


class ConfigError(ValueError):
    """Raised before round 1 when the game pieces do not fit together."""


class ContextStream:
    """Source of context pairs; `take(n)` returns (known, hidden) row arrays."""

    d1: int
    d2: int
    body_hidden: ConvexBody | None

    def take(self, n: int) -> tuple[Array, Array]:
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


class ExplicitStream(ContextStream):
    """A fixed list of context pairs, consumed in order."""

    def __init__(self, known_rows, hidden_rows, body_hidden: ConvexBody | None = None):
        known = np.asarray(known_rows, dtype=float)
        hidden = np.asarray(hidden_rows, dtype=float)
        if not (np.all(np.isfinite(known)) and np.all(np.isfinite(hidden))):
            raise ValueError("contexts have NaN or infinite entries")
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

    @property
    def remaining(self) -> int:
        """Context pairs not taken yet."""
        return self._known.shape[0] - self._cursor

    def take(self, n: int) -> tuple[Array, Array]:
        if n > self.remaining:
            raise StreamExhausted(f"requested {n} rounds, only {self.remaining} remain")
        lo = self._cursor
        self._cursor += n
        return self._known[lo:self._cursor].copy(), self._hidden[lo:self._cursor].copy()


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearScoring:
    """Separable linear score; the hidden component must be 1-Lipschitz.

    Scores are taken row-wise over the last axis of the contexts.
    """

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

    def known_part(self, known) -> Array:
        return self.c_known * np.vecdot(self.w_known, known)

    def hidden_part(self, hidden) -> Array:
        return self.c_hidden * np.vecdot(self.w_hidden, hidden)

    def score(self, known, hidden) -> Array:
        return self.known_part(known) + self.hidden_part(hidden)


# ---------------------------------------------------------------------------
# Loss construction (the adversary)
# ---------------------------------------------------------------------------
#
# A loss factory takes one trial's anchors, one row per round, and that
# trial's generator, and returns the trial's losses as one Loss.

def uniform_quadratic():
    """Quadratic losses with coefficients drawn uniformly from [0, 1] each round."""
    def make(anchors, rng: np.random.Generator) -> Loss:
        # One (rounds, 2) draw gives the numbers of one size-2 draw per round.
        coeffs = rng.uniform(size=np.shape(anchors)[:-1] + (2,))
        return QuadraticLoss(anchors, a=np.maximum(coeffs[..., 0], 1e-12), b=coeffs[..., 1])
    return make


def fixed_loss(prototype: type, **params):
    """The same loss family and coefficients every round."""
    def make(anchors, rng: np.random.Generator) -> Loss:
        return prototype(anchors, **params)
    return make


# ---------------------------------------------------------------------------
# Game loop
# ---------------------------------------------------------------------------

def run_game(learner: BaseLearner, streams: list[ContextStream],
             delays: list[DelaySchedule], loss_factory, scoring: LinearScoring,
             horizon: int, seeds: list[int]) -> Trajectory:
    """Play `horizon` rounds of one trial per stream, in lockstep, and record them.

    Trial k reads `streams[k]`, realizes `delays[k]` and draws its loss
    coefficients from `seeds[k]`; the learner holds one iterate row per
    trial.  Per round: every trial's learner row posts its estimate, which
    the game records; the buffer names the (row, source round) pairs
    delivered at the end of the round, and their feedback (see
    `BaseLearner`) is taken then, in one `loss.grad` call at the recorded
    decisions of those source rounds, and handed to the learner together
    with the next round's known context (the update at the horizon
    boundary sees no known context and uses a zero pull).  A round that
    delivers nothing takes no gradient.  Loss values, score errors and
    flags are computed from the recorded arrays after the last round.  The
    loop runs on round-major arrays; the returned `Trajectory` is
    trial-major, with row k of every array (and the flags tagged k)
    belonging to trial k.
    """
    trials = len(streams)
    if trials < 1 or len(delays) != trials or len(seeds) != trials:
        raise ConfigError("need one stream, delay schedule and seed per trial")
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    dim = streams[0].d2
    if any((stream.d1, stream.d2) != (streams[0].d1, dim) for stream in streams):
        raise ConfigError("the trials' streams disagree on their dimensions")
    if learner.body.dim != dim:
        raise ConfigError(
            f"learner body dimension {learner.body.dim} does not match "
            f"the hidden context dimension {dim}")
    if scoring.w_known.size != streams[0].d1 or scoring.w_hidden.size != dim:
        raise ConfigError("scoring weights do not match the stream dimensions")

    delay_values = np.stack([schedule.realize(horizon) for schedule in delays])
    if learner.lag is not None and np.any(delay_values != learner.lag + 1):
        raise ConfigError(f"fixed-lag learner needs every delay to be tau + 1 = {learner.lag + 1}")
    drawn = [stream.take(horizon) for stream in streams]
    trial_losses = [loss_factory(hidden, np.random.default_rng(seed))
                    for (_, hidden), seed in zip(drawn, seeds)]
    if any(loss.anchor.shape != (horizon, dim) for loss in trial_losses):
        raise ConfigError("loss factory produced the wrong dimension")
    # Round-major (horizon, trials, ...) arrays: row i holds round i of every trial.
    known = np.stack([k for k, _ in drawn], axis=1)
    hidden = np.stack([h for _, h in drawn], axis=1)
    loss = Loss.stack(trial_losses, axis=1)
    recorded_loss = Loss.stack(trial_losses)  # trial-major, for the record
    del drawn, trial_losses  # the stacks hold all that the loop and the record read
    buffer = FeedbackBuffer(delay_values)

    estimates = np.empty((horizon, trials, dim))
    nothing = np.empty((0, dim))
    learner.start(trials, horizon)
    # Every non-finite step raises NonFiniteGradient, and a projection
    # rescales a row whose squared norm overflows: numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(horizon):
            t = i + 1
            estimates[i] = learner.play(t)
            rows, sources = buffer.ready_at(t)
            played = sources - 1
            if not learner.uses_gradients:
                feedback = loss.anchor[played, rows]
            elif len(rows):
                feedback = loss.grad(estimates[played, rows], at=(played, rows))
            else:
                feedback = nothing
            learner.observe(rows, feedback, known[i + 1] if t < horizon else None)

    loss_values = loss.value(estimates)
    score_errors = np.abs(scoring.score(known, estimates) - scoring.score(known, hidden))
    score_error_losses = loss.radial(score_errors)
    violated = score_error_losses > loss_values + 1e-9 * np.maximum(1.0, np.abs(loss_values))
    due = np.arange(1, horizon + 1)[:, None] + delay_values.T - 1
    # Only a gradient learner meets zero subgradients, and only those delivered in time.
    kinked = loss.kinks(estimates) & (due <= horizon) & learner.uses_gradients
    kink_counts = kinked.sum(axis=0).tolist()
    flags = []
    for k in range(trials):
        flags += [(k, ZERO_SUBGRADIENT_FLAG)] * kink_counts[k]
        flags += [(k, f"score_chain_violated_at_{i + 1}") for i in np.flatnonzero(violated[:, k])]

    # The record is trial-major: one transposed copy of each round-major array.
    def trial_major(array):
        return np.ascontiguousarray(np.swapaxes(array, 0, 1))

    return Trajectory(
        estimates=trial_major(estimates),
        loss_values=trial_major(loss_values),
        score_errors=trial_major(score_errors),
        score_error_losses=trial_major(score_error_losses),
        loss=recorded_loss,
        delays=delay_values,
        flags=tuple(flags),
    )
