"""Context streams, the separable scoring function, and the game loop.

Each round an agent arrives with a context split into a known part
(revealed immediately) and a hidden part (revealed only after a delay).
The learner posts an estimate of the hidden part, the adversary anchors a
loss at the true hidden part, and the game records both.  The round's
feedback is the loss's gradient at the recorded estimate, or its anchor
for the sample-mean baseline, delivered after the round's delay.
Drawing is apart from playing: `draw` takes every trial's contexts and
builds its losses as one read-only `Batch`, which several games may
play, and `run_game` plays a drawn batch.  The game realizes every delay
before round 1 and hands the batch's losses and the delays to the
learner, which plays the whole horizon in one call and sees hidden
information only through the feedback its buffer delivers, never
directly.  The independent trials of one configuration are played in
lockstep, as one game on (trials, dim) arrays; the game's record is
trial-major, (trials, horizon, ...), and is returned as one `Trajectory`
whose row k is trial k.

Scores are separable, score(known, hidden) = <w_known, known> +
<w_hidden, hidden>, with the hidden component 1-Lipschitz, so the
per-round score error is bounded by the loss the game already measures:

    radial(|score(k, est) - score(k, hidden)|) <= radial(||est - hidden||)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .evaluation import Trajectory
from .feedback import DelaySchedule, FeedbackBuffer
from .geometry import Array, Ball, ConvexBody, Polygon, as_vector
from .learners import BaseLearner
from .losses import Loss, QuadraticLoss

DEFAULT_RADIUS = 4.0  # wide enough that projecting unit-variance draws barely matters

# One per gradient delivered in time that is the zero subgradient at a kink (`Loss.kinks_at`).
ZERO_SUBGRADIENT_FLAG = "zero_subgradient_at_anchor"


class StreamExhausted(RuntimeError):
    """Raised when an explicit stream runs out of rows."""


class ConfigError(ValueError):
    """Raised before round 1 when the game pieces do not fit together."""


class ContextStream:
    """Source of context pairs; `take(n)` returns (known, hidden) row arrays."""

    d1: int
    d2: int

    def take(self, n: int) -> tuple[Array, Array]:
        raise NotImplementedError


class GaussianStream(ContextStream):
    """Correlated Gaussian pairs, projected into their bodies per draw.

    Coordinate j of the hidden part is built from coordinate j of the known
    part as hidden = mean + sd (rho z1 + sqrt(1 - rho^2) z2) with z1 the
    known part's own standard draw, so the pairwise correlation is rho
    exactly; extra known coordinates (when d1 > d2) are independent.

    `take` works in the draws' own arrays, by those formulas' float
    operations in their order: it holds at most the two parts and a
    projection's test at once.
    """

    def __init__(self, d1: int = 1, d2: int = 1, mean: float = 1.0,
                 variance: float = 1.0, rho: float = 0.0,
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
        self.body_known = Ball(np.zeros(self.d1), DEFAULT_RADIUS)
        self.body_hidden = body_hidden or Ball(np.zeros(self.d2), DEFAULT_RADIUS)
        if self.body_hidden.dim != self.d2:
            raise ValueError(f"hidden body has dimension {self.body_hidden.dim}, d2 is {self.d2}")
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)

    def take(self, n: int) -> tuple[Array, Array]:
        z1 = self._rng.standard_normal((n, self.d1))
        z2 = self._rng.standard_normal((n, self.d2))
        hidden = self.rho * z1[:, : self.d2]
        z2 *= np.sqrt(1.0 - self.rho**2)
        hidden += z2
        del z2
        hidden *= self.sd
        hidden += self.mean
        z1 *= self.sd  # the known part, mean + sd * z1
        z1 += self.mean
        known = self.body_known.project(z1)
        del z1
        return known, self.body_hidden.project(hidden)


class PolygonStream(ContextStream):
    """Hidden contexts uniform over a convex polygon; known part Gaussian."""

    def __init__(self, polygon: Polygon, d1: int = 2, mean: float = 1.0,
                 variance: float = 1.0, seed: int = 0):
        if d1 < 2:
            raise ValueError("known part needs d1 >= 2 to cover the planar hidden part")
        if variance <= 0:
            raise ValueError("variance must be positive")
        self.polygon = polygon
        self.d1, self.d2 = int(d1), 2
        self.mean = float(mean)
        self.sd = float(np.sqrt(variance))
        self.body_known = Ball(np.zeros(self.d1), DEFAULT_RADIUS)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)

    def take(self, n: int) -> tuple[Array, Array]:
        known = self.mean + self.sd * self._rng.standard_normal((n, self.d1))
        hidden = self.polygon.sample_many(n, self._rng)
        return self.body_known.project(known), hidden


class ExplicitStream(ContextStream):
    """A fixed list of context pairs, consumed in order."""

    def __init__(self, known_rows, hidden_rows):
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

    @classmethod
    def from_csv(cls, path, d1: int, d2: int):
        """One row per round: d1 known coordinates followed by d2 hidden ones."""
        with warnings.catch_warnings():  # a file with no rows is a stream of none
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
        rows = rows if rows.size else rows.reshape(0, d1 + d2)
        if rows.shape[1] != d1 + d2:
            raise ValueError(f"expected {d1 + d2} columns, file has {rows.shape[1]}")
        return cls(rows[:, :d1], rows[:, d1:])

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

    def __post_init__(self):
        object.__setattr__(self, "w_known", as_vector(self.w_known))
        object.__setattr__(self, "w_hidden", as_vector(self.w_hidden))
        if float(np.linalg.norm(self.w_hidden)) > 1.0 + 1e-12:
            raise ValueError("hidden score component exceeds the 1-Lipschitz bound")

    @staticmethod
    def default(d1: int, d2: int) -> "LinearScoring":
        return LinearScoring(
            w_known=np.full(d1, 1.0 / np.sqrt(d1)),
            w_hidden=np.full(d2, 1.0 / np.sqrt(d2)),
        )

    def score(self, known, hidden) -> Array:
        score, hidden_score = np.vecdot(self.w_known, known), np.vecdot(self.w_hidden, hidden)
        if np.shape(score) != np.shape(hidden_score):  # rows that broadcast
            return score + hidden_score
        score += hidden_score  # in place; a single row's scalar is rebound
        return score


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
# Drawing the trials' inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Batch:
    """The drawn inputs of a lockstep game: row k of every array is trial k.

    Each loss is anchored at its round's hidden context, so the anchors
    are the hidden contexts, kept once.  Every array is read-only, so
    games that play one batch cannot write into each other's inputs.
    """

    known: Array                     # (trials, T, d1) known contexts
    loss: Loss                       # anchors (trials, T, d2): each trial's T losses

    @property
    def hidden(self) -> Array:
        """(trials, T, d2) hidden contexts."""
        return self.loss.anchor


def draw(streams: list[ContextStream], loss_factory, horizon: int,
         seeds: list[int]) -> Batch:
    """Draw `horizon` rounds of one trial per stream, as one `Batch`.

    Trial k takes its contexts from `streams[k]` and its losses from
    `loss_factory`, which draws their coefficients from `seeds[k]` and
    must anchor them at the trial's hidden contexts.
    """
    trials = len(streams)
    if trials < 1 or len(seeds) != trials:
        raise ConfigError("need one stream and seed per trial")
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    dim = streams[0].d2
    if any((stream.d1, stream.d2) != (streams[0].d1, dim) for stream in streams):
        raise ConfigError("the trials' streams disagree on their dimensions")
    drawn = [stream.take(horizon) for stream in streams]
    trial_losses = [loss_factory(hidden, np.random.default_rng(seed))
                    for (_, hidden), seed in zip(drawn, seeds)]
    if any(not np.array_equal(loss.anchor, hidden)
           for loss, (_, hidden) in zip(trial_losses, drawn)):
        raise ConfigError("loss factory did not anchor the losses at the hidden contexts")
    batch = Batch(known=np.stack([k for k, _ in drawn]), loss=Loss.stack(trial_losses))
    for array in (batch.known, batch.loss.anchor,
                  *(getattr(batch.loss, name) for name in batch.loss.coefficients)):
        array.flags.writeable = False
    return batch


# ---------------------------------------------------------------------------
# Game loop
# ---------------------------------------------------------------------------

def run_game(learner: BaseLearner, batch: Batch, delays: list[DelaySchedule],
             scoring: LinearScoring) -> Trajectory:
    """Play a drawn batch's trials in lockstep, and record them.

    Trial k plays row k of `batch` (see `draw`) and realizes `delays[k]`;
    the learner holds one iterate row per trial.  After the checks the
    game builds a `FeedbackBuffer` of the delays, and the learner plays
    the whole horizon of the batch's one `Loss` in one `play` call (see
    `BaseLearner`), writing its decisions into the record.  The update at
    the horizon boundary sees no known context and uses a zero pull.
    Losses are row-wise, so a batch gives each row the bits of playing it
    alone.  Loss values, score errors and flags are computed from the
    recorded arrays after the last round; zero-subgradient flags count
    only the pairs due within the horizon (`buffer.due <= horizon`).
    Beside the batch and the record the game holds a few arrays of the
    horizon at most: the buffer goes once its due rounds are read, the
    distances are taken once, and the scores are built in place, by their
    formulas' float operations in their order.
    Every array is trial-major, (trials, horizon, ...), so round i is
    column `[:, i]`; the game's arrays and the batch's `Loss` are the
    returned `Trajectory`, whose row k (and the flags tagged k) is trial
    k.  The game writes nothing into the batch, so several games may play
    one.
    """
    trials, horizon, dim = batch.hidden.shape
    if len(delays) != trials:
        raise ConfigError("need one delay schedule per trial")
    if learner.body.dim != dim:
        raise ConfigError(
            f"learner body dimension {learner.body.dim} does not match "
            f"the hidden context dimension {dim}")
    if scoring.w_known.size != batch.known.shape[-1] or scoring.w_hidden.size != dim:
        raise ConfigError("scoring weights do not match the stream dimensions")

    delay_values = np.empty((trials, horizon), dtype=np.int64)
    for row, schedule in zip(delay_values, delays):
        row[...] = schedule.realize(horizon)
    if learner.lag is not None and np.any(delay_values != learner.lag + 1):
        raise ConfigError(f"fixed-lag learner needs every delay to be tau + 1 = {learner.lag + 1}")
    known, hidden, loss = batch.known, batch.hidden, batch.loss
    buffer = FeedbackBuffer(delay_values)

    estimates = np.empty((trials, horizon, dim))
    # Every non-finite step raises NonFiniteGradient, and a projection
    # rescales a row whose squared norm overflows: numpy need not warn.
    # A gradient of a round that is never delivered in time may overflow
    # unread.
    with np.errstate(over="ignore", invalid="ignore"):
        learner.play(loss, buffer, known, estimates)
    # Only a gradient learner meets zero subgradients, and only those delivered in time.
    in_time = (buffer.due <= horizon) & learner.uses_gradients
    del buffer  # its due rounds are all the game reads of it

    # |score(k, est) - score(k, hidden)|, the difference and its abs in place.
    score_errors = scoring.score(known, estimates)
    score_errors -= scoring.score(known, hidden)
    np.abs(score_errors, out=score_errors)
    distances = loss.distance(estimates)  # once, for the loss values and the kinks
    kink_counts = (loss.kinks_at(distances) & in_time).sum(axis=1).tolist()
    loss_values = loss.radial(distances)
    del distances
    # loss_values + 1e-9 * max(1, |loss_values|), in place.
    tolerance = np.abs(loss_values)
    np.maximum(1.0, tolerance, out=tolerance)
    tolerance *= 1e-9
    tolerance += loss_values
    violated = loss.radial(score_errors) > tolerance
    flags = []
    for k in range(trials):
        flags += [(k, ZERO_SUBGRADIENT_FLAG)] * kink_counts[k]
        flags += [(k, f"score_chain_violated_at_{i + 1}") for i in np.flatnonzero(violated[k])]

    return Trajectory(estimates=estimates, loss_values=loss_values, score_errors=score_errors,
                      loss=loss, delays=delay_values, flags=tuple(flags))
