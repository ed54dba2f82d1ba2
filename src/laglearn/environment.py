"""Context streams, the separable scoring function, and the game loop.

Each round an agent arrives with a context split into a known part
(revealed immediately) and a hidden part (revealed only after a delay).
The learner posts an estimate of the hidden part, the adversary anchors a
loss at the true hidden part, and the game records both.  The round's
feedback is the loss's gradient at the recorded estimate, or its anchor
for the sample-mean baseline.  A decision is final once it is played, so
the game takes the gradients of the rounds played since its last take in
one call, once a round delivers one of them (a take round), and adds each
into the total of the round it is delivered at, after its delay.  Between
two take rounds every delivered feedback is already known, so the game
plays the rounds from one take round to the next as one block, in one
call to the learner, which reads those rounds' totals as one slice.  The
learner sees hidden information only through delivered feedback, never
directly.  The independent trials of one configuration are played in
lockstep, as one game on (trials, dim) arrays; the game's record is
trial-major, (trials, horizon, ...), and is returned as one `Trajectory`
whose row k is trial k, while the totals it hands the learner are
round-major, (rounds, trials, dim), so a block is one slice of them.

Scores are separable, score(known, hidden) = <w_known, known> +
<w_hidden, hidden>, with the hidden component 1-Lipschitz, so the
per-round score error is bounded by the loss the game already measures:

    radial(|score(k, est) - score(k, hidden)|) <= radial(||est - hidden||)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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
        known = self.mean + self.sd * z1
        mix = self.rho * z1[:, : self.d2] + np.sqrt(1.0 - self.rho**2) * z2
        hidden = self.mean + self.sd * mix
        return self.body_known.project_many(known), self.body_hidden.project_many(hidden)


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
        return self.body_known.project_many(known), hidden


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
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
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
        return np.vecdot(self.w_known, known) + np.vecdot(self.w_hidden, hidden)


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
    trial.  The game is played in blocks that run from one take round of
    the buffer to the next (see `FeedbackBuffer.takes`): at a take round
    one `loss.grad` call takes the gradients of every round played since
    the last one, at their recorded decisions, so under a fixed lag tau
    there is one call per tau + 1 rounds.  It puts them at once into the
    round-major totals, whose row t holds per trial the sum of the
    gradients due at round t (see `FeedbackBuffer.due`), and row
    horizon + 1 the unread rest.  Under a fixed lag each row gets one gradient, which is copied
    in, so a -0.0 stays -0.0; under other delays each row's gradients are
    added to +0.0 one at a time in source order, as the takes come in
    rising source ranges.  The learner then plays the rounds up to the
    next take round in one `play` call (see `BaseLearner`): their totals
    are all summed, and it writes its decisions into the record.  A
    learner that reads anchors, not gradients, has its feedback before
    round 1, in the buffer's delivery order, and plays the whole horizon
    as one block.  The update at the horizon boundary sees no known context
    and uses a zero pull.  Losses are row-wise, so a block gives each row
    the bits of taking it alone; a gradient that is never delivered in
    time is taken or not, and never read.  Loss values, score errors and
    flags are computed from the recorded arrays after the last round;
    zero-subgradient flags count only the pairs due within the horizon
    (`buffer.due <= horizon`).  Every array is trial-major, (trials,
    horizon, ...), so round i is column `[:, i]`; the loop's arrays and its
    one `Loss` are the returned `Trajectory`, whose row k (and the flags
    tagged k) is trial k.
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
    known = np.stack([k for k, _ in drawn])
    hidden = np.stack([h for _, h in drawn])
    loss = Loss.stack(trial_losses)
    del drawn, trial_losses  # the stacks hold all that the loop and the record read
    buffer = FeedbackBuffer(delay_values)

    estimates = np.empty((trials, horizon, dim))
    if learner.uses_gradients:  # the totals, one row per round, filled as gradients are taken
        feedback = np.zeros((horizon + 2, trials, dim))
        takes = buffer.takes
    else:
        feedback = loss.anchor[buffer.rows, buffer.sources - 1]
        takes = []
    learner.start(trials, horizon, buffer)
    estimates[:, 0] = learner.estimate
    first, ready = 1, 0
    trial_rows = np.arange(trials)[:, None]
    # Every non-finite step raises NonFiniteGradient, and a projection
    # rescales a row whose squared norm overflows: numpy need not warn.
    # A gradient of a round that is never delivered in time may overflow
    # unread.
    with np.errstate(over="ignore", invalid="ignore"):
        for take in chain(takes, [horizon + 1]):
            if take > first:
                learner.play(first, take, feedback, known, estimates)
                first = take
            if take <= horizon:
                block = (slice(None), slice(ready, take))
                grads = loss.grad(estimates[block], at=block)
                if learner.lag is None:
                    np.add.at(feedback, (buffer.due[block], trial_rows), grads)
                else:  # due lag + 1 rounds after their source rounds
                    due = feedback[ready + learner.lag + 1:take + learner.lag + 1]
                    due[...] = grads[:, :len(due)].swapaxes(0, 1)
                ready = take

    loss_values = loss.value(estimates)
    score_errors = np.abs(scoring.score(known, estimates) - scoring.score(known, hidden))
    score_error_losses = loss.radial(score_errors)
    violated = score_error_losses > loss_values + 1e-9 * np.maximum(1.0, np.abs(loss_values))
    # Only a gradient learner meets zero subgradients, and only those delivered in time.
    kinked = loss.kinks(estimates) & (buffer.due <= horizon) & learner.uses_gradients
    kink_counts = kinked.sum(axis=1).tolist()
    flags = []
    for k in range(trials):
        flags += [(k, ZERO_SUBGRADIENT_FLAG)] * kink_counts[k]
        flags += [(k, f"score_chain_violated_at_{i + 1}") for i in np.flatnonzero(violated[k])]

    return Trajectory(estimates=estimates, loss_values=loss_values, score_errors=score_errors,
                      loss=loss, delays=delay_values, flags=tuple(flags))
