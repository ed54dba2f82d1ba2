"""Online learners for estimating a delayed context.

All learners play an estimate each round and, once the loss of an earlier
round is finally delivered, move against its gradient evaluated at the
decision that was actually played back then: a decision is final once it
is played, so the learner takes the gradient there before it is
delivered.  A correlation pull nudges the next estimate toward (or away
from) the freshly observed part of the next context.  One gradient
learner covers every delay setting: at the end of round t it moves
against the sum of the gradients delivered then, the delivery set F_t,

    x_{t+1} = proj( x_t - eta_t sum_{s in F_t} g_s + beta_t * w_t * k_{t+1} )

where k_{t+1} is the known context of the next round cut to the
estimate's dimension, and the correlation weight w_t is a constant lam,
or lam * eta_t when coupled.  A fixed lag tau is the case F_t = {t - tau};
with any delays a set may hold several gradients or none.  A mirror map
routes the same move through its dual space (the Euclidean map is the
plain step above), and maps with a built-in domain skip the projection.

The sample-mean baseline ignores gradients entirely and plays the average
of all hidden contexts revealed so far, in the order they are delivered.

Every learner plays a whole game in one `play` call, from the game's
losses and its feedback buffer, so only the learner knows how feedback
reaches its due round.  It plays a batch of independent trials in
lockstep: its iterate holds one row per trial, and every step acts on all
rows at once.  A gradient learner plays the rounds from one take round,
a round that delivers feedback it has not taken yet, to the next as one
block: every total the block reads is summed when it starts, so it forms
the block's moves as one array and, under the Euclidean map, walks them
as one running sum, summing again only from the first round whose
projection moves a point, which the body finds in one pass.  A game of
one trial on a ball in one dimension, such as a single run under
arbitrary delays, is played round by round in Python floats instead,
each gradient taken when its round is played: its blocks would be a few
rounds long, and the fixed cost of a numpy call would be most of their
time.  Each round takes the same float operations in the same order in
both games, so no bit changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feedback import FeedbackBuffer, delivery_order
from .geometry import Array, Ball, ConvexBody, EuclideanMap, MirrorMap
from .losses import Loss

# A game played in Python floats reads its rounds' inputs as lists of this
# many rounds at a time, never as a list of the whole horizon: its lists
# of steps, pulls, due rounds and decisions hold one chunk of Python
# floats and ints, not the horizon's.
ROUND_CHUNK = 1024


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
# Learners
# ---------------------------------------------------------------------------

class BaseLearner:
    """The protocol the game plays a learner by: one `play` call per game.

    A learner holds its iterate `estimate` in its feasible `body`, and
    nothing else of the game's history.  `play(loss, buffer, known,
    estimates)` plays rounds 1..T of a batch of trials: `loss` is the
    game's one `Loss`, whose row (k, s - 1) is the loss of round s of trial
    k; `buffer` is the game's `FeedbackBuffer`, whose `due` says at the end
    of which round each round's feedback is delivered; and `known[:, t]` is
    the known context of round t + 1.  It writes the decisions of rounds
    1..T into the trial-major record `estimates`, (trials, T, dim), round 1
    included, and leaves the iterate after round T in `estimate`, one row
    per trial.  A round's feedback is the gradient of its loss at the
    decision of that round, or its anchor for a learner that does not
    `uses_gradients`, and no decision reads feedback before it is due.
    `lag` is the fixed lag a learner needs (every delay lag + 1, checked by
    the game before round 1), or None for a learner that takes any delays:
    the sample-mean baseline, and a gradient learner whose schedule has
    tau = 0.
    """

    lag: int | None = None
    uses_gradients = True

    def __init__(self, body: ConvexBody, estimate: Array):
        self.body = body
        self.estimate = estimate

    def play(self, loss: Loss, buffer: FeedbackBuffer, known: Array, estimates: Array) -> None:
        raise NotImplementedError


class GradientLearner(BaseLearner):
    """Delayed (mirror) gradient descent with a correlation pull.

    The schedule's tau is the lag.  With tau > 0 each row's delivery set
    is the one gradient of round t - tau, and nothing moves through the
    warm-up rounds t <= tau; with tau = 0 the learner takes any delays and
    moves against the sum of whatever each round delivers.  The correlation
    weight is `lam`, or `lam * eta(t)` when `coupled` (the config's `lam =
    coupled` passes lam = 1 or -1, signed like rho).  `play` first
    tabulates eta(t) and beta(t) for every round, and each round reads its
    own entries there; the tables are handed down as arguments and freed
    with the game, so the learner keeps only its iterate.

    Each gradient is taken at the recorded decision of its source round
    and goes into the total of its due round: under a fixed lag it is
    copied in, so a -0.0 stays -0.0, and under other delays it is added to
    +0.0 in source order.  `play` chooses the game once, from what it is
    handed: one trial, a 1-d `Ball` and the Euclidean map play in Python
    floats, and every other game plays in blocks of arrays.

    The blocks run from one take round of the buffer to the next (see
    `FeedbackBuffer.takes`).  At a take round one `loss.grad` call takes
    the gradients of every round played since the last one, and puts them
    at once into the round-major totals, whose row t holds per trial the
    total of round t, and row T + 1 the unread rest; under a fixed lag tau
    that is one call per tau + 1 rounds.  Every total the rounds up to the
    next take round read is then summed, so their moves are all known, and
    `_play_block` forms them at once, on (rounds, trials, dim) arrays: the
    move of round t is 0.0 - eta * total, or beta * pull - eta * total with
    a pull, the same elementwise operations as one round's step.  Under the
    Euclidean map the path is then a running sum from the iterate, which
    `np.cumsum` adds in sequence, as x + move does, broken only where the
    projection moves a point: the body's `first_moved` names the first
    round of the path whose projection moves a point, in one pass over the
    block (a ball tests squared norms and projects only that round), and
    from there the projected point replaces the sum and the sum is taken
    again, up to the next such round or the block's end.  The warm-up
    rounds are never projected, so a start point outside the body (the
    origin, for the pentagon) stays until the first step.  A round that
    delivers nothing to a learner with no pull steps by 0.0 (the iterate
    is never -0.0), and the ball and the polygon, the bodies a Euclidean
    learner is built with, give back a point their projection returned bit
    for bit, so such a round changes no bit.  The entropic map neither
    adds nor projects, so it takes its moves one round after another.

    The float game reads its inputs as lists of ROUND_CHUNK rounds.  Each
    round s it records x_s, takes the gradient there at once
    (`Loss.float_grad`; one due past the horizon is never read, and not
    taken) and puts it into the total of its due round, keeping only the
    totals of rounds not reached yet.  It then reads round s's total and
    steps: the move 0.0 - eta * total, or beta * (w * k) - eta * total with
    k = 0.0 after the last round, a NonFiniteGradient for a move that is
    not finite, x + move, and the ball's own test (x - c) * (x - c) >
    square_bound, with `body.project` for a point outside; the warm-up
    rounds keep the start point.  Those are the block game's float
    operations in its order, so both give the same bits: a block game of
    one trial on a 1-d ball would be a few rounds per block, and the fixed
    cost of a numpy call would be most of its time.
    """

    def __init__(self, body: ConvexBody, schedule: StepSchedule, lam: float = 0.0,
                 coupled: bool = False, mirror: MirrorMap = EuclideanMap()):
        super().__init__(body, mirror.initial_point(body.dim))
        self.schedule = schedule
        self.lam = float(lam)
        self.coupled = coupled
        self.mirror = mirror
        self.lag = schedule.tau or None

    def play(self, loss, buffer, known, estimates) -> None:
        trials, horizon, dim = estimates.shape
        etas, betas = self.schedule.table(horizon)
        if etas.ndim > 1 and etas.shape[1] != trials:
            raise ValueError(f"{etas.shape[1]} step sizes for {trials} trials")
        # Round t's eta and beta as (1 or trials, 1) columns of a (rounds, trials, dim) block.
        etas, betas = etas.reshape(horizon + 1, -1, 1), betas.reshape(horizon + 1, -1, 1)
        self.estimate = np.broadcast_to(self.estimate, (trials, dim)).copy()
        estimates[:, 0] = self.estimate
        if (trials == 1 and dim == 1 and self.mirror.needs_projection
                and isinstance(self.body, Ball)):
            self._play_floats(loss, buffer.due[0], etas, betas, known, estimates)
            return
        totals = np.zeros((horizon + 2, trials, dim))
        trial_rows = np.arange(trials)[:, None]
        first, ready = 1, 0
        for take in buffer.takes + [horizon + 1]:
            if take > first:
                self._play_block(first, take, etas, betas, totals, known, estimates)
                first = take
            if take <= horizon:
                block = (slice(None), slice(ready, take))
                grads = loss.grad(estimates[block], at=block)
                if self.lag is None:
                    np.add.at(totals, (buffer.due[block], trial_rows), grads)
                else:  # due lag + 1 rounds after their source rounds
                    due = totals[ready + self.lag + 1:take + self.lag + 1]
                    due[...] = grads[:, :len(due)].swapaxes(0, 1)
                ready = take

    def _play_block(self, lo, hi, etas, betas, totals, known, estimates) -> None:
        """Rounds lo..hi-1, whose totals are all summed, as (rounds, trials, dim) arrays.

        `etas` and `betas` are the game's step tables, row t for round t.
        Writes the decisions of rounds lo+1..hi within the horizon, at
        columns lo..hi-1, and leaves the iterate after round hi - 1; it
        reads rows lo..hi-1 of the totals only.
        """
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
        eta = etas[first:hi]
        # steps[0] is the iterate and steps[j] the move of round first + j - 1.
        steps = np.empty((n + 1, trials, dim))
        steps[0] = x
        if self.lam:
            w = self.lam * eta if self.coupled else self.lam
            ahead = known[:, first:hi, :dim].swapaxes(0, 1)  # the contexts of the next rounds
            if len(ahead) < n:  # no pull after the last round
                ahead = np.concatenate([ahead, np.zeros((1, trials, dim))])
            np.subtract(betas[first:hi] * (w * ahead), eta * total, out=steps[1:])
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
            while done <= n and (moved := self.body.first_moved(path[done:])) is not None:
                j, point = moved
                c = done + j
                path[c] = steps[c] = point
                np.add.accumulate(steps[c:], axis=0, out=path[c:])
                done = c + 1
        else:
            path = steps  # each move gives way to the point it leads to
            for j in range(1, n + 1):
                path[j] = self.mirror.update(path[j - 1], steps[j])
        estimates[:, first:min(hi, horizon)] = path[1:horizon - first + 1].swapaxes(0, 1)
        self.estimate = path[n]

    def _play_floats(self, loss: Loss, due_rounds, etas, betas, known, estimates) -> None:
        """Rounds 1..T of one trial on a 1-d ball, each in Python floats as it is played."""
        horizon = estimates.shape[1]
        body, tau, lag = self.body, self.schedule.tau, self.lag
        center, bound = body.center.item(), body.square_bound
        isfinite = math.isfinite
        totals = {}  # by due round, the totals of the rounds not reached yet
        x = self.estimate.item()
        for lo in range(1, horizon + 1, ROUND_CHUNK):
            hi = min(lo + ROUND_CHUNK, horizon + 1)
            grad = loss.float_grad((0, slice(lo - 1, hi - 1)))
            eta = etas[lo:hi, 0, 0].tolist()
            if self.lam:
                lam, coupled = self.lam, self.coupled
                ahead = known[0, lo:hi, 0].tolist()  # the contexts of the next rounds
                ahead += [0.0] * (hi - lo - len(ahead))  # no pull after the last round
                pulls = [b * ((lam * e if coupled else lam) * k)
                         for e, b, k in zip(eta, betas[lo:hi, 0, 0].tolist(), ahead)]
            else:
                pulls = [0.0] * (hi - lo)
            dues, path = due_rounds[lo - 1:hi - 1].tolist(), []
            for t, due, e, pull in zip(range(lo, hi), dues, eta, pulls):
                path.append(x)
                if due <= horizon:
                    g = grad(t - lo, x)
                    totals[due] = g if lag else totals.get(due, 0.0) + g
                total = totals.pop(t, 0.0)
                if t > tau:
                    move = pull - e * total
                    if not isfinite(move):
                        what = "gradient" if not isfinite(total) else "step"
                        raise NonFiniteGradient(f"{what} has NaN or infinite entries at round {t}")
                    x += move
                    if (x - center) * (x - center) > bound:
                        x = body.project([[x]]).item()
            estimates[0, lo - 1:hi - 1, 0] = path
        self.estimate = np.array([[x]])


class NaiveLearner(BaseLearner):
    """Sample-mean baseline: plays the average of the revealed hidden contexts.

    Its feedback is each round's anchor, the hidden context itself, and
    each row plays `np.mean` of its revealed anchors in delivery order, by
    due round and then by source round.  The anchors are known before
    round 1, and `play` reads only the `delivery_order` of the buffer's
    delays: each row's sources give its anchors in that order, laid out
    once after a slot 0 for the start point, and its starts give how many
    the row has revealed by each round.  Slot n then becomes the mean of
    the first n anchors, which the row plays while it has revealed n.  In
    two or more dimensions numpy's mean adds the anchors one after another
    from +0.0, so one `np.add.accumulate` divided by n gives its bits; in
    one dimension it sums pairwise, so there `np.mean` runs once per
    distinct count, over the rows that reach it.
    """

    uses_gradients = False

    def __init__(self, body: ConvexBody):
        super().__init__(body, np.zeros(body.dim))

    def play(self, loss, buffer, known, estimates) -> None:
        # Mean of points of a convex set stays inside it; no projection.
        trials, _, dim = estimates.shape
        at = np.arange(trials)[:, None]
        sources, starts = delivery_order(buffer.delays)
        # seen[k, t]: the anchors row k has revealed by the end of round t, for t = 0..T.
        seen = starts[:, 1:]
        # Slot n of row k is its n-th anchor in delivery order.
        revealed = sources[:, :seen[:, -1].max()] - 1
        means = np.zeros((trials, revealed.shape[1] + 1, dim))
        means[:, 1:] = loss.anchor[at, revealed]
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
        estimates[...] = path[:, :-1]
        self.estimate = path[:, -1].copy()
