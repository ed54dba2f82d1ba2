"""Delay schedules and exactly-once feedback delivery.

Feedback generated at round s with delay d becomes available at the end
of round s + d - 1 and can drive the update made at that round; d = 1 is
the no-delay case, and a fixed lag of tau rounds corresponds to d = tau + 1.
The buffer splits the source rounds into delivery sets once, from the
realized delays, so each round's feedback is handed out exactly once.  It
keeps the round each source round is due at, so the game can put a
gradient into that round's total the moment it takes it, and it names the
take rounds, the rounds that deliver a source round whose feedback the
game has not taken yet: between two of them every delivered feedback is
already known, so the game plays the rounds between them as one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DelaySchedule:
    """Produces the per-round delays d_1..d_T (all >= 1)."""

    def realize(self, horizon: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedDelay(DelaySchedule):
    """Constant lag of `tau` rounds: d_t = tau + 1 for every t."""

    tau: int

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")

    def realize(self, horizon: int) -> np.ndarray:
        return np.full(horizon, self.tau + 1, dtype=np.int64)


@dataclass(frozen=True)
class RandomDelay(DelaySchedule):
    """I.i.d. uniform integer delays on [1, d_max], drawn from `seed`."""

    d_max: int
    seed: int

    def __post_init__(self):
        if self.d_max < 1:
            raise ValueError("d_max must be >= 1")

    def realize(self, horizon: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.integers(1, self.d_max + 1, size=horizon, dtype=np.int64)


@dataclass(frozen=True)
class ExplicitDelay(DelaySchedule):
    """A crafted delay list, e.g. a worst-case schedule."""

    delays: tuple[int, ...]

    def __post_init__(self):
        if any(int(d) != d or d < 1 for d in self.delays):
            raise ValueError("delays must be integers >= 1")

    def realize(self, horizon: int) -> np.ndarray:
        if len(self.delays) < horizon:
            raise ValueError(f"schedule has {len(self.delays)} delays, horizon is {horizon}")
        return np.asarray(self.delays[:horizon], dtype=np.int64)


def delays_from_file(path) -> ExplicitDelay:
    """Load an explicit schedule from a text file, one integer per line."""
    delays = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                delays.append(int(text))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not an integer: {text!r}") from exc
    return ExplicitDelay(tuple(delays))


class FeedbackBuffer:
    """The delivery sets of a batch of trials (the rows), built from their delays.

    `delays` is the realized (rows, T) delay matrix, or one row of T
    delays: source round s of row k is delivered at round
    s + delays[k, s - 1] - 1.  `ready_at(t)` returns the (rows, sources)
    pairs delivered at round t as two int arrays, ordered by row and then
    by source: possibly empty, possibly several per row under arbitrary
    delays.  Rounds past the horizon may be queried too: late feedback
    lands in delivery sets that the game never reads, and that checks of
    exactly-once delivery do.

    `in_time` is the (rows, T) mask of the pairs due within the horizon,
    and `due[k, s - 1]` the round pair (k, s) is due at, cut at T + 1, the
    one round past the horizon that stands for all of them.  `takes` lists
    the take rounds in order: the rounds that deliver, in some row, a
    source round later than the take round before them (0 before the
    first).  The take round after round r is the earliest round at which a
    source round later than r is due in time, read from a suffix minimum,
    so the list costs one step per take round.  The pairs of every round
    are kept in delivery order as `rows` and `sources`.  `starts[t]` is
    the first pair due at round t or later, for t = 0..horizon + 1, as an
    int array, so round t delivers the pairs starts[t]:starts[t + 1], the
    next ones after those of round t - 1.  The pairs due past the horizon,
    from starts[horizon + 1] on, keep the rounds they are due at in
    `late_due`, where a round past the horizon is found by bisection.  None
    of these grows with the largest delay, so a huge delay costs no
    memory.
    """

    def __init__(self, delays):
        delays = np.atleast_2d(np.asarray(delays, dtype=np.int64))
        if np.any(delays < 1):
            raise ValueError("delay must be >= 1")
        self.horizon = delays.shape[1]
        due = np.arange(self.horizon) + delays  # s = i + 1 is due at s + d - 1
        self.in_time = due <= self.horizon
        self.due = np.minimum(due, self.horizon + 1)
        # soonest[r] is the earliest round at which a source round > r is due in time.
        soonest = self.due.min(axis=0)
        soonest = np.minimum.accumulate(soonest[::-1])[::-1]
        self.takes = []
        t = 0
        while t < self.horizon and (t := int(soonest[t])) <= self.horizon:
            self.takes.append(t)
        # Stable, so pairs due together keep their row-major order: by row, then by source.
        order = np.argsort(due, axis=None, kind="stable")
        self.rows, self.sources = np.divmod(order, self.horizon)
        self.sources += 1
        due = due.ravel()[order]
        self.starts = np.searchsorted(due, np.arange(self.horizon + 2))
        self.late_due = due[self.starts[-1]:].copy()  # not a view that keeps all of `due`

    def ready_at(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """The (rows, sources) pairs delivered at round t, as views of `rows`
        and `sources`: bounded by `starts` up to the horizon, by bisection
        of `late_due` past it."""
        if t < 1:
            raise ValueError("rounds are numbered from 1")
        if t <= self.horizon:
            lo, hi = self.starts[t:t + 2].tolist()
        else:
            lo, hi = (self.starts[-1] + np.searchsorted(self.late_due, (t, t + 1))).tolist()
        return self.rows[lo:hi], self.sources[lo:hi]
