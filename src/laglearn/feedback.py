"""Delay schedules and exactly-once feedback delivery.

Feedback generated at round s with delay d becomes available at the end
of round s + d - 1 and can drive the update made at that round; d = 1 is
the no-delay case, and a fixed lag of tau rounds corresponds to d = tau + 1.
The buffer lays the source rounds out once, in delivery order, from the
realized delays, so each round's feedback is read exactly once.  It
keeps the round each source round is due at, so the game can put a
gradient into that round's total the moment it takes it, and it names the
take rounds, the rounds that deliver a source round whose feedback the
game has not taken yet: between two of them every delivered feedback is
already known, so the game plays the rounds between them as one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INT64_MAX = int(np.iinfo(np.int64).max)  # the largest delay, and delay sum, that numpy holds


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
        if any(int(d) != d or not 1 <= d <= INT64_MAX for d in self.delays):
            raise ValueError(f"delays must be integers from 1 to {INT64_MAX}")

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
    s + delays[k, s - 1] - 1.  The int arrays `rows` and `sources` hold the
    (row, source) pairs in delivery order: by round, then row, then
    source.  `starts[t]` is the first pair due at round t or later, for
    t = 0..T + 1, so round t delivers the pairs starts[t]:starts[t + 1],
    possibly none, possibly several per row; the pairs due past the
    horizon come last.  `due[k, s - 1]` is the round pair (k, s) is due at,
    cut at T + 1, so `due <= T` marks the pairs delivered in time.
    `takes` lists the take rounds in order: the rounds that deliver, in
    some row, a source round later than the take round before them (0
    before the first), each read from a suffix minimum of `due`.  None of
    these grows with the largest delay, so a huge delay costs no memory.
    """

    def __init__(self, delays):
        delays = np.atleast_2d(np.asarray(delays, dtype=np.int64))
        if np.any(delays < 1):
            raise ValueError("delay must be >= 1")
        self.horizon = delays.shape[1]
        due = np.arange(self.horizon) + delays  # s = i + 1 is due at s + d - 1
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
