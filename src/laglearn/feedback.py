"""Delay schedules and exactly-once feedback delivery.

Feedback generated at round s with delay d becomes available at the end
of round s + d - 1 and can drive the update made at that round; d = 1 is
the no-delay case, and a fixed lag of tau rounds corresponds to d = tau + 1.
The buffer splits the source rounds into delivery sets once, from the
realized delays, so each round's feedback is handed out exactly once.
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
    and `newest[t]` is the latest source round that round t delivers in
    any row (0 for none), for t = 0..horizon.  The pairs of every round
    are kept in delivery order as `rows` and `sources`, with the round
    each is due at in `due`.  `starts[t]` is the first pair due at round t
    or later, for t = 0..horizon + 1, so round t of the game delivers the
    pairs starts[t]:starts[t + 1]; a round past the horizon is found in
    `due` by bisection.  None of these grows with the largest delay, so a
    huge delay costs no memory.
    """

    def __init__(self, delays):
        delays = np.atleast_2d(np.asarray(delays, dtype=np.int64))
        if np.any(delays < 1):
            raise ValueError("delay must be >= 1")
        self.horizon = delays.shape[1]
        due = np.arange(self.horizon) + delays  # s = i + 1 is due at s + d - 1
        self.in_time = due <= self.horizon
        self.newest = np.zeros(self.horizon + 1, dtype=np.int64)
        np.maximum.at(self.newest, due[self.in_time], np.nonzero(self.in_time)[1] + 1)
        # Stable, so pairs due together keep their row-major order: by row, then by source.
        order = np.argsort(due, axis=None, kind="stable")
        self.rows, self.sources = np.divmod(order, self.horizon)
        self.sources += 1
        self.due = due.ravel()[order]
        self.starts = np.searchsorted(self.due, np.arange(self.horizon + 2))

    def ready_at(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        if t < 1:
            raise ValueError("rounds are numbered from 1")
        if t <= self.horizon:
            lo, hi = self.starts[t], self.starts[t + 1]
        else:
            lo, hi = np.searchsorted(self.due, (t, t + 1)).tolist()
        return self.rows[lo:hi], self.sources[lo:hi]
