"""Delay schedules and exactly-once feedback delivery.

Feedback generated at round s with delay d becomes available at the end
of round s + d - 1 and can drive the update made at that round; d = 1 is
the no-delay case, and a fixed lag of tau rounds corresponds to d = tau + 1.
The buffer keeps the round each source round is due at, so a learner can
put a gradient into that round's total the moment it takes it, and it
names the take rounds, the rounds that deliver a source round whose
feedback has not been taken yet: between two of them every delivered
feedback is already known, so a learner can play the rounds between them
as one block.  `delivery_order` lays each row's source rounds out once,
in delivery order, so each round's feedback is read exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    s + delays[k, s - 1] - 1; the buffer keeps them, uncopied when int64,
    as (rows, T) `delays`.  `due[k, s - 1]` is the round pair (k, s) is
    due at, cut at T + 1, so `due <= T` marks the pairs delivered in time.
    `takes` lists the take rounds in order: the rounds that deliver, in
    some row, a source round later than the take round before them (0
    before the first), each read from a suffix minimum of `due`.  Neither
    grows with the largest delay, so a huge delay costs no memory.  `due`
    is made with the buffer and `takes` when it is first read, so a game
    that reads only `due` pays for no take rounds.
    """

    def __init__(self, delays):
        delays = np.atleast_2d(np.asarray(delays, dtype=np.int64))
        if np.any(delays < 1):
            raise ValueError("delay must be >= 1")
        self.horizon = delays.shape[1]
        # s = i + 1 is due at s + d - 1 = i + d, which int64 holds while d <= INT64_MAX - i.
        if delays.size and delays.max() > INT64_MAX - (self.horizon - 1):
            wrapped = delays > INT64_MAX - np.arange(self.horizon)
            if np.count_nonzero(wrapped):
                k, i = divmod(int(wrapped.argmax()), self.horizon)
                d = int(delays[k, i])
                raise ValueError(f"source round {i + 1} of row {k} has delay {d}: it is due "
                                 f"at round {i + d}, past the int64 maximum {INT64_MAX}")
        self.delays = delays
        self.due = np.minimum(np.arange(self.horizon) + delays, self.horizon + 1)

    @cached_property
    def takes(self) -> list[int]:
        # soonest[r] is the earliest round at which a source round > r is due in time.
        soonest = self.due.min(axis=0)
        soonest = np.minimum.accumulate(soonest[::-1])[::-1]
        takes = []
        t = 0
        while t < self.horizon and (t := int(soonest[t])) <= self.horizon:
            takes.append(t)
        return takes


def delivery_order(delays) -> tuple[np.ndarray, np.ndarray]:
    """Each row's source rounds in delivery order: by due round, then source round.

    `delays` is what a `FeedbackBuffer` accepts.  `sources`, (rows, T),
    holds each row's source rounds by due round, cut at T + 1, then by
    source round, so those due past the horizon come last.  `starts`,
    (rows, T + 2), counts each row's pairs due before round t, so round t
    of row k delivers sources[k, starts[k, t]:starts[k, t + 1]], possibly
    none, possibly several.  Both are int32, for T below 2^31.

    One count of the cut due rounds, made in the int32 starts, gives the
    starts, and one in-place sort of each row's int64 keys, cut due round
    and then source, gives the sources.  Its peak is the keys, the starts
    and one int32 source index per pair, about 16 bytes per pair; a key is
    below rows * (T + 3) * T.
    """
    delays = np.atleast_2d(np.asarray(delays, dtype=np.int64))
    rows, horizon = delays.shape
    source = np.arange(horizon, dtype=np.int32)
    key = source + delays
    np.minimum(key, horizon + 1, out=key)
    # Offset each row's due rounds so that one count splits them by row.  Row
    # k counts due round t at column t + 1 of a row of T + 3, and the count
    # at column T + 2, of the pairs due past the horizon, is cut away.
    key += np.arange(rows)[:, None] * (horizon + 3)
    counts = np.zeros(rows * (horizon + 3), np.int32)
    np.add.at(counts[1:], key.ravel(), 1)
    starts = counts.reshape(rows, horizon + 3)[:, :-1]
    np.cumsum(starts, axis=1, dtype=np.int32, out=starts)
    key *= horizon
    key += source
    del source
    # Unstable is enough: no two keys of a row are equal.
    key.sort(axis=1)
    sources = np.empty((rows, horizon), np.int32)
    np.remainder(key, horizon, out=sources)
    sources += 1
    return sources, starts
