"""Delay schedules and exactly-once feedback delivery.

Feedback generated at round s with delay d becomes available at the end
of round s + d - 1 and can drive the update made at that round; d = 1 is
the no-delay case, and a fixed lag of tau rounds corresponds to d = tau + 1.
The buffer partitions source rounds into delivery sets, so each round's
feedback is handed out exactly once, and accumulates the total delay
sum that governs the arbitrary-delay regret scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DelaySchedule:
    """Produces the per-round delays d_1..d_T (all >= 1)."""

    def realize(self, horizon: int) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
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

    def describe(self) -> str:
        return f"fixed(tau={self.tau})"


@dataclass(frozen=True)
class RandomDelay(DelaySchedule):
    """I.i.d. uniform integer delays on [low, d_max], drawn from `seed`."""

    d_max: int
    seed: int
    low: int = 1

    def __post_init__(self):
        if self.low < 1 or self.d_max < self.low:
            raise ValueError("need 1 <= low <= d_max")

    def realize(self, horizon: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.integers(self.low, self.d_max + 1, size=horizon, dtype=np.int64)

    def describe(self) -> str:
        return f"random(d_max={self.d_max}, seed={self.seed})"


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

    def describe(self) -> str:
        return f"explicit(n={len(self.delays)})"


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
    """Per-round delivery bookkeeping for a batch of trials (the rows).

    `push(s, d)` schedules source round s of every row for delivery at
    round s + d - 1; `s` may be one round or a 1-d array of them, and `d`
    is one delay or a (rows, len(s)) array of them.  `ready_at(t)` returns the (rows,
    sources) pairs delivered at round t as two int arrays, ordered by row
    and then by source: possibly empty, possibly several per row under
    arbitrary delays.  Querying rounds past the horizon is allowed: late
    feedback lands in post-horizon delivery sets that only evaluation ever
    looks at.
    """

    def __init__(self, rows: int = 1):
        self.rows = int(rows)
        self._pushed: set[int] = set()
        self._entries: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._delay_sum = np.zeros(self.rows, dtype=np.int64)
        self._sorted: tuple[np.ndarray, np.ndarray, dict[int, tuple[int, int]]] | None = None

    def push(self, source, delay) -> None:
        sources = np.atleast_1d(np.asarray(source, dtype=np.int64))
        delays = np.broadcast_to(np.asarray(delay, dtype=np.int64), (self.rows, sources.size))
        if np.any(delays < 1):
            raise ValueError("delay must be >= 1")
        fresh = set(sources.tolist())
        if len(fresh) != sources.size or not fresh.isdisjoint(self._pushed):
            raise RuntimeError("a round was already pushed")
        self._pushed |= fresh
        self._entries.append((np.repeat(np.arange(self.rows), sources.size),
                              np.tile(sources, self.rows), (sources + delays - 1).ravel()))
        self._delay_sum += delays.sum(axis=1)
        self._sorted = None

    def ready_at(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        if t < 1:
            raise ValueError("rounds are numbered from 1")
        if not self._entries:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        if self._sorted is None:
            rows, sources, due = (np.concatenate(parts) for parts in zip(*self._entries))
            order = np.lexsort((sources, rows, due))
            rounds, first = np.unique(due[order], return_index=True)
            # Each due round's slice of the sorted pairs, kept only for rounds
            # that deliver something, so a huge delay costs no memory.
            spans = zip(first.tolist(), first[1:].tolist() + [len(order)])
            self._sorted = (rows[order], sources[order], dict(zip(rounds.tolist(), spans)))
        rows, sources, spans = self._sorted
        lo, hi = spans.get(t, (0, 0))
        return rows[lo:hi], sources[lo:hi]

    @property
    def delay_sum(self) -> np.ndarray:
        """Total delay pushed so far, per row."""
        return self._delay_sum
