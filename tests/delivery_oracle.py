"""Which (row, source) pairs each round delivers, straight from the definition.

Source round s of row k, whose delay is d, is delivered at round
s + d - 1.  Nothing here reads a `FeedbackBuffer`, so the tests can hold
the buffer and the game up against it.
"""

import numpy as np


def deliveries(delays) -> dict[int, list[tuple[int, int]]]:
    """{round t: the (row, source) pairs delivered at t}, in row-then-source order.

    `delays` is one row of T delays or a (rows, T) nest of them.  Only
    rounds that deliver something are keys, rounds past the horizon too.
    """
    pairs: dict[int, list[tuple[int, int]]] = {}
    for k, row in enumerate(np.atleast_2d(delays).tolist()):
        for s, d in enumerate(row, start=1):
            pairs.setdefault(s + d - 1, []).append((k, s))
    return pairs


def buffer_layout(delays) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """The `sources` and `starts` of `delivery_order(delays)`, and the `due`
    of a buffer of `delays`, as one list per row.

    A row's sources come round by round, in the order of `deliveries`, up
    to the horizon, and then the ones due past it, by source round;
    `starts[k][t]` counts row k's pairs due before round t, for
    t = 0..T + 1; and `due` is each pair's round, cut at T + 1.
    """
    table = np.atleast_2d(delays).tolist()
    horizon = len(table[0])
    pairs = deliveries(table)
    sources, starts = [], []
    for k, row in enumerate(table):
        in_time = [s for t in sorted(pairs) if t <= horizon for r, s in pairs[t] if r == k]
        late = [s for s, d in enumerate(row, start=1) if s + d - 1 > horizon]
        sources.append(in_time + late)
        starts.append([sum(r == k for u in pairs if u < t for r, _ in pairs[u])
                       for t in range(horizon + 2)])
    due = [[min(s + d - 1, horizon + 1) for s, d in enumerate(row, start=1)] for row in table]
    return sources, starts, due
