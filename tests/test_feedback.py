import numpy as np
import pytest

from delivery_oracle import buffer_layout, deliveries
from laglearn.feedback import (
    ExplicitDelay,
    FeedbackBuffer,
    FixedDelay,
    RandomDelay,
    delays_from_file,
    delivery_order,
)


def buffer_of(delays):
    """The buffer of `delays` and its `delivery_order`, once both are checked
    against the delivery oracle, row by row.  The order is int32."""
    buf = FeedbackBuffer(delays)
    order = delivery_order(delays)
    sources, starts, due = buffer_layout(delays)
    assert [a.tolist() for a in order] == [sources, starts]
    assert [a.dtype for a in order] == [np.int32] * 2
    assert buf.due.tolist() == due
    return buf, order


def test_push_delivery_round():
    buffer_of([1, 1, 1, 1, 3])
    assert deliveries([1, 1, 1, 1, 3]) == {1: [(0, 1)], 2: [(0, 2)], 3: [(0, 3)], 4: [(0, 4)],
                                           7: [(0, 5)]}  # 5 + 3 - 1 = 7


def test_no_delay_delivers_same_round():
    _, (_, (starts,)) = buffer_of([1])
    assert deliveries([1]) == {1: [(0, 1)]}
    assert starts.tolist() == [0, 0, 1]


def test_fixed_lag_pattern():
    # tau = 2 over rounds 1..10: nothing before round 3, then {t-2}.
    delays = FixedDelay(2).realize(10)
    _, (_, (starts,)) = buffer_of(delays)
    assert deliveries(delays) == {t: [(0, t - 2)] for t in range(3, 13)}
    assert starts.tolist() == [0, 0, 0, 0] + list(range(1, 9))


def test_multiple_deliveries_one_round():
    # delays (3, 1, 1): rounds 1 and 3 both deliver at t = 3.
    _, ((sources,), (starts,)) = buffer_of([3, 1, 1])
    assert deliveries([3, 1, 1]) == {2: [(0, 2)], 3: [(0, 1), (0, 3)]}
    assert sources[starts[3]:starts[4]].tolist() == [1, 3]


def test_two_rows_are_split_exactly_once_in_row_then_source_order():
    # Row 0 delays (3, 1, 2, 1), row 1 delays (1, 4, 1, 2): due rounds
    # (3, 2, 4, 4) and (1, 5, 3, 5).
    delays = [[3, 1, 2, 1], [1, 4, 1, 2]]
    buf, (sources, starts) = buffer_of(delays)
    # Each row in its own order; row 1's sources 2 and 4 are due past the horizon.
    assert sources.tolist() == [[2, 1, 3, 4], [1, 3, 2, 4]]
    assert starts.tolist() == [[0, 0, 0, 1, 2, 4], [0, 0, 1, 1, 2, 2]]
    pairs = deliveries(delays)
    assert pairs == {1: [(1, 1)], 2: [(0, 2)], 3: [(0, 1), (1, 3)], 4: [(0, 3), (0, 4)],
                     5: [(1, 2), (1, 4)]}
    for row in (0, 1):
        sources = [s for ready in pairs.values() for r, s in ready if r == row]
        assert sorted(sources) == [1, 2, 3, 4]
    # Due within the horizon of 4, or at 5 for past it; each round delivers
    # a source later than the last.
    assert buf.due.tolist() == [[3, 2, 4, 4], [1, 5, 3, 5]]
    assert buf.takes == [1, 2, 3, 4]


def test_fixed_delay_sum_is_horizon_times_lag_plus_one():
    # sum of tau+1 over T rounds (the definition, applied to a fixed lag)
    tau, horizon = 4, 57
    assert int(FixedDelay(tau).realize(horizon).sum()) == horizon * (tau + 1)


def test_delay_below_one_rejected():
    with pytest.raises(ValueError):
        FeedbackBuffer([1, 0])
    with pytest.raises(ValueError):
        ExplicitDelay((1, 0, 2))
    with pytest.raises(ValueError, match="d_max must be >= 1"):
        RandomDelay(d_max=0, seed=1)


def test_an_explicit_delay_must_fit_in_int64():
    assert ExplicitDelay((1, 2**63 - 1)).realize(2).tolist() == [1, 2**63 - 1]
    for delays in ((1, 2**63), (2**64, 1), (1.5,)):
        with pytest.raises(ValueError, match="delays must be integers from 1 to"):
            ExplicitDelay(delays)


def test_a_buffer_rejects_a_due_round_past_int64():
    # Source round 2 with delay 2**63 - 2 is due at round 2**63 - 1, the int64 maximum.
    buf, _ = buffer_of([1, 2**63 - 2, 1])
    assert buf.takes == [1, 3]
    assert deliveries([1, 2**63 - 2, 1])[2**63 - 1] == [(0, 2)]
    with pytest.raises(ValueError, match=f"source round 2 of row 0 .* due at round {2**63},"):
        FeedbackBuffer([1, 2**63 - 1, 1])
    with pytest.raises(ValueError, match=f"source round 3 of row 1 .* due at round {2**63},"):
        FeedbackBuffer([[1, 1, 1], [1, 1, 2**63 - 2]])
    empty = FeedbackBuffer([])  # no delay to check, and no pair
    assert delivery_order([])[1].tolist() == [[0, 0]] and empty.takes == []


def test_exactly_once_over_random_schedules():
    # The buffer lays each row's pairs out as the oracle does, the ones due
    # past the horizon included, and holds each source round of a row once.
    rng = np.random.default_rng(2024)
    horizon = 60
    for _ in range(100):
        d_max = int(rng.integers(1, 15))
        delays = rng.integers(1, d_max + 1, size=(int(rng.integers(1, 4)), horizon))
        delays[rng.random(delays.shape) < 0.05] = horizon + 5
        _, (sources, _) = buffer_of(delays)
        assert all(sorted(row) == list(range(1, horizon + 1)) for row in sources.tolist())


def test_take_rounds_are_where_a_round_delivers_a_source_past_the_last_take():
    # The scan the game loop once ran round by round: round t is a take
    # round when the latest source round it delivers, in any row, is later
    # than the last take round.  Rows of random delays, some past the
    # horizon, some of them all in time.
    rng = np.random.default_rng(19)
    for _ in range(200):
        horizon = int(rng.integers(1, 40))
        rows = int(rng.integers(1, 4))
        delays = rng.integers(1, int(rng.integers(1, 12)) + 1, size=(rows, horizon))
        delays[rng.random(delays.shape) < 0.1] = horizon + 3
        buf = FeedbackBuffer(delays)
        pairs = deliveries(delays)
        takes, ready = [], 0
        for t in range(1, horizon + 1):
            newest = max((s for _, s in pairs.get(t, [])), default=0)
            if newest > ready:
                takes.append(t)
                ready = t
        assert buf.takes == takes


def test_schedules_realize():
    assert np.array_equal(FixedDelay(2).realize(4), [3, 3, 3, 3])
    explicit = ExplicitDelay((2, 5, 1, 7))
    assert np.array_equal(explicit.realize(3), [2, 5, 1])
    with pytest.raises(ValueError):
        explicit.realize(9)
    rand = RandomDelay(d_max=6, seed=99)
    first = rand.realize(50)
    assert np.array_equal(first, rand.realize(50))  # deterministic per seed
    assert first.min() >= 1 and first.max() <= 6


def test_delays_from_file(tmp_path):
    path = tmp_path / "delays.txt"
    path.write_text("3\n1\n\n4\n", encoding="utf-8")
    schedule = delays_from_file(path)
    assert schedule.delays == (3, 1, 4)
    bad = tmp_path / "bad.txt"
    bad.write_text("3\nx\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt:2"):
        delays_from_file(bad)


def test_a_huge_delay_is_delivered_once_without_a_table_up_to_it():
    buf, (_, (starts,)) = buffer_of([10**12, 1])
    assert deliveries([10**12, 1]) == {2: [(0, 2)], 10**12: [(0, 1)]}
    assert starts.tolist() == [0, 0, 0, 1]  # the late pair comes last
    assert buf.due.tolist() == [[3, 2]]
