import numpy as np
import pytest

from laglearn.feedback import (
    ExplicitDelay,
    FeedbackBuffer,
    FixedDelay,
    RandomDelay,
    delays_from_file,
)


def test_push_delivery_round():
    buf = FeedbackBuffer([1, 1, 1, 1, 3])
    assert tuple(buf.ready_at(7)[1]) == (5,)  # 5 + 3 - 1 = 7
    assert tuple(buf.ready_at(6)[1]) == ()


def test_no_delay_delivers_same_round():
    buf = FeedbackBuffer([1])
    assert tuple(buf.ready_at(1)[1]) == (1,)


def test_fixed_lag_pattern():
    # tau = 2 over rounds 1..10: nothing before round 3, then {t-2}.
    buf = FeedbackBuffer(FixedDelay(2).realize(10))
    assert tuple(buf.ready_at(1)[1]) == ()
    assert tuple(buf.ready_at(2)[1]) == ()
    for t in range(3, 11):
        assert tuple(buf.ready_at(t)[1]) == (t - 2,)


def test_multiple_deliveries_one_round():
    # delays (3, 1, 1): rounds 1 and 3 both deliver at t = 3.
    buf = FeedbackBuffer([3, 1, 1])
    assert tuple(buf.ready_at(1)[1]) == ()
    assert tuple(buf.ready_at(2)[1]) == (2,)
    assert tuple(buf.ready_at(3)[1]) == (1, 3)


def test_two_rows_are_split_exactly_once_in_row_then_source_order():
    # Row 0 delays (3, 1, 2, 1), row 1 delays (1, 4, 1, 2): due rounds
    # (3, 2, 4, 4) and (1, 5, 3, 5).
    buf = FeedbackBuffer([[3, 1, 2, 1], [1, 4, 1, 2]])
    pairs = {t: list(zip(*(a.tolist() for a in buf.ready_at(t)))) for t in range(1, 7)}
    assert pairs == {1: [(1, 1)], 2: [(0, 2)], 3: [(0, 1), (1, 3)], 4: [(0, 3), (0, 4)],
                     5: [(1, 2), (1, 4)], 6: []}
    for row in (0, 1):
        sources = [s for ready in pairs.values() for r, s in ready if r == row]
        assert sorted(sources) == [1, 2, 3, 4]
    # Due within the horizon of 4; the latest source due at each round 0..4.
    assert buf.in_time.tolist() == [[True, True, True, True], [True, False, True, False]]
    assert buf.newest.tolist() == [0, 1, 2, 3, 4]


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


def test_exactly_once_over_random_schedules():
    # Over an extended horizon the delivery sets partition {1..T}.
    rng = np.random.default_rng(2024)
    horizon = 60
    for _ in range(100):
        d_max = int(rng.integers(1, 15))
        delays = rng.integers(1, d_max + 1, size=horizon)
        buf = FeedbackBuffer(delays)
        seen = []
        for t in range(1, horizon + d_max + 1):
            ready = buf.ready_at(t)[1].tolist()
            assert len(set(ready)) == len(ready)
            seen.extend(ready)
        assert sorted(seen) == list(range(1, horizon + 1))


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
    buf = FeedbackBuffer([10**12, 1])
    assert tuple(buf.ready_at(2)[1]) == (2,)
    assert tuple(buf.ready_at(10**12)[1]) == (1,)
    assert tuple(buf.ready_at(3)[1]) == ()
