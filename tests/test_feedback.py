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
    buf = FeedbackBuffer()
    buf.push(5, 3)
    assert tuple(buf.ready_at(7)[1]) == (5,)  # 5 + 3 - 1 = 7
    assert tuple(buf.ready_at(6)[1]) == ()


def test_no_delay_delivers_same_round():
    buf = FeedbackBuffer()
    buf.push(1, 1)
    assert tuple(buf.ready_at(1)[1]) == (1,)


def test_fixed_lag_pattern():
    # tau = 2 over rounds 1..10: nothing before round 3, then {t-2}.
    buf = FeedbackBuffer()
    for s in range(1, 11):
        buf.push(s, 3)
    assert tuple(buf.ready_at(1)[1]) == ()
    assert tuple(buf.ready_at(2)[1]) == ()
    for t in range(3, 11):
        assert tuple(buf.ready_at(t)[1]) == (t - 2,)


def test_multiple_deliveries_one_round():
    # delays (3, 1, 1): rounds 1 and 3 both deliver at t = 3.
    buf = FeedbackBuffer()
    for s, d in enumerate((3, 1, 1), start=1):
        buf.push(s, d)
    assert tuple(buf.ready_at(1)[1]) == ()
    assert tuple(buf.ready_at(2)[1]) == (2,)
    assert tuple(buf.ready_at(3)[1]) == (1, 3)


def test_delay_sum():
    buf = FeedbackBuffer()
    for s in range(1, 101):
        buf.push(s, 1)
    assert buf.delay_sum == 100

    buf = FeedbackBuffer()
    for s, d in enumerate((2, 5, 1), start=1):
        buf.push(s, d)
    assert buf.delay_sum == 8


def test_fixed_delay_sum_is_horizon_times_lag_plus_one():
    # sum of tau+1 over T rounds (the definition, applied to a fixed lag)
    tau, horizon = 4, 57
    buf = FeedbackBuffer()
    for s, d in enumerate(FixedDelay(tau).realize(horizon), start=1):
        buf.push(s, int(d))
    assert buf.delay_sum == horizon * (tau + 1)


def test_duplicate_push_is_an_error():
    buf = FeedbackBuffer()
    buf.push(1, 2)
    with pytest.raises(RuntimeError):
        buf.push(1, 5)


def test_delay_below_one_rejected():
    buf = FeedbackBuffer()
    with pytest.raises(ValueError):
        buf.push(1, 0)
    with pytest.raises(ValueError):
        ExplicitDelay((1, 0, 2))


def test_exactly_once_over_random_schedules():
    # Over an extended horizon the delivery sets partition {1..T}.
    rng = np.random.default_rng(2024)
    horizon = 60
    for _ in range(100):
        d_max = int(rng.integers(1, 15))
        delays = rng.integers(1, d_max + 1, size=horizon)
        buf = FeedbackBuffer()
        for s, d in enumerate(delays, start=1):
            buf.push(s, int(d))
        seen = []
        for t in range(1, horizon + d_max + 1):
            ready = buf.ready_at(t)[1].tolist()
            assert len(set(ready)) == len(ready)
            seen.extend(ready)
        assert sorted(seen) == list(range(1, horizon + 1))
        assert buf.delay_sum == int(delays.sum())


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
    buf = FeedbackBuffer()
    buf.push(1, 10**12)
    buf.push(2, 1)
    assert tuple(buf.ready_at(2)[1]) == (2,)
    assert tuple(buf.ready_at(10**12)[1]) == (1,)
    assert tuple(buf.ready_at(3)[1]) == ()
