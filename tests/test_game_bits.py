"""The game loop against a reference loop that takes each gradient when its round is played.

The gradient learner, which `run_game` hands the whole game in one `play`
call, takes gradients in blocks of the rounds played since its last take
round, at the decisions it recorded, and puts each at once into the total
of the round it is due at: a fixed lag's one gradient per round is copied
in, and other delays add theirs to +0.0 as the takes come, in source
order.  It plays the rounds up to the next take round as one block:
it forms the block's moves at once from eta and beta tables and a slice
of those totals, skips a disabled pull, walks the Euclidean map as one
running sum that it projects once and sums again only from a round where
the projection moved a point, and keeps the warm-up rounds of a fixed lag
unprojected.  A game of one trial on a 1-d ball is played round by round
in Python floats instead, as the reference plays it: it takes each
gradient when its round is played and adds it into the total of its due
round, with the same float operations in the same order, so the one-trial
cases here test that game.  None of that may change a bit: every
estimate must equal the reference's as a uint64 pattern, so even a
flipped sign of zero fails.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest

from delivery_oracle import deliveries
from laglearn import learners
from laglearn.environment import (ExplicitStream, GaussianStream, LinearScoring, draw,
                                  fixed_loss, run_game, uniform_quadratic)
from laglearn.feedback import ExplicitDelay, FeedbackBuffer, FixedDelay, RandomDelay
from laglearn.geometry import Ball, NegativeEntropyMap, Simplex, regular_polygon
from laglearn.learners import (ROUND_CHUNK, ConstantStep, GradientLearner, InverseSqrtStep,
                               InverseTimeStep, NonFiniteGradient)
from laglearn.losses import ExpLoss, Loss, NormLoss, PowerLoss, QuadraticLoss

HORIZON = 240

FACTORIES = {
    "norm": fixed_loss(NormLoss),
    "power": fixed_loss(PowerLoss, m=3),
    "quadratic": uniform_quadratic(),
}


def step_sizes(schedule, t):
    """eta(t) and beta(t) by the schedule's formula: zero through the warm-up t <= tau."""
    if t <= schedule.tau:
        return 0.0, 0.0
    if isinstance(schedule, InverseSqrtStep):
        eta = schedule.sigma / math.sqrt(t - schedule.tau)
    elif isinstance(schedule, InverseTimeStep):
        eta = 1.0 / (schedule.gamma * (t - schedule.tau))
    else:
        eta = schedule.value
    return eta, eta if schedule.beta_override is None else schedule.beta_override


def pull(lam, coupled, eta, next_known, dim):
    """The pull by its formula: weight lam, or lam * eta when coupled, times
    the next known context cut to `dim`; zeros past the last round or at
    weight 0."""
    weight = lam * eta if coupled else lam
    if next_known is None or not np.any(weight):
        return np.zeros(dim)
    return weight * next_known[..., :dim]


# (lam, coupled): no pull, a constant pull, and a coupled pull of either sign.
PULLS = [pytest.param(0.0, False, id="0.0"), pytest.param(0.3, False, id="0.3"),
         pytest.param(1.0, True, id="coupled"), pytest.param(-1.0, True, id="negative-coupled")]


def reference_estimates(body, schedule, lam, coupled, streams, delays, loss_factory, horizon,
                        seeds, mirror=None):
    """The decisions of the loop as it was: round-major (horizon, trials, dim).

    Each round's gradient is taken when the round is played and held until
    its due round, s + d - 1, which the delivery oracle gives; a delivery
    set is summed into zeros with `np.add.at`;
    eta(t), beta(t) and the pull come from their formulas, the pull is
    taken every round, and every round ends in a projection.  With a
    `mirror`, the loop starts at the map's initial point, leaves the
    warm-up rounds t <= tau alone and ends every other round in
    `mirror.update`, with no projection.  A move with a NaN or infinite
    entry raises NonFiniteGradient, naming its round and whether the
    gradients were already bad.
    """
    trials = len(streams)
    pairs = deliveries([delay.realize(horizon) for delay in delays])
    drawn = [stream.take(horizon) for stream in streams]
    loss = Loss.stack([loss_factory(hidden, np.random.default_rng(seed))
                       for (_, hidden), seed in zip(drawn, seeds)])
    known = np.stack([k for k, _ in drawn], axis=1)
    x = np.zeros((trials, body.dim))
    if mirror is not None:
        x += mirror.initial_point(body.dim)
    estimates = np.empty((horizon, trials, body.dim))
    feedback = np.empty((horizon, trials, body.dim))
    for i in range(horizon):
        t = i + 1
        estimates[i] = x
        feedback[i] = loss.grad(x, at=(slice(None), i))
        rows, sources = np.array(pairs.get(t, []), dtype=np.intp).reshape(-1, 2).T
        total = np.zeros(x.shape)
        np.add.at(total, rows, feedback[sources - 1, rows])
        eta, beta = step_sizes(schedule, t)
        next_known = known[i + 1] if t < horizon else None
        move = beta * pull(lam, coupled, eta, next_known, body.dim) - eta * total
        if not np.isfinite(move).all():
            what = "gradient" if not np.isfinite(total).all() else "step"
            raise NonFiniteGradient(f"{what} has NaN or infinite entries at round {t}")
        if mirror is None:
            x = body.project(x + move)
        elif t > schedule.tau:
            x = mirror.update(x, move)
    return estimates


def _pieces(trials, dim, d_max, seed):
    streams = [GaussianStream(d1=dim, d2=dim, mean=1.0, rho=0.5, seed=seed + k)
               for k in range(trials)]
    delays = [RandomDelay(d_max=d_max, seed=seed + 100 + k) for k in range(trials)]
    return streams, delays, [seed + 200 + k for k in range(trials)]


# Learner bodies, with anchors near (1, ..., 1): the iterate often sits on
# the boundary.  The pentagon does not hold the start point, the origin, so
# round 1 must step even when it delivers nothing.
BODIES = {
    "unit-ball-1d": Ball([0.0], 1.0),
    "unit-ball-2d": Ball([0.0, 0.0], 1.0),
    "off-center-ball-1d": Ball([0.3], 0.7),
    "off-center-ball-2d": Ball([0.3, -0.2], 0.7),
    "pentagon": regular_polygon(5, center=(1.0, 1.0), circumradius=1.0),
}


@pytest.mark.parametrize("lam, coupled", PULLS)
@pytest.mark.parametrize("family", sorted(FACTORIES))
@pytest.mark.parametrize("body", sorted(BODIES))
@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("d_max", [1, 3, 20])
def test_game_matches_the_play_time_reference_bit_for_bit(d_max, trials, body, family, lam,
                                                          coupled):
    body = BODIES[body]
    dim = body.dim
    schedule = ConstantStep(value=[0.2, 0.35, 0.5][:trials])
    seed = 7 * d_max + 3 * trials + dim
    streams, delays, seeds = _pieces(trials, dim, d_max, seed)
    learner = GradientLearner(body, schedule, lam, coupled)
    played = run_game(learner, draw(streams, FACTORIES[family], HORIZON, seeds),
                      delays, LinearScoring.default(dim, dim)).estimates

    streams, delays, seeds = _pieces(trials, dim, d_max, seed)
    expected = reference_estimates(body, schedule, lam, coupled, streams, delays,
                                   FACTORIES[family], HORIZON, seeds)
    assert np.array_equal(played.view(np.uint64), np.swapaxes(expected, 0, 1).view(np.uint64))


SCHEDULES = {
    "sqrt": lambda tau, beta, trials=3: InverseSqrtStep(sigma=0.6, tau=tau, beta_override=beta),
    "inverse-time": lambda tau, beta, trials=3: InverseTimeStep(gamma=1.5, tau=tau,
                                                                beta_override=beta),
    "per-trial": lambda tau, beta, trials=3: ConstantStep(value=[0.2, 0.35, 0.5][:trials],
                                                          tau=tau, beta_override=beta),
}


@pytest.mark.parametrize("lam, coupled", PULLS)
@pytest.mark.parametrize("family", sorted(FACTORIES))
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("beta", [None, 0.05])
@pytest.mark.parametrize("tau", [0, 3])
@pytest.mark.parametrize("kind", sorted(SCHEDULES))
@pytest.mark.parametrize("trials", [1, 3])
def test_fixed_lag_game_matches_the_play_time_reference_bit_for_bit(trials, kind, tau, beta, dim,
                                                                    family, lam, coupled):
    # One or three trials under one fixed lag: the learner delivers one
    # gradient per row without `np.add.at`, reads eta (decaying, or one
    # constant per trial) and beta (eta, or a constant override) from its
    # table, and skips the warm-up rounds t <= tau.  One trial in 1-d is
    # played in floats, which must keep the warm-up and copy its gradients
    # in as the array game does.
    body = Ball(np.zeros(dim), 1.0)
    schedule = SCHEDULES[kind](tau, beta, trials)
    seed = 11 * tau + dim
    streams, _, seeds = _pieces(trials, dim, 1, seed)
    learner = GradientLearner(body, schedule, lam, coupled)
    played = run_game(learner, draw(streams, FACTORIES[family], HORIZON, seeds),
                      [FixedDelay(tau)] * trials, LinearScoring.default(dim, dim)).estimates

    streams, _, seeds = _pieces(trials, dim, 1, seed)
    expected = reference_estimates(body, schedule, lam, coupled, streams,
                                   [FixedDelay(tau)] * trials, FACTORIES[family], HORIZON, seeds)
    assert np.array_equal(played.view(np.uint64), np.swapaxes(expected, 0, 1).view(np.uint64))



def _mixed_schedules(horizon, seed):
    """Three trials' delays: every round delivers itself; random delays with
    some past the horizon; random delays up to 20 with the last rounds late."""
    rng = np.random.default_rng(seed)
    late = rng.integers(1, 6, size=horizon)
    late[rng.random(horizon) < 0.2] = horizon + 5
    tail = rng.integers(1, 21, size=horizon)
    tail[-15:] = 40
    return [FixedDelay(0), ExplicitDelay(tuple(late.tolist())),
            ExplicitDelay(tuple(tail.tolist()))]


@pytest.mark.parametrize("lam, coupled", [PULLS[0], PULLS[2], PULLS[3]])
@pytest.mark.parametrize("family", sorted(FACTORIES))
@pytest.mark.parametrize("dim", [1, 2])
def test_mixed_delay_schedules_match_the_play_time_reference_bit_for_bit(dim, family, lam,
                                                                         coupled):
    # One trial's rounds deliver themselves while another's wait or never
    # arrive: a block then holds gradients that are delivered later, or
    # never, and rounds deliver to some trials and not others.
    trials = 3
    body = Ball(np.zeros(dim), 1.0)
    schedule = ConstantStep(value=[0.2, 0.35, 0.5])
    seed = 31 + dim
    streams, _, seeds = _pieces(trials, dim, 1, seed)
    learner = GradientLearner(body, schedule, lam, coupled)
    played = run_game(learner, draw(streams, FACTORIES[family], HORIZON, seeds),
                      _mixed_schedules(HORIZON, seed), LinearScoring.default(dim, dim)).estimates

    streams, _, seeds = _pieces(trials, dim, 1, seed)
    expected = reference_estimates(body, schedule, lam, coupled, streams,
                                   _mixed_schedules(HORIZON, seed), FACTORIES[family],
                                   HORIZON, seeds)
    assert np.array_equal(played.view(np.uint64), np.swapaxes(expected, 0, 1).view(np.uint64))


@pytest.mark.parametrize("trials", [1, 2])
def test_a_round_sums_gradients_of_several_takes_in_source_order(trials):
    # Round 6 delivers sources 1, 3, 4 and 6, taken at rounds 2, 5, 5 and 6.
    # Trial 0's gradients of sources 1 and 3 are 1e16 and -1e16, and that of
    # source 4 is 0.2: added in source order onto +0.0 they leave 0.2, but a
    # sum per take added to the round's total loses it.  Trial 1 has the
    # same delays and small anchors.  Alone, trial 0 is played in floats.
    horizon = 12
    delays = (6, 1, 4, 3, 1, 1, 1, 1, 1, 1, 1, 1)
    hidden = [np.zeros((horizon, 1)), np.random.default_rng(2).uniform(-1, 1, (horizon, 1))]
    hidden[0][:5, 0] = (-5e15, 0.5, 5e15, 0.0, 0.5)
    assert FeedbackBuffer(delays).takes[:3] == [2, 5, 6]
    assert deliveries(delays)[6] == [(0, 1), (0, 3), (0, 4), (0, 6)]

    def streams():
        return [ExplicitStream(np.zeros((horizon, 1)), h) for h in hidden[:trials]]

    body, schedule = Ball([0.0], 1.0), ConstantStep(value=[0.1, 0.2][:trials])
    schedules, factory = [ExplicitDelay(delays)] * trials, fixed_loss(QuadraticLoss, a=1.0)
    learner = GradientLearner(body, schedule)
    with (mock.patch.object(Loss, "grad", autospec=True, side_effect=Loss.grad) as grad,
          mock.patch.object(QuadraticLoss, "float_grad", autospec=True,
                            side_effect=QuadraticLoss.float_grad) as float_grad):
        played = run_game(learner, draw(streams(), factory, horizon, [0] * trials),
                          schedules, LinearScoring.default(1, 1)).estimates
    expected = reference_estimates(body, schedule, 0.0, False, streams(), schedules, factory,
                                   horizon, [0] * trials)
    assert (grad.called, float_grad.called) == (trials > 1, trials == 1)
    assert played[0, 3, 0] == 0.1  # the decision of round 4, whose gradient is 0.2
    assert np.array_equal(played.view(np.uint64), np.swapaxes(expected, 0, 1).view(np.uint64))


def test_a_fixed_lag_keeps_a_negative_zero_gradient_as_it_is():
    # The learner starts at -0.0 on anchors +0.0, so its first gradients are
    # -0.0, and a negative weight on known contexts +0.0 pulls by -0.0.  A
    # fixed lag's one gradient per round is its total as it is: the move
    # -0.0 - eta * -0.0 is +0.0, which takes the iterate to +0.0 after the
    # warm-up.  Added to a total of +0.0 it would keep the iterate at -0.0.
    # A start at -0.0 is out of the reference's reach: the iterate of a
    # game that starts at +0.0 is never -0.0, and then the sign of a zero
    # total changes no bit.
    horizon, tau = 30, 2
    learner = GradientLearner(Ball([0.0], 1.0), ConstantStep(value=0.5, tau=tau), lam=-0.3)
    learner.estimate = np.array([-0.0])
    played = run_game(learner,
                      draw([ExplicitStream(np.zeros((horizon, 1)), np.zeros((horizon, 1)))],
                           fixed_loss(QuadraticLoss, a=1.0), horizon, [0]),
                      [FixedDelay(tau)], LinearScoring.default(1, 1)).estimates[0, :, 0]
    assert not played.any()
    assert np.signbit(played).tolist() == [True] * (tau + 1) + [False] * (horizon - tau - 1)


def _simplex_streams(trials, horizon, seed):
    """One stream per trial: Gaussian known parts, Dirichlet hidden points on the 3-simplex."""
    rng = np.random.default_rng(seed)
    return [ExplicitStream(rng.standard_normal((horizon, 4)),
                           rng.dirichlet([2.0, 1.0, 0.5], horizon)) for _ in range(trials)]


@pytest.mark.parametrize("lam, coupled", [PULLS[0], PULLS[1], PULLS[2]])
@pytest.mark.parametrize("family", sorted(FACTORIES))
@pytest.mark.parametrize("tau", [0, 3])
@pytest.mark.parametrize("kind", sorted(SCHEDULES))
def test_entropic_fixed_lag_game_matches_the_update_reference_bit_for_bit(kind, tau, family,
                                                                          lam, coupled):
    # omd with the negative-entropy map on the simplex: no projection and no
    # running sum, so each block takes its moves one round after another.
    trials, body = 3, Simplex(3)
    schedule = SCHEDULES[kind](tau, None)
    seed = 41 + tau
    learner = GradientLearner(body, schedule, lam, coupled, NegativeEntropyMap())
    played = run_game(learner,
                      draw(_simplex_streams(trials, HORIZON, seed), FACTORIES[family], HORIZON,
                           [seed + k for k in range(trials)]),
                      [FixedDelay(tau)] * trials, LinearScoring.default(4, 3)).estimates
    expected = reference_estimates(body, schedule, lam, coupled,
                                   _simplex_streams(trials, HORIZON, seed),
                                   [FixedDelay(tau)] * trials, FACTORIES[family], HORIZON,
                                   [seed + k for k in range(trials)], NegativeEntropyMap())
    assert np.isclose(played.sum(axis=-1), 1.0).all()
    assert np.array_equal(played.view(np.uint64), np.swapaxes(expected, 0, 1).view(np.uint64))


@pytest.mark.parametrize("what", ["gradient", "step"])
@pytest.mark.parametrize("delays", ["fixed", "random"])
@pytest.mark.parametrize("trials", [1, 2])
def test_a_move_that_overflows_in_a_block_names_the_reference_round_and_kind(trials, delays,
                                                                              what):
    # The far trial's anchor of round 37 sits far away.  At 1e308 its
    # quadratic gradient overflows; at 1e10 the gradient is finite, but a
    # step of 1e300 times it is not.  Under a fixed lag of 4 it is delivered
    # at round 41, inside the block of rounds 40..44; under its random
    # delays, at round 40, inside the block of rounds 39 and 40 next to a
    # near trial, or of rounds 39..41 alone.  Alone, the far trial is played
    # in floats.
    horizon, tau = 80, (4 if delays == "fixed" else 0)

    def streams():
        rng = np.random.default_rng(5)
        hidden = rng.uniform(-0.5, 0.5, (2, horizon, 1))
        hidden[1, 36] = 1e308 if what == "gradient" else 1e10
        return [ExplicitStream(np.zeros((horizon, 1)), h) for h in hidden[2 - trials:]]

    schedule = ConstantStep(value=0.1 if what == "gradient" else 1e300, tau=tau)
    schedules = ([FixedDelay(tau)] * trials if delays == "fixed"
                 else [RandomDelay(d_max=6, seed=s) for s in (3, 4)[2 - trials:]])
    factory, body = fixed_loss(QuadraticLoss, a=1.0), Ball([0.0], 1.0)
    with pytest.raises(NonFiniteGradient) as played:
        run_game(GradientLearner(body, schedule), draw(streams(), factory, horizon, [0] * trials),
                 schedules, LinearScoring.default(1, 1))
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(NonFiniteGradient) as expected):
        reference_estimates(body, schedule, 0.0, False, streams(), schedules, factory, horizon,
                            [0] * trials)
    bad_round = 41 if delays == "fixed" else 40
    assert str(played.value) == str(expected.value)
    assert str(played.value) == f"{what} has NaN or infinite entries at round {bad_round}"
    buffer = FeedbackBuffer(np.stack([schedule.realize(horizon) for schedule in schedules]))
    assert bad_round not in buffer.takes  # not the first round of its block


@pytest.mark.parametrize("trials", [1, 2])
def test_undelivered_rounds_whose_gradients_overflow_leave_the_game_as_it_was(trials):
    # The last trial plays 0.0 throughout: its delivered anchors are 0.0, where the
    # exp loss has gradient 0.  Its anchors at 26.6 come in rounds whose
    # delays run past the horizon: there exp(26.6^2) is finite, so every loss
    # value is, but the gradient 2 * 26.6 * exp(26.6^2) overflows.  A block
    # that covers those rounds takes that gradient and never reads it; alone,
    # the trial is played in floats.
    horizon, far = 40, 26.6
    hidden = [np.random.default_rng(3).uniform(-0.5, 0.5, (horizon, 1)), np.zeros((horizon, 1))]
    hidden[1][20:30] = far
    delays = np.ones(horizon, dtype=np.int64)
    delays[20:30] = horizon

    def streams():
        return [ExplicitStream(np.zeros((horizon, 1)), h) for h in hidden[2 - trials:]]

    schedules = [RandomDelay(d_max=4, seed=9),
                 ExplicitDelay(tuple(delays.tolist()))][2 - trials:]
    factory = fixed_loss(ExpLoss, a=1.0, s=1.0, m=2)
    body, schedule = Ball([0.0], 1.0), ConstantStep(value=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_game(GradientLearner(body, schedule),
                        draw(streams(), factory, horizon, [0] * trials),
                        schedules, LinearScoring.default(1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(traj.loss[-1].grad(traj.estimates[-1])[20:30]).any()
        expected = reference_estimates(body, schedule, 0.0, False, streams(), schedules, factory,
                                       horizon, [0] * trials)
    assert np.isfinite(traj.loss_values).all() and traj.flags == ()
    assert np.array_equal(traj.estimates[-1], np.zeros((horizon, 1)))
    assert np.array_equal(traj.estimates.view(np.uint64),
                          np.swapaxes(expected, 0, 1).view(np.uint64))


@pytest.mark.parametrize("tau", [0, 4, 9])
@pytest.mark.parametrize("horizon", [100, 103])
def test_a_fixed_lag_takes_one_gradient_call_per_tau_plus_one_rounds(monkeypatch, tau, horizon):
    # Round t delivers round t - tau: the block of the tau + 1 rounds since
    # the last one.  Rounds past the last full block are never delivered.
    calls = []
    grad = Loss.grad

    def counted(self, x, at=...):
        calls.append(at)
        return grad(self, x, at)

    monkeypatch.setattr(Loss, "grad", counted)
    streams, _, seeds = _pieces(2, 1, 1, 5)
    learner = GradientLearner(Ball([0.0], 4.0), InverseSqrtStep(sigma=0.5, tau=tau))
    run_game(learner, draw(streams, uniform_quadratic(), horizon, seeds),
             [FixedDelay(tau)] * 2, LinearScoring.default(1, 1))
    assert len(calls) == horizon // (tau + 1)
    assert calls == [(slice(None), slice(k, k + tau + 1))
                     for k in range(0, horizon - tau, tau + 1)]


@pytest.mark.parametrize("tau", [0, 3])
def test_one_trial_past_a_chunk_takes_its_own_gradients_in_one_play_call(monkeypatch, tau):
    # Past ROUND_CHUNK rounds the float game reads its inputs in a second
    # chunk, and gradients taken in the first are due in the second.  Alone,
    # trial 0 must give the bytes of its row in a batch of two, which the
    # array game plays, with no `Loss.grad` call, and without building take
    # rounds or a delivery order.
    horizon = ROUND_CHUNK + 7

    def game(trials):
        streams, delays, seeds = _pieces(2, 1, 20, 3)
        if tau:
            delays = [FixedDelay(tau)] * 2
        learner = GradientLearner(Ball([0.3], 0.7), InverseSqrtStep(sigma=0.6, tau=tau), 1.0, True)
        return run_game(learner,
                        draw(streams[:trials], uniform_quadratic(), horizon, seeds[:trials]),
                        delays[:trials], LinearScoring.default(1, 1)).estimates

    together = game(2)

    def refuse(*args, **kwargs):
        raise AssertionError("the one-trial game took a gradient block or a delivery schedule")

    monkeypatch.setattr(Loss, "grad", refuse)
    monkeypatch.setattr(FeedbackBuffer, "takes", property(refuse))
    monkeypatch.setattr(learners, "delivery_order", refuse)
    alone = game(1)
    assert np.array_equal(alone[0].view(np.uint64), together[0].view(np.uint64))
