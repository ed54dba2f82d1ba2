"""The game loop against a reference loop that takes each gradient when its round is played.

`run_game` takes a gradient when it is delivered, at the decision the game
recorded, sums a row's one gradient without `np.add.at`, reads eta and beta
from a table, skips a disabled pull, skips the warm-up rounds of a fixed
lag and returns at once from a round that delivers nothing.  None of that
may change a bit: every estimate must equal the reference's as a uint64
pattern, so even a flipped sign of zero fails.
"""

import math

import numpy as np
import pytest

from laglearn.environment import (GaussianStream, LinearScoring, fixed_loss, run_game,
                                  uniform_quadratic)
from laglearn.feedback import FeedbackBuffer, FixedDelay, RandomDelay
from laglearn.geometry import Ball
from laglearn.learners import (ConstantStep, GradientLearner, Influence, InverseSqrtStep,
                               InverseTimeStep)
from laglearn.losses import Loss, NormLoss, PowerLoss

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


def reference_estimates(body, schedule, influence, streams, delays, loss_factory, horizon, seeds):
    """The decisions of the loop as it was: round-major (horizon, trials, dim).

    Each round's gradient is taken when the round is played and held until
    its due round; a delivery set is summed into zeros with `np.add.at`;
    eta(t) and beta(t) come from the schedule's formula, the pull is taken
    every round, and every round ends in a projection.
    """
    trials = len(streams)
    delay_values = np.stack([delay.realize(horizon) for delay in delays])
    drawn = [stream.take(horizon) for stream in streams]
    loss = Loss.stack([loss_factory(hidden, np.random.default_rng(seed))
                       for (_, hidden), seed in zip(drawn, seeds)], axis=1)
    known = np.stack([k for k, _ in drawn], axis=1)
    buffer = FeedbackBuffer(delay_values)
    x = np.zeros((trials, body.dim))
    estimates = np.empty((horizon, trials, body.dim))
    feedback = np.empty((horizon, trials, body.dim))
    for i in range(horizon):
        t = i + 1
        estimates[i] = x
        feedback[i] = loss.grad(x, at=i)
        rows, sources = buffer.ready_at(t)
        total = np.zeros(x.shape)
        np.add.at(total, rows, feedback[sources - 1, rows])
        eta, beta = step_sizes(schedule, t)
        next_known = known[i + 1] if t < horizon else None
        move = beta * influence.pull(next_known, eta) - eta * total
        x = body.project(x + move)
    return estimates


def _pieces(trials, dim, d_max, seed):
    streams = [GaussianStream(d1=dim, d2=dim, mean=1.0, rho=0.5, seed=seed + k)
               for k in range(trials)]
    delays = [RandomDelay(d_max=d_max, seed=seed + 100 + k) for k in range(trials)]
    return streams, delays, [seed + 200 + k for k in range(trials)]


@pytest.mark.parametrize("lam", [0.0, 0.3, "coupled"])
@pytest.mark.parametrize("family", sorted(FACTORIES))
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("d_max", [1, 3, 20])
def test_game_matches_the_play_time_reference_bit_for_bit(d_max, trials, dim, family, lam):
    # A unit ball around the origin with anchors near (1, ..., 1): the
    # iterate often sits on the boundary, where a second projection of a
    # projected point can move it by a rounding.
    body = Ball(np.zeros(dim), 1.0)
    schedule = ConstantStep(value=[0.2, 0.35, 0.5][:trials])
    influence = (Influence.coupled(dim) if lam == "coupled"
                 else Influence.constant(lam, dim))
    seed = 7 * d_max + 3 * trials + dim
    streams, delays, seeds = _pieces(trials, dim, d_max, seed)
    learner = GradientLearner(body, schedule, influence, any_delays=True)
    played = run_game(learner, streams, delays, FACTORIES[family],
                      LinearScoring.default(dim, dim), HORIZON, seeds).estimates

    streams, delays, seeds = _pieces(trials, dim, d_max, seed)
    expected = reference_estimates(body, schedule, influence, streams, delays,
                                   FACTORIES[family], HORIZON, seeds)
    assert np.array_equal(played.view(np.uint64), np.swapaxes(expected, 0, 1).view(np.uint64))


SCHEDULES = {
    "sqrt": lambda tau, beta: InverseSqrtStep(sigma=0.6, tau=tau, beta_override=beta),
    "inverse-time": lambda tau, beta: InverseTimeStep(gamma=1.5, tau=tau, beta_override=beta),
    "per-trial": lambda tau, beta: ConstantStep(value=[0.2, 0.35, 0.5], tau=tau,
                                                beta_override=beta),
}


@pytest.mark.parametrize("lam", [0.0, 0.3, "coupled"])
@pytest.mark.parametrize("family", sorted(FACTORIES))
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("beta", [None, 0.05])
@pytest.mark.parametrize("tau", [0, 3])
@pytest.mark.parametrize("kind", sorted(SCHEDULES))
def test_fixed_lag_game_matches_the_play_time_reference_bit_for_bit(kind, tau, beta, dim, family,
                                                                    lam):
    # Three trials under one fixed lag: the learner delivers one gradient
    # per row without `np.add.at`, reads eta (decaying, or one constant per
    # trial) and beta (eta, or a constant override) from its table, and
    # skips the warm-up rounds t <= tau.
    trials = 3
    body = Ball(np.zeros(dim), 1.0)
    schedule = SCHEDULES[kind](tau, beta)
    influence = (Influence.coupled(dim) if lam == "coupled"
                 else Influence.constant(lam, dim))
    seed = 11 * tau + dim
    streams, _, seeds = _pieces(trials, dim, 1, seed)
    learner = GradientLearner(body, schedule, influence)
    played = run_game(learner, streams, [FixedDelay(tau)] * trials, FACTORIES[family],
                      LinearScoring.default(dim, dim), HORIZON, seeds).estimates

    streams, _, seeds = _pieces(trials, dim, 1, seed)
    expected = reference_estimates(body, schedule, influence, streams, [FixedDelay(tau)] * trials,
                                   FACTORIES[family], HORIZON, seeds)
    assert np.array_equal(played.view(np.uint64), np.swapaxes(expected, 0, 1).view(np.uint64))

