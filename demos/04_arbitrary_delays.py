#!/usr/bin/env python3
"""Feedback with arbitrary (adversary-chosen) delays.

Each round's loss lands after its own random delay, so a single round
may deliver several losses at once or none at all.  The gradient
learner, told to accept any delays, takes a constant step against the
sum of each round's delivery batch; its regret tracks the square root
of the total delay sum D rather than the horizon alone.
"""

import numpy as np

from laglearn import (
    Ball,
    ConstantStep,
    GaussianStream,
    GradientLearner,
    LinearScoring,
    RandomDelay,
    draw,
    eta_for_arbitrary_delay,
    fixed_loss,
    NormLoss,
    regret,
    run_game,
)
from laglearn.feedback import delivery_order

body = Ball([0.0], 4.0)
print("horizon   delay sum D   eta        regret   regret/sqrt(D)")
for horizon in (500, 1000, 2000):
    delays = RandomDelay(d_max=20, seed=33)
    delay_sum = int(delays.realize(horizon).sum())
    eta = eta_for_arbitrary_delay(L=1.0, R=body.radius_bound, lam=0.0,
                                  horizon=horizon, delay_sum=delay_sum)
    stream = GaussianStream(mean=0.25, body_hidden=body, seed=5)
    learner = GradientLearner(body, ConstantStep(value=eta))
    traj = run_game(learner, draw([stream], fixed_loss(NormLoss), horizon, seeds=[8]),
                    [delays], LinearScoring.default(1, 1))
    r = regret(traj, body).regret[0, -1]
    print(f"{horizon:7d}   {delay_sum:11d}   {eta:.6f}  {r:7.2f}   {r / np.sqrt(delay_sum):8.4f}")

print("\nbatched deliveries around one mid-game round:")
delays = RandomDelay(d_max=20, seed=33)
stream = GaussianStream(mean=0.25, body_hidden=body, seed=5)
learner = GradientLearner(body, ConstantStep(value=0.01))
traj = run_game(learner, draw([stream], fixed_loss(NormLoss), 60, seeds=[8]),
                [delays], LinearScoring.default(1, 1))
(sources,), (starts,) = delivery_order(traj.delays)
for t in range(20, 31):
    delivered = sources[starts[t]:starts[t + 1]].tolist()
    print(f"  round {t}: delivered {delivered or 'nothing'}")
