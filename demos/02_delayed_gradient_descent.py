#!/usr/bin/env python3
"""One game of delayed gradient descent, start to finish.

Hidden contexts arrive with a fixed lag of 10 rounds; the learner moves
against the freshest delivered gradient plus a correlation pull from the
next agent's visible context.  Prints the regret curve and the final
estimate against the hindsight-optimal fixed decision.
"""

import numpy as np

from laglearn import (
    Ball,
    FixedDelay,
    GaussianStream,
    GradientLearner,
    Influence,
    InverseSqrtStep,
    LinearScoring,
    regret,
    run_game,
    uniform_quadratic,
)

TAU = 10
HORIZON = 1000

body = Ball([0.0], 4.0)
stream = GaussianStream(rho=0.5, body_hidden=body, seed=7)
learner = GradientLearner(body, InverseSqrtStep(sigma=0.5, tau=TAU), Influence.coupled(1))

trajs = run_game(learner, [stream], [FixedDelay(TAU)], uniform_quadratic(),
                 LinearScoring.default(1, 1), HORIZON, seeds=[11])
traj, report = trajs[0], regret(trajs, body)[0]

print(f"lag tau={TAU}, horizon T={HORIZON}, quadratic losses with random coefficients")
print(f"total delay sum D = {traj.delay_sum}  (= T (tau+1))")
print(f"best fixed decision x* = {report.comparator[0]:.4f}, its loss D* = {report.comparator_loss:.1f}")
print(f"learner cumulative loss = {report.cum_loss[-1]:.1f}, regret = {report.regret[-1]:.2f}")

print("\nregret over time (log-like growth):")
for t in (10, 30, 100, 300, 1000):
    bar = "#" * int(report.regret[t - 1] / 2)
    print(f"  t={t:5d}  regret={report.regret[t - 1]:7.2f}  {bar}")

print("\nestimates settle near the mean of the hidden stream:")
print("  first five:", np.round(traj.estimates[:5, 0], 3))
print("  last five: ", np.round(traj.estimates[-5:, 0], 3))
