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
    InverseSqrtStep,
    LinearScoring,
    draw,
    regret,
    run_game,
    uniform_quadratic,
)

TAU = 10
HORIZON = 1000

body = Ball([0.0], 4.0)
stream = GaussianStream(rho=0.5, body_hidden=body, seed=7)
learner = GradientLearner(body, InverseSqrtStep(sigma=0.5, tau=TAU), lam=1.0, coupled=True)

# One trial: row 0 of every array in the trajectory and the report.
traj = run_game(learner, draw([stream], uniform_quadratic(), HORIZON, seeds=[11]),
                [FixedDelay(TAU)], LinearScoring.default(1, 1))
report = regret(traj, body)

print(f"lag tau={TAU}, horizon T={HORIZON}, quadratic losses with random coefficients")
print(f"total delay sum D = {traj.delays.sum()}  (= T (tau+1))")
print(f"best fixed decision x* = {report.comparator[0, 0]:.4f}, "
      f"its loss D* = {report.comparator_loss[0]:.1f}")
print(f"learner cumulative loss = {report.cum_loss[0, -1]:.1f}, "
      f"regret = {report.regret[0, -1]:.2f}")

print("\nregret over time (log-like growth):")
for t in (10, 30, 100, 300, 1000):
    bar = "#" * int(report.regret[0, t - 1] / 2)
    print(f"  t={t:5d}  regret={report.regret[0, t - 1]:7.2f}  {bar}")

print("\nestimates settle near the mean of the hidden stream:")
print("  first five:", np.round(traj.estimates[0, :5, 0], 3))
print("  last five: ", np.round(traj.estimates[0, -5:, 0], 3))
