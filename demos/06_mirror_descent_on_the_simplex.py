#!/usr/bin/env python3
"""Delayed mirror descent with the entropic map on the probability simplex.

Hidden contexts are probability vectors; the entropic mirror map turns
each delayed-gradient step into a multiplicative update that never
leaves the simplex, so no Euclidean projection is needed.  With the Euclidean
map, the default, the same learner is projected gradient descent.
"""

import numpy as np

from laglearn import (
    ExplicitStream,
    FixedDelay,
    GradientLearner,
    InverseSqrtStep,
    LinearScoring,
    NegativeEntropyMap,
    QuadraticLoss,
    Simplex,
    draw,
    fixed_loss,
    run_game,
)

TAU = 2
HORIZON = 400
rng = np.random.default_rng(12)
simplex = Simplex(3)

hidden = rng.dirichlet((6.0, 3.0, 1.0), size=HORIZON)   # skewed target mixture
known = hidden + 0.05 * rng.standard_normal((HORIZON, 3))

stream = ExplicitStream(known, hidden)
learner = GradientLearner(simplex, InverseSqrtStep(sigma=0.3, tau=TAU),
                          mirror=NegativeEntropyMap())
traj = run_game(learner, draw([stream], fixed_loss(QuadraticLoss, a=1.0), HORIZON, seeds=[1]),
                [FixedDelay(TAU)], LinearScoring.default(3, 3))

print("entropic mirror descent toward a Dirichlet(6,3,1) mixture:")
for t in (1, 5, 20, 100, 400):
    est = traj.estimates[0, t - 1]
    print(f"  t={t:3d}  estimate={np.round(est, 3)}  sum={est.sum():.6f}")
print("  mean hidden    ", np.round(hidden.mean(axis=0), 3))

