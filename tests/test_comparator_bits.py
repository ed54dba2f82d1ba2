"""Pinned problems of the batched offline comparator.

The problems span every loss family, the kinks of norm-like losses, the
closed forms, and d = 1, 2, 3 and 8.  Every answer must be certified by
its Frank-Wolfe gap and carry its own point's total, and no total may be
above the one the earlier solver found (`OLD_TOTALS`: a fixed step from
five random starts, whose budget some of these problems cut short).
Solving the trials together must give each trial's answer alone, bit for
bit.
"""

import hashlib

import numpy as np
import pytest

from laglearn.evaluation import GAP_TOLERANCE, offline_optimum
from laglearn.geometry import Ball, Box, regular_polygon
from laglearn.losses import ExpLoss, Loss, NormLoss, PowerLoss, QuadraticLoss

# The earlier solver's total on each pinned problem, printed as reprs.
OLD_TOTALS = {
    ('norm', 1): 119.55130357602482,
    ('norm', 2): 199.91656807190273,
    ('norm', 3): 226.52668365551943,
    ('norm', 8): 427.7224561616841,
    ('norm-iterative', 1): 121.6209423178545,
    ('norm-iterative', 2): 190.75778781115298,
    ('norm-iterative', 3): 230.9811434506039,
    ('norm-iterative', 8): 405.0228664629801,
    ('norm-kink', 1): 284.91796096135795,
    ('norm-kink', 2): 404.01739571941084,
    ('norm-kink', 3): 492.71908789475174,
    ('norm-kink', 8): 799.296880261983,
    ('exp1-kink', 1): 83.31945300172114,
    ('exp1-kink', 2): 86.7066372315083,
    ('exp1-kink', 3): 90.22633453860121,
    ('exp1-kink', 8): 102.87253304888654,
    ('power1', 1): 120.26509313647776,
    ('power1', 2): 181.6507236327493,
    ('power1', 3): 233.53949602149873,
    ('power1', 8): 408.9935810267341,
    ('power3', 1): 198.35001928891108,
    ('power3', 2): 696.0879854423067,
    ('power3', 3): 969.406503948582,
    ('power3', 8): 3649.741711763696,
    ('exp2', 1): 80.3690108138359,
    ('exp2', 2): 86.30501363663518,
    ('exp2', 3): 93.165836284055,
    ('exp2', 8): 129.6591039361271,
    ('exp1', 1): 91.85241941666992,
    ('exp1', 2): 106.1262674690523,
    ('exp1', 3): 115.22590903085968,
    ('exp1', 8): 150.57155673264833,
    ('mixed', 1): 184.26726780243987,
    ('mixed', 2): 396.64330014369443,
    ('mixed', 3): 757.3523721400991,
    ('mixed', 8): 2157.274531704209,
    ('quadratic-iterative', 1): 156.010629201268,
    ('quadratic-iterative', 2): 256.62276718681164,
    ('quadratic-iterative', 3): 313.4706230857622,
    ('quadratic-iterative', 8): 719.2952819352217,
    ('quadratic', 1): 140.59773122032016,
    ('quadratic', 2): 223.92828096082113,
    ('quadratic', 3): 324.76150488727933,
    ('quadratic', 8): 719.3956017278006,
}
CASES = tuple(dict.fromkeys(case for case, _ in OLD_TOTALS))


def pinned_problem(case, dim, seed=0, horizon=150):
    """(losses, body, solver options) of one pinned comparator problem."""
    rng = np.random.default_rng([seed, dim, sum(map(ord, case))])
    anchors = rng.normal(0.5, 1.0, size=(horizon, dim))
    ball = Ball(np.full(dim, 0.25), 1.0)
    body = regular_polygon(5, center=(1.0, 1.0), circumradius=1.0) if dim == 2 else ball
    unit_box = Box(np.zeros(dim), np.ones(dim))
    if case == "norm":
        return NormLoss(anchors), body, {}
    if case == "norm-iterative":
        return NormLoss(anchors), body, {"method": "iterative"}
    if case in ("norm-kink", "exp1-kink"):
        # A quarter of the anchors sit on the corner ones(d) of the unit box
        # and the rest beyond it, so projected iterates land on anchors.
        corner = np.ones((horizon // 4, dim))
        offset = 3.0 if case == "norm-kink" else 1.0
        beyond = offset + rng.uniform(size=(horizon - len(corner), dim))
        kinked = np.concatenate([corner, beyond])
        losses = NormLoss(kinked) if case == "norm-kink" else ExpLoss(kinked, a=0.5, s=2.0, m=1)
        return losses, unit_box, {"method": "iterative"}
    if case == "power1":
        return PowerLoss(anchors, m=1), body, {}
    if case == "power3":
        return PowerLoss(anchors, m=3), body, {}
    if case == "exp2":
        return ExpLoss(anchors, a=0.5, s=4.0, m=2), ball, {}
    if case == "exp1":
        return ExpLoss(anchors, a=0.5, s=2.0, m=1), ball, {}
    if case == "mixed":
        return PowerLoss(anchors, m=np.arange(horizon) % 2 + 2), body, {}
    quadratic = QuadraticLoss(anchors, a=rng.uniform(0.1, 1.0, horizon),
                              b=rng.uniform(size=horizon))
    if case == "quadratic-iterative":
        return quadratic, body, {"method": "iterative"}
    assert case == "quadratic"
    return quadratic, body, {}


def solution_digest(solution):
    payload = (np.asarray(solution.point, dtype=float).tobytes()
               + repr(float(solution.total)).encode() + repr(float(solution.gap)).encode())
    return hashlib.sha256(payload).hexdigest()[:16]


@pytest.mark.parametrize("case, dim", list(OLD_TOTALS))
def test_every_pinned_problem_is_certified(case, dim):
    losses, body, options = pinned_problem(case, dim)
    (solution,) = offline_optimum(losses, body, **options)
    assert solution.converged
    assert solution.gap <= GAP_TOLERANCE * max(solution.total, 1.0)
    # The total is the one of the returned point, bit for bit, although the
    # descent evaluates each point it accepts only once.
    assert repr(solution.total) == repr(float(np.add.reduce(losses.value(solution.point))))


@pytest.mark.parametrize("case, dim", list(OLD_TOTALS))
def test_no_pinned_total_is_above_the_earlier_solvers(case, dim):
    losses, body, options = pinned_problem(case, dim)
    (solution,) = offline_optimum(losses, body, **options)
    assert solution.total <= OLD_TOTALS[case, dim] * (1 + 1e-12)


@pytest.mark.parametrize("case, dim", list(OLD_TOTALS))
def test_solving_trials_together_gives_each_trials_answer_alone(case, dim):
    problems = [pinned_problem(case, dim, seed=seed) for seed in range(3)]
    body, options = problems[0][1:]
    alone = [offline_optimum(losses, body, **options)[0] for losses, _, _ in problems]
    together = offline_optimum(Loss.stack([losses for losses, _, _ in problems]), body, **options)
    assert [solution_digest(s) for s in together] == [solution_digest(s) for s in alone]
    assert together.converged == all(s.converged for s in alone)
