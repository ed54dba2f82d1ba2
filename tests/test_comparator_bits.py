"""Bit-level pins of the batched offline comparator.

`DIGESTS` were recorded from the solver that searched one trial and one
restart at a time, before the comparator was batched; the batched solver
must reproduce every bit of them.  A digest covers a solution's point,
total and converged flag.  The problems span every family formula, the
kinks of norm-like losses, budgets cut short, closed forms, and d = 1, 2,
3 and 8: numpy sums a row's coordinates in order below 8 and pairwise from
8 up, and the rounds pairwise when d = 1, in order otherwise.  The batched
oracles must also give, row by row, the bits of the single-trial formulas
kept here as the reference.
"""

import hashlib
import warnings

import numpy as np
import pytest

from laglearn import evaluation
from laglearn.evaluation import offline_optimum
from laglearn.geometry import Ball, Box, regular_polygon
from laglearn.losses import ExpLoss, Loss, NormLoss, PowerLoss, QuadraticLoss

DIMS = (1, 2, 3, 8)

DIGESTS = {
    ("norm", 1): "82529bb2cade37ac",
    ("norm", 2): "16a47c41b6ae3658",
    ("norm", 3): "997357b65ed9b726",
    ("norm", 8): "2d344ee63f9067bd",
    ("norm-iterative", 1): "d0a67373b7b5dffa",
    ("norm-iterative", 2): "08149d3d70452c87",
    ("norm-iterative", 3): "66df5ea19dc95718",
    ("norm-iterative", 8): "d38f3e625fea5cf6",
    ("norm-kink", 1): "f910e8d7e29eb02a",
    ("norm-kink", 2): "8b43497b523fe7fc",
    ("norm-kink", 3): "b16e437e056c9a88",
    ("norm-kink", 8): "e688668b513fe5ff",
    ("exp1-kink", 1): "6f068b4b8a9f43b2",
    ("exp1-kink", 2): "f98b760d1f09102a",
    ("exp1-kink", 3): "3f1555afe92c2c69",
    ("exp1-kink", 8): "26fbe3f359245817",
    ("power1", 1): "747ba1de6d0789fb",
    ("power1", 2): "735ebbf8cf71abda",
    ("power1", 3): "0382af1f89808bc9",
    ("power1", 8): "477ef30cd11b5b7a",
    ("power3", 1): "a7cb5f3f060d66f0",
    ("power3", 2): "712ad7bae9f394f3",
    ("power3", 3): "6780d0a2c1565bbe",
    ("power3", 8): "117db46f15221a12",
    ("exp2", 1): "417ba5d739e60004",
    ("exp2", 2): "dd7af5d1ac2b9893",
    ("exp2", 3): "b3f340eb7e790428",
    ("exp2", 8): "ad857e2d19805404",
    ("exp1", 1): "e1ea72435088f0a4",
    ("exp1", 2): "3cf7a7e874ec2b7e",
    ("exp1", 3): "1d59b9025629bd15",
    ("exp1", 8): "c9256c52fe2aeb6b",
    ("mixed", 1): "b011bc430f524d63",
    ("mixed", 2): "da2694606b6a3a7d",
    ("mixed", 3): "424e6aaea1f4ae69",
    ("mixed", 8): "cf812f82fa443e1e",
    ("quadratic-iterative", 1): "2ebad9e8fda74cf3",
    ("quadratic-iterative", 2): "2e7cb2be1bcfde0c",
    ("quadratic-iterative", 3): "38fe0a7bf3e8dfab",
    ("quadratic-iterative", 8): "dc6ff8b73cdef457",
    ("quadratic", 1): "1fa46c0cd9a82905",
    ("quadratic", 2): "9a907d96523f5b85",
    ("quadratic", 3): "1078b5a66d94c321",
    ("quadratic", 8): "02a1f578b16bd8bc",
}
CASES = tuple(dict.fromkeys(case for case, _ in DIGESTS))


def pinned_problem(case, dim, seed=0, horizon=150):
    """(losses, body, solver options) of one pinned comparator problem."""
    rng = np.random.default_rng([seed, dim, sum(map(ord, case))])
    anchors = rng.normal(0.5, 1.0, size=(horizon, dim))
    ball = Ball(np.full(dim, 0.25), 1.0)
    body = regular_polygon(5, center=(1.0, 1.0), circumradius=1.0) if dim == 2 else ball
    unit_box = Box(np.zeros(dim), np.ones(dim))
    cut = {"max_iters": 300}
    if case == "norm":
        return NormLoss(anchors), body, {"max_iters": 8}
    if case == "norm-iterative":
        return NormLoss(anchors), body, {"method": "iterative", **cut}
    if case in ("norm-kink", "exp1-kink"):
        # A quarter of the anchors sit on the corner ones(d) of the unit box
        # and the rest beyond it, so projected iterates land on anchors.
        corner = np.ones((horizon // 4, dim))
        offset = 3.0 if case == "norm-kink" else 1.0
        beyond = offset + rng.uniform(size=(horizon - len(corner), dim))
        kinked = np.concatenate([corner, beyond])
        losses = NormLoss(kinked) if case == "norm-kink" else ExpLoss(kinked, a=0.5, s=2.0, m=1)
        return losses, unit_box, {"method": "iterative", **cut}
    if case == "power1":
        return PowerLoss(anchors, m=1), body, {"max_iters": 60}
    if case == "power3":
        return PowerLoss(anchors, m=3), body, {}
    if case == "exp2":
        return ExpLoss(anchors, a=0.5, s=4.0, m=2), ball, {}
    if case == "exp1":
        return ExpLoss(anchors, a=0.5, s=2.0, m=1), ball, cut
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
               + repr(float(solution.total)).encode() + repr(bool(solution.converged)).encode())
    return hashlib.sha256(payload).hexdigest()[:16]


def solve(losses, body, options):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the cut budgets warn
        return offline_optimum(losses, body, **options)


@pytest.mark.parametrize("case, dim", list(DIGESTS))
def test_comparator_reproduces_the_pinned_bits(case, dim):
    losses, body, options = pinned_problem(case, dim)
    (solution,) = solve(losses, body, options)
    assert solution_digest(solution) == DIGESTS[case, dim]


@pytest.mark.parametrize("case, dim", list(DIGESTS))
def test_solving_trials_together_gives_each_trials_answer_alone(case, dim):
    problems = [pinned_problem(case, dim, seed=seed) for seed in range(3)]
    body, options = problems[0][1:]
    alone = [solve(losses, body, options)[0] for losses, _, _ in problems]
    together = solve(Loss.stack([losses for losses, _, _ in problems]), body, options)
    assert [solution_digest(s) for s in together] == [solution_digest(s) for s in alone]
    assert together.converged == all(s.converged for s in alone)


def single_solve_oracles(losses):
    """The value and gradient of one trial's sum at one point, as the
    one-trial solver computed them: the reference for the batched oracles."""
    anchors = losses.anchor

    if isinstance(losses, QuadraticLoss):
        a = losses.a
        b_total = float(sum(losses.b.tolist()))
        return (lambda x: float(np.dot(a, np.sum((x - anchors) ** 2, axis=1))) + b_total,
                lambda x: 2.0 * np.sum(a[:, None] * (x - anchors), axis=0))

    def unit_directions(x, weight=None):
        diff = x - anchors
        r = np.linalg.norm(diff, axis=1)
        keep = r > 0
        w = 1.0 if weight is None else weight(r[keep])[:, None]
        return np.sum(w * diff[keep] / r[keep, None], axis=0)

    if isinstance(losses, NormLoss):
        return (lambda x: float(np.sum(np.linalg.norm(x - anchors, axis=1))), unit_directions)
    if isinstance(losses, PowerLoss) and np.all(losses.m == losses.m[0]):
        m = int(losses.m[0])

        def grad(x):
            if m == 1:
                return unit_directions(x)
            diff = x - anchors
            r = np.linalg.norm(diff, axis=1)
            return m * np.sum(r[:, None] ** (m - 2) * diff, axis=0)

        return lambda x: float(np.sum(np.linalg.norm(x - anchors, axis=1) ** m)), grad
    assert isinstance(losses, ExpLoss)
    a, s, m = float(losses.a[0]), float(losses.s[0]), int(losses.m[0])

    def grad(x):
        if m == 1:
            return unit_directions(x, lambda r: a / s**2 * np.exp(r / s**2))
        diff = x - anchors
        r = np.linalg.norm(diff, axis=1)
        w = a * m / s**2 * r ** (m - 2) * np.exp(r**m / s**2)
        return np.sum(w[:, None] * diff, axis=0)

    def value(x):
        return float(a * np.sum(np.exp(np.linalg.norm(x - anchors, axis=1) ** m / s**2)))

    return value, grad


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("make", [
    lambda anchors: NormLoss(anchors),
    lambda anchors: PowerLoss(anchors, m=1),
    lambda anchors: PowerLoss(anchors, m=3),
    lambda anchors: ExpLoss(anchors, a=0.5, s=2.0, m=1),
    lambda anchors: ExpLoss(anchors, a=0.5, s=4.0, m=2),
    lambda anchors: QuadraticLoss(anchors, a=np.linspace(0.1, 1.0, anchors.shape[-2]), b=0.25),
], ids=["norm", "power1", "power3", "exp1", "exp2", "quadratic"])
def test_batched_oracles_give_the_single_solve_bits_on_and_off_the_anchors(make, dim):
    rng = np.random.default_rng(dim)
    trials, rows, horizon = 3, 4, 150
    anchors = rng.normal(size=(trials, horizon, dim))
    anchors[:, 100:110] = anchors[:, 7:8]      # ten more kinks at anchor 7
    points = rng.normal(size=(trials, rows, dim))
    points[:, 0] = anchors[:, 7]               # on eleven anchors
    points[:, 1] = anchors[:, 42]              # on one
    batch = make(anchors)
    value, grad = evaluation._sum_oracles(batch)
    values, grads = value(points), grad(points)
    for k in range(trials):
        single_value, single_grad = single_solve_oracles(make(anchors[k]))
        for row in range(rows):
            assert values[k, row] == single_value(points[k, row])
            assert np.array_equal(grads[k, row], single_grad(points[k, row]))
