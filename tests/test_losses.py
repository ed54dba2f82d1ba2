import numpy as np
import pytest

from laglearn.losses import (
    ExpLoss,
    NormLoss,
    PowerLoss,
    QuadraticLoss,
)


def sample_losses(anchor):
    return [
        NormLoss(anchor),
        QuadraticLoss(anchor, a=0.7, b=0.3),
        PowerLoss(anchor, m=3),
        ExpLoss(anchor, a=1.0, s=1.5, m=2),
    ]


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

def test_quadratic_value():
    loss = QuadraticLoss([0.0], a=1.0, b=0.0)
    assert loss.value([2.0]) == 4.0


def test_norm_value_zero_at_anchor():
    loss = NormLoss([1.5, -2.0])
    assert loss.value([1.5, -2.0]) == 0.0


def test_exp_value_hand_check():
    # a exp(r^m / s^2) at r=1 with a=s=1, m=2 equals e.
    loss = ExpLoss([0.0], a=1.0, s=1.0, m=2)
    assert loss.value([1.0]) == pytest.approx(np.e, rel=1e-12)


def test_value_dimension_mismatch():
    with pytest.raises(ValueError):
        QuadraticLoss([0.0, 0.0], a=1.0).value([1.0])


def test_coefficient_validation():
    with pytest.raises(ValueError):
        QuadraticLoss([0.0], a=0.0)
    with pytest.raises(ValueError):
        QuadraticLoss([0.0], a=1.0, b=-0.1)
    with pytest.raises(ValueError):
        PowerLoss([0.0], m=0)
    with pytest.raises(ValueError):
        ExpLoss([0.0], a=-1.0, s=1.0)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def test_quadratic_gradient():
    loss = QuadraticLoss([0.0, 0.0], a=1.0, b=0.0)
    assert np.allclose(loss.grad([1.0, 2.0]), [2.0, 4.0])


def test_norm_gradient_unit_radial():
    loss = NormLoss([0.0, 0.0])
    assert np.allclose(loss.grad([3.0, 4.0]), [0.6, 0.8])


def test_exp_gradient_matches_finite_difference():
    loss = ExpLoss([0.0], a=1.0, s=1.0, m=2)
    x = np.array([0.5])
    h = 1e-6
    fd = (loss.value(x + h) - loss.value(x - h)) / (2 * h)
    g = loss.grad(x)[0]
    assert abs(g - fd) / abs(fd) <= 1e-5


def test_zero_subgradient_at_kinked_anchor():
    loss = NormLoss([1.0, 1.0])
    assert np.array_equal(loss.grad([1.0, 1.0]), [0.0, 0.0])
    assert loss.kinks([1.0, 1.0])
    loss = ExpLoss([0.5], a=1.0, s=1.0, m=1)
    assert np.array_equal(loss.grad([0.5]), [0.0])
    assert loss.kinks([0.5])
    # smooth families give a plain zero gradient without a kink
    loss = QuadraticLoss([0.5], a=1.0)
    assert np.array_equal(loss.grad([0.5]), [0.0])
    assert not loss.kinks([0.5])


def test_kink_slope_is_the_radial_slope_at_the_anchor():
    anchors = np.zeros((2, 1))
    assert np.array_equal(NormLoss(anchors).kink_slope(), [1.0, 1.0])
    assert np.array_equal(PowerLoss(anchors, m=[1, 3]).kink_slope(), [1.0, 0.0])
    assert np.array_equal(ExpLoss(anchors, a=0.5, s=2.0, m=[1, 2]).kink_slope(), [0.125, 0.0])
    assert np.array_equal(QuadraticLoss(anchors, a=1.0).kink_slope(), [0.0, 0.0])
    assert np.array_equal(ExpLoss(anchors, a=0.5, s=2.0, m=1).kink_slope()[1], 0.125)


def test_gradients_match_central_differences():
    # 200 random smooth points per family, relative error <= 1e-5.
    rng = np.random.default_rng(23)
    anchor = np.array([0.3, -0.7, 1.1])
    h = 1e-6
    for loss in sample_losses(anchor):
        for _ in range(200):
            x = anchor + rng.normal(size=3)
            if np.linalg.norm(x - anchor) < 0.1:
                x = anchor + 0.5 * rng.standard_normal(3) / max(np.linalg.norm(x - anchor), 1e-3)
            g = loss.grad(x)
            fd = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[j] = (loss.value(x + e) - loss.value(x - e)) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(g - fd) / denom <= 1e-5


# ---------------------------------------------------------------------------
# Shape of the loss class
# ---------------------------------------------------------------------------

def test_convexity_on_sampled_triples():
    rng = np.random.default_rng(31)
    anchor = np.array([0.5, 0.5])
    for loss in sample_losses(anchor):
        for _ in range(500):
            x = rng.normal(size=2)
            y = rng.normal(size=2)
            lam = rng.uniform()
            mix = loss.value(lam * x + (1 - lam) * y)
            assert mix <= lam * loss.value(x) + (1 - lam) * loss.value(y) + 1e-9


def test_quadratic_strong_convexity():
    rng = np.random.default_rng(37)
    a = 0.8
    loss = QuadraticLoss(np.array([1.0, -1.0]), a=a, b=0.2)
    gamma = 2.0 * a
    for _ in range(300):
        x = rng.normal(size=2, scale=2.0)
        y = rng.normal(size=2, scale=2.0)
        lhs = loss.value(x)
        rhs = loss.value(y) + loss.grad(y) @ (x - y) + 0.5 * gamma * np.sum((x - y) ** 2)
        assert lhs >= rhs - 1e-9


def test_radial_monotone_along_rays():
    rng = np.random.default_rng(41)
    anchor = np.array([0.2, -0.4])
    for loss in sample_losses(anchor):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        radii = np.sort(rng.uniform(0.0, 3.0, size=20))
        values = [loss.value(anchor + r * direction) for r in radii]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Lipschitz bounds
# ---------------------------------------------------------------------------

def test_norm_lipschitz_is_one():
    assert NormLoss([0.0]).lipschitz_bound(123.0) == 1.0


def test_quadratic_lipschitz():
    assert QuadraticLoss([0.0], a=1.0).lipschitz_bound(2.0) == 4.0


@pytest.mark.parametrize("loss", [
    PowerLoss([0.0], m=400),
    ExpLoss([0.0], a=1.0, s=1.0, m=400),
], ids=["power", "exp"])
def test_a_bound_that_is_not_finite_is_a_value_error(loss):
    # 400 * 8.0 ** 399 overflows a float; so does exp(8.0 ** 400).
    message = f"{loss.family} loss with m = 400"
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
        loss.lipschitz_bound(8.0)


def test_exp_lipschitz_matches_grid_maximization():
    # Independent oracle: maximize ||grad|| over a dense radial grid.
    loss = ExpLoss([0.0, 0.0], a=1.0, s=1.0, m=2)
    bound = loss.lipschitz_bound(1.0)
    assert bound == pytest.approx(2.0 * np.e, rel=1e-6)
    rs = np.linspace(1e-4, 1.0, 50_000)
    grid_max = max(
        np.linalg.norm(loss.grad(np.array([r, 0.0]))) for r in rs[:: 500]
    )
    assert bound >= grid_max - 1e-9


def test_gradient_norm_respects_lipschitz_bound():
    rng = np.random.default_rng(43)
    anchor = np.array([0.1, 0.9])
    radius = 2.5
    for loss in sample_losses(anchor):
        bound = loss.lipschitz_bound(radius)
        for _ in range(200):
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            x = anchor + rng.uniform(1e-6, radius) * direction
            assert np.linalg.norm(loss.grad(x)) <= bound + 1e-9
