import numpy as np
import pytest

from laglearn.evaluation import offline_optimum
from laglearn.geometry import Ball
from laglearn.losses import (
    ExpLoss,
    Loss,
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


def test_a_loss_names_its_family_shape_and_columns():
    # A failing example over losses must be reproducible from its printout.
    anchors = np.zeros((2, 3, 1))
    assert repr(NormLoss(anchors)) == "NormLoss(anchor shape (2, 3, 1))"
    loss = QuadraticLoss(anchors, a=[[0.5, 1.0, 2.0], [1.0, 1.0, 1.0]], b=0.25)
    assert repr(loss) == ("QuadraticLoss(anchor shape (2, 3, 1), "
                          f"a={loss.a!r}, b={loss.b!r})")
    assert "m=array([[3, 3, 3]" in repr(PowerLoss(anchors[:1], m=3))


def per_row_losses(rng, trials=3, horizon=6, dim=2):
    """One loss of each family whose every coefficient differs from row to row."""
    anchor = rng.standard_normal((trials, horizon, dim))
    column = rng.uniform(0.5, 2.0, (trials, horizon))
    m = rng.integers(1, 4, (trials, horizon))
    return [NormLoss(anchor), QuadraticLoss(anchor, a=column, b=column[::-1].copy()),
            PowerLoss(anchor, m=m), ExpLoss(anchor, a=column, s=column + 1.0, m=m)]


def test_a_plain_slice_keeps_its_columns_and_a_strided_one_is_laid_out_in_c_order():
    for loss in per_row_losses(np.random.default_rng(0)):
        for index in ((slice(None), slice(0, None)), slice(1, 2), (slice(1, 2), slice(2, None))):
            part = loss[index]
            for name in loss.coefficients:
                assert np.shares_memory(getattr(part, name), getattr(loss, name))
        part = loss[:, 2:]  # every row cut: strided, so copied
        for name in loss.coefficients:
            column = getattr(part, name)
            assert column.flags.c_contiguous and not np.shares_memory(column, getattr(loss, name))
    fortran = np.asfortranarray(np.full((3, 2), 0.5))
    loss = QuadraticLoss(np.zeros((3, 2, 1)), a=fortran)
    assert loss.a.flags.c_contiguous and not np.shares_memory(loss.a, fortran)
    assert loss.b.flags.c_contiguous and loss.b.shape == (3, 2)  # a broadcast scalar


def test_a_kept_column_gives_the_bits_of_a_copied_one():
    # `regret` scores `loss[:, skip:]` and the comparator descends on
    # `losses[accepted]`: each must give the bits of the same losses built
    # from C-order copies of their columns.
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 1, 2))
    accepted = np.array([True, False, True])
    for loss in per_row_losses(rng):
        for index in ((slice(None), slice(0, None)), (slice(None), slice(2, None)), accepted):
            part = loss[index]
            copied = type(loss)(loss.anchor[index].copy(),
                                **{name: np.array(getattr(loss, name)[index], order="C")
                                   for name in loss.coefficients})
            at = x[:len(part.anchor)]
            for got, want in ((part.value(at), copied.value(at)), (part.grad(at), copied.grad(at))):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


@pytest.mark.parametrize("loss", [
    QuadraticLoss(np.zeros((2, 3, 2)), a=1.0),
    PowerLoss(np.zeros((2, 3, 2)), m=2),
    ExpLoss(np.zeros((2, 3, 2)), a=1.0, s=1.0, m=3),
], ids=["quadratic", "power", "exp"])
def test_a_loss_smooth_at_every_anchor_finds_no_kink_without_taking_distances(loss, monkeypatch):
    def no_distance(self, x):
        raise AssertionError("distance taken")

    monkeypatch.setattr(Loss, "distance", no_distance)
    # At the anchors themselves, for every row and broadcast over x's leading axes.
    for x in (np.zeros((2, 3, 2)), np.zeros(2), np.zeros((4, 1, 1, 2))):
        kinks = loss.kinks(x)
        assert kinks.dtype == bool and not kinks.any()
        assert kinks.shape == np.broadcast_shapes(x.shape[:-1], (2, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        loss.kinks(np.zeros(3))


def test_kink_slope_is_the_radial_slope_at_the_anchor():
    anchors = np.zeros((2, 1))
    assert np.array_equal(NormLoss(anchors).kink_slope(), [1.0, 1.0])
    assert np.array_equal(PowerLoss(anchors, m=[1, 3]).kink_slope(), [1.0, 0.0])
    assert np.array_equal(ExpLoss(anchors, a=0.5, s=2.0, m=[1, 2]).kink_slope(), [0.125, 0.0])
    assert np.array_equal(QuadraticLoss(anchors, a=1.0).kink_slope(), [0.0, 0.0])
    assert np.array_equal(ExpLoss(anchors, a=0.5, s=2.0, m=1).kink_slope()[1], 0.125)


# The expressions that distances, gradients and kink slopes were computed by
# before they took their square roots, quotients and products in place.

def _old_distance(loss, x):
    d = np.asarray(x, dtype=float) - loss.anchor
    return np.sqrt(np.vecdot(d, d))


def _old_grad(loss, x):
    d = np.asarray(x, dtype=float) - loss.anchor
    r = np.sqrt(np.vecdot(d, d))
    if loss.family == "norm":
        r = r[..., None]
        return np.divide(d, r, out=np.zeros(d.shape), where=r != 0.0)
    if loss.family == "quadratic":
        return (2.0 * loss.a)[..., None] * d
    zero = r == 0.0
    safe = np.where(zero, 1.0, r)
    if loss.family == "power":
        slope = loss.m * np.float_power(safe, loss.m - 2)
    else:
        s2 = np.float_power(loss.s, 2)
        slope = (loss.a * loss.m * np.float_power(safe, loss.m - 2)
                 * np.exp(np.float_power(safe, loss.m) / s2) / s2)
    g = slope[..., None] * d
    g[zero] = 0.0
    return g


def _old_kink_slope(loss):
    shape = loss.anchor.shape[:-1]
    if loss.family == "norm":
        return np.ones(shape)
    if loss.family == "power":
        return np.where(loss.m == 1, 1.0, 0.0)
    if loss.family == "exp":
        return np.where(loss.m == 1, loss.a / np.float_power(loss.s, 2), 0.0)
    return np.zeros(shape)


def _bits(values):
    values = np.asarray(values, dtype=float)
    return values.shape, values.view(np.uint64).tolist()


@pytest.mark.parametrize("family", range(4), ids=["norm", "quadratic", "power", "exp"])
def test_distances_gradients_and_values_keep_the_bits_of_the_expressions_they_replace(family):
    # One loss of every row's coefficients, on one loss (a 0-d distance), on
    # rows at one (d,) point, and on rows at a point per row.  The points
    # include the anchors themselves, offsets whose squares underflow to a
    # zero distance, and signed zeros.
    rng = np.random.default_rng(family)
    loss = per_row_losses(rng)[family]
    anchor = loss.anchor
    rows = anchor + rng.standard_normal(anchor.shape)
    rows[0, :2] = anchor[0, :2]
    rows[1, :2] = anchor[1, :2] + 1e-200
    rows[2, 0] = -0.0
    one = loss[1, 2]
    cases = [(one, anchor[1, 2]), (one, anchor[1, 2] + 1e-200), (one, rows[2, 3]),
             (loss, rows[2, 3]), (loss, anchor[0, 0]), (loss, rows)]
    for case, x in cases:
        with np.errstate(over="ignore"):
            assert _bits(case.distance(x)) == _bits(_old_distance(case, x))
            assert _bits(case.value(x)) == _bits(case.radial(_old_distance(case, x)))
            assert _bits(case.grad(x)) == _bits(_old_grad(case, x))


@pytest.mark.parametrize("loss", [
    NormLoss(np.zeros((2, 3, 1))),
    QuadraticLoss(np.zeros((2, 3, 1)), a=1.0),
    PowerLoss(np.zeros((2, 3, 1)), m=1),
    PowerLoss(np.zeros((2, 3, 1)), m=3),
    PowerLoss(np.zeros((2, 3, 1)), m=[[1, 2, 1], [3, 1, 1]]),
    ExpLoss(np.zeros((2, 3, 1)), a=0.5, s=2.0, m=1),
    ExpLoss(np.zeros((2, 3, 1)), a=0.5, s=2.0, m=2),
    ExpLoss(np.zeros((2, 3, 1)), a=0.5, s=2.0, m=[[1, 2, 1], [3, 1, 1]]),
    NormLoss(np.zeros(1)),
], ids=["norm", "quadratic", "power-1", "power-3", "power-mixed", "exp-1", "exp-2",
        "exp-mixed", "norm-one-loss"])
def test_kink_slope_keeps_its_values_and_nothing_writes_into_it(loss):
    slope = loss.kink_slope()
    assert _bits(slope) == _bits(_old_kink_slope(loss))
    assert not slope.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        slope[...] = 7.0
    # Its readers, the kink test and the comparator, leave it as it was.
    loss.kinks(np.zeros(1))
    if loss.anchor.ndim == 3:
        offline_optimum(loss, Ball([0.0], 1.0))
    assert _bits(loss.kink_slope()) == _bits(_old_kink_slope(loss))


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
