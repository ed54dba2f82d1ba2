import math
from fractions import Fraction

import numpy as np
import pytest

from laglearn.geometry import (
    Ball,
    Box,
    EuclideanMap,
    NegativeEntropyMap,
    Polygon,
    Simplex,
    as_vector,
    norms,
    regular_polygon,
)


def bodies():
    return [
        Ball([0.0, 0.0], 1.0),
        Ball([0.3, -0.2], 0.7),
        # Floats near this center are 1e-13 apart, but one ulp of the scale
        # moves a point by about 1e-19: a projection that rounds to just
        # outside needs about a million ulps to land inside.
        Ball([1000.0, 1000.0], 1e-3),
        Ball([1.0, -2.0, 0.5], 3.0),
        Box([-1.0, -1.0], [1.0, 1.0]),
        regular_polygon(5, center=(1.0, 1.0), circumradius=1.0),
        Simplex(4),
    ]


def random_point(rng, dim, scale=5.0):
    return rng.normal(scale=scale, size=dim)


def members(body, n, rng):
    """Projected normal draws: members of the body, most on its boundary."""
    return body.project(rng.normal(scale=2 * body.radius_bound, size=(n, body.dim)))


# ---------------------------------------------------------------------------
# as_vector
# ---------------------------------------------------------------------------

def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([1.0, np.inf])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], dim=3)


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def test_ball_projection_radial_scaling():
    ball = Ball([0.0, 0.0], 1.0)
    assert np.allclose(ball.project([3.0, 4.0]), [0.6, 0.8])


def test_ball_projection_of_a_point_whose_squared_norm_overflows():
    # ||x||^2 is inf for these points; they still land on the boundary,
    # and the finite rows next to them keep their bits.
    with np.errstate(over="ignore"):
        line = Ball([0.0], 4.0).project([[1e200], [-1e200], [1e150], [2.0]])
        plane = Ball([0.0, 0.0], 4.0).project([[1e300, 0.0], [3e300, -4e300],
                                               [3.0, 4.0], [0.5, 0.5]])
    assert np.array_equal(line, [[4.0], [-4.0], [4.0], [2.0]])
    assert np.allclose(plane[:2], [[4.0, 0.0], [2.4, -3.2]], rtol=1e-15, atol=0)
    assert np.array_equal(plane[2:], Ball([0.0, 0.0], 4.0).project([[3.0, 4.0], [0.5, 0.5]]))


def norm_test_projection(ball, x):
    """`Ball.project` as it was before its squared-norm test: the offset's
    norm against the radius, then the scaling and its fixed-point steps."""
    v = np.asarray(x, dtype=float)
    offset = v - ball.center
    dist = norms(offset)
    out = v.copy()
    outside = dist > ball.radius
    if np.count_nonzero(outside):
        far, dist = offset[outside], dist[outside]
        huge = np.isinf(dist)
        if huge.any():
            rows = far[huge]
            rows /= np.max(np.abs(rows), axis=-1, keepdims=True)
            far[huge] = rows
            dist[huge] = norms(rows)
        scale = ball.radius / dist
        ulp = scale - np.nextafter(scale, 0.0)
        landed = ball.center + far * scale[..., None]
        while np.count_nonzero(over := norms(landed - ball.center) > ball.radius):
            scale[over] = np.maximum(scale[over] - ulp[over], 0.0)
            ulp[over] *= 2.0
            landed = ball.center + far * scale[..., None]
        out[outside] = landed
    return out


THRESHOLD_RADII = [4.0, 0.1, 1e-300, 1e300, math.sqrt(2.0), 3.0000000000000004]


def ulp_steps(x, k):
    """x moved k ulps away from zero (toward it for negative k)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, x) if k > 0 else 0.0)
    return x


@pytest.mark.parametrize("centered", [True, False], ids=["zero-center", "center"])
@pytest.mark.parametrize("radius", THRESHOLD_RADII)
def test_ball_square_bound_test_keeps_the_bits_of_the_norm_test(radius, centered):
    bound = Ball([0.0], radius).square_bound
    assert math.sqrt(bound) <= radius < math.sqrt(math.nextafter(bound, math.inf))
    rng = np.random.default_rng(17)
    for dim in (1, 2):
        center = np.zeros(dim) if centered else min(radius, 1.0) * np.array([0.75, -1.25])[:dim]
        ball = Ball(center, radius)
        assert ball.square_bound == bound
        # Offsets at the square roots of s* and of its neighbours and within
        # four ulps of the radius, so that their squared norms land at and
        # around s*; then offsets a few ulps inside and outside the sphere
        # along random directions; then a batch with one row of ten outside.
        squares = (bound, math.nextafter(bound, 0.0), math.nextafter(bound, math.inf))
        near = [math.sqrt(s) for s in squares if s < math.inf]
        near += [ulp_steps(radius, k) for k in range(-4, 5)]
        offsets = [np.full(dim, x) / math.sqrt(dim) if dim > 1 else np.array([x])
                   for x in near]
        directions = rng.normal(size=(60, dim))
        directions /= norms(directions)[:, None]
        offsets += list(directions * radius * (1.0 + rng.integers(-4, 5, size=(60, 1)) * 2e-16))
        points = center + np.array(offsets)
        batch = center + rng.uniform(-0.5, 0.5, size=(10, dim)) * radius / math.sqrt(dim)
        batch[6] = center + 2.0 * radius / math.sqrt(dim)
        for x in (*points, points, points[:, None], batch):
            with np.errstate(over="ignore"):
                projected = ball.project(x)
                expected = norm_test_projection(ball, x)
            assert np.array_equal(projected.view(np.uint64), expected.view(np.uint64))
            assert not np.shares_memory(projected, x)


def test_box_interior_point_is_fixed():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    assert np.array_equal(box.project([0.5, -0.3]), [0.5, -0.3])


def test_simplex_projection_known_case():
    # sort-based projection of [0.5, 0.5, 1.0]: theta = 1/3
    out = Simplex(3).project([0.5, 0.5, 1.0])
    assert np.allclose(out, [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0])


def test_pentagon_projection_matches_boundary_grid():
    # Independent oracle: nearest point over a dense sampling of the boundary.
    pentagon = regular_polygon(5, center=(1.0, 1.0), circumradius=1.0)
    x = 2.0 * pentagon.vertices[0]  # outside the pentagon
    assert not pentagon.contains(x)

    candidates = []
    verts = pentagon.vertices
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        ts = np.linspace(0.0, 1.0, 20_000)
        candidates.append(a + ts[:, None] * (b - a))
    boundary = np.vstack(candidates)
    oracle = boundary[np.argmin(np.linalg.norm(boundary - x, axis=1))]

    assert np.linalg.norm(pentagon.project(x) - oracle) <= 1e-4


def test_pentagon_projects_far_points_to_the_nearest_vertex():
    # Far away the edge candidates' distances tie or overflow; the nearest
    # point is then the vertex furthest along the point's direction.
    pentagon = regular_polygon(5, center=(1.0, 1.0), circumradius=1.0)
    far = np.array([[1e10, 1e10], [1e20, 1e20], [1e160, 1e160], [-1e200, -3e200]])
    direction = far / np.max(np.abs(far), axis=1, keepdims=True)
    nearest = pentagon.vertices[np.argmax(direction @ pentagon.vertices.T, axis=1)]
    assert np.allclose(nearest[[0, 3]], [[1.951057, 1.309017], [0.412215, 0.190983]], atol=1e-6)
    for point, vertex in zip(far, nearest):
        assert np.allclose(pentagon.project(point), vertex, rtol=0.0, atol=1e-12)
    assert np.allclose(pentagon.project(far), nearest, rtol=0.0, atol=1e-12)


def test_pentagon_projects_points_near_the_float_maximum_like_far_points():
    # Near the float maximum the membership cross products and the edge
    # parameters overflow; such a point is scaled down by a power of two
    # first, and projects where a point far along its direction does.
    pentagon = regular_polygon(5, center=(1.0, 1.0), circumradius=1.0)
    huge = np.array([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]])
    expected = pentagon.project(np.array([[1e300, 1e300], [-1e300, 1e300]]))
    assert np.allclose(expected, [[1.951057, 1.309017], [0.048943, 1.309017]], atol=1e-6)
    assert not pentagon.contains(huge).any()
    assert np.array_equal(pentagon.project(huge), expected)
    for point, vertex in zip(huge, expected):
        assert np.array_equal(pentagon.project(point), vertex)
    # A point beyond 2^500 projects as its direction scaled to 2^499 does, bit
    # for bit: scaling by a power of two moves no bit of the direction.
    rng = np.random.default_rng(3)
    directions = rng.normal(size=(50, 2))
    directions /= np.max(np.abs(directions), axis=1, keepdims=True)
    for exponent in (501, 700, 1023):
        assert np.array_equal(pentagon.project(np.ldexp(directions, exponent)),
                              pentagon.project(np.ldexp(directions, 499)))


def exact_nearest_point(polygon, point) -> list[Fraction]:
    """The point of `polygon` nearest to `point`, in exact rational arithmetic
    on the stored vertices: the nearest of the edges' nearest points."""
    p = [Fraction(c) for c in point]
    verts = [[Fraction(c) for c in v] for v in polygon.vertices.tolist()]
    best = None
    for a, b in zip(verts, verts[1:] + verts[:1]):
        e = [b[0] - a[0], b[1] - a[1]]
        t = ((p[0] - a[0]) * e[0] + (p[1] - a[1]) * e[1]) / (e[0] ** 2 + e[1] ** 2)
        c = [a[i] + min(max(t, Fraction(0)), Fraction(1)) * e[i] for i in (0, 1)]
        squared = (p[0] - c[0]) ** 2 + (p[1] - c[1]) ** 2
        if best is None or squared < best[0]:
            best = (squared, c)
    return best[1]


@pytest.mark.parametrize("point", [(0.0, -1e17), (0.0, -1e100), (1.0, -1e100)])
def test_pentagon_projects_far_points_below_its_bottom_edge_to_the_exact_nearest_vertex(point):
    # The stored bottom edge runs from (0.412, 0.191) down to (1.588, 0.191)
    # by 2.2e-16, so far below it the exact nearest point is its lower end.
    pentagon = regular_polygon(5, center=(1.0, 1.0), circumradius=1.0)
    nearest = [float(c) for c in exact_nearest_point(pentagon, point)]
    assert nearest == [1.587785252292473, 0.19098300562505244]
    assert pentagon.project(point).tolist() == nearest


def test_pentagon_projects_a_point_below_its_bottom_edge_near_the_exact_nearest_point():
    pentagon = regular_polygon(5, center=(1.0, 1.0), circumradius=1.0)
    nearest = exact_nearest_point(pentagon, (0.0, -1e10))
    projected = pentagon.project((0.0, -1e10)).tolist()
    assert max(abs(Fraction(x) - c) for x, c in zip(projected, nearest)) <= Fraction(1e-15)


@pytest.mark.parametrize("shape", [(2,), (40, 2), (3, 7, 2)])
def test_polygon_projection_returns_inside_points_as_equal_bits_in_a_fresh_array(shape):
    # A square around the origin: signed zeros and points on an edge are inside too.
    square = Polygon([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    rng = np.random.default_rng(5)
    points = rng.uniform(-1.0, 1.0, size=shape)
    points.reshape(-1, 2)[0] = (-0.0, 0.0)
    points.reshape(-1, 2)[-1] = (1.0, -0.0)
    assert square.contains(points).all()
    projected = square.project(points)
    assert projected.shape == points.shape
    assert np.array_equal(projected.view(np.uint64), points.view(np.uint64))
    assert not np.shares_memory(projected, points)
    if len(shape) == 1:
        return
    # With one row outside, the inside rows still come back bit for bit.
    points.reshape(-1, 2)[1] = (3.0, -0.0)
    projected = square.project(points)
    inside = square.contains(points)
    assert not inside.all()
    assert np.array_equal(projected[inside].view(np.uint64), points[inside].view(np.uint64))
    assert np.array_equal(projected.reshape(-1, 2)[1], [1.0, 0.0])


def test_polygon_rejects_bad_vertex_lists():
    square_cw = [[0, 0], [0, 1], [1, 1], [1, 0]]
    with pytest.raises(ValueError, match="counterclockwise"):
        Polygon(square_cw)
    nonconvex = [[0, 0], [2, 0], [1, 0.2], [2, 2], [0, 2]]
    with pytest.raises(ValueError, match="convex"):
        Polygon(nonconvex)
    with pytest.raises(ValueError):
        Polygon([[0, 0], [1, 1]])


def test_projection_dimension_mismatch():
    with pytest.raises(ValueError):
        Ball([0.0, 0.0], 1.0).project([1.0, 2.0, 3.0])


@pytest.mark.parametrize("body", bodies(), ids=lambda b: b.describe()[:20])
def test_projection_idempotent_member_contraction(body):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = random_point(rng, body.dim)
        y = random_point(rng, body.dim)
        px, py = body.project(x), body.project(y)
        # membership
        assert body.contains(px, tol=1e-9)
        # idempotence
        assert_fixed_point(body, px)
        # 1-Lipschitz
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
    if isinstance(body, Simplex):
        return
    # Points whose squared norm overflows land inside as fixed points too.
    huge = np.array([[1e200] * body.dim, [-1e200] + [3e200] * (body.dim - 1)])
    with np.errstate(over="ignore"):
        projected = body.project(huge)
        assert body.contains(projected, tol=1e-9).all()
        assert_fixed_point(body, projected)


def assert_fixed_point(body, px):
    """A projected point projects to itself: bit for bit, except on the simplex.

    The simplex's sort-and-threshold projection moves about 9% of the
    projected points of Simplex(3) (normal draws of scale 5) again, by up
    to 1.2e-15, so it is held to 1e-9.  The one learner that plays on a
    simplex uses the negentropy map, which never projects.
    """
    again = body.project(px)
    if isinstance(body, Simplex):
        assert np.linalg.norm(again - px) <= 1e-9
    else:
        assert np.array_equal(again.view(np.uint64), px.view(np.uint64))


@pytest.mark.parametrize("body", bodies(), ids=lambda b: b.describe()[:20])
def test_radius_bound_covers_samples(body):
    rng = np.random.default_rng(3)
    pts = members(body, 2000, rng)
    norms = np.linalg.norm(pts, axis=1)
    assert np.all(norms <= body.radius_bound + 1e-9)
    for row in pts[:200]:
        assert body.contains(row, tol=1e-9)


@pytest.mark.parametrize("body", bodies(), ids=lambda b: b.describe()[:20])
def test_linear_minimizer_is_a_member_below_every_sample(body):
    rng = np.random.default_rng(5)
    g = rng.normal(size=(50, body.dim))
    g[0] = 0.0
    y = body.linear_minimizer(g)
    assert y.shape == g.shape
    assert body.contains(y, tol=1e-9).all()
    samples = members(body, 500, rng)
    assert np.all(np.vecdot(g, y) <= np.min(g @ samples.T, axis=1) + 1e-9)


def first_moved_by_comparing(body, block):
    """The first index of the block's first axis that `project` moves, and its
    projected points, found by projecting the whole block and comparing."""
    with np.errstate(over="ignore"):  # squares of the far points overflow
        projected = body.project(block)
    moved = (projected != block).reshape(len(block), -1).any(axis=1)
    return (int(np.argmax(moved)), projected) if moved.any() else (None, projected)


def assert_first_moved(body, block):
    expected, projected = first_moved_by_comparing(body, block)
    with np.errstate(over="ignore"):
        answer = body.first_moved(block)
    if expected is None:
        assert answer is None
        return
    index, point = answer
    assert index == expected
    assert point.shape == block.shape[1:]
    assert np.array_equal(point.view(np.uint64), projected[index].view(np.uint64))


@pytest.mark.parametrize("body", bodies(), ids=lambda b: b.describe()[:20])
@pytest.mark.parametrize("trials", [None, 1, 3])
def test_first_moved_finds_the_first_index_project_moves_with_its_bits(body, trials):
    rng = np.random.default_rng(19)
    shape = (12,) if trials is None else (12, trials)
    # Members, most on the boundary, that project to themselves bit for bit
    # (the simplex moves some of its own projections again, by an ulp).
    pool = members(body, 400, rng)
    pool = pool[(body.project(pool) == pool).all(axis=1)]
    inside = pool[rng.integers(0, len(pool), shape)]
    assert_first_moved(body, inside)
    center = np.mean(pool, axis=0)
    for scale in (10.0, 1e200):  # a point this far outside moves on every body
        for _ in range(20):
            block = inside.copy()
            at = tuple(rng.integers(0, n) for n in shape)
            direction = rng.normal(size=body.dim)
            block[at] = center + scale * body.radius_bound * direction / np.linalg.norm(direction)
            assert first_moved_by_comparing(body, block)[0] == at[0]
            assert_first_moved(body, block)
    # Boundary members nudged outward by an ulp: the balls move some and keep
    # others, and every start of the block is tried.
    nudged = np.nextafter(inside, inside + (inside - center))
    assert_first_moved(body, nudged)
    for start in range(len(nudged)):
        assert_first_moved(body, nudged[start:])


# ---------------------------------------------------------------------------
# Mirror maps
# ---------------------------------------------------------------------------

def test_euclidean_bregman_is_half_squared_distance():
    emap = EuclideanMap()
    assert emap.bregman([1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)
    assert emap.bregman([2.0, -1.0], [2.0, -1.0]) == 0.0


def test_negentropy_bregman_is_kl():
    nmap = NegativeEntropyMap()
    x = np.array([0.5, 0.5])
    y = np.array([0.9, 0.1])
    kl = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)  # KL(x || y) by hand
    assert nmap.bregman(x, y) == pytest.approx(kl, abs=1e-12)
    assert kl == pytest.approx(0.5108256238, abs=1e-9)
    assert nmap.bregman(x, x) == 0.0


def test_negentropy_domain_errors():
    nmap = NegativeEntropyMap()
    with pytest.raises(ValueError):
        nmap.bregman([0.0, 1.0], [0.5, 0.5])  # zero coordinate
    with pytest.raises(ValueError):
        nmap.bregman([0.5, 0.5], [0.7, 0.7])  # off the simplex


def test_bregman_nonnegative_random():
    rng = np.random.default_rng(5)
    emap, nmap = EuclideanMap(), NegativeEntropyMap()
    for _ in range(500):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        assert emap.bregman(x, y) >= 0.0
        assert emap.bregman(x, x) == 0.0
        p = _interior_simplex_point(rng, 3)
        q = _interior_simplex_point(rng, 3)
        assert nmap.bregman(p, q) >= 0.0
        assert nmap.bregman(p, p) == 0.0


def _interior_simplex_point(rng, dim):
    p = rng.dirichlet(np.ones(dim)) + 1e-6
    return p / p.sum()


def test_euclidean_update_is_additive():
    emap = EuclideanMap()
    assert np.allclose(emap.update([1.0, 0.0], [0.5, 0.5]), [1.5, 0.5])


def test_negentropy_update_is_exponentiated_gradient():
    # Oracle: multiply coordinates by exp(step), renormalize.
    nmap = NegativeEntropyMap()
    x = np.array([0.5, 0.5])
    step = np.array([np.log(2.0), 0.0])
    expected = x * np.exp(step)
    expected /= expected.sum()
    out = nmap.update(x, step)
    assert np.allclose(out, expected, atol=1e-12)
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


@pytest.mark.parametrize("mirror", [EuclideanMap(), NegativeEntropyMap()],
                         ids=["euclidean", "negentropy"])
def test_zero_step_is_identity(mirror):
    rng = np.random.default_rng(9)
    for _ in range(100):
        if mirror.needs_projection:
            x = rng.normal(size=4)
        else:
            x = _interior_simplex_point(rng, 4)
        out = mirror.update(x, np.zeros(4))
        assert np.linalg.norm(out - x) <= 1e-9


@pytest.mark.parametrize("mirror", [EuclideanMap(), NegativeEntropyMap()],
                         ids=["euclidean", "negentropy"])
def test_mirror_map_smoothness(mirror):
    # ||update(x, -y) - x|| <= smoothness * ||y||
    rng = np.random.default_rng(17)
    for _ in range(500):
        if mirror.needs_projection:
            x = rng.normal(size=4)
            y = rng.normal(scale=2.0, size=4)
        else:
            x = _interior_simplex_point(rng, 4)
            y = rng.normal(scale=1.0, size=4)
        moved = mirror.update(x, -y)
        assert np.linalg.norm(moved - x) <= mirror.smoothness * np.linalg.norm(y) + 1e-12


def test_euclidean_map_has_unit_smoothness():
    assert EuclideanMap().smoothness == 1.0
