"""Feasible sets, Euclidean projections, and mirror maps.

Estimates produced by the learners are kept inside a convex body via
Euclidean projection.  Non-Euclidean geometries are handled by a mirror
map: a strongly convex potential M.  A map offers the mirror-descent
move `update`, which steps in the dual space through grad M and maps
back through grad M* (the gradient of the Fenchel conjugate), its
starting point, its smoothness, whether its iterates need projecting,
and its Bregman divergence

    D_M(x || y) = M(x) - M(y) - <x - y, grad M(y)>

which for the Euclidean map M(x) = 0.5 ||x||^2 reduces to the squared
half-distance 0.5 ||x - y||^2.

Every operation here is a pure function of its inputs; nothing keeps
shared mutable state.  Projections, membership tests and mirror-map
updates act row-wise: a point is the last axis of an array, so one call
handles one point or the (trials, dim) iterate of a whole batch of
trials.  Their inputs are checked for their dimension only; finiteness
is checked where data enters the program (constructors, streams).
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

MEMBERSHIP_TOL = 1e-9

# Coordinates below this are lifted before taking logs in the entropic map.
ENTROPY_FLOOR = 1e-12


def as_vector(x, dim: int | None = None) -> Array:
    """Coerce to a finite 1-d float array, optionally checking the dimension."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has NaN or infinite entries")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


def as_points(x, dim: int) -> Array:
    """Coerce to a float array whose last axis has `dim` coordinates."""
    v = np.asarray(x, dtype=float)
    if v.shape[-1:] != (dim,):
        raise ValueError(f"dimension mismatch: expected {dim}, got shape {v.shape}")
    return v


def norms(v: Array) -> Array:
    """Euclidean norm of each row; bit for bit `np.linalg.norm` of that row."""
    return np.sqrt(np.vecdot(v, v))


def _unscale_overflow(offset: Array, dist: Array) -> None:
    """Where a row's squared norm overflowed (dist is inf), divide that row
    of `offset` by its largest |coordinate| and put its norm in `dist`, in
    place: the direction, all a projection onto a sphere needs, survives."""
    huge = np.isinf(dist)
    if huge.any():
        rows = offset[huge]
        rows /= np.max(np.abs(rows), axis=-1, keepdims=True)
        offset[huge] = rows
        dist[huge] = norms(rows)


# ---------------------------------------------------------------------------
# Convex bodies
# ---------------------------------------------------------------------------

class ConvexBody:
    """A closed convex set with a Euclidean nearest-point (projection) oracle.

    Subclasses provide row-wise `project`, `contains` and
    `linear_minimizer`, plus a `radius_bound` R with ||x|| <= R for every
    member x; a polygon also draws uniform members (`sample_many`).
    Projecting a point that `project` returned gives it back bit for bit,
    on every body but the simplex.
    """

    dim: int
    radius_bound: float

    def project(self, x) -> Array:
        raise NotImplementedError

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        raise NotImplementedError

    def linear_minimizer(self, g) -> Array:
        """A member y minimizing <g, y>, row by row (the Frank-Wolfe oracle)."""
        raise NotImplementedError

    def project_many(self, points: Array) -> Array:
        """Project each row of `points` (the streams' projection of their draws)."""
        return self.project(points)

    def describe(self) -> str:
        raise NotImplementedError


class Ball(ConvexBody):
    """Euclidean ball {x : ||x - center|| <= radius}."""

    def __init__(self, center, radius: float):
        self.center = as_vector(center)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = self.center.size
        self.radius_bound = float(np.linalg.norm(self.center)) + self.radius

    def project(self, x) -> Array:
        v = as_points(x, self.dim)
        offset = v - self.center
        dist = norms(offset)
        out = v.copy()
        outside = dist > self.radius
        if np.count_nonzero(outside):
            far, dist = offset[outside], dist[outside]
            _unscale_overflow(far, dist)
            scale = self.radius / dist
            ulp = scale - np.nextafter(scale, 0.0)
            landed = self.center + far * scale[..., None]
            # A row that rounds to just outside steps its scale down (one ulp,
            # then twice as far each time) until it lands inside: a fixed point.
            while np.count_nonzero(over := norms(landed - self.center) > self.radius):
                scale[over] = np.maximum(scale[over] - ulp[over], 0.0)
                ulp[over] *= 2.0
                landed = self.center + far * scale[..., None]
            out[outside] = landed
        return out

    def contains(self, x, tol: float = MEMBERSHIP_TOL):
        return norms(as_points(x, self.dim) - self.center) <= self.radius + tol

    def linear_minimizer(self, g) -> Array:
        # c - r g / ||g||, the center where g = 0.  Each row is first scaled to
        # a largest |coordinate| of 1, so its norm is 0 or at least 1 and finite.
        top = np.max(np.abs(as_points(g, self.dim)), axis=-1, keepdims=True)
        g = np.divide(g, top, out=np.zeros(top.shape[:-1] + (self.dim,)), where=top > 0)
        return self.center - self.radius * g / np.maximum(norms(g), 1.0)[..., None]

    def project_many(self, points: Array) -> Array:
        # Norms by `np.linalg.norm(axis=1)`, which rounds differently from
        # `project` in 2-d and up: the streams' draws are fixed by this form.
        pts = np.asarray(points, dtype=float)
        offset = pts - self.center
        dist = np.linalg.norm(offset, axis=1)
        scale = np.ones_like(dist)
        outside = dist > self.radius
        _unscale_overflow(offset, dist)
        scale[outside] = self.radius / dist[outside]
        return self.center + offset * scale[:, None]

    def describe(self) -> str:
        return f"ball(center={self.center.tolist()}, radius={self.radius})"


class Box(ConvexBody):
    """Axis-aligned box {x : lo <= x <= hi} (coordinate-wise)."""

    def __init__(self, lo, hi):
        self.lo = as_vector(lo)
        self.hi = as_vector(hi, self.lo.size)
        if np.any(self.lo > self.hi):
            raise ValueError("box needs lo <= hi in every coordinate")
        self.dim = self.lo.size
        self.radius_bound = float(np.linalg.norm(np.maximum(np.abs(self.lo), np.abs(self.hi))))

    def project(self, x) -> Array:
        return np.clip(as_points(x, self.dim), self.lo, self.hi)

    def contains(self, x, tol: float = MEMBERSHIP_TOL):
        v = as_points(x, self.dim)
        return np.all((v >= self.lo - tol) & (v <= self.hi + tol), axis=-1)

    def linear_minimizer(self, g) -> Array:
        return np.where(as_points(g, self.dim) > 0, self.lo, self.hi)

    def describe(self) -> str:
        return f"box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class Polygon(ConvexBody):
    """Convex polygon in the plane, vertices in counterclockwise order.

    Projection checks interior membership with the edge cross-product sign
    test, and otherwise takes the nearest point among the projections onto
    each edge segment: exact and O(#vertices), no iterative solver.
    """

    def __init__(self, vertices):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValueError("polygon needs at least 3 vertices in the plane")
        if not np.all(np.isfinite(verts)):
            raise ValueError("polygon vertices must be finite")
        crosses = _turn_crosses(verts)
        if np.all(crosses < 0):
            raise ValueError("vertices are clockwise; supply them counterclockwise")
        if np.any(crosses <= 0):
            raise ValueError("vertex list does not describe a convex polygon")
        self.vertices = verts
        self.dim = 2
        self.radius_bound = float(np.max(np.linalg.norm(verts, axis=1)))
        self._edges = np.roll(verts, -1, axis=0) - verts
        self._lengths = np.linalg.norm(self._edges, axis=1)

    def contains(self, x, tol: float = MEMBERSHIP_TOL):
        return self._inside(as_points(x, 2)[..., None, :] - self.vertices, tol)

    def _inside(self, rel: Array, tol: float) -> Array:
        # rel[..., i, :] is the point relative to vertex i; cross / |edge|
        # is the signed distance to each edge line.
        cross = self._edges[:, 0] * rel[..., 1] - self._edges[:, 1] * rel[..., 0]
        return np.all(cross >= -tol * self._lengths, axis=-1)

    def project(self, x) -> Array:
        v = as_points(x, 2)
        rel = v[..., None, :] - self.vertices
        inside = self._inside(rel, MEMBERSHIP_TOL)
        if inside.all():
            return v.copy()  # what np.where below picks for inside rows
        # Nearest point of each edge segment, then the first nearest edge.
        t = np.vecdot(rel, self._edges) / np.vecdot(self._edges, self._edges)
        candidates = self.vertices + np.minimum(np.maximum(t, 0.0), 1.0)[..., None] * self._edges
        with np.errstate(over="ignore"):
            dist = norms(v[..., None, :] - candidates)
            # Far away every distance rounds to one value, or overflows to inf;
            # there |c|^2 - 2<v, c>, the squared distance less |v|^2, ranks them.
            tied = ~(dist.min(axis=-1) < dist.max(axis=-1))
            if tied.any():
                c = candidates[tied]
                dist[tied] = np.vecdot(c, c) - 2.0 * np.vecdot(v[tied][..., None, :], c)
        best = np.argmin(dist, axis=-1)
        nearest = np.take_along_axis(candidates, best[..., None, None], axis=-2)[..., 0, :]
        return np.where(inside[..., None], v, nearest)

    def linear_minimizer(self, g) -> Array:
        scores = np.vecdot(as_points(g, 2)[..., None, :], self.vertices)
        return self.vertices[np.argmin(scores, axis=-1)]

    def sample_many(self, n: int, rng: np.random.Generator) -> Array:
        # Fan triangulation from vertex 0, area-weighted triangle choice,
        # then uniform barycentric sampling inside the chosen triangle.
        v0 = self.vertices[0]
        b = self.vertices[1:-1] - v0
        c = self.vertices[2:] - v0
        areas = 0.5 * np.abs(b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        idx = rng.choice(areas.size, size=n, p=areas / areas.sum())
        u = rng.uniform(size=(n, 1))
        w = rng.uniform(size=(n, 1))
        flip = (u + w) > 1.0
        u = np.where(flip, 1.0 - u, u)
        w = np.where(flip, 1.0 - w, w)
        return v0 + u * b[idx] + w * c[idx]

    def describe(self) -> str:
        return f"polygon({self.vertices.tolist()})"


class Simplex(ConvexBody):
    """Probability simplex {x >= 0, sum x = 1} in R^dim."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("simplex dimension must be >= 1")
        self.dim = int(dim)
        self.radius_bound = 1.0  # max norm attained at a vertex

    def project(self, x) -> Array:
        # Sorting-based Euclidean projection, row by row.
        v = as_points(x, self.dim)
        u = np.sort(v, axis=-1)[..., ::-1]
        css = np.cumsum(u, axis=-1)
        active = u * np.arange(1, self.dim + 1) > css - 1.0
        idx = self.dim - 1 - np.argmax(active[..., ::-1], axis=-1)
        theta = (np.take_along_axis(css, idx[..., None], axis=-1) - 1.0) / (idx[..., None] + 1)
        return np.maximum(v - theta, 0.0)

    def contains(self, x, tol: float = MEMBERSHIP_TOL):
        v = as_points(x, self.dim)
        return np.all(v >= -tol, axis=-1) & (np.abs(v.sum(axis=-1) - 1.0) <= tol)

    def linear_minimizer(self, g) -> Array:
        return np.eye(self.dim)[np.argmin(as_points(g, self.dim), axis=-1)]

    def describe(self) -> str:
        return f"simplex(dim={self.dim})"


def _turn_crosses(verts: Array) -> Array:
    """Cross products of consecutive edges (positive everywhere iff convex CCW)."""
    e = np.roll(verts, -1, axis=0) - verts
    e_next = np.roll(e, -1, axis=0)
    return e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]


def regular_polygon(sides: int, center=(0.0, 0.0), circumradius: float = 1.0) -> Polygon:
    """Regular polygon with a vertex straight up from the center."""
    if sides < 3:
        raise ValueError("need at least 3 sides")
    angles = np.pi / 2 + 2.0 * np.pi * np.arange(sides) / sides
    verts = np.stack([np.cos(angles), np.sin(angles)], axis=1) * float(circumradius)
    return Polygon(verts + as_vector(center, 2))


# ---------------------------------------------------------------------------
# Mirror maps
# ---------------------------------------------------------------------------

class MirrorMap:
    """Potential M, known through its mirror-descent move and Bregman divergence.

    `update(x, step)` computes grad M*(grad M(x) + step) row by row, the
    dual-space move used by mirror-descent updates; for a finite step it
    is finite.  `smoothness` is a constant L with
    ||update(x, -y) - x|| <= L ||y|| on the map's domain.
    """

    smoothness: float
    needs_projection: bool

    def update(self, x, step) -> Array:
        raise NotImplementedError

    def bregman(self, x, y) -> float:
        raise NotImplementedError

    def initial_point(self, dim: int) -> Array:
        raise NotImplementedError


class EuclideanMap(MirrorMap):
    """M(x) = 0.5 ||x||^2: grad M and grad M* are both the identity, so `update` adds."""

    smoothness = 1.0
    needs_projection = True

    def update(self, x, step) -> Array:
        return np.add(x, step)

    def bregman(self, x, y) -> float:
        v = as_vector(x)
        w = as_vector(y, v.size)
        d = v - w
        return 0.5 * float(np.dot(d, d))

    def initial_point(self, dim: int) -> Array:
        return np.zeros(dim)


class NegativeEntropyMap(MirrorMap):
    """M(x) = sum x_i log x_i on the probability simplex.

    grad M(x) = 1 + log x and grad M*(y) renormalizes exp(y - 1) onto the
    simplex, so `update` is the exponentiated-gradient move
    x_i * exp(step_i) followed by renormalization.  The Bregman divergence
    between simplex points is the KL divergence sum x_i log(x_i / y_i).
    Coordinates are floored at a tiny positive value before logs; exact
    zeros are therefore tolerated by `update` but rejected by `bregman`,
    where a zero denominator has no finite value.
    """

    smoothness = 1.0  # w.r.t. the Euclidean norm on the simplex
    needs_projection = False

    def update(self, x, step) -> Array:
        v = np.asarray(x, dtype=float)
        z = np.log(np.maximum(v, ENTROPY_FLOOR)) + as_points(step, v.shape[-1])
        # Shift-invariant after renormalization; the largest coordinate
        # becomes exp(0) = 1, so the total lies in [1, dim].
        z = z - z.max(axis=-1, keepdims=True)
        w = np.exp(z)
        return w / w.sum(axis=-1, keepdims=True)

    def bregman(self, x, y) -> float:
        v = self._checked(x)
        w = self._checked(y, v.size)
        # KL(v || w); mathematically >= 0, floor to absorb rounding.
        return max(float(np.sum(v * np.log(v / w))), 0.0)

    def initial_point(self, dim: int) -> Array:
        return np.full(dim, 1.0 / dim)

    @staticmethod
    def _checked(x, dim: int | None = None) -> Array:
        v = as_vector(x, dim)
        if np.any(v <= 0.0) or abs(float(v.sum()) - 1.0) > 1e-9:
            raise ValueError(
                "point outside the negative-entropy domain "
                "(needs strictly positive coordinates summing to 1)"
            )
        return v
