"""Distance-anchored convex losses with gradient oracles, many rows at once.

Every loss here scores an estimate x against a hidden anchor u through a
radial profile: value(x) = radial(||x - u||), with radial nondecreasing
and convex.  Shipped profiles:

    norm        radial(r) = r
    quadratic   radial(r) = a r^2 + b          (strongly convex, 2a)
    power       radial(r) = r^m, integer m >= 1
    exp         radial(r) = a exp(r^m / s^2)

One loss object holds many losses of one family: `anchor` has shape
(..., d), one row per loss, and each coefficient is a column of shape
(...).  `value`, `grad` and `radial` broadcast their argument over the
rows.  Only `grad` takes `at`, which indexes the rows: the gradient learner
takes the gradients of one block of rounds of every trial without building
an object for the block.

`grad` returns the gradient radial'(r) * (x - u) / r.  Profiles with a
kink at the anchor (norm, and power/exp with m = 1) return the zero
vector there, which is a valid subgradient; `kinks_at` says where that
happens.  The whole subdifferential there is the ball of radius
radial'(0+), which `kink_slope` gives per row.

`float_grad` gives the gradient of 1-d rows one point at a time, in
Python floats, for a game that takes each gradient when its round is
played: it takes the float operations of `grad` in their order, so each
gradient has the bits of `grad`'s.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Array, as_points, norms


class Loss:
    """Base class: value depends on x only through r = ||x - anchor||.

    Arithmetic follows the scalar formulas term by term (`np.float_power`
    for powers, `sqrt(vecdot)` for norms), so each row gives the same bits
    as evaluating that one loss on its own.  Square roots and a gradient's
    last product or quotient are taken in place, by the same operations.
    """

    family = "base"
    coefficients: tuple[str, ...] = ()

    def __init__(self, anchor):
        anchor = np.asarray(anchor, dtype=float)
        if anchor.ndim < 1 or anchor.shape[-1] < 1:
            raise ValueError(f"anchors need a last axis of coordinates, got shape {anchor.shape}")
        if not np.all(np.isfinite(anchor)):
            raise ValueError("anchors have NaN or infinite entries")
        self.anchor = anchor

    @property
    def dim(self) -> int:
        return self.anchor.shape[-1]

    @classmethod
    def stack(cls, losses) -> "Loss":
        """One loss holding the rows of several losses of one family, on a new first axis."""
        losses = list(losses)
        if not losses:
            raise ValueError("need at least one loss")
        kind = type(losses[0])
        if any(type(loss) is not kind for loss in losses):
            raise ValueError("can only stack losses of one family")
        columns = {name: np.stack([getattr(loss, name) for loss in losses])
                   for name in kind.coefficients}
        return kind(np.stack([loss.anchor for loss in losses]), **columns)

    def __repr__(self) -> str:
        columns = "".join(f", {name}={getattr(self, name)!r}" for name in self.coefficients)
        return f"{type(self).__name__}(anchor shape {self.anchor.shape}{columns})"

    def __getitem__(self, index) -> "Loss":
        """The losses at `index` of the rows, as a loss of the same family."""
        columns = {name: getattr(self, name)[index] for name in self.coefficients}
        return type(self)(self.anchor[index], **columns)

    def _column(self, value, dtype=float) -> Array:
        # C order: a copied broadcast keeps the broadcast axis innermost, and
        # reductions and dot products round strided rows differently.  A
        # column already laid out so is kept, not copied: `loss[:, 0:]` then
        # shares its rows' memory.
        column = np.asarray(value, dtype=dtype)
        if column.shape == self.anchor.shape[:-1] and column.flags.c_contiguous:
            return column
        return np.array(np.broadcast_to(column, self.anchor.shape[:-1]), order="C")

    def _exponent(self, m) -> Array:
        m = np.asarray(m)
        if np.any(m != np.floor(m)) or np.any(m < 1):
            raise ValueError("exponent m must be an integer >= 1")
        return self._column(m, dtype=np.int64)

    def distance(self, x) -> Array:
        """||x - anchor||."""
        return norms(self._offset(x, ...))

    def value(self, x) -> Array:
        return self.radial(self.distance(x))

    def radial(self, r) -> Array:
        raise NotImplementedError

    def grad(self, x, at=...) -> Array:
        """Gradient at x of the rows `at`."""
        return self._grad(self._offset(x, at), at)

    def float_grad(self, at):
        """The gradient of the 1-d rows `at`, one axis of them, as a function of
        (j, x): row j's gradient at the Python float x, as a Python float with
        the bits of `grad(x, at)[j]`."""
        raise NotImplementedError

    def kinks_at(self, r) -> Array:
        """Rows where `grad` returns the zero subgradient at a kink, for points at
        distances r from the anchors, as `distance` gives them: a caller
        that has the distances takes them once."""
        return (r == 0.0) & (self.kink_slope() > 0.0)

    def kink_slope(self) -> Array:
        """radial'(0+) of each row: 0 where the profile is smooth at the anchor.
        Read-only: a broadcast view where every row has one slope."""
        return np.broadcast_to(0.0, self.anchor.shape[:-1])

    def lipschitz_bound(self, radius: float) -> float:
        """Bound on ||grad|| over ||x - anchor|| <= radius, for every row.

        A bound that is not a finite float is a `ValueError` naming the
        family and its largest m: no step size can be tuned from it.
        """
        try:
            bound = self._lipschitz(radius)
        except OverflowError:
            bound = float("inf")
        if not np.isfinite(bound):
            m = f" with m = {np.max(self.m)}" if "m" in self.coefficients else ""
            raise ValueError(f"{self.family} loss{m} has no finite gradient bound "
                             f"within radius {radius:g}")
        return bound

    def _lipschitz(self, radius: float) -> float:
        raise NotImplementedError

    def _grad(self, d: Array, at) -> Array:
        """The gradient of the rows `at` at offsets d from their anchors,
        which it may overwrite."""
        raise NotImplementedError

    def _offset(self, x, at) -> Array:
        return as_points(x, self.dim) - self.anchor[at]


def _power(r: float, k: int) -> float:
    """np.float_power(r, k) of a Python float r > 0: inf where `**` overflows."""
    try:
        return r ** k
    except OverflowError:
        return math.inf


def _radial_direction(d: Array, slope: Array, zero: Array) -> Array:
    """slope * d, with the rows where `zero` holds set to the zero vector,
    written into d."""
    g = np.multiply(slope[..., None], d, out=d)
    g[zero] = 0.0
    return g


def _slopes(kinked: Array, slope, shape: tuple) -> Array:
    """np.where(kinked, slope, 0.0) over rows of `shape`, read-only: a
    broadcast view of 0.0 where no row is kinked, and of `slope` where
    every row is and `slope` is one number."""
    if not kinked.any():
        return np.broadcast_to(0.0, shape)
    if kinked.all() and np.ndim(slope) == 0:
        return np.broadcast_to(slope, shape)
    slopes = np.where(kinked, slope, 0.0)
    slopes.flags.writeable = False
    return slopes


class NormLoss(Loss):
    """radial(r) = r; unit-length radial gradient away from the anchor."""

    family = "norm"

    def radial(self, r) -> Array:
        return np.asarray(r, dtype=float)

    def _grad(self, d, at) -> Array:
        r = norms(d)[..., None]
        zero = r == 0.0
        np.divide(d, r, out=d, where=~zero)
        np.copyto(d, 0.0, where=zero)
        return d

    def float_grad(self, at):
        anchors = self.anchor[at][..., 0].tolist()

        def grad(j, x):
            d = x - anchors[j]
            r = math.sqrt(d * d)
            return d / r if r != 0.0 else 0.0
        return grad

    def kink_slope(self) -> Array:
        return np.broadcast_to(1.0, self.anchor.shape[:-1])

    def _lipschitz(self, radius: float) -> float:
        return 1.0


class QuadraticLoss(Loss):
    """radial(r) = a r^2 + b with a > 0, b >= 0; gradient 2a (x - anchor)."""

    family = "quadratic"
    coefficients = ("a", "b")

    def __init__(self, anchor, a, b=0.0):
        super().__init__(anchor)
        self.a = self._column(a)
        self.b = self._column(b)
        if np.any(self.a <= 0):
            raise ValueError("quadratic coefficient a must be positive")
        if np.any(self.b < 0):
            raise ValueError("offset b must be nonnegative")

    def radial(self, r) -> Array:
        return self.a * np.float_power(r, 2) + self.b

    def _grad(self, d, at) -> Array:
        return np.multiply((2.0 * self.a[at])[..., None], d, out=d)

    def float_grad(self, at):
        anchors, a = self.anchor[at][..., 0].tolist(), self.a[at].tolist()

        def grad(j, x):
            return 2.0 * a[j] * (x - anchors[j])
        return grad

    def _lipschitz(self, radius: float) -> float:
        return 2.0 * float(np.max(self.a)) * float(radius)


class PowerLoss(Loss):
    """radial(r) = r^m for integer m >= 1 (m = 1 coincides with the norm loss)."""

    family = "power"
    coefficients = ("m",)

    def __init__(self, anchor, m):
        super().__init__(anchor)
        self.m = self._exponent(m)

    def radial(self, r) -> Array:
        return np.float_power(r, self.m)

    def _grad(self, d, at) -> Array:
        m, r = self.m[at], norms(d)
        zero = r == 0.0
        return _radial_direction(d, m * np.float_power(np.where(zero, 1.0, r), m - 2), zero)

    def float_grad(self, at):
        anchors, m = self.anchor[at][..., 0].tolist(), self.m[at].tolist()

        def grad(j, x):
            d = x - anchors[j]
            r = math.sqrt(d * d)
            return m[j] * _power(r, m[j] - 2) * d if r != 0.0 else 0.0
        return grad

    def kink_slope(self) -> Array:
        return _slopes(self.m == 1, 1.0, self.anchor.shape[:-1])

    def _lipschitz(self, radius: float) -> float:
        return max(m * float(radius) ** (m - 1) for m in set(self.m.ravel().tolist()))


class ExpLoss(Loss):
    """radial(r) = a exp(r^m / s^2); value a (not 0) at the anchor."""

    family = "exp"
    coefficients = ("a", "s", "m")

    def __init__(self, anchor, a, s, m=1):
        super().__init__(anchor)
        self.a = self._column(a)
        self.s = self._column(s)
        if np.any(self.a <= 0) or np.any(self.s <= 0):
            raise ValueError("coefficients a and s must be positive")
        self.m = self._exponent(m)

    def radial(self, r) -> Array:
        return self.a * np.exp(np.float_power(r, self.m) / np.float_power(self.s, 2))

    def _grad(self, d, at) -> Array:
        a, m, s2 = self.a[at], self.m[at], np.float_power(self.s[at], 2)
        r = norms(d)
        zero = r == 0.0
        safe = np.where(zero, 1.0, r)
        slope = a * m * np.float_power(safe, m - 2) * np.exp(np.float_power(safe, m) / s2) / s2
        return _radial_direction(d, slope, zero)

    def float_grad(self, at):
        anchors, a, m = (column[at].tolist() for column in (self.anchor[..., 0], self.a, self.m))
        s2 = np.float_power(self.s[at], 2)  # numpy scalars: their division by 0.0 does not raise

        def grad(j, x):
            d = x - anchors[j]
            r = math.sqrt(d * d)
            if r == 0.0:
                return 0.0
            # numpy's exp: its bits differ from math.exp's on some machines.
            e = np.exp(_power(r, m[j]) / s2[j])
            return float(a[j] * m[j] * _power(r, m[j] - 2) * e / s2[j] * d)
        return grad

    def kink_slope(self) -> Array:
        return _slopes(self.m == 1, self.a / np.float_power(self.s, 2), self.anchor.shape[:-1])

    def _lipschitz(self, radius: float) -> float:
        # One numeric path for every m: maximize the radial slope on a grid.
        # A slope that overflows is inf, which `lipschitz_bound` names as an error.
        grid = np.linspace(float(radius) / 4096, float(radius), 4096)
        rows = set(zip(*(c.ravel().tolist() for c in (self.a, self.s, self.m))))
        with np.errstate(over="ignore", invalid="ignore"):
            return max(float(np.max(_exp_slope(a, s, m, grid))) for a, s, m in rows)


def _exp_slope(a: float, s: float, m: int, r: Array) -> Array:
    # d radial / d r of a exp(r^m / s^2), nondecreasing in r for m >= 1.
    return a * m * r ** (m - 1) * np.exp(r**m / s**2) / s**2
