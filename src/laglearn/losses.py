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
rows.  Only `grad` takes `at`, which indexes the rows: the game loop takes
the gradients of one block of rounds of every trial without building an
object for the block.

`grad` returns the gradient radial'(r) * (x - u) / r.  Profiles with a
kink at the anchor (norm, and power/exp with m = 1) return the zero
vector there, which is a valid subgradient; `kinks` says where that
happens.  The whole subdifferential there is the ball of radius
radial'(0+), which `kink_slope` gives per row.
"""

from __future__ import annotations

import numpy as np

from .geometry import Array


class Loss:
    """Base class: value depends on x only through r = ||x - anchor||.

    Arithmetic follows the scalar formulas term by term (`np.float_power`
    for powers, `sqrt(vecdot)` for norms), so each row gives the same bits
    as evaluating that one loss on its own.
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

    def same_bits(self, other: "Loss") -> bool:
        """Whether `other` holds the same losses: the same family, and its
        anchors and every coefficient column equal to these bit for bit."""
        def bits(loss, name):
            column = getattr(loss, name)
            return column.dtype, column.shape, column.tobytes()

        return type(other) is type(self) and all(
            bits(self, name) == bits(other, name) for name in ("anchor", *self.coefficients))

    def __getitem__(self, index) -> "Loss":
        """The losses at `index` of the rows, as a loss of the same family."""
        columns = {name: getattr(self, name)[index] for name in self.coefficients}
        return type(self)(self.anchor[index], **columns)

    def _column(self, value, dtype=float) -> Array:
        # C order: a copied broadcast keeps the broadcast axis innermost, and
        # reductions and dot products round strided rows differently.
        return np.array(np.broadcast_to(np.asarray(value, dtype=dtype), self.anchor.shape[:-1]),
                        order="C")

    def _exponent(self, m) -> Array:
        m = np.asarray(m)
        if np.any(m != np.floor(m)) or np.any(m < 1):
            raise ValueError("exponent m must be an integer >= 1")
        return self._column(m, dtype=np.int64)

    def distance(self, x) -> Array:
        """||x - anchor||."""
        d = self._offset(x, ...)
        return np.sqrt(np.vecdot(d, d))

    def value(self, x) -> Array:
        return self.radial(self.distance(x))

    def radial(self, r) -> Array:
        raise NotImplementedError

    def grad(self, x, at=...) -> Array:
        """Gradient at x of the rows `at`."""
        d = self._offset(x, at)
        return self._grad(d, np.sqrt(np.vecdot(d, d)), at)

    def kinks(self, x) -> Array:
        """Rows where `grad` returns the zero subgradient at a kink."""
        return (self.distance(x) == 0.0) & (self.kink_slope() > 0.0)

    def kink_slope(self) -> Array:
        """radial'(0+) of each row: 0 where the profile is smooth at the anchor."""
        return np.zeros(self.anchor.shape[:-1])

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

    def _grad(self, d: Array, r: Array, at) -> Array:
        raise NotImplementedError

    def _offset(self, x, at) -> Array:
        v = np.asarray(x, dtype=float)
        if v.shape[-1:] != (self.dim,):
            raise ValueError(f"dimension mismatch: expected {self.dim}, got shape {v.shape}")
        return v - self.anchor[at]


def _radial_direction(d: Array, slope: Array, zero: Array) -> Array:
    """slope * d, with the rows where `zero` holds set to the zero vector."""
    g = slope[..., None] * d
    g[zero] = 0.0
    return g


class NormLoss(Loss):
    """radial(r) = r; unit-length radial gradient away from the anchor."""

    family = "norm"

    def radial(self, r) -> Array:
        return np.asarray(r, dtype=float)

    def _grad(self, d, r, at) -> Array:
        r = r[..., None]
        return np.divide(d, r, out=np.zeros(d.shape), where=r != 0.0)

    def kink_slope(self) -> Array:
        return np.ones(self.anchor.shape[:-1])

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

    def _grad(self, d, r, at) -> Array:
        return (2.0 * self.a[at])[..., None] * d

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

    def _grad(self, d, r, at) -> Array:
        m = self.m[at]
        zero = r == 0.0
        return _radial_direction(d, m * np.float_power(np.where(zero, 1.0, r), m - 2), zero)

    def kink_slope(self) -> Array:
        return np.where(self.m == 1, 1.0, 0.0)

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

    def _grad(self, d, r, at) -> Array:
        a, m, s2 = self.a[at], self.m[at], np.float_power(self.s[at], 2)
        zero = r == 0.0
        safe = np.where(zero, 1.0, r)
        slope = a * m * np.float_power(safe, m - 2) * np.exp(np.float_power(safe, m) / s2) / s2
        return _radial_direction(d, slope, zero)

    def kink_slope(self) -> Array:
        return np.where(self.m == 1, self.a / np.float_power(self.s, 2), 0.0)

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
