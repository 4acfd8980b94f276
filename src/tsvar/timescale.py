"""Finite isolated time scales and the delta/nabla calculus on grid functions.

A time scale here is a finite, strictly increasing tuple of real time
points.  Every point of a finite scale is isolated, so the jump operators
are total (clamped at the extremes by definition) and the delta/nabla
derivatives reduce to forward/backward difference quotients on the
one-point-trimmed domains.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

__all__ = [
    "DomainError",
    "GridFunction",
    "PointNotInScaleError",
    "TimeScale",
]


class PointNotInScaleError(ValueError):
    """A time point is not a member of the scale."""


class DomainError(ValueError):
    """An operator was evaluated outside its natural domain."""


class TimeScale:
    """A finite, strictly increasing set of real time points.

    Jump operators clamp at the extremes (``sigma(max) = max``,
    ``rho(min) = min``), which also forces the graininess to vanish
    exactly there.  The trimmed domains used by the difference operators
    are exposed as index ranges, not point copies.
    """

    __slots__ = ("_points", "_array", "_index", "_mu", "_nu")

    def __init__(self, points: Iterable[float]):
        pts = tuple(float(p) for p in points)
        if len(pts) < 3:
            raise ValueError(f"a time scale needs at least 3 points, got {len(pts)}")
        for left, right in zip(pts, pts[1:]):
            if not right > left:
                raise ValueError(
                    f"time points must be strictly increasing, got {left} before {right}"
                )
        self._points = pts
        self._array = np.asarray(pts, dtype=float)
        if not np.isfinite(self._array).all():   # NaN fails the order check above
            bad = next(p for p in pts if not np.isfinite(p))
            raise ValueError(f"time points must be finite, got {bad}")
        with np.errstate(over="ignore"):
            gaps = np.diff(self._array)
        if not np.isfinite(gaps).all():
            i = int(np.argmin(np.isfinite(gaps)))
            raise ValueError(f"the gap between time points {pts[i]} and {pts[i + 1]} overflows")
        self._index = {p: i for i, p in enumerate(pts)}
        self._mu = np.append(gaps, 0.0)        # sigma(max) = max
        self._nu = np.insert(gaps, 0, 0.0)     # rho(min) = min

    @classmethod
    def integer_range(cls, start: int, stop: int) -> "TimeScale":
        """The contiguous integer scale {start, start+1, ..., stop}."""
        return cls(range(start, stop + 1))

    @property
    def points(self) -> tuple:
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, t: float) -> bool:
        return t in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeScale) and self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:
        return f"TimeScale({list(self._points)})"

    def index(self, t: float) -> int:
        """Position of point ``t``, by exact equality."""
        try:
            return self._index[t]
        except KeyError:
            raise PointNotInScaleError(f"t={t!r} is not a point of {self!r}") from None

    # -- jump operators and graininess ------------------------------------

    def sigma(self, t: float) -> float:
        """Forward jump: the next point, or ``t`` itself at the maximum."""
        return self._points[min(self.index(t) + 1, len(self._points) - 1)]

    def rho(self, t: float) -> float:
        """Backward jump: the previous point, or ``t`` itself at the minimum."""
        return self._points[max(self.index(t) - 1, 0)]

    def mu(self, t: float) -> float:
        """Forward graininess sigma(t) - t; zero exactly at the maximum."""
        return float(self._mu[self.index(t)])

    def nu(self, t: float) -> float:
        """Backward graininess t - rho(t); zero exactly at the minimum."""
        return float(self._nu[self.index(t)])

    def graininess(self, t: float, kind: str = "forward") -> float:
        if kind == "forward":
            return self.mu(t)
        if kind == "backward":
            return self.nu(t)
        raise ValueError(f"kind must be 'forward' or 'backward', got {kind!r}")

    def mu_values(self) -> np.ndarray:
        """Forward graininess per point (last entry 0)."""
        return self._mu.copy()

    def nu_values(self) -> np.ndarray:
        """Backward graininess per point (first entry 0)."""
        return self._nu.copy()

    # -- trimmed index domains ---------------------------------------------

    @property
    def delta_domain(self) -> range:
        """Indices where the delta derivative lives (all but the last point)."""
        return range(0, len(self._points) - 1)

    @property
    def nabla_domain(self) -> range:
        """Indices where the nabla derivative lives (all but the first point)."""
        return range(1, len(self._points))

    @property
    def interior_domain(self) -> range:
        """Indices with both neighbours (all but the two extreme points)."""
        return range(1, len(self._points) - 1)

    @property
    def delta2_domain(self) -> range:
        """Indices surviving two forward trims."""
        return range(0, len(self._points) - 2)

    @property
    def nabla2_domain(self) -> range:
        """Indices surviving two backward trims."""
        return range(2, len(self._points))

    @property
    def is_integer_grid(self) -> bool:
        """True when the points are contiguous integers."""
        pts = self._array
        return bool(np.all(pts == np.round(pts)) and np.all(np.diff(pts) == 1.0))


class GridFunction:
    """Real values attached to the points of a :class:`TimeScale`.

    A grid function may be defined only on a contiguous index window of
    its scale (the trimmed domains of the difference operators); entries
    outside the window are stored as NaN and raise :class:`DomainError`
    on access.
    """

    __slots__ = ("_scale", "_values", "_support")

    def __init__(self, scale: TimeScale, values: Iterable[float], support: range | None = None):
        vals = np.array(values, dtype=float)
        if vals.shape != (len(scale),):
            raise ValueError(
                f"values must have one entry per point: got shape {vals.shape} "
                f"for {len(scale)} points"
            )
        if support is None:
            support = range(0, len(scale))
        if support.step != 1 or support.start < 0 or support.stop > len(scale):
            raise ValueError(f"support {support} does not fit a scale of {len(scale)} points")
        vals[: support.start] = np.nan
        vals[support.stop:] = np.nan
        vals.setflags(write=False)
        self._scale = scale
        self._values = vals
        self._support = support

    @classmethod
    def from_callable(cls, scale: TimeScale, fn: Callable[[float], float]) -> "GridFunction":
        return cls(scale, [fn(t) for t in scale.points])

    @property
    def scale(self) -> TimeScale:
        return self._scale

    @property
    def values(self) -> np.ndarray:
        """Raw per-point values (NaN outside the support window)."""
        return self._values

    @property
    def support(self) -> range:
        return self._support

    def __repr__(self) -> str:
        try:
            return f"GridFunction({list(self._values)}, support={self._support})"
        except AttributeError:   # half built: __init__ refused its values
            return "GridFunction(<unbuilt>)"

    def value(self, t: float) -> float:
        i = self._scale.index(t)
        if i not in self._support:
            raise DomainError(f"grid function is not defined at t={t}")
        v = self._values[i]
        if np.isnan(v):
            raise DomainError(f"grid function is not defined at t={t}")
        return float(v)

    def __call__(self, t: float) -> float:
        return self.value(t)

    def __mul__(self, other: "GridFunction") -> "GridFunction":
        if not isinstance(other, GridFunction):
            return NotImplemented
        if other._scale != self._scale:
            raise ValueError("grid functions live on different scales")
        lo = max(self._support.start, other._support.start)
        hi = min(self._support.stop, other._support.stop)
        with np.errstate(invalid="ignore"):
            vals = np.asarray(self._values * other._values)
        return GridFunction(self._scale, vals, range(lo, max(lo, hi)))

    # -- difference quotients ----------------------------------------------

    def delta_derivative(self) -> "GridFunction":
        """Forward difference quotient, defined up to (not at) the last
        supported point."""
        n = len(self._scale)
        out = np.full(n, np.nan)
        mu = self._scale.mu_values()
        lo, hi = self._support.start, self._support.stop - 1
        out[lo:hi] = (self._values[lo + 1 : hi + 1] - self._values[lo:hi]) / mu[lo:hi]
        return GridFunction(self._scale, out, range(lo, max(lo, hi)))

    def nabla_derivative(self) -> "GridFunction":
        """Backward difference quotient, defined above the first supported
        point."""
        n = len(self._scale)
        out = np.full(n, np.nan)
        nu = self._scale.nu_values()
        lo, hi = self._support.start + 1, self._support.stop
        out[lo:hi] = (self._values[lo:hi] - self._values[lo - 1 : hi - 1]) / nu[lo:hi]
        return GridFunction(self._scale, out, range(min(lo, hi), hi))

    # -- jump compositions ---------------------------------------------------

    def compose_sigma(self) -> "GridFunction":
        """The function t -> value(sigma(t))."""
        n = len(self._scale)
        idx = np.minimum(np.arange(n) + 1, n - 1)
        lo = max(0, self._support.start - 1)
        hi = self._support.stop if self._support.stop == n else self._support.stop - 1
        return GridFunction(self._scale, self._values[idx], range(lo, max(lo, hi)))

    def compose_rho(self) -> "GridFunction":
        """The function t -> value(rho(t))."""
        n = len(self._scale)
        idx = np.maximum(np.arange(n) - 1, 0)
        lo = self._support.start if self._support.start == 0 else self._support.start + 1
        hi = min(n, self._support.stop + 1)
        return GridFunction(self._scale, self._values[idx], range(min(lo, hi), hi))

    # -- integrals -----------------------------------------------------------

    def delta_integral(self, a: float, b: float) -> float:
        """Graininess-weighted sum over [a, b)."""
        ia, ib = self._scale.index(a), self._scale.index(b)
        if ia > ib:
            raise ValueError(f"integration bounds out of order: a={a} > b={b}")
        if ia == ib:
            return 0.0
        self._require_window(ia, ib, a, b)
        mu = self._scale.mu_values()
        return float(np.dot(mu[ia:ib], self._values[ia:ib]))

    def nabla_integral(self, a: float, b: float) -> float:
        """Graininess-weighted sum over (a, b]."""
        ia, ib = self._scale.index(a), self._scale.index(b)
        if ia > ib:
            raise ValueError(f"integration bounds out of order: a={a} > b={b}")
        if ia == ib:
            return 0.0
        self._require_window(ia + 1, ib + 1, a, b)
        nu = self._scale.nu_values()
        return float(np.dot(nu[ia + 1 : ib + 1], self._values[ia + 1 : ib + 1]))

    def _require_window(self, lo: int, hi: int, a: float, b: float) -> None:
        if lo < self._support.start or hi > self._support.stop:
            raise DomainError(f"grid function is not defined on all of [{a}, {b}]")
        if np.isnan(self._values[lo:hi]).any():
            raise DomainError(f"grid function is not defined on all of [{a}, {b}]")

    # -- norm ------------------------------------------------------------------

    def norm_1_inf(self) -> float:
        """Sup-norm over interior points of the four shifted/differenced views,
        summed."""
        interior = self._scale.interior_domain
        sl = slice(interior.start, interior.stop)
        parts = (
            self.compose_sigma().values[sl],
            self.delta_derivative().values[sl],
            self.compose_rho().values[sl],
            self.nabla_derivative().values[sl],
        )
        return float(sum(np.max(np.abs(p)) for p in parts))
