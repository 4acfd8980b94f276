"""Firm production/investment model on the integer horizon scale.

Sales follow a hyperbolic price curve ``(y - y_floor)(p - p0) = B``; the
firm weighs a discounted capital functional (production cost minus
revenue) against a discounted technology functional, combined as a
product.  Each of the two component integrals can be discretized with
the forward (delta) or backward (nabla) quotient, giving four problem
kinds; the mixed kinds additionally admit two time-scale
Euler-Lagrange formulations beside the directly discretized system.

Everything here works on the scale {0, 1, ..., T} with clamped jump
operators: a forward difference at T and a backward difference at 0 are
taken as zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .solver import ResidualSystem
from .timescale import DomainError, GridFunction, TimeScale
from .variational import CompositeProblem, Integrand, product_outer

__all__ = [
    "EquationKind",
    "FirmParams",
    "ProblemKind",
    "firm_integrand",
    "firm_problem",
    "gamma_term",
    "residual_system",
]

INTEGRAND_NAMES = (
    "capital_delta",
    "capital_nabla",
    "technology_delta",
    "technology_nabla",
)


class ProblemKind(enum.Enum):
    """Which quotient each component integral uses (capital, technology)."""

    DELTA_DELTA = "dd"
    NABLA_NABLA = "nn"
    DELTA_NABLA = "dn"
    NABLA_DELTA = "nd"

    @property
    def capital_mode(self) -> str:
        return "delta" if self.value[0] == "d" else "nabla"

    @property
    def technology_mode(self) -> str:
        return "delta" if self.value[1] == "d" else "nabla"

    @property
    def is_mixed(self) -> bool:
        return self.value in ("dn", "nd")


class EquationKind(enum.Enum):
    """Residual system flavour; all three coincide for the pure kinds."""

    DIRECT = "direct"
    TIMESCALE_EL1 = "el1"
    TIMESCALE_EL2 = "el2"


@dataclass(frozen=True)
class FirmParams:
    """Model constants; defaults reproduce the worked horizon-3 example."""

    discount_rate: float = 0.05
    c0: float = 3.0          # fixed production cost
    c1: float = 0.5          # linear production cost
    c2: float = 3.0          # cost of changing the production rate
    lam: float = 0.5         # technology cost proportional to sales
    beta: float = 0.25       # technology cost of changing the rate
    b: float = 4.0           # bound softening the rate change under the root
    B: float = 2.0           # hyperbola constant of the price curve
    p0: float = 1.0          # price floor
    y_floor: float = 1.0     # sales floor of the price curve
    horizon: int = 3
    y_initial: float = 2.0
    y_terminal: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.discount_rate < 1.0:
            raise ValueError(f"discount_rate must lie in (0, 1), got {self.discount_rate}")
        if self.c2 <= 0:
            raise ValueError(f"c2 must be positive, got {self.c2}")
        if self.b <= 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if self.B <= 0:
            raise ValueError(f"B must be positive, got {self.B}")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if int(self.horizon) != self.horizon or self.horizon < 2:
            raise ValueError(f"horizon must be an integer >= 2, got {self.horizon}")
        # an integral float (10.0) or numpy integer is kept as a Python int,
        # which the point ranges of the residual systems need
        object.__setattr__(self, "horizon", int(self.horizon))
        if self.y_initial <= self.y_floor:
            raise ValueError(
                f"y_initial {self.y_initial} must exceed y_floor {self.y_floor}"
            )
        if self.y_terminal <= self.y_floor:
            raise ValueError(
                f"y_terminal {self.y_terminal} must exceed y_floor {self.y_floor}"
            )


# ---------------------------------------------------------------------------
# guards and discounts shared by the integrands and the residual systems


def _guarded_sqrt(p: FirmParams, rate: float, t) -> float:
    arg = rate + p.b
    if arg <= 0.0:
        raise DomainError(
            f"rate-change guard: quotient {rate} + b = {arg} is not positive at t={t}"
        )
    return math.sqrt(arg)


def _guarded_margin(p: FirmParams, sales: float, t) -> float:
    margin = sales - p.y_floor
    if margin == 0.0:
        raise DomainError(f"price-curve guard: sales hit the floor {p.y_floor} at t={t}")
    return margin


def _capital_slope(p: FirmParams, margin):
    """c1 - p0 + B y_floor / margin^2: the sales derivative of the capital bracket.

    The square is a product, not ``margin**2``: a float power raises
    OverflowError where the product gives inf, as numpy's square does, so a
    single state and a stack of states overflow alike.
    """
    return p.c1 - p.p0 + p.B * p.y_floor / (margin * margin)


def _disc_delta(p: FirmParams, t: float) -> float:
    return (1.0 + p.discount_rate) ** (t - p.horizon)


def _disc_nabla(p: FirmParams, t: float) -> float:
    return (1.0 - p.discount_rate) ** (p.horizon - t)


# ---------------------------------------------------------------------------
# integrands


def firm_integrand(params: FirmParams, which: str) -> Integrand:
    """One of the four discounted integrands, with analytic partials.

    ``which`` is ``capital_delta``, ``capital_nabla``, ``technology_delta``
    or ``technology_nabla``.  The ``(t, y, v)`` arguments are the time
    point, the jump-shifted sales and the difference-quotient rate.
    """
    if which not in INTEGRAND_NAMES:
        raise ValueError(f"which must be one of {INTEGRAND_NAMES}, got {which!r}")
    family, mode = which.rsplit("_", 1)
    disc = _disc_delta if mode == "delta" else _disc_nabla
    p = params

    if family == "capital":
        def value(t, y, v):
            margin = _guarded_margin(p, y, t)
            return disc(p, t) * (
                p.c0 + p.c1 * y + p.c2 * v * v - y * p.p0 - p.B * y / margin
            )

        def partial_y(t, y, v):
            margin = _guarded_margin(p, y, t)
            return disc(p, t) * _capital_slope(p, margin)

        def partial_v(t, y, v):
            return disc(p, t) * 2.0 * p.c2 * v
    else:
        def value(t, y, v):
            return disc(p, t) * (p.lam * y + p.beta * _guarded_sqrt(p, v, t))

        def partial_y(t, y, v):
            return disc(p, t) * p.lam

        def partial_v(t, y, v):
            return disc(p, t) * p.beta / (2.0 * _guarded_sqrt(p, v, t))

    return Integrand(mode, value, partial_y, partial_v)


def firm_problem(params: FirmParams, kind: ProblemKind) -> CompositeProblem:
    """Composite product problem for the requested discretization kind."""
    scale = TimeScale.integer_range(0, params.horizon)
    capital = firm_integrand(params, f"capital_{kind.capital_mode}")
    technology = firm_integrand(params, f"technology_{kind.technology_mode}")
    # component order: delta slots before nabla, capital before technology
    if kind is ProblemKind.DELTA_DELTA:
        delta, nabla = (capital, technology), ()
    elif kind is ProblemKind.NABLA_NABLA:
        delta, nabla = (), (capital, technology)
    elif kind is ProblemKind.DELTA_NABLA:
        delta, nabla = (capital,), (technology,)
    else:
        delta, nabla = (technology,), (capital,)
    return CompositeProblem(
        scale=scale,
        delta_integrands=delta,
        nabla_integrands=nabla,
        outer=product_outer(),
        boundary=(params.y_initial, params.y_terminal),
    )


# ---------------------------------------------------------------------------
# state tables
#
# A scalar residual evaluation first tabulates, once per state, everything
# the guards protect: the price-curve margins y_t - y_floor and the roots
# sqrt(quotient + b).  The totals, gammas and el1/el2 parts below then read
# these tables point by point as float arithmetic.  The stacked residual
# (further down) holds the same tables as (T+1, S) arrays, one column per
# state, and evaluates each of those pieces at every point at once.


class _Tables(NamedTuple):
    """Per-point tables of a state on {0, ..., T}, clamped at the ends."""

    y: Sequence            # sales y_t
    margin: Sequence       # y_t - y_floor
    up_rate: Sequence      # forward quotient y_{t+1} - y_t, zero at T
    down_rate: Sequence    # backward quotient y_t - y_{t-1}, zero at 0
    up_root: Sequence      # sqrt(up_rate + b)
    down_root: Sequence    # sqrt(down_rate + b)
    disc_delta: Sequence   # (1 + rho)^(t - T)
    disc_nabla: Sequence   # (1 - rho)^(T - t)


def _constants(p: FirmParams) -> tuple:
    """The state-independent entries of the tables."""
    points = range(p.horizon + 1)
    return ([_disc_delta(p, t) for t in points], [_disc_nabla(p, t) for t in points],
            math.sqrt(p.b))   # the root of a clamped (zero) quotient


def _checked_tables(p: FirmParams, constants: tuple, yv: list,
                    capital_mode: str, technology_mode: str) -> _Tables:
    """Tables of one state; raises :class:`DomainError` at a failed guard.

    The margins are checked before the roots, each in ascending order, and
    a failure is labelled with the summation index at which the component
    integral of the given mode meets the value.
    """
    margin = [y - p.y_floor for y in yv]
    if 0.0 in margin:
        i = margin.index(0.0)
        _guarded_margin(p, yv[i], i - 1 if capital_mode == "delta" else i + 1)
    rate = [yv[t + 1] - yv[t] for t in range(len(yv) - 1)]
    root = []
    for t, r in enumerate(rate):
        if r + p.b <= 0.0:
            _guarded_sqrt(p, r, t if technology_mode == "delta" else t + 1)
        root.append(math.sqrt(r + p.b))
    disc_delta, disc_nabla, edge = constants
    return _Tables(yv, margin, rate + [0.0], [0.0] + rate,
                   root + [edge], [edge] + root, disc_delta, disc_nabla)


def _up(i: int, top: int) -> int:
    return i + 1 if i < top else top


def _down(i: int) -> int:
    return i - 1 if i > 0 else 0


# ---------------------------------------------------------------------------
# component integrals


def _capital_total(p: FirmParams, tab: _Tables, mode: str):
    total = 0.0
    if mode == "delta":
        for t in range(p.horizon):
            y = tab.y[t + 1]
            v = tab.up_rate[t]
            total += tab.disc_delta[t] * (
                p.c0 + p.c1 * y + p.c2 * v * v - y * p.p0 - p.B * y / tab.margin[t + 1]
            )
    else:
        for t in range(1, p.horizon + 1):
            y = tab.y[t - 1]
            v = tab.down_rate[t]
            total += tab.disc_nabla[t] * (
                p.c0 + p.c1 * y + p.c2 * v * v - y * p.p0 - p.B * y / tab.margin[t - 1]
            )
    return total


def _technology_total(p: FirmParams, tab: _Tables, mode: str):
    total = 0.0
    if mode == "delta":
        for t in range(p.horizon):
            total += tab.disc_delta[t] * (p.lam * tab.y[t + 1] + p.beta * tab.up_root[t])
    else:
        for t in range(1, p.horizon + 1):
            total += tab.disc_nabla[t] * (p.lam * tab.y[t - 1] + p.beta * tab.down_root[t])
    return total


# ---------------------------------------------------------------------------
# gamma terms: pointwise Euler-Lagrange cores of the four integrands


def _gamma_capital_delta(p: FirmParams, tab: _Tables, t: int):
    up = _up(t, p.horizon)
    dyt = tab.up_rate[t]
    ddyt = tab.up_rate[up] - dyt
    return tab.disc_delta[t] * (
        _capital_slope(p, tab.margin[up])
        - 2.0 * p.c2 * (p.discount_rate * dyt + (1.0 + p.discount_rate) * ddyt)
    )


def _gamma_capital_nabla(p: FirmParams, tab: _Tables, t: int):
    down = _down(t)
    nyt = tab.down_rate[t]
    nnyt = nyt - tab.down_rate[down]
    return tab.disc_nabla[t] * (
        _capital_slope(p, tab.margin[down])
        - 2.0 * p.c2 * (p.discount_rate * nyt + (1.0 - p.discount_rate) * nnyt)
    )


def _gamma_technology_delta(p: FirmParams, tab: _Tables, t: int):
    root_here = tab.up_root[t]
    root_next = tab.up_root[_up(t, p.horizon)]
    numer = p.discount_rate * root_here - (root_next - root_here)
    return tab.disc_delta[t] * (p.lam - p.beta * numer / (2.0 * root_here * root_next))


def _gamma_technology_nabla(p: FirmParams, tab: _Tables, t: int):
    root_here = tab.down_root[t]
    root_prev = tab.down_root[_down(t)]
    numer = p.discount_rate * root_here - (root_here - root_prev)
    return tab.disc_nabla[t] * (p.lam - p.beta * numer / (2.0 * root_here * root_prev))


_GAMMAS = {
    "capital_delta": _gamma_capital_delta,
    "capital_nabla": _gamma_capital_nabla,
    "technology_delta": _gamma_technology_delta,
    "technology_nabla": _gamma_technology_nabla,
}


def _state_values(params: FirmParams, y) -> list:
    if isinstance(y, GridFunction):
        vals = y.values
    else:
        vals = np.asarray(y, dtype=float)
    if vals.shape != (params.horizon + 1,):
        raise ValueError(
            f"state needs {params.horizon + 1} values on 0..{params.horizon}, "
            f"got {vals.shape}"
        )
    return vals.tolist()


def gamma_term(params: FirmParams, which: str, y, t: int) -> float:
    """Euler-Lagrange core of one integrand at point ``t``.

    ``y`` holds the sales values on the whole scale {0, ..., T}; shifts
    that leave the scale are clamped, so the term is defined at every
    point.  Raises :class:`DomainError` if a guard fails anywhere on the
    state.
    """
    if which not in _GAMMAS:
        raise ValueError(f"which must be one of {INTEGRAND_NAMES}, got {which!r}")
    if int(t) != t or not 0 <= t <= params.horizon:
        raise ValueError(f"t={t} is not a point of the horizon scale")
    mode = which.rsplit("_", 1)[1]
    tab = _checked_tables(params, _constants(params), _state_values(params, y), mode, mode)
    return _GAMMAS[which](params, tab, int(t))


# ---------------------------------------------------------------------------
# mixed-kind time-scale Euler-Lagrange pieces


def _parts_dn_el1(p: FirmParams, tab: _Tables, k_delta, t: int):
    up = _up(t, p.horizon)
    disc = tab.disc_nabla[up]
    part1 = p.lam * disc
    w_here = tab.down_root[t]
    w_next = tab.down_root[up]
    u_here = tab.up_root[t]
    numer = p.discount_rate * w_here - (1.0 - p.discount_rate) * (w_next - w_here)
    part2 = p.beta * disc * numer / (2.0 * w_here * u_here)
    return k_delta * (part1 - part2)


def _parts_dn_el2(p: FirmParams, tab: _Tables, a_nabla, t: int):
    disc = tab.disc_delta[_down(t)]
    part3 = disc * _capital_slope(p, tab.margin[t])
    curvature = tab.y[_up(t, p.horizon)] - 2.0 * tab.y[t] + tab.y[_down(t)]
    part4 = 2.0 * p.c2 * disc * (p.discount_rate * tab.up_rate[t] + curvature)
    return a_nabla * (part3 - part4)


def _parts_nd_el1(p: FirmParams, tab: _Tables, a_delta, t: int):
    up = _up(t, p.horizon)
    disc = tab.disc_nabla[up]
    part5 = disc * _capital_slope(p, tab.margin[t])
    rate_jump = tab.down_rate[up] - tab.down_rate[t]
    part6 = 2.0 * p.c2 * disc * (p.discount_rate * tab.down_rate[t] + rate_jump)
    return a_delta * (part5 - part6)


def _parts_nd_el2(p: FirmParams, tab: _Tables, k_nabla, t: int):
    disc = tab.disc_delta[_down(t)]
    part7 = p.lam * disc
    u_here = tab.up_root[t]
    u_prev = tab.up_root[_down(t)]
    w_here = tab.down_root[t]
    numer = p.discount_rate * u_here - (1.0 + p.discount_rate) * (u_here - u_prev)
    part8 = disc * p.beta * numer / (2.0 * u_here * w_here)
    return k_nabla * (part7 - part8)


# ---------------------------------------------------------------------------
# whole-array pieces of the stacked residual
#
# The same algebra as the per-point functions above, on (T+1, S) tables with
# one column per state.  Each piece is evaluated at every point t = 0..T at
# once: the clamped shifts i -> min(i+1, T) and i -> max(i-1, 0) become the
# slices of _next and _prev, a total is a sum over axis 0, and a system keeps
# the window of points it is posed on.


def _next(a: np.ndarray) -> np.ndarray:
    """Row min(t+1, T) of ``a`` at every row t."""
    return np.concatenate((a[1:], a[-1:]))


def _prev(a: np.ndarray) -> np.ndarray:
    """Row max(t-1, 0) of ``a`` at every row t."""
    return np.concatenate((a[:1], a[:-1]))


def _array_tables(p: FirmParams, discs: np.ndarray, yt: np.ndarray):
    """Tables of the feasible columns of ``yt`` (shape (T+1, S)), and their mask.

    A column is infeasible exactly where :func:`_checked_tables` would raise
    for that state; the tables hold the feasible columns only, and the mask
    is None when every column is feasible.  ``discs`` holds the two discount
    factors as (T+1, 1) columns.
    """
    margin = yt - p.y_floor
    rate = yt[1:] - yt[:-1]
    arg = rate + p.b
    ok = None
    if not (margin.all() and (arg > 0.0).all()):
        ok = ~((margin == 0.0).any(axis=0) | (arg <= 0.0).any(axis=0))
        yt, margin, rate, arg = yt[:, ok], margin[:, ok], rate[:, ok], arg[:, ok]
    # quotients and roots padded with the clamped values at both ends, so the
    # forward and backward tables are the two overlapping views
    rates = np.zeros((len(yt) + 1, yt.shape[1]))
    rates[1:-1] = rate
    roots = np.full(rates.shape, math.sqrt(p.b))
    np.sqrt(arg, out=roots[1:-1])
    return _Tables(yt, margin, rates[1:], rates[:-1], roots[1:], roots[:-1], *discs), ok


def _with_nan_rows(ok, rows: np.ndarray) -> np.ndarray:
    """``rows``, one per feasible state, spread over all states with NaN rows at the others."""
    if ok is None:
        return rows
    out = np.full((len(ok),) + rows.shape[1:], np.nan)
    out[ok] = rows
    return out


def _array_totals(p: FirmParams, kind: ProblemKind, tab: _Tables):
    """The capital and technology integrals of every state, shape (S,) each."""
    if kind.capital_mode == "delta":
        y, v, margin, disc = tab.y[1:], tab.up_rate[:-1], tab.margin[1:], tab.disc_delta[:-1]
    else:
        y, v, margin, disc = tab.y[:-1], tab.down_rate[1:], tab.margin[:-1], tab.disc_nabla[1:]
    capital = (disc * (p.c0 + p.c1 * y + p.c2 * v * v - y * p.p0 - p.B * y / margin)).sum(axis=0)
    if kind.technology_mode == "delta":
        y, root, disc = tab.y[1:], tab.up_root[:-1], tab.disc_delta[:-1]
    else:
        y, root, disc = tab.y[:-1], tab.down_root[1:], tab.disc_nabla[1:]
    technology = (disc * (p.lam * y + p.beta * root)).sum(axis=0)
    return capital, technology


def _array_gamma_capital(p: FirmParams, tab: _Tables, mode: str) -> np.ndarray:
    if mode == "delta":
        dyt = tab.up_rate
        return tab.disc_delta * (
            _capital_slope(p, _next(tab.margin))
            - 2.0 * p.c2 * (p.discount_rate * dyt + (1.0 + p.discount_rate) * (_next(dyt) - dyt))
        )
    nyt = tab.down_rate
    return tab.disc_nabla * (
        _capital_slope(p, _prev(tab.margin))
        - 2.0 * p.c2 * (p.discount_rate * nyt + (1.0 - p.discount_rate) * (nyt - _prev(nyt)))
    )


def _array_gamma_technology(p: FirmParams, tab: _Tables, mode: str) -> np.ndarray:
    if mode == "delta":
        root_here = tab.up_root
        root_next = _next(root_here)
        numer = p.discount_rate * root_here - (root_next - root_here)
        return tab.disc_delta * (p.lam - p.beta * numer / (2.0 * root_here * root_next))
    root_here = tab.down_root
    root_prev = _prev(root_here)
    numer = p.discount_rate * root_here - (root_here - root_prev)
    return tab.disc_nabla * (p.lam - p.beta * numer / (2.0 * root_here * root_prev))


def _array_parts(p: FirmParams, kind: ProblemKind, eq: EquationKind, tab: _Tables,
                 capital, technology) -> np.ndarray:
    """The middle term of a mixed el1/el2 equation at every point."""
    rho = p.discount_rate
    if kind is ProblemKind.DELTA_NABLA and eq is EquationKind.TIMESCALE_EL1:
        disc = _next(tab.disc_nabla)
        w_here = tab.down_root
        numer = rho * w_here - (1.0 - rho) * (_next(w_here) - w_here)
        part2 = p.beta * disc * numer / (2.0 * w_here * tab.up_root)
        return capital * (p.lam * disc - part2)
    if kind is ProblemKind.DELTA_NABLA:
        disc = _prev(tab.disc_delta)
        part3 = disc * _capital_slope(p, tab.margin)
        curvature = _next(tab.y) - 2.0 * tab.y + _prev(tab.y)
        part4 = 2.0 * p.c2 * disc * (rho * tab.up_rate + curvature)
        return technology * (part3 - part4)
    if eq is EquationKind.TIMESCALE_EL1:
        disc = _next(tab.disc_nabla)
        part5 = disc * _capital_slope(p, tab.margin)
        rate_jump = _next(tab.down_rate) - tab.down_rate
        part6 = 2.0 * p.c2 * disc * (rho * tab.down_rate + rate_jump)
        return technology * (part5 - part6)
    disc = _prev(tab.disc_delta)
    u_here = tab.up_root
    numer = rho * u_here - (1.0 + rho) * (u_here - _prev(u_here))
    part8 = disc * p.beta * numer / (2.0 * u_here * tab.down_root)
    return capital * (p.lam * disc - part8)


def _array_equations(p: FirmParams, kind: ProblemKind, eq: EquationKind, tab: _Tables,
                     capital, technology) -> np.ndarray:
    """Every equation of :func:`_point_residual`, at every point t = 0..T."""
    capital_term = technology * _array_gamma_capital(p, tab, kind.capital_mode)
    technology_term = capital * _array_gamma_technology(p, tab, kind.technology_mode)
    if not kind.is_mixed or eq is EquationKind.DIRECT:
        return capital_term + technology_term
    middle = _array_parts(p, kind, eq, tab, capital, technology)
    if kind is ProblemKind.DELTA_NABLA:
        delta_term, nabla_term = capital_term, technology_term
    else:
        delta_term, nabla_term = technology_term, capital_term
    if eq is EquationKind.TIMESCALE_EL1:
        ahead = _next(nabla_term)
        return delta_term + middle + (_next(ahead) - ahead)
    behind = _prev(delta_term)
    return middle + nabla_term - (behind - _prev(behind))


# ---------------------------------------------------------------------------
# residual systems


def _domain_points(kind: ProblemKind, horizon: int) -> range:
    if kind is ProblemKind.DELTA_DELTA:
        return range(0, horizon - 1)
    if kind is ProblemKind.NABLA_NABLA:
        return range(2, horizon + 1)
    return range(1, horizon)


def _point_residual(p: FirmParams, kind: ProblemKind, eq: EquationKind,
                    tab: _Tables, t: int, capital_total, technology_total):
    """One equation of the system at point t.

    The product rule pairs each integrand's core with the other
    component's integral; both totals are frozen at the current state.
    """
    if kind is ProblemKind.DELTA_DELTA:
        return (technology_total * _gamma_capital_delta(p, tab, t)
                + capital_total * _gamma_technology_delta(p, tab, t))
    if kind is ProblemKind.NABLA_NABLA:
        return (technology_total * _gamma_capital_nabla(p, tab, t)
                + capital_total * _gamma_technology_nabla(p, tab, t))
    top = p.horizon
    if kind is ProblemKind.DELTA_NABLA:
        if eq is EquationKind.DIRECT:
            return (technology_total * _gamma_capital_delta(p, tab, t)
                    + capital_total * _gamma_technology_nabla(p, tab, t))
        if eq is EquationKind.TIMESCALE_EL1:
            head = technology_total * _gamma_capital_delta(p, tab, t)
            middle = _parts_dn_el1(p, tab, capital_total, t)
            def aggregated(s):
                return capital_total * _gamma_technology_nabla(p, tab, s)
            tail = aggregated(_up(_up(t, top), top)) - aggregated(_up(t, top))
            return head + middle + tail
        head = capital_total * _gamma_technology_nabla(p, tab, t)
        middle = _parts_dn_el2(p, tab, technology_total, t)
        def aggregated(s):
            return technology_total * _gamma_capital_delta(p, tab, s)
        tail = aggregated(_down(t)) - aggregated(_down(_down(t)))
        return middle + head - tail
    # nabla-delta
    if eq is EquationKind.DIRECT:
        return (technology_total * _gamma_capital_nabla(p, tab, t)
                + capital_total * _gamma_technology_delta(p, tab, t))
    if eq is EquationKind.TIMESCALE_EL1:
        head = capital_total * _gamma_technology_delta(p, tab, t)
        middle = _parts_nd_el1(p, tab, technology_total, t)
        def aggregated(s):
            return technology_total * _gamma_capital_nabla(p, tab, s)
        tail = aggregated(_up(_up(t, top), top)) - aggregated(_up(t, top))
        return head + middle + tail
    head = technology_total * _gamma_capital_nabla(p, tab, t)
    middle = _parts_nd_el2(p, tab, capital_total, t)
    def aggregated(s):
        return capital_total * _gamma_technology_delta(p, tab, s)
    tail = aggregated(_down(t)) - aggregated(_down(_down(t)))
    return middle + head - tail


def _totals(p: FirmParams, kind: ProblemKind, tab: _Tables):
    capital = _capital_total(p, tab, kind.capital_mode)
    technology = _technology_total(p, tab, kind.technology_mode)
    return capital, technology


def residual_system(params: FirmParams, kind: ProblemKind,
                    eq: EquationKind = EquationKind.DIRECT) -> ResidualSystem:
    """Square system in the interior sales values y_1, ..., y_{T-1}.

    For the pure kinds every :class:`EquationKind` yields the same
    system; the mixed kinds dispatch on it.  The residual and functional
    evaluate one state point by point.  The system also carries stacked
    forms of both, which evaluate a stack of states as whole-array
    expressions of the same algebra and mark infeasible states with NaN.
    A state whose residual overflows (is not finite) is infeasible too: the
    residual raises :class:`DomainError` there and the stacked residual
    gives a NaN row.  The functional is returned as computed, inf included.
    """
    p = params
    m = p.horizon - 1
    points = _domain_points(kind, p.horizon)
    window = slice(points.start, points.stop)
    constants = _constants(p)
    discs = np.array(constants[:2])[:, :, None]   # both discounts as (T+1, 1) columns
    modes = (kind.capital_mode, kind.technology_mode)

    def tables(x) -> _Tables:
        if len(x) != m:
            raise ValueError(f"expected {m} interior values, got {len(x)}")
        yv = [p.y_initial, *np.asarray(x, dtype=float).tolist(), p.y_terminal]
        return _checked_tables(p, constants, yv, *modes)

    def stacked_tables(xs):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != m:
            raise ValueError(f"expected states of {m} interior values, got shape {xs.shape}")
        yt = np.empty((p.horizon + 1, len(xs)))
        yt[0] = p.y_initial
        yt[1:-1] = xs.T
        yt[-1] = p.y_terminal
        return _array_tables(p, discs, yt)

    def equations(tab: _Tables) -> list:
        capital, technology = _totals(p, kind, tab)
        return [_point_residual(p, kind, eq, tab, t, capital, technology) for t in points]

    def residual(x: np.ndarray) -> np.ndarray:
        tab = tables(x)
        try:
            values = equations(tab)
        except ZeroDivisionError:   # a square that underflows to 0; numpy gives inf
            values = [math.inf]
        if not all(map(math.isfinite, values)):
            raise DomainError("residual is not finite at this state")
        return np.array(values)

    def functional(x: np.ndarray) -> float:
        capital, technology = _totals(p, kind, tables(x))
        return capital * technology

    # overflow is expected there and marked by the NaN rows, so numpy's
    # warnings about it are off
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def stacked_residual(xs: np.ndarray) -> np.ndarray:
        tab, ok = stacked_tables(xs)
        totals = _array_totals(p, kind, tab)
        rows = _array_equations(p, kind, eq, tab, *totals)[window].T
        if not np.isfinite(rows).all():
            rows[~np.isfinite(rows).all(axis=1)] = np.nan
        return _with_nan_rows(ok, rows)

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def stacked_functional(xs: np.ndarray) -> np.ndarray:
        tab, ok = stacked_tables(xs)
        capital, technology = _array_totals(p, kind, tab)
        return _with_nan_rows(ok, capital * technology)

    return ResidualSystem(
        dimension=m,
        residual=residual,
        label=f"{kind.value}/{eq.value}",
        functional=functional,
        stacked_residual=stacked_residual,
        stacked_functional=stacked_functional,
    )
