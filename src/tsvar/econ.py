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
taken as zero.  The residual systems' Euler-Lagrange algebra (the component
totals, the gammas and the el1/el2 parts) is written once, as functions of
a point; one state evaluates it as float arithmetic at int points, and a
stack of states evaluates the same functions as whole arrays on a slice of
points.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import partial
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
        for field in fields(self):
            value = getattr(self, field.name)
            # compared, not converted to float: an int may exceed its range
            if value != value or abs(value) == math.inf:
                raise ValueError(f"{field.name} must be finite, got {value}")
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
# A residual evaluation first tabulates, once per state, everything the
# guards protect: the price-curve margins y_t - y_floor and the roots
# sqrt(quotient + b).  The totals, gammas and el1/el2 parts below read these
# tables at a point t, and at its clamped jumps through the index maps
# up[t] = min(t+1, T) and down[t] = max(t-1, 0).  Each piece is written once
# and serves both evaluations.  One state holds its tables as lists and t is
# an int, so a piece is float arithmetic.  A stack holds them as (T+1, S)
# arrays with one column per state and the maps as int arrays, and t is the
# slice of points a system is posed on, so a piece evaluates every state at
# every point of that window at once.


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
    up: Sequence           # min(t + 1, T)
    down: Sequence         # max(t - 1, 0)


def _constants(p: FirmParams) -> tuple:
    """The state-independent entries of the tables."""
    points = range(p.horizon + 1)
    return ([_disc_delta(p, t) for t in points], [_disc_nabla(p, t) for t in points],
            [*points[1:], p.horizon], [0, *points[:-1]],
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
    *shared, edge = constants
    return _Tables(yv, margin, rate + [0.0], [0.0] + rate,
                   root + [edge], [edge] + root, *shared)


def _array_tables(p: FirmParams, shared: tuple, yt: np.ndarray):
    """Tables of the feasible columns of ``yt`` (shape (T+1, S)), and their mask.

    A column is infeasible exactly where :func:`_checked_tables` would raise
    for that state; the tables hold the feasible columns only, and the mask
    is None when every column is feasible.  ``shared`` holds the two discount
    factors as (T+1, 1) columns and the two index maps as int arrays.
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
    return _Tables(yt, margin, rates[1:], rates[:-1], roots[1:], roots[:-1], *shared), ok


def _with_nan_rows(ok, rows: np.ndarray) -> np.ndarray:
    """``rows``, one per feasible state, spread over all states with NaN rows at the others."""
    if ok is None:
        return rows
    out = np.full((len(ok),) + rows.shape[1:], np.nan)
    out[ok] = rows
    return out


# ---------------------------------------------------------------------------
# component integrals
#
# A component integral sums its integrand over T summation points t, reading
# the sales at the jump s of t: t + 1 in the delta mode (t = 0..T-1), t - 1
# in the nabla mode (t = 1..T).  Neither jump leaves the scale there, so one
# state sums the terms of (t, s) int pairs in order, and a stack evaluates
# them once on the two slices and sums over axis 0.


def _summation(mode: str, horizon: int) -> tuple:
    """The (t, s) pairs of a component integral of ``mode``, and the slices of t and s."""
    if mode == "delta":
        points, jumps = range(horizon), range(1, horizon + 1)
    else:
        points, jumps = range(1, horizon + 1), range(horizon)
    return (list(zip(points, jumps)),
            (slice(points.start, points.stop), slice(jumps.start, jumps.stop)))


def _mode_tables(tab: _Tables, mode: str) -> tuple:
    """The quotient, root and discount tables an integral of ``mode`` reads at t."""
    if mode == "delta":
        return tab.up_rate, tab.up_root, tab.disc_delta
    return tab.down_rate, tab.down_root, tab.disc_nabla


def _capital_term(p: FirmParams, tab: _Tables, rate, disc, t, s):
    """The capital integrand at summation point t with sales jump s."""
    y = tab.y[s]
    v = rate[t]
    return disc[t] * (p.c0 + p.c1 * y + p.c2 * v * v - y * p.p0 - p.B * y / tab.margin[s])


def _technology_term(p: FirmParams, tab: _Tables, root, disc, t, s):
    """The technology integrand at summation point t with sales jump s."""
    return disc[t] * (p.lam * tab.y[s] + p.beta * root[t])


# ---------------------------------------------------------------------------
# gamma terms: pointwise Euler-Lagrange cores of the four integrands


def _gamma_capital_delta(p: FirmParams, tab: _Tables, t):
    up = tab.up[t]
    dyt = tab.up_rate[t]
    ddyt = tab.up_rate[up] - dyt
    return tab.disc_delta[t] * (
        _capital_slope(p, tab.margin[up])
        - 2.0 * p.c2 * (p.discount_rate * dyt + (1.0 + p.discount_rate) * ddyt)
    )


def _gamma_capital_nabla(p: FirmParams, tab: _Tables, t):
    down = tab.down[t]
    nyt = tab.down_rate[t]
    nnyt = nyt - tab.down_rate[down]
    return tab.disc_nabla[t] * (
        _capital_slope(p, tab.margin[down])
        - 2.0 * p.c2 * (p.discount_rate * nyt + (1.0 - p.discount_rate) * nnyt)
    )


def _gamma_technology_delta(p: FirmParams, tab: _Tables, t):
    root_here = tab.up_root[t]
    root_next = tab.up_root[tab.up[t]]
    numer = p.discount_rate * root_here - (root_next - root_here)
    return tab.disc_delta[t] * (p.lam - p.beta * numer / (2.0 * root_here * root_next))


def _gamma_technology_nabla(p: FirmParams, tab: _Tables, t):
    root_here = tab.down_root[t]
    root_prev = tab.down_root[tab.down[t]]
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
    if not math.isfinite(t) or int(t) != t or not 0 <= t <= params.horizon:
        raise ValueError(f"t={t} is not a point of the horizon scale")
    mode = which.rsplit("_", 1)[1]
    tab = _checked_tables(params, _constants(params), _state_values(params, y), mode, mode)
    return _GAMMAS[which](params, tab, int(t))


# ---------------------------------------------------------------------------
# mixed-kind time-scale Euler-Lagrange pieces


def _parts_dn_el1(p: FirmParams, tab: _Tables, k_delta, t):
    up = tab.up[t]
    disc = tab.disc_nabla[up]
    part1 = p.lam * disc
    w_here = tab.down_root[t]
    w_next = tab.down_root[up]
    u_here = tab.up_root[t]
    numer = p.discount_rate * w_here - (1.0 - p.discount_rate) * (w_next - w_here)
    part2 = p.beta * disc * numer / (2.0 * w_here * u_here)
    return k_delta * (part1 - part2)


def _parts_dn_el2(p: FirmParams, tab: _Tables, a_nabla, t):
    down = tab.down[t]
    disc = tab.disc_delta[down]
    part3 = disc * _capital_slope(p, tab.margin[t])
    curvature = tab.y[tab.up[t]] - 2.0 * tab.y[t] + tab.y[down]
    part4 = 2.0 * p.c2 * disc * (p.discount_rate * tab.up_rate[t] + curvature)
    return a_nabla * (part3 - part4)


def _parts_nd_el1(p: FirmParams, tab: _Tables, a_delta, t):
    up = tab.up[t]
    disc = tab.disc_nabla[up]
    part5 = disc * _capital_slope(p, tab.margin[t])
    rate_jump = tab.down_rate[up] - tab.down_rate[t]
    part6 = 2.0 * p.c2 * disc * (p.discount_rate * tab.down_rate[t] + rate_jump)
    return a_delta * (part5 - part6)


def _parts_nd_el2(p: FirmParams, tab: _Tables, k_nabla, t):
    down = tab.down[t]
    disc = tab.disc_delta[down]
    part7 = p.lam * disc
    u_here = tab.up_root[t]
    u_prev = tab.up_root[down]
    w_here = tab.down_root[t]
    numer = p.discount_rate * u_here - (1.0 + p.discount_rate) * (u_here - u_prev)
    part8 = disc * p.beta * numer / (2.0 * u_here * w_here)
    return k_nabla * (part7 - part8)


# ---------------------------------------------------------------------------
# residual systems


def _domain_points(kind: ProblemKind, horizon: int) -> range:
    if kind is ProblemKind.DELTA_DELTA:
        return range(0, horizon - 1)
    if kind is ProblemKind.NABLA_NABLA:
        return range(2, horizon + 1)
    return range(1, horizon)


def _point_equation(p: FirmParams, kind: ProblemKind, eq: EquationKind):
    """The system's equation at t, and the term its tail differences.

    The equation is ``(tab, t, capital, technology, core) -> value``.  The
    product rule pairs each integrand's gamma with the other component's
    integral; both totals are frozen at the current state.  An el1 (el2)
    equation ends in the forward (backward) difference of its nabla
    (delta) term.  That term is the second function returned,
    ``(tab, t, capital, technology) -> value``, None for the direct
    systems; ``core`` holds it at the points the difference reads,
    evaluated once per state.  The kind and equation are resolved here,
    once per system, so a call runs only the arithmetic of its own equation.
    """
    gamma_capital = _GAMMAS[f"capital_{kind.capital_mode}"]
    gamma_technology = _GAMMAS[f"technology_{kind.technology_mode}"]

    def capital_term(tab, t, capital, technology):
        return technology * gamma_capital(p, tab, t)

    def technology_term(tab, t, capital, technology):
        return capital * gamma_technology(p, tab, t)

    if not kind.is_mixed or eq is EquationKind.DIRECT:
        def direct(tab, t, capital, technology, core):
            return (technology * gamma_capital(p, tab, t)
                    + capital * gamma_technology(p, tab, t))
        return direct, None
    if kind is ProblemKind.DELTA_NABLA:
        if eq is EquationKind.TIMESCALE_EL1:
            def dn_el1(tab, t, capital, technology, core):
                head = technology * gamma_capital(p, tab, t)
                middle = _parts_dn_el1(p, tab, capital, t)
                ahead = tab.up[t]
                return head + middle + (core[tab.up[ahead]] - core[ahead])
            return dn_el1, technology_term

        def dn_el2(tab, t, capital, technology, core):
            head = capital * gamma_technology(p, tab, t)
            middle = _parts_dn_el2(p, tab, technology, t)
            behind = tab.down[t]
            return middle + head - (core[behind] - core[tab.down[behind]])
        return dn_el2, capital_term
    if eq is EquationKind.TIMESCALE_EL1:
        def nd_el1(tab, t, capital, technology, core):
            head = capital * gamma_technology(p, tab, t)
            middle = _parts_nd_el1(p, tab, technology, t)
            ahead = tab.up[t]
            return head + middle + (core[tab.up[ahead]] - core[ahead])
        return nd_el1, capital_term

    def nd_el2(tab, t, capital, technology, core):
        head = technology * gamma_capital(p, tab, t)
        middle = _parts_nd_el2(p, tab, capital, t)
        behind = tab.down[t]
        return middle + head - (core[behind] - core[tab.down[behind]])
    return nd_el2, technology_term


def residual_system(params: FirmParams, kind: ProblemKind,
                    eq: EquationKind = EquationKind.DIRECT) -> ResidualSystem:
    """Square system in the interior sales values y_1, ..., y_{T-1}.

    For the pure kinds every :class:`EquationKind` yields the same
    system; the mixed kinds dispatch on it.  The residual and functional
    evaluate one state as float arithmetic.  The system also carries
    stacked forms of both, which run the same functions on whole arrays,
    one column per state, and mark infeasible states with NaN; a stacked
    row therefore equals the one-state result bit for bit.  A state whose
    residual overflows (is not finite) is infeasible too: the residual
    raises :class:`DomainError` there and the stacked residual gives a NaN
    row.  The functional is returned as computed, inf included.
    """
    p = params
    m = p.horizon - 1
    points = _domain_points(kind, p.horizon)
    window = slice(points.start, points.stop)
    constants = _constants(p)
    discs = np.array(constants[:2])[:, :, None]   # both discounts as (T+1, 1) columns
    maps = np.array(constants[2:4])
    shared = (discs[0], discs[1], maps[0], maps[1])
    modes = (kind.capital_mode, kind.technology_mode)
    capital_pairs, capital_slices = _summation(modes[0], p.horizon)
    technology_pairs, technology_slices = _summation(modes[1], p.horizon)
    equation, tail = _point_equation(p, kind, eq)
    # an el1 tail reads its core at the up-jumps of the window, 2..T, and an
    # el2 tail at the down-jumps, 0..T-2; one state evaluates the core there
    # only, since elsewhere it can divide by a square that underflows to zero,
    # which raises in float arithmetic
    reads = range(2, p.horizon + 1) if eq is EquationKind.TIMESCALE_EL1 else range(p.horizon - 1)

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
        return _array_tables(p, shared, yt)

    def totals(tab: _Tables):
        rate, _, disc = _mode_tables(tab, modes[0])
        capital = 0.0
        for t, s in capital_pairs:
            capital += _capital_term(p, tab, rate, disc, t, s)
        _, root, disc = _mode_tables(tab, modes[1])
        technology = 0.0
        for t, s in technology_pairs:
            technology += _technology_term(p, tab, root, disc, t, s)
        return capital, technology

    def stacked_totals(tab: _Tables):
        rate, _, disc = _mode_tables(tab, modes[0])
        capital = _capital_term(p, tab, rate, disc, *capital_slices)
        _, root, disc = _mode_tables(tab, modes[1])
        technology = _technology_term(p, tab, root, disc, *technology_slices)
        return capital.sum(axis=0), technology.sum(axis=0)

    def residual(x: np.ndarray) -> np.ndarray:
        tab = tables(x)
        try:
            capital, technology = totals(tab)
            core = None if tail is None else {s: tail(tab, s, capital, technology) for s in reads}
            values = [equation(tab, t, capital, technology, core) for t in points]
        except ZeroDivisionError:   # a square that underflows to 0; numpy gives inf
            values = [math.inf]
        if not all(map(math.isfinite, values)):
            raise DomainError("residual is not finite at this state")
        return np.array(values)

    def functional(x: np.ndarray) -> float:
        capital, technology = totals(tables(x))
        return capital * technology

    def stacked_residual(xs: np.ndarray) -> np.ndarray:
        tab, ok = stacked_tables(xs)
        capital, technology = stacked_totals(tab)
        core = None if tail is None else tail(tab, slice(None), capital, technology)
        rows = equation(tab, window, capital, technology, core).T
        if not np.isfinite(rows).all():
            rows[~np.isfinite(rows).all(axis=1)] = np.nan
        return _with_nan_rows(ok, rows)

    def stacked_functional(xs: np.ndarray) -> np.ndarray:
        tab, ok = stacked_tables(xs)
        capital, technology = stacked_totals(tab)
        return _with_nan_rows(ok, capital * technology)

    return ResidualSystem(
        dimension=m,
        residual=residual,
        label=f"{kind.value}/{eq.value}",
        functional=functional,
        stacked_residual=partial(_quietly, stacked_residual),
        stacked_functional=partial(_quietly, stacked_functional),
    )


# overflow is expected in the stacked forms and marked by their NaN rows, so
# numpy's warnings about it are off there; decorated once here rather than
# per system, where the decoration cost a quarter of building one
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _quietly(evaluate, xs: np.ndarray) -> np.ndarray:
    return evaluate(xs)
