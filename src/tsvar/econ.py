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
taken as zero.  The model declares its integrands, each of one kind and
read at its discount factors, tabulated once per params; it checks its guards
in one pass per state, and picks for each residual system an output of the
Euler-Lagrange assembly, :func:`tsvar.variational.assemble`, and the window
of points it is read on; it holds no Euler-Lagrange algebra of its own.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import cache, lru_cache, partial

import numpy as np

from .solver import ResidualSystem
from .timescale import DomainError, TimeScale
from .variational import (
    CLAMPED,
    CompositeProblem,
    Integrand,
    assemble,
    product_outer,
)

__all__ = [
    "EquationKind",
    "FirmParams",
    "MAX_HORIZON",
    "ProblemKind",
    "firm_integrand",
    "firm_problem",
    "residual_system",
]

#: longest horizon a FirmParams accepts.  A one-start solve at horizon T
#: assembles a dense (T-1, T-1) Jacobian per iteration: at T = 1000 one call
#: on the dd system took 0.04 s of CPU and raised the peak RSS from 32 to
#: 56 MB (x86-64, Python 3.11, numpy 2.4); at T = 10^5 the matrix alone
#: would take 80 GB.
MAX_HORIZON = 1000

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
            if field.name != "horizon":
                # kept as a Python float: a numpy scalar compares and hashes
                # equal to it, but computes with warnings where a float raises
                try:
                    value = float(value)
                except OverflowError:   # the int is not formatted: it may be too long
                    raise ValueError(f"{field.name} must be finite, got an integer "
                                     "past the float range") from None
                object.__setattr__(self, field.name, value)
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
        got = self.horizon
        if isinstance(got, int) and abs(got) >= 10 ** 64:   # str() refuses past 4300 digits
            got = f"{'a negative' if got < 0 else 'an'} integer of more than 64 digits"
        if int(self.horizon) != self.horizon or self.horizon < 2:
            raise ValueError(f"horizon must be an integer >= 2, got {got}")
        if self.horizon > MAX_HORIZON:
            raise ValueError(f"horizon must be at most MAX_HORIZON = {MAX_HORIZON}, got {got}")
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
# guards shared by the integrands and the residual systems


def _guarded_sqrt(p: FirmParams, rate: float, t) -> None:
    arg = rate + p.b
    if arg <= 0.0:
        raise DomainError(
            f"rate-change guard: quotient {rate} + b = {arg} is not positive at t={t}"
        )


def _guarded_margin(p: FirmParams, sales: float, t) -> None:
    if sales - p.y_floor == 0.0:
        raise DomainError(f"price-curve guard: sales hit the floor {p.y_floor} at t={t}")


# ---------------------------------------------------------------------------
# integrands


def _zero(d, y, v) -> float:
    return 0.0


def _terms(p: FirmParams, family: str, sqrt) -> tuple:
    """The value, the partials in y and v and the second partials in yy, yv
    and vv of a family's integrand as functions of ``(d, y, v)``: the
    discount factor at the point, the jump-shifted sales and the quotient.

    They hold no guards and run on floats or on arrays alike; ``sqrt`` is
    :func:`math.sqrt`, :func:`numpy.sqrt` or :func:`_sqrt`, which round alike.  The square
    of the margin is a product, not ``margin**2``: a float power raises
    OverflowError where the product gives inf, as numpy's square does, so a
    single state and a stack of states overflow alike.
    """
    c0, c1, c2, p0, B, floor = p.c0, p.c1, p.c2, p.p0, p.B, p.y_floor
    lam, beta, b = p.lam, p.beta, p.b
    if family == "capital":
        def value(d, y, v):
            return d * (c0 + c1 * y + c2 * v * v - y * p0 - B * y / (y - floor))

        def partial_y(d, y, v):
            margin = y - floor
            return d * (c1 - p0 + B * floor / (margin * margin))

        def partial_v(d, y, v):
            return d * 2.0 * c2 * v

        def partial_yy(d, y, v):
            margin = y - floor
            return -2.0 * d * B * floor / (margin * margin * margin)

        def partial_vv(d, y, v):
            return 2.0 * d * c2

        return value, partial_y, partial_v, partial_yy, _zero, partial_vv

    def value(d, y, v):
        return d * (lam * y + beta * sqrt(v + b))

    def partial_y(d, y, v):
        return d * lam

    def partial_v(d, y, v):
        return d * beta / (2.0 * sqrt(v + b))

    def partial_vv(d, y, v):
        root = sqrt(v + b)
        return -d * beta / (4.0 * (v + b) * root)

    return value, partial_y, partial_v, _zero, _zero, partial_vv


def _sqrt(x):
    """The root of a float by :func:`math.sqrt`, of an array by numpy's:
    they round alike, and a float stays a Python float."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _discounts(p: FirmParams, mode: str, points) -> tuple:
    """The discount factors of the ``mode`` integrands at ``points``, as
    Python floats: ``(1 + rho)**(t - T)`` for the delta kind and
    ``(1 - rho)**(T - t)`` for the nabla kind."""
    T = p.horizon
    if mode == "delta":
        base = 1.0 + p.discount_rate
        return tuple(base ** (t - T) for t in points)
    base = 1.0 - p.discount_rate
    return tuple(base ** (T - t) for t in points)


def firm_integrand(params: FirmParams, which: str) -> Integrand:
    """One of the four discounted integrands, with analytic partials.

    ``which`` is ``capital_delta``, ``capital_nabla``, ``technology_delta``
    or ``technology_nabla``.  The ``(t, y, v)`` arguments are the time
    point, the jump-shifted sales and the difference-quotient rate, on any
    time scale.  A capital term whose sales sit at the floor, or a
    technology term whose root has no positive argument, raises
    :class:`DomainError`: the capital value and its y and yy partials check
    the margin, the technology value and its v and vv partials check the
    root, and the yv partial checks nothing.

    Each callable is one closure around its term: it makes its guard's
    comparison inline (calling the guard helper only to raise) and then
    takes the discount ``(1 + rho)**(t - T)`` or ``(1 - rho)**(T - t)``,
    the expressions :func:`_discounts` tabulates, with the base formed once
    per integrand.  The power is taken per call, since ``t`` may be any
    point.

    A :class:`CompositeProblem` reads the integrand through its
    ``on_points``: at the scale's discounts, tabulated once, by the terms
    themselves behind the same guards, which name the point whose discount
    they were given.  The read callables run on floats and on arrays (the
    root by :func:`_sqrt`); on arrays a guard raises where any entry fails
    it, naming no point, and the problem then reads the state as floats,
    which name it.  An integrand whose callables were replaced is read at
    its times.
    """
    if which not in INTEGRAND_NAMES:
        raise ValueError(f"which must be one of {INTEGRAND_NAMES}, got {which!r}")
    family, mode = which.rsplit("_", 1)
    p = params
    terms = _terms(p, family, math.sqrt)
    read_terms = _terms(p, family, _sqrt)
    floor, b, T = p.y_floor, p.b, p.horizon
    capital, delta = family == "capital", mode == "delta"
    base = 1.0 + p.discount_rate if delta else 1.0 - p.discount_rate
    # which of value, partial_y, partial_v, partial_yy, partial_yv, partial_vv check a guard
    checks = (True, capital, not capital, capital, False, not capital)

    def discounted(term, guarded: bool):
        if guarded and capital:
            def at_time(t, y, v):
                if y - floor == 0.0:
                    _guarded_margin(p, y, t)
                return term(base ** (t - T) if delta else base ** (T - t), y, v)
        elif guarded:
            def at_time(t, y, v):
                if v + b <= 0.0:
                    _guarded_sqrt(p, v, t)
                return term(base ** (t - T) if delta else base ** (T - t), y, v)
        else:
            def at_time(t, y, v):
                return term(base ** (t - T) if delta else base ** (T - t), y, v)
        return at_time

    times = tuple(map(discounted, terms, checks))

    def on_points(f: Integrand, points) -> Integrand | None:
        if (f.value, f.partial_y, f.partial_v, f.partial_yy, f.partial_yv, f.partial_vv) != times:
            return None   # replaced callables: the problem reads them at the times
        table = _discounts(p, mode, points)

        def time_of(d) -> float:
            # the entry itself before an equal one: points closer than the
            # rounding of t - T share a discount value
            for t, entry in zip(points, table):
                if entry is d:
                    return t
            if d in table:
                return points[table.index(d)]
            raise DomainError(f"discount {d} is not one of the scale's discounts")

        def at_discount(term, guarded: bool):
            # a guard's test is a bool on floats, which names the point, and an
            # array on arrays, where any failing entry raises naming none
            if guarded and capital:
                def read(d, y, v):
                    hit = y - floor == 0.0
                    if hit is True:
                        _guarded_margin(p, y, time_of(d))
                    elif hit is not False and hit.any():
                        raise DomainError(f"price-curve guard: sales hit the floor {floor}")
                    return term(d, y, v)
            elif guarded:
                def read(d, y, v):
                    hit = v + b <= 0.0
                    if hit is True:
                        _guarded_sqrt(p, v, time_of(d))
                    elif hit is not False and hit.any():
                        raise DomainError("rate-change guard: a quotient + b is not positive")
                    return term(d, y, v)
            else:
                return term
            return read

        return Integrand(f.kind, *map(at_discount, read_terms, checks), at=table)

    return Integrand(mode, *times, on_points=on_points)


def firm_problem(params: FirmParams, kind: ProblemKind) -> CompositeProblem:
    """Composite product problem for the requested discretization kind."""
    integrands = (firm_integrand(params, f"capital_{kind.capital_mode}"),
                  firm_integrand(params, f"technology_{kind.technology_mode}"))
    return CompositeProblem(
        scale=TimeScale.integer_range(0, params.horizon),
        delta_integrands=tuple(f for f in integrands if f.kind == "delta"),
        nabla_integrands=tuple(f for f in integrands if f.kind == "nabla"),
        outer=product_outer(),
        boundary=(params.y_initial, params.y_terminal),
    )


# ---------------------------------------------------------------------------
# the assembly and the guard pass
#
# The residual systems read the assembly of :mod:`tsvar.variational` on
# {0, ..., T} with clamped quotients.  Its integrands are the unguarded terms
# above with the discount factors tabulated once per params as Python floats
# (numpy's power can differ from Python's in the last bit).  Every guard is
# checked once per state: for one state in the pass that builds its tables,
# for a stack by marking the rows of the states that fail one.


@lru_cache(maxsize=32)
def _tabulated(p: FirmParams, which: str, sqrt) -> Integrand:
    """The unguarded integrand ``which``, read at its kind's discount factors
    on 0..T, from :func:`_discounts` as a problem's read form is.  Cached:
    one ``tsvar table1`` run asks for each one four times."""
    family, mode = which.rsplit("_", 1)
    return Integrand(mode, *_terms(p, family, sqrt), at=_discounts(p, mode, range(p.horizon + 1)))


def _checked_state(p: FirmParams, assembled, yv: list, capital_mode: str, technology_mode: str):
    """The assembled tables of one state; raises :class:`DomainError` at a failed guard.

    The margins are checked before the roots, each in ascending order, and
    a failure is labelled with the summation index at which the component
    integral of the given mode meets the value.
    """
    if p.y_floor in yv:
        i = yv.index(p.y_floor)
        _guarded_margin(p, yv[i], i - 1 if capital_mode == "delta" else i + 1)
    state = assembled.state(yv)
    rates = state.d_rate[:-1]
    if not min(rates) + p.b > 0.0:   # false too where a NaN leads
        for t, rate in enumerate(rates):
            if rate + p.b <= 0.0:
                _guarded_sqrt(p, rate, t if technology_mode == "delta" else t + 1)
    return state


# ---------------------------------------------------------------------------
# residual systems


def _window(kind: ProblemKind, eq: EquationKind, horizon: int) -> tuple:
    """The assembly's output a system reads, and its points: the cores on
    0..T-2 (dd) or 2..T (nn); for the mixed kinds the cores (direct), the
    delta form (el1) or the nabla form (el2) on 1..T-1."""
    if kind is ProblemKind.DELTA_DELTA:
        return "cores", range(0, horizon - 1)
    if kind is ProblemKind.NABLA_NABLA:
        return "cores", range(2, horizon + 1)
    if eq is EquationKind.DIRECT:
        return "cores", range(1, horizon)
    return ("delta" if eq is EquationKind.TIMESCALE_EL1 else "nabla"), range(1, horizon)


def residual_system(params: FirmParams, kind: ProblemKind,
                    eq: EquationKind = EquationKind.DIRECT) -> ResidualSystem:
    """Square system in the interior sales values y_1, ..., y_{T-1}.

    The system reads a window of the Euler-Lagrange assembly of
    :mod:`tsvar.variational` (see :func:`_window`) over two integrands of
    :func:`_tabulated`; the pure kinds yield the same system for every
    :class:`EquationKind`.  The residual and functional evaluate one state
    as float arithmetic; the stacked residual runs the same assembly on every
    state, one column each, so a stacked row equals the one-state residual
    bit for bit, and then marks the rows of infeasible states with NaN.
    A state whose residual is not finite is infeasible too: the residual
    raises :class:`DomainError` there.  The functional is returned as
    computed, inf included.  The jacobian is the residual's exact Jacobian,
    from the integrands' second partials; it raises :class:`DomainError`
    where it is not finite.
    """
    p = params
    m = p.horizon - 1
    capital_mode, technology_mode = kind.capital_mode, kind.technology_mode
    form, points = _window(kind, eq, p.horizon)
    outer = product_outer()

    def assembly(sqrt, stacked):
        integrands = (_tabulated(p, f"capital_{capital_mode}", sqrt),
                      _tabulated(p, f"technology_{technology_mode}", sqrt))
        return assemble([1.0] * p.horizon, integrands, outer, CLAMPED, form, points, stacked)

    one = assembly(math.sqrt, False)

    @cache   # built on first use: most short one-start solves never stack
    def stacked():
        return assembly(np.sqrt, True)

    # newton_solve takes the Jacobian at the state whose residual it has just
    # evaluated, so the tables and integrals of the last state are kept, by
    # the bytes of its values
    last = (None, None, None)

    def tables(x):
        """The checked tables of one state and its component integrals."""
        nonlocal last
        if len(x) != m:
            raise ValueError(f"expected {m} interior values, got {len(x)}")
        values = np.asarray(x, dtype=float)
        key, kept = values.tobytes(), last
        if key != kept[0]:
            yv = [p.y_initial, *values.tolist(), p.y_terminal]
            s = _checked_state(p, one, yv, capital_mode, technology_mode)
            kept = last = key, s, one.integrals(s)
        return kept[1], kept[2]

    def residual(x: np.ndarray) -> np.ndarray:
        s, comps = tables(x)
        try:
            values = one.evaluate(s, comps)
        except ZeroDivisionError:   # a square that underflows to 0; numpy gives inf
            values = [math.inf]
        if not all(map(math.isfinite, values)):
            raise DomainError("residual is not finite at this state")
        return np.array(values)

    def jacobian(x: np.ndarray) -> np.ndarray:
        try:
            jac = one.jacobian(*tables(x))
        except ZeroDivisionError:   # a power of the margin that underflows to 0
            jac = None
        if jac is None or not np.isfinite(jac).all():
            raise DomainError("jacobian is not finite at this state")
        return jac

    def functional(x: np.ndarray) -> float:
        return outer.value(tables(x)[1])

    def stacked_residual(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != m:
            raise ValueError(f"expected states of {m} interior values, got shape {xs.shape}")
        yt = np.empty((p.horizon + 1, len(xs)))
        yt[0] = p.y_initial
        yt[1:-1] = xs.T
        yt[-1] = p.y_terminal
        s = stacked().state(yt)
        rows = stacked().evaluate(s).T
        # a NaN row at each state that fails a guard or whose residual is not
        # finite; the other columns' integrals add in order, as one state's do
        bad = ((yt == p.y_floor).any(axis=0) | (s.d_rate[:-1] + p.b <= 0.0).any(axis=0)
               | ~np.isfinite(rows).all(axis=1))
        rows[bad] = np.nan
        return rows

    return ResidualSystem(
        dimension=m,
        residual=residual,
        label=f"{kind.value}/{eq.value}",
        functional=functional,
        jacobian=jacobian,
        stacked_residual=partial(_quietly, stacked_residual),
    )


# overflow is expected in the stacked residual and marked by its NaN rows, so
# numpy's warnings about it are off there; decorated once here rather than
# per system, where the decoration cost a quarter of building one
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _quietly(evaluate, xs: np.ndarray) -> np.ndarray:
    return evaluate(xs)
