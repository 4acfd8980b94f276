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
taken as zero.  The model is declared once: its integrands, each of one
kind, with its terms, its guard and its discount; the composite problem
of each kind; and one table that gives each residual system the output
of the Euler-Lagrange assembly it reads and the :class:`TimeScale` domain
of its points, so a system is a view of its kind's problem
(:func:`tsvar.variational.problem_system`).
The assembly checks the guards once per state; the model holds no
Euler-Lagrange algebra of its own.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import eq, le

import numpy as np

from .solver import ResidualSystem
from .timescale import TimeScale
from .variational import CompositeProblem, Guard, Integrand, problem_system, product_outer

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


@dataclass(frozen=True, eq=False)
class FirmParams:
    """Model constants; defaults reproduce the worked horizon-3 example.

    Two params are equal where every field is equal and has the same sign:
    a zero and a negative zero give outputs whose zeros differ in sign, so
    the caches keyed on params tell them apart.
    """

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
        values = tuple(getattr(self, field.name) for field in fields(self))
        object.__setattr__(self, "_signed", (values, tuple(math.copysign(1.0, v) for v in values)))

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._signed == other._signed if same else NotImplemented

    def __hash__(self):
        return hash(self._signed)


# ---------------------------------------------------------------------------
# integrands


def _guard(p: FirmParams, family: str) -> Guard:
    """The domain of a family's terms: the capital terms divide by the
    margin of the sales over the floor, the technology terms take the root
    of the quotient plus b."""
    if family == "capital":
        floor = p.y_floor
        return Guard("y", eq, floor,
                     lambda y, t: f"price-curve guard: sales hit the floor {floor} at t={t}")
    b = p.b

    def text(v, t):
        return f"rate-change guard: quotient {v} + b = {v + b} is not positive at t={t}"

    return Guard("v", le, -b, text)   # v <= -b holds exactly where v + b <= 0


def _zero(d, y, v) -> float:
    return 0.0


def _terms(p: FirmParams, family: str, stacked: bool = False) -> tuple:
    """The value, the partials in y and v and the second partials in yy, yv
    and vv of a family's integrand as functions of ``(d, y, v)``: the
    discount factor at the point, the jump-shifted sales and the quotient.

    They hold no guards and run on floats, with :func:`math.sqrt` and
    their constants Python floats, or, with ``stacked``, on arrays, with
    :func:`numpy.sqrt` and their constants 0-d arrays, with which numpy
    computes faster than with Python floats; the two round alike.  The
    square of the margin is a product, not ``margin**2``: a float power
    raises OverflowError where the product gives inf, as numpy's square
    does, so a single state and a stack of states overflow alike.  The
    constant parts of the capital y partial, ``c1 - p0`` and ``B * floor``,
    are computed once, as the partial computed them first.
    """
    sqrt, number = (np.sqrt, np.asarray) if stacked else (math.sqrt, float)
    c0, c1, c2, p0, B, floor = map(number, (p.c0, p.c1, p.c2, p.p0, p.B, p.y_floor))
    lam, beta, b = map(number, (p.lam, p.beta, p.b))
    two, four, minus_two = number(2.0), number(4.0), number(-2.0)
    if family == "capital":
        slope, pull = number(p.c1 - p.p0), number(p.B * p.y_floor)

        def value(d, y, v):
            return d * (c0 + c1 * y + c2 * v * v - y * p0 - B * y / (y - floor))

        def partial_y(d, y, v):
            margin = y - floor
            return d * (slope + pull / (margin * margin))

        def partial_v(d, y, v):
            return d * two * c2 * v

        def partial_yy(d, y, v):
            margin = y - floor
            return minus_two * d * B * floor / (margin * margin * margin)

        def partial_vv(d, y, v):
            return two * d * c2

        return value, partial_y, partial_v, partial_yy, _zero, partial_vv

    def value(d, y, v):
        return d * (lam * y + beta * sqrt(v + b))

    def partial_y(d, y, v):
        return d * lam

    def partial_v(d, y, v):
        return d * beta / (two * sqrt(v + b))

    def partial_vv(d, y, v):
        root = sqrt(v + b)
        return -d * beta / (four * (v + b) * root)

    return value, partial_y, partial_v, _zero, _zero, partial_vv


def _discount(p: FirmParams, mode: str):
    """The discount factor of the ``mode`` integrands at the time t, a
    Python float: ``(1 + rho)**(t - T)`` for the delta kind and
    ``(1 - rho)**(T - t)`` for the nabla kind."""
    T = p.horizon
    if mode == "delta":
        base = 1.0 + p.discount_rate
        return lambda t: base ** (t - T)
    base = 1.0 - p.discount_rate
    return lambda t: base ** (T - t)


@lru_cache(maxsize=32)
def firm_integrand(params: FirmParams, which: str) -> Integrand:
    """One of the four discounted integrands, with analytic partials.

    ``which`` is ``capital_delta``, ``capital_nabla``, ``technology_delta``
    or ``technology_nabla``.  The ``(t, y, v)`` arguments are the time
    point, the jump-shifted sales and the difference-quotient rate, on any
    time scale.  The integrand declares its :class:`Guard` once: a capital
    term is undefined where the sales sit at the floor, a technology term
    where its root has no positive argument.  Its callables check it by
    :meth:`Guard.check`: the capital value and its y and yy partials, the
    technology value and its v and vv partials, each raising
    :class:`DomainError` at ``t``; the others check nothing.  Each takes
    the discount :func:`_discount` gives at ``t`` per call, since ``t`` may
    be any point.

    A :class:`CompositeProblem` reads the integrand through its
    ``on_points``: the bare terms at a table of the same discounts at the
    scale's points, on floats or on arrays, under the same guard, which the
    assembly checks once per state.  An integrand whose callables were
    replaced is read at its times.  Cached by params as they compare, which
    tells a zero from a negative zero: the four problem kinds share the
    four integrands of one params.
    """
    if which not in INTEGRAND_NAMES:
        raise ValueError(f"which must be one of {INTEGRAND_NAMES}, got {which!r}")
    family, mode = which.rsplit("_", 1)
    terms = _terms(params, family)
    guard = _guard(params, family)
    discount = _discount(params, mode)
    on_y = guard.reads == "y"
    # which of value, partial_y, partial_v, partial_yy, partial_yv, partial_vv check the guard
    checks = (True, on_y, not on_y, on_y, False, not on_y)

    def discounted(term, guarded: bool):
        if not guarded:
            return lambda t, y, v: term(discount(t), y, v)

        def at_time(t, y, v):
            guard.check(y if on_y else v, t)
            return term(discount(t), y, v)
        return at_time

    times = tuple(map(discounted, terms, checks))

    def on_points(f: Integrand, points, stacked: bool) -> Integrand | None:
        if (f.value, f.partial_y, f.partial_v, f.partial_yy, f.partial_yv, f.partial_vv) != times:
            return None   # replaced callables: the problem reads them at the times
        read = _terms(params, family, True) if stacked else terms
        return Integrand(f.kind, *read, at=tuple(map(discount, points)), guard=f.guard)

    return Integrand(mode, *times, on_points=on_points, guard=guard)


@lru_cache(maxsize=32)
def firm_problem(params: FirmParams, kind: ProblemKind) -> CompositeProblem:
    """Composite product problem for the requested discretization kind.
    Cached, with the assemblies it keeps: the three systems of a mixed kind
    read one problem."""
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
# residual systems


# The window of each system: the output of the Euler-Lagrange assembly it
# reads, and the TimeScale domain of its points.  The pure kinds read the
# cores on T^kappa^2 (dd, 0..T-2) or T_kappa^2 (nn, 2..T) for every equation;
# the mixed kinds read the cores (direct), the delta form (el1) or the nabla
# form (el2) on the interior, 1..T-1.
_DOMAINS = {ProblemKind.DELTA_DELTA: "delta2_domain", ProblemKind.NABLA_NABLA: "nabla2_domain",
            ProblemKind.DELTA_NABLA: "interior_domain", ProblemKind.NABLA_DELTA: "interior_domain"}
_WINDOWS = {(kind, equation): (form if kind.is_mixed else "cores", domain)
            for kind, domain in _DOMAINS.items()
            for equation, form in zip(EquationKind, ("cores", "delta", "nabla"))}


def residual_system(params: FirmParams, kind: ProblemKind,
                    eq: EquationKind = EquationKind.DIRECT) -> ResidualSystem:
    """Square system in the interior sales values y_1, ..., y_{T-1}: the
    window of :func:`firm_problem`'s Euler-Lagrange assembly that
    ``_WINDOWS`` gives, read by :func:`tsvar.variational.problem_system`.
    The pure kinds yield the same system for every :class:`EquationKind`.
    A state fails the guards in the order the assembly checks them: the
    margins before the roots, each at ascending points.
    """
    problem = firm_problem(params, kind)
    form, domain = _WINDOWS[kind, eq]
    return problem_system(problem, form, getattr(problem.scale, domain),
                          label=f"{kind.value}/{eq.value}")
