"""Composite variational functionals on finite time scales.

The objects here describe functionals of the form

    H( I_1, ..., I_k, I_{k+1}, ..., I_{k+n} )

where the first k components are delta integrals of integrands evaluated
along ``(t, y(sigma(t)), delta-quotient of y)`` and the remaining n are
nabla integrals evaluated along ``(t, y(rho(t)), nabla-quotient of y)``.
An :class:`Integrand` states its kind, and the kind alone places it among
the components.  The main theorem's stationarity system is assembled once,
from the integrands and the outer partials; one state evaluates the
assembly as float arithmetic and a stack of states on whole arrays.  For
one state the assembly also gives the system's Jacobian, in the same float
arithmetic, where the integrands have their second partials and the outer
function its Hessian.
:func:`assemble` is its one entry point: the public functions validate
their arguments and read it, and the firm model in :mod:`tsvar.econ` reads
windows of it.  A :class:`CompositeProblem` keeps each assembly it builds,
with the Jacobian's stencils and the stacked form, and nothing else caches
what is built from a problem.  :func:`corollary_z_residual`, the integer-scale
specialization written with index shifts, sums its own component integrals
and shares none of it, so it serves as the independent check.

Shifted difference quotients near the scale's extremes exit their
natural domains.  The ``strict`` policy leaves such points undefined
(NaN in the returned grid function; access raises), while the
``clamped`` policy substitutes a zero quotient at the offending extreme,
mirroring the convention used by the firm model in :mod:`tsvar.econ`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from operator import add, eq, itemgetter, le
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .solver import ResidualSystem
from .timescale import DomainError, GridFunction, TimeScale

__all__ = [
    "Assembled",
    "BoundaryMismatchError",
    "CompositeProblem",
    "Guard",
    "Integrand",
    "OuterFunction",
    "STRICT",
    "State",
    "CLAMPED",
    "assemble",
    "check_integrand_partials",
    "corollary_z_residual",
    "eval_component_integrals",
    "eval_functional",
    "identity_outer",
    "problem_system",
    "product_outer",
    "sum_outer",
    "theorem_main_residual",
]

STRICT = "strict"
CLAMPED = "clamped"

_POLICIES = (STRICT, CLAMPED)

# the DomainError texts of a division by zero in each float output
_INTEGRALS_FAILS = "component integrals are not finite at this state"
_RESIDUAL_FAILS = "residual is not finite at this state"
_JACOBIAN_FAILS = "jacobian is not finite at this state"


class BoundaryMismatchError(ValueError):
    """The candidate state does not take the problem's boundary values."""


class Guard(NamedTuple):
    """Where an integrand is defined, declared once: it fails at a point
    where ``fails(value, bound)`` holds for the argument it ``reads``,
    ``"y"`` (the jump-shifted state) or ``"v"`` (the quotient).  ``fails``
    is :func:`operator.eq` (the value sits at the bound) or
    :func:`operator.le` (it is at most the bound), which take floats and
    arrays alike; ``text(value, t)`` is the :class:`DomainError` text that
    names the value and the point."""

    reads: str
    fails: Callable[[float, float], bool]
    bound: float
    text: Callable[[float, float], str]

    def check(self, value: float, t: float) -> None:
        """Raises the :class:`DomainError` that names ``value`` and the point
        ``t`` where the guard fails at ``value``."""
        if self.fails(value, self.bound):
            raise DomainError(self.text(value, t))


@dataclass(frozen=True)
class Integrand:
    """One inner integrand with analytic partial derivatives.

    ``value``, ``partial_y`` and ``partial_v`` all take ``(t, y, v)``:
    the time point, the jump-shifted state and the difference-quotient
    rate fed to this integrand by its kind.  The second partials, when
    given, take the same arguments; the assembly reads them for its Jacobian.
    ``at`` is the table :func:`assemble` reads in place of the times; a
    :class:`CompositeProblem` reads an integrand without a read form at its
    scale's points, whatever its ``at``.  ``guard``, when given, is the
    integrand's :class:`Guard`, which the assembly checks once per state,
    before it calls any callable.

    ``on_points``, when given, says how a :class:`CompositeProblem` reads the
    integrand on its scale: ``on_points(integrand, points, stacked)``
    returns an integrand of the same kind whose ``at`` is a table with an
    entry per point and whose callables take that table's entries in place
    of the times, on floats or, with ``stacked``, on arrays, a column of
    table entries with (m, S) states, bit for bit as on floats.  It returns
    None where it has no such form for these callables, whichever the
    number type; the problem then reads the integrand at its times.
    """

    kind: str  # "delta" or "nabla"
    value: Callable[[float, float, float], float]
    partial_y: Callable[[float, float, float], float]
    partial_v: Callable[[float, float, float], float]
    partial_yy: Callable[[float, float, float], float] | None = None
    partial_yv: Callable[[float, float, float], float] | None = None
    partial_vv: Callable[[float, float, float], float] | None = None
    at: Sequence | None = None
    on_points: Callable[[Integrand, Sequence, bool], Integrand | None] | None = None
    guard: Guard | None = None

    def __post_init__(self):
        if self.kind not in ("delta", "nabla"):
            raise ValueError(f"kind must be 'delta' or 'nabla', got {self.kind!r}")
        if self.guard is not None and self.guard.reads not in ("y", "v"):
            raise ValueError(f"a guard reads 'y' or 'v', got {self.guard.reads!r}")
        if self.guard is not None and self.guard.fails not in (eq, le):
            raise ValueError("a guard fails by operator.eq or operator.le")


@dataclass(frozen=True)
class OuterFunction:
    """Outer combining function with one partial per component integral.

    ``hessian``, when given, maps the component integrals to the matrix of
    second partials, a row of ``len(partials)`` numbers per partial.
    """

    value: Callable[[Sequence[float]], float]
    partials: tuple
    hessian: Callable[[Sequence[float]], Sequence] | None = None

    def __post_init__(self):
        if not self.partials:
            raise ValueError("outer function needs at least one argument")


def identity_outer() -> OuterFunction:
    return OuterFunction(lambda c: float(c[0]), (lambda c: 1.0,), lambda c: ((0.0,),))


def sum_outer(arity: int) -> OuterFunction:
    zero = ((0.0,) * arity,) * arity
    return OuterFunction(
        lambda c: float(sum(c)),
        tuple((lambda c: 1.0) for _ in range(arity)),
        lambda c: zero,
    )


def product_outer() -> OuterFunction:
    return OuterFunction(
        lambda c: c[0] * c[1],
        (itemgetter(1), itemgetter(0)),
        lambda c: ((0.0, 1.0), (1.0, 0.0)),
    )


@dataclass(frozen=True)
class CompositeProblem:
    """A composite functional together with its fixed boundary values.

    It keeps its integrands as given and evaluates them in the forms it
    builds on first use: each integrand's ``on_points`` form where it has
    one, otherwise the integrand with ``at`` the scale's points, so its
    callables take times.  Where every integrand has one, it evaluates
    a state as one column of the stacked assembly, on whole arrays; where a
    declared guard fails on that column, or the arrays raise a
    floating-point error (a division by zero or an invalid operation), it
    evaluates the state again as floats, point by point, and returns that
    value or raises that error, which names the guard's point, so the two
    give the same bytes and texts.  A problem with an integrand that has no
    read form evaluates as floats alone.  It builds each assembly once per
    policy, form, window and kind of evaluation, on first use, and keeps
    it, with the stencils its Jacobian builds on its first call: an
    evaluation then only reads the state's tables.  This is the one cache
    of what is built from the problem.
    """

    scale: TimeScale
    delta_integrands: tuple
    nabla_integrands: tuple
    outer: OuterFunction
    boundary: tuple
    # (policy, form, points, stacked) -> the assembly of the read forms, built on
    # first use; None for a stack where an integrand has no read form
    _assemblies: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.delta_integrands)
        n = len(self.nabla_integrands)
        if k + n < 1:
            raise ValueError("a composite problem needs at least one integrand")
        if len(self.outer.partials) != k + n:
            raise ValueError(
                f"outer arity {len(self.outer.partials)} != number of integrands {k + n}"
            )
        for f in self.delta_integrands:
            if f.kind != "delta":
                raise ValueError("delta integrand slot holds a nabla integrand")
        for g in self.nabla_integrands:
            if g.kind != "nabla":
                raise ValueError("nabla integrand slot holds a delta integrand")
        try:
            finite = all(map(math.isfinite, self.boundary)) and len(self.boundary) == 2
        except TypeError:
            finite = False
        if not finite:
            raise ValueError(f"boundary must be two finite numbers, got {self.boundary!r}")
        object.__setattr__(self, "_assemblies", {})


# ---------------------------------------------------------------------------
# the Euler-Lagrange assembly
#
# The theorem's equations are assembled from pieces written once as functions
# of a point index i, on an assembly (the scale's jump maps and graininess,
# and the integrands) and a state's tables (its values at the jumps and its
# two quotients).  One state holds lists and i is an int, so a piece is float
# arithmetic at a point; a stack holds (n, S) arrays, one column per state,
# and i is a slice or an int array, so a piece evaluates the whole window at
# once.  The two evaluations agree bit for bit.
#
# A quotient past an end of the scale takes the policy's value, zero when
# clamped and NaN when strict; the graininess holds the policy's step there,
# 1 or NaN, so a clamped quotient across an end is exactly zero.


class State(NamedTuple):
    """A state's tables, lists for one state and (n, S) arrays for a stack.
    The quotients take the policy's edge value past the top (delta) and the
    bottom (nabla).  A stack's ``infeasible`` marks the columns at which a
    declared guard fails; one state has None, since its guard pass raises."""

    sig: Sequence      # y at sigma(t_i)
    rho: Sequence      # y at rho(t_i)
    d_rate: Sequence   # delta quotient at t_i
    n_rate: Sequence   # nabla quotient at t_i
    infeasible: Sequence | None = None


class Assembled(NamedTuple):
    """One output of the assembly on a window of points; see :func:`assemble`."""

    state: Callable       # a state's values -> its State
    integrals: Callable   # State -> the delta then the nabla component integrals
    evaluate: Callable    # State (and its integrals, if known) -> the output on the window
    jacobian: Callable | None   # the same -> its Jacobian; None for a stack, or without
                                # the second partials or the outer Hessian


class _Assembly(NamedTuple):
    up: Sequence        # index of sigma(t_i)
    down: Sequence      # index of rho(t_i)
    mu: Sequence        # forward graininess; the policy's step at the top
    nu: Sequence        # backward graininess; the policy's step at the bottom
    edge: float         # a quotient past an end: 0.0 clamped, NaN strict
    delta: tuple        # the delta integrands
    nabla: tuple        # the nabla integrands
    outer: OuterFunction
    stacked: bool
    guards: tuple       # (State field index, summation points, Guard), in checking order
    times: Sequence     # the points a failed guard names


def assemble(gaps: list, integrands, outer: OuterFunction, policy: str,
             form: str = "cores", points: range = range(0), stacked: bool = False,
             times: Sequence | None = None) -> Assembled:
    """The Euler-Lagrange assembly of ``integrands`` on the scale with these
    gaps between consecutive points, read on a window.

    Each integrand's kind places it: the component integrals are the delta
    ones, then the nabla ones, each in the order given; its callables take
    ``(at[i], y, v)`` at point i.  ``form`` is ``"cores"`` (both kinds'
    weighted cores, f_y - (f_v)^Delta and g_y - (g_v)^nabla, summed: the
    directly discretized system), ``"delta"`` or ``"nabla"`` (the theorem's
    two forms); ``points`` is the window, a range.  One state's values are a
    list, and its output a list; with ``stacked`` the values are an (n, S)
    array, one column per state, and the output a (len(points), S) array.

    One state's output also has its Jacobian in the interior values
    y_1, ..., y_{n-2}, a (len(points), n - 2) array, whose stencils are
    built on its first call, where every integrand has its three second
    partials and the outer function its Hessian; otherwise, and for a
    stack, ``jacobian`` is None.  On floats a division by zero raises
    :class:`DomainError`, once per output: "component integrals are not
    finite at this state" in ``integrals``, "residual is not finite at this
    state" in ``evaluate`` and "jacobian is not finite at this state" in
    ``jacobian``, each also where it sums the integrals itself.

    ``state`` checks each integrand's :class:`Guard` once per state, at the
    points its component integral sums, which hold every value a callable
    reads but the policy's edge quotient: the guards on y before those on
    v, each kind's in component order, the delta integrands first, and
    each over ascending points.  For one state the first failure raises
    :class:`DomainError`, naming the point as ``times[i]`` (the indices
    where ``times`` is None); a stack's ``infeasible`` marks the columns at
    which any guard fails.
    """
    n = len(gaps) + 1
    step = 1.0 if policy == CLAMPED else math.nan
    up, down = [*range(1, n), n - 1], [0, *range(n - 1)]
    mu, nu = gaps + [step], [step] + gaps
    integrands = tuple(integrands)
    if stacked:
        def column(values):
            return np.array(values, dtype=float)[:, None]

        up, down, mu, nu = _Jump(up, 1), _Jump(down, -1), column(mu), column(nu)
        integrands = tuple(replace(f, at=column(f.at)) for f in integrands)
        points = slice(points.start, points.stop)
    edge = 0.0 if policy == CLAMPED else math.nan
    delta = tuple(f for f in integrands if f.kind == "delta")
    nabla = tuple(f for f in integrands if f.kind == "nabla")
    # a delta integral sums over 0..n-2 reading sig and d_rate (fields 0 and 2
    # of a State), a nabla one over 1..n-1 reading rho and n_rate (1 and 3)
    guards = tuple((fields[f.guard.reads], window, f.guard)
                   for reads in ("y", "v")
                   for kind, fields, window in ((delta, {"y": 0, "v": 2}, slice(0, n - 1)),
                                                (nabla, {"y": 1, "v": 3}, slice(1, n)))
                   for f in kind if f.guard is not None and f.guard.reads == reads)
    a = _Assembly(up, down, mu, nu, edge, delta, nabla, outer, stacked, guards,
                  range(n) if times is None else times)
    exact = outer.hessian is not None and all(
        None not in (f.partial_yy, f.partial_yv, f.partial_vv) for f in integrands)
    return Assembled(partial(_state, a), partial(_integrals, a), _evaluator(a, form, points),
                     _jacobian(a, form, points) if exact and not stacked else None)


class _Jump:
    """A jump map for arrays: it takes a slice of points to the slice it is
    shifted to where the jumps stay inside the scale, so a stack reads a
    view, and any other points to an int array.  Int arrays alone, which
    copy, cost 3.4% of the benchmark's ``horizon`` and 1.9% of its
    ``multistart`` throughput (ten pairs each, x86-64)."""

    def __init__(self, jumps: list, shift: int):
        self.jumps, self.shift, self.n = np.array(jumps), shift, len(jumps)

    def __getitem__(self, i):
        if isinstance(i, slice) and i.step is None:
            start, stop = i.start or 0, self.n if i.stop is None else i.stop
            if 0 <= start + self.shift and stop + self.shift <= self.n and start < stop:
                return slice(start + self.shift, stop + self.shift)
        return self.jumps[i]


def _state(a: _Assembly, y) -> State:
    """The state's tables, once its guards are checked; see :func:`assemble`."""
    if a.stacked:
        rates = np.full((len(y) + 1, y.shape[1]), a.edge)
        rates[1:-1] = (y[1:] - y[:-1]) / a.mu[:-1]
        padded = np.concatenate((y[:1], y, y[-1:]))
        tables = padded[2:], padded[:-2], rates[1:], rates[:-1]
        infeasible = np.zeros(y.shape[1], dtype=bool)
        for field, window, guard in a.guards:
            infeasible |= guard.fails(tables[field][window], guard.bound).any(axis=0)
        return State(*tables, infeasible)
    # mu[i] and nu[i + 1] are the same gap, so one quotient serves both kinds
    quotient = [(ahead - here) / step for here, ahead, step in zip(y, y[1:], a.mu)]
    s = State(y[1:] + y[-1:], y[:1] + y[:-1], quotient + [a.edge], [a.edge] + quotient)
    for field, window, guard in a.guards:
        values, bound = s[field], guard.bound
        # a screen at C speed over the whole table, which an entry past the
        # window or a leading NaN may pass too; the scan of the window decides
        if bound in values if guard.fails is eq else not min(values) > bound:
            for i in range(window.start, window.stop):
                guard.check(values[i], a.times[i])
    return s


def _integrals(a: _Assembly, s: State, fails: str = _INTEGRALS_FAILS) -> list:
    """The delta then the nabla component integrals of the state(s).

    A delta integral sums mu f over the points 0..n-2, a nabla one nu g over
    1..n-1, where the quotients stay on the scale.  One state adds the terms
    in order, and so does a stack: ``sum(axis=0)`` adds the rows of its
    (n-1, S) term array in order, but a single column pairwise, which
    differs from the one-state sum from about eight terms on, so one column
    is summed by ``cumsum``, which is in order but several times slower
    across a wide array (at S = 256 and 2048).  One state's sum and
    ``sum(axis=0)`` start from 0.0 and ``cumsum`` from the first term, which
    differ only where every term is -0.0; 0.0 plus the cumsum gives 0.0
    there too.  One column's integrals are floats, as one state's are, so
    the outer partials read them alike.

    A division by zero, which only floats raise, raises :class:`DomainError`
    with the text ``fails``.
    """
    top = len(a.mu) - 1
    comps = []
    try:
        for integrands, step, y, v, first, stop in ((a.delta, a.mu, s.sig, s.d_rate, 0, top),
                                                    (a.nabla, a.nu, s.rho, s.n_rate, 1, top + 1)):
            for f in integrands:
                value, at = f.value, f.at
                if a.stacked:
                    i = slice(first, stop)
                    terms = step[i] * value(at[i], y[i], v[i])
                    comps.append(terms.sum(axis=0) if terms.shape[1] > 1
                                 else 0.0 + np.cumsum(terms[:, 0])[-1].item())
                    continue
                total = 0.0
                for i in range(first, stop):
                    total += step[i] * value(at[i], y[i], v[i])
                comps.append(total)
    except ZeroDivisionError as exc:
        raise DomainError(fails) from exc
    return comps


def _evaluator(a: _Assembly, form: str, points):
    """``form`` at ``points``, as a function of a state's tables: for lists
    ``points`` is a range and the values come as a list, for arrays it is a
    slice and they come as a (len, S) array."""
    up, down, mu, nu = a.up, a.down, a.mu, a.nu
    derivatives = a.outer.partials
    # each integrand with the index of its component, whose outer partial weights it
    delta_integrands = tuple((index, f.partial_y, f.partial_v, f.at, None)
                             for index, f in enumerate(a.delta))
    nabla_integrands = tuple((index, g.partial_y, g.partial_v, g.at, None)
                             for index, g in enumerate(a.nabla, len(a.delta)))

    # A kind is read through (y, v, weights, integrands, jump, step, forward):
    # y at the jump and the quotient (sig and d_rate for the delta kind, rho
    # and n_rate for the nabla kind), the weights, the kind's integrands as
    # (component index, partial_y, partial_v, at, rates), its jump map and
    # graininess, and whether its quotient looks forward (delta) or back.  A
    # rate partial is read at a point and at its jump: a stack tabulates it
    # once per state (``rates``; 4.3% of the benchmark's ``horizon``
    # throughput), one state calls it at both points (``rates`` is None), as
    # tables made a one-state residual at T = 3 about a sixth slower.
    stacked = a.stacked

    def as_kind(integrands, y, v, weights, jump, step, forward):
        if stacked:
            integrands = [(index, partial_y, partial_v, at, partial_v(at, y, v))
                          for index, partial_y, partial_v, at, _ in integrands]
        return y, v, weights, integrands, jump, step, forward

    def cores(kind, i):
        """sum w (f_y - (f_v)^Delta), or sum w (g_y - (g_v)^nabla), at t_i.

        The core of :func:`terms` alone: most residual calls read only the
        cores, and taking them from ``terms`` cost 3% of the benchmark's
        ``tables`` and ``horizon`` throughput (ten pairs each, x86-64)."""
        y, v, weights, integrands, jump, step, forward = kind
        j = jump[i]
        total = None
        for index, partial_y, partial_v, at, rates in integrands:
            if stacked:
                here, there = rates[i], rates[j]
            else:
                here, there = partial_v(at[i], y[i], v[i]), partial_v(at[j], y[j], v[j])
            quotient = (there - here if forward else here - there) / step[i]
            term = weights[index] * (partial_y(at[i], y[i], v[i]) - quotient)
            total = term if total is None else total + term
        return 0.0 if total is None else total

    def terms(kind, i):
        """The kind's weighted core at t_i, and the weighted sums of its state
        partial at t_i and of its rate partial at t_i and at the jump."""
        y, v, weights, integrands, jump, step, forward = kind
        j = jump[i]
        sums = None
        for index, partial_y, partial_v, at, rates in integrands:
            w = weights[index]
            state = partial_y(at[i], y[i], v[i])
            if stacked:
                here, there = rates[i], rates[j]
            else:
                here, there = partial_v(at[i], y[i], v[i]), partial_v(at[j], y[j], v[j])
            quotient = (there - here if forward else here - there) / step[i]
            parts = (w * (state - quotient), w * state, w * here, w * there)
            sums = parts if sums is None else tuple(map(add, sums, parts))
        return (0.0, 0.0, 0.0, 0.0) if sums is None else sums

    if form == "cores":
        def equation(d, n, i, other):
            return cores(d, i) + cores(n, i)
    elif form == "delta":
        def equation(d, n, i, nabla):
            """The delta cores; the nabla state partials sigma-shifted, less the
            forward quotient of the nabla rate partials; the forward quotient
            of nu times the nabla cores across the sigma-shifted points."""
            j = up[i]
            k = up[j]
            core_ahead, state_ahead, rate_ahead, rate_here = nabla(j)
            return (cores(d, i) + (state_ahead - (rate_ahead - rate_here) / mu[i])
                    + (nu[k] * nabla(k)[0] - nu[j] * core_ahead) / mu[i])
    elif form == "nabla":
        def equation(d, n, i, delta):
            """The mirror image: the delta state partials rho-shifted, less the
            backward quotient of the delta rate partials; the nabla cores;
            less the backward quotient of mu times the delta cores across the
            rho-shifted points."""
            j = down[i]
            k = down[j]
            core_behind, state_behind, rate_behind, rate_here = delta(j)
            return ((state_behind - (rate_here - rate_behind) / nu[i]) + cores(n, i)
                    - (mu[j] * core_behind - mu[k] * delta(k)[0]) / nu[i])
    else:
        raise ValueError(f"unknown form {form!r}")

    # The delta (nabla) form reads the other kind's terms at the jumps of
    # each point and at their jumps, by a call.  One state tabulates them
    # there only, since elsewhere an integrand may fail to evaluate; a stack
    # tabulates them everywhere.
    jump = up if form == "delta" else down
    reads = sorted({j for i in points for j in (jump[i], jump[jump[i]])}) \
        if form != "cores" and not a.stacked else ()

    def evaluate(s: State, comps=None):
        try:
            if comps is None:
                comps = _integrals(a, s, _RESIDUAL_FAILS)
            weights = [derivative(comps) for derivative in derivatives]
            d = as_kind(delta_integrands, s.sig, s.d_rate, weights, up, mu, True)
            n = as_kind(nabla_integrands, s.rho, s.n_rate, weights, down, nu, False)
            other = None
            if form != "cores":
                tail = n if form == "delta" else d
                if stacked:
                    other = partial(_at, terms(tail, slice(None)))
                else:
                    other = {j: terms(tail, j) for j in reads}.__getitem__
            if stacked:
                return equation(d, n, points, other)
            return [equation(d, n, i, other) for i in points]
        except ZeroDivisionError as exc:   # floats only: a square that underflows to 0
            raise DomainError(_RESIDUAL_FAILS) from exc

    return evaluate


def _at(columns: tuple, j) -> tuple:
    """The rows j of the columns; the zeros of a kind without integrands stay floats."""
    return tuple(column if isinstance(column, float) else column[j] for column in columns)


def _stencils(a: _Assembly, form: str, points: range) -> tuple:
    """The fixed part of :func:`_jacobian` on the one-state assembly's
    scale, read from its jump and graininess lists: for each kind, what
    reads the partials of its integrands at each point, and where the band
    lands in a padded array.  The Jacobian builds
    it on its first call and keeps it, so it is built once per assembly,
    which a :class:`CompositeProblem` keeps: 23-45 us at T = 3 and
    146-290 us at T = 20 on the firm systems (x86-64, Python 3.11).

    A kind's readers at point p are its rows as (r, cy, cv, k, hi, lo), and
    its integral gradient as (j, cy, cv).  Row r reads cy f_y(p) + cv f_v(p),
    and its band gains hi . (f_yy, f_yv, f_vv)(p) at index k, the column of
    the upper end of p's quotient, and lo . (f_yy, f_yv, f_vv)(p) at k - 1,
    its lower end: the jump of p is the upper end for the delta kind and the
    lower for the nabla kind, and past an end of the scale the quotient is
    constant and the jump a boundary value, so nothing moves.  Entry j of
    the gradient in y_1..y_{n-2} reads cy f_y(p) + cv f_v(p).  Band entry
    (r, offset) sits at column points[r] + offset of a zero-padded
    (len(points), n + 4) array, whose columns 3..n are y_1..y_{n-2}.
    """
    up, down, mu, nu = a.up, a.down, a.mu, a.nu
    n = len(mu)

    # a kind's share of the row at i, as (point p, coefficient of the state
    # partial at p, of the rate partial at p)
    def delta_core(i, scale=1.0):
        return (i, scale, scale / mu[i]), (up[i], 0.0, -scale / mu[i])

    def nabla_core(i, scale=1.0):
        return (i, scale, -scale / nu[i]), (down[i], 0.0, scale / nu[i])

    def delta_row(i):
        if form != "nabla":
            return delta_core(i)
        j = down[i]
        k = down[j]
        return ((j, 1.0, 1.0 / nu[i]), (up[j], 0.0, -1.0 / nu[i]),
                *delta_core(j, -mu[j] / nu[i]), *delta_core(k, mu[k] / nu[i]))

    def nabla_row(i):
        if form != "delta":
            return nabla_core(i)
        j = up[i]
        k = up[j]
        return ((j, 1.0, -1.0 / mu[i]), (down[j], 0.0, 1.0 / mu[i]),
                *nabla_core(k, nu[k] / mu[i]), *nabla_core(j, -nu[j] / mu[i]))

    def readers(row, forward):
        rows, gradient = [[] for _ in range(n)], [[] for _ in range(n)]
        edge, shift = (n - 1, 3) if forward else (0, 2)
        for r, i in enumerate(points):
            merged = {}
            for p, cy, cv in row(i):
                if p in merged:
                    old_y, old_v = merged[p]
                    cy, cv = cy + old_y, cv + old_v
                merged[p] = cy, cv
            for p, (cy, cv) in merged.items():
                k = 5 * r + p - i + shift
                if p == edge:
                    rows[p].append((r, cy, cv, k, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
                elif forward:
                    q = 1.0 / mu[p]
                    rows[p].append((r, cy, cv, k, cy, cy * q + cv, cv * q, 0.0, -cy * q, -cv * q))
                else:
                    q = 1.0 / nu[p]
                    rows[p].append((r, cy, cv, k, 0.0, cy * q, cv * q, cy, cv - cy * q, -cv * q))
        # a delta integral sums mu_p f(p) over p = 0..n-2, and f(p) moves with
        # y_{p+1} (f_y and f_v / mu_p) and y_p (-f_v / mu_p); a nabla integral
        # sums nu_p g(p) over p = 1..n-1, and g(p) moves with y_{p-1}
        # (g_y and -g_v / nu_p) and y_p (g_v / nu_p)
        for p in range(n - 1) if forward else range(1, n):
            lower, upper = (p, p + 1) if forward else (p - 1, p)
            step = mu[p] if forward else nu[p]
            jump = upper if forward else lower
            for column, cy, cv in ((jump, step, 0.0), (upper, 0.0, 1.0), (lower, 0.0, -1.0)):
                if 0 < column < n - 1:
                    gradient[p].append((column - 1, cy, cv))
        return tuple(zip(map(tuple, rows), map(tuple, gradient)))

    targets = np.array([r * (n + 4) + i + offset for r, i in enumerate(points)
                        for offset in range(5)])
    targets.flags.writeable = False
    return readers(delta_row, True), readers(nabla_row, False), targets


def _jacobian(a: _Assembly, form: str, points: range):
    """The Jacobian of ``form`` at ``points`` in the interior values
    y_1, ..., y_{n-2}, as a function of one state's tables (and, when known,
    its component integrals).  :func:`assemble` builds it only where every
    integrand has its second partials and the outer function its Hessian;
    a division by zero raises :class:`DomainError`.

    Every form is linear in the outer weights: its row at a point is
    sum_c w_c R_c, where R_c adds integrand c's state and rate partials at a
    few points with coefficients fixed by the scale and the form.  So the
    Jacobian is sum_c w_c dR_c + sum_c R_c (x) dw_c.  The first part is
    banded: a partial at point p moves with y at the two ends of p's
    quotient, one of them its jump, and every form reads points whose
    quotient ends lie within two points of the row's.  The second part has
    rank at most the number of components: dw_c = sum_d H_cd dI_d, with H
    the outer Hessian and dI_d the gradient of component integral d.  One
    pass over the points of each integrand evaluates its partials once and
    adds them to every row, band entry and gradient entry that reads them.
    """
    n = len(a.mu)
    size = len(points)
    derivatives, hessian = a.outer.partials, a.outer.hessian

    stencils = []   # built on the first call, not by assemble: most callers never ask

    def jacobian(s: State, comps=None) -> np.ndarray:
        if not stencils:
            stencils.append(_stencils(a, form, points))
        delta_readers, nabla_readers, targets = stencils[0]
        kinds = (a.delta, delta_readers), (a.nabla, nabla_readers)
        try:
            if comps is None:
                comps = _integrals(a, s, _JACOBIAN_FAILS)
            weights = [derivative(comps) for derivative in derivatives]
            band = [0.0] * (5 * size)
            rows, grads = [], []
            for (integrands, readers), ys, vs in zip(kinds, (s.sig, s.rho), (s.d_rate, s.n_rate)):
                for f in integrands:
                    w = weights[len(rows)]
                    f_y, f_v, f_yy, f_yv, f_vv = (f.partial_y, f.partial_v, f.partial_yy,
                                                  f.partial_yv, f.partial_vv)
                    row, grad = [0.0] * size, [0.0] * (n - 2)
                    for t, y, v, (reading_rows, reading_grad) in zip(f.at, ys, vs, readers):
                        if not (reading_rows or reading_grad):
                            continue
                        py, pv = f_y(t, y, v), f_v(t, y, v)
                        if reading_rows:
                            yy, yv, vv = f_yy(t, y, v), f_yv(t, y, v), f_vv(t, y, v)
                            for r, cy, cv, k, h1, h2, h3, l1, l2, l3 in reading_rows:
                                row[r] += cy * py + cv * pv
                                band[k] += w * (h1 * yy + h2 * yv + h3 * vv)
                                band[k - 1] += w * (l1 * yy + l2 * yv + l3 * vv)
                        for j, cy, cv in reading_grad:
                            grad[j] += cy * py + cv * pv
                    rows.append(row)
                    grads.append(grad)
            outer_hessian = hessian(comps)
        except ZeroDivisionError as exc:   # a power of the margin that underflows to 0
            raise DomainError(_JACOBIAN_FAILS) from exc
        jac = np.zeros(size * (n + 4))
        jac[targets] = band
        jac = jac.reshape(size, n + 4)[:, 3:n + 1]
        if any(map(any, outer_hessian)):
            # ndarray.dot: a third cheaper than @ on these small arrays
            jac += np.array(rows).T.dot(np.array(outer_hessian, dtype=float).dot(np.array(grads)))
        return jac

    return jacobian


# ---------------------------------------------------------------------------
# validating wrappers


def _admissible_values(problem: CompositeProblem, y: GridFunction) -> np.ndarray:
    if y.scale != problem.scale:
        raise ValueError("state lives on a different scale than the problem")
    if y.support != range(0, len(problem.scale)):
        raise DomainError("state must be defined on the whole scale")
    ya, yb = problem.boundary
    vals = y.values
    # written as "not within" so that a NaN endpoint, which is within nothing, is refused
    if not abs(vals[0] - ya) <= 1e-12 or not abs(vals[-1] - yb) <= 1e-12:
        raise BoundaryMismatchError(
            f"state endpoints ({vals[0]}, {vals[-1]}) do not match boundary ({ya}, {yb})"
        )
    return vals


def _check_policy(policy: str) -> None:
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")


def _undefined_past_an_end(fn, stacked: bool = False):
    """``fn``, but NaN where the strict quotient is undefined."""
    if stacked:
        return lambda t, y, v: np.where(np.isnan(v), np.nan, fn(t, y, v))
    return lambda t, y, v: math.nan if math.isnan(v) else fn(t, y, v)


def _problem_assembly(problem: CompositeProblem, policy: str, form: str = "cores",
                      points: range = range(0), stacked: bool = False) -> Assembled | None:
    """The assembly of ``problem``'s read forms on ``points``, on floats or,
    with ``stacked``, on arrays; None on arrays where an integrand has no
    read form, and on floats that integrand read at its times.

    It depends on the problem, the policy, the form, the window and
    ``stacked`` alone, so the problem keeps it from the first call with them
    on; each read form is built then, for its number type.  A read form is
    missing on both number types or on neither, so a float build that finds
    one missing keeps None for the stack too."""
    key = policy, form, points, stacked
    try:
        return problem._assemblies[key]
    except KeyError:
        pass
    scale = problem.scale
    integrands = []
    for f in (*problem.delta_integrands, *problem.nabla_integrands):
        read = None if f.on_points is None else f.on_points(f, scale.points, stacked)
        if read is None:
            problem._assemblies[policy, form, points, True] = None
            if stacked:
                return None
        integrands.append(replace(f, at=scale.points) if read is None else read)
    if policy == STRICT:
        integrands = [replace(f, partial_y=_undefined_past_an_end(f.partial_y, stacked),
                              partial_v=_undefined_past_an_end(f.partial_v, stacked))
                      for f in integrands]
    assembled = problem._assemblies[key] = assemble(
        scale.mu_values()[:-1].tolist(), integrands, problem.outer, policy, form, points,
        stacked, times=scale.points)
    return assembled


def _read(problem: CompositeProblem, y: GridFunction, read, policy: str = CLAMPED,
          form: str = "cores", points: range = range(0)):
    """``read(assembled, tables)`` of the state ``y``: where the problem's
    integrands all have read forms, on ``y`` as one column of the stacked
    assembly, unless a guard fails on it or it raises a floating-point
    error; then, or without them, on its floats.  The two agree bit for bit
    wherever the column raises nothing, so the floats give every value, NaN
    and error text."""
    vals = _admissible_values(problem, y)
    column = _problem_assembly(problem, policy, form, points, True)
    got = None if column is None else _on_column(read, column, vals)
    if got is None:
        one = _problem_assembly(problem, policy, form, points)
        got = read(one, one.state(vals.tolist()))
    return got


# On a column a division by zero or an invalid operation raises, and the
# state is read again as floats, where the one raises ZeroDivisionError and
# the other gives NaN, as they always did; an overflow gives inf on both.
# The errstate is built once, here, and entered per call.
@np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore")
def _on_column(read, column: Assembled, vals: np.ndarray):
    """``read`` of the state as one column, or None where a guard fails on
    it or it raises a floating-point error."""
    try:
        s = column.state(vals[:, None])
        return None if s.infeasible[0] else read(column, s)
    except FloatingPointError:
        return None


def _components(assembled: Assembled, s: State) -> np.ndarray:
    """The component integrals, one state's or one column's (floats both), as a vector."""
    return np.asarray(assembled.integrals(s))


def eval_component_integrals(problem: CompositeProblem, y: GridFunction) -> np.ndarray:
    """Vector of the k delta and n nabla component integrals at state y."""
    return _read(problem, y, _components)


def eval_functional(problem: CompositeProblem, y: GridFunction) -> float:
    """Outer function applied to the component integrals."""
    return float(problem.outer.value(_read(problem, y, _components)))


def theorem_main_residual(
    problem: CompositeProblem,
    y: GridFunction,
    form: str = "delta",
    policy: str = STRICT,
) -> GridFunction:
    """Stationarity residual of the composite functional at state ``y``.

    ``form`` selects which of the two equivalent formulations is
    assembled: ``"delta"`` places the delta-kind terms unshifted and
    differences the nabla-kind aggregate forward, ``"nabla"`` does the
    mirror image.  The residual lives on the interior of the scale.  A
    division by zero in it, such as the firm capital partial's where the
    square of a tiny margin underflows to 0, raises :class:`DomainError`
    ("residual is not finite at this state"), as the firm systems do.
    """
    _check_policy(policy)
    if form not in ("delta", "nabla"):
        raise ValueError(f"form must be 'delta' or 'nabla', got {form!r}")
    interior = problem.scale.interior_domain
    out = np.full(len(problem.scale), np.nan)
    residual = _read(problem, y, lambda one, s: one.evaluate(s), policy, form, interior)
    out[interior.start : interior.stop] = np.ravel(residual)
    return GridFunction(problem.scale, out, interior)


def problem_system(problem: CompositeProblem, form: str, points: range,
                   label: str = "") -> ResidualSystem:
    """The square system of ``form`` on the window ``points``, in the
    problem's interior values y_1, ..., y_{n-2}, under the clamped policy.

    ``form`` is an output of :func:`assemble` and ``points`` a range of
    n - 2 consecutive points.  The residual and the functional evaluate one
    state as float arithmetic on the problem's kept assembly: a state at
    which a declared guard fails raises its :class:`DomainError`, and so do
    the component integrals and the residual where they are not finite; the
    functional is returned as computed, inf included.  The jacobian is the
    residual's exact Jacobian, from the integrands' second partials and the
    outer Hessian, where the assembly has one (see :func:`assemble`), and
    None otherwise, so a Newton solve takes central differences; it raises
    :class:`DomainError` where it is not finite.  The tables and integrals
    of the last state are kept, since a Newton solve takes the Jacobian at
    the state whose residual it has just evaluated.

    The stacked residual lays the states out as C-ordered columns of one
    stacked assembly, so each column's integrals add in one state's order
    and each row equals the one-state residual bit for bit; it marks with
    NaN the rows of the states at which a guard fails or the residual is
    not finite.  Where an integrand has no read form the system has no
    stacked residual: a solver that needs a stack lifts the residual itself.
    """
    n = len(problem.scale)
    m = n - 2
    if not (isinstance(points, range) and points.step == 1 and len(points) == m
            and 0 <= points.start and points.stop <= n):
        raise ValueError(f"points must be a range of {m} consecutive points, got {points!r}")
    ya, yb = problem.boundary
    outer = problem.outer
    one = _problem_assembly(problem, CLAMPED, form, points)
    # building `one` keeps None for the stack where an integrand has no read form
    on_arrays = problem._assemblies.get((CLAMPED, form, points, True), one) is not None
    last = (None, None, None)

    def tables(x):
        """The tables of one state, its guards checked, and its component integrals."""
        nonlocal last
        if len(x) != m:
            raise ValueError(f"expected {m} interior values, got {len(x)}")
        values = np.asarray(x, dtype=float)
        key, kept = values.tobytes(), last
        if key != kept[0]:
            s = one.state([ya, *values.tolist(), yb])
            kept = last = key, s, one.integrals(s)
        return kept[1], kept[2]

    def residual(x: np.ndarray) -> np.ndarray:
        values = one.evaluate(*tables(x))
        if not all(map(math.isfinite, values)):
            raise DomainError(_RESIDUAL_FAILS)
        return np.array(values)

    def jacobian(x: np.ndarray) -> np.ndarray:
        return _finite_jacobian(one, *tables(x))

    def functional(x: np.ndarray) -> float:
        return outer.value(tables(x)[1])

    def stacked_residual(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != m:
            raise ValueError(f"expected states of {m} interior values, got shape {xs.shape}")
        y = np.empty((n, len(xs)))   # C-ordered, whatever the layout of xs
        y[0] = ya
        y[1:-1] = xs.T
        y[-1] = yb
        return _stacked_rows(_problem_assembly(problem, CLAMPED, form, points, True), y)

    return ResidualSystem(dimension=m, residual=residual, label=label, functional=functional,
                          jacobian=None if one.jacobian is None else jacobian,
                          stacked_residual=stacked_residual if on_arrays else None)


# an overflow, or an inf less an inf, in the rank part of a Jacobian is
# refused by its finiteness check, so numpy's warnings about them are off
@np.errstate(over="ignore", invalid="ignore")
def _finite_jacobian(one: Assembled, s: State, comps) -> np.ndarray:
    """The assembly's Jacobian at one state; :class:`DomainError` where it
    is not finite."""
    jac = one.jacobian(s, comps)
    if not np.isfinite(jac).all():
        raise DomainError(_JACOBIAN_FAILS)
    return jac


# overflow is expected in a stacked residual and marked by its NaN rows, so
# numpy's warnings about it are off there; decorated once here rather than
# per system, where the decoration cost a quarter of building one
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _stacked_rows(column: Assembled, y: np.ndarray) -> np.ndarray:
    """The output at the (n, S) states ``y``, a row per state, NaN where a
    guard fails on the state or the row is not finite."""
    s = column.state(y)
    rows = column.evaluate(s).T
    rows[s.infeasible | ~np.isfinite(rows).all(axis=1)] = np.nan
    return rows


def corollary_z_residual(
    problem: CompositeProblem,
    y: GridFunction,
    which: str = "first",
    policy: str = STRICT,
) -> GridFunction:
    """Residual of the one-delta/one-nabla specialization on an integer scale.

    Written directly with unit index shifts, its component integrals
    included; serves as an independent cross-check of
    :func:`theorem_main_residual` on contiguous integer scales.  It reads
    the state as floats, as the engine does, and a division by zero in it
    raises the same :class:`DomainError` ("residual is not finite at this
    state").
    """
    _check_policy(policy)
    if which not in ("first", "second"):
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    if len(problem.delta_integrands) != 1 or len(problem.nabla_integrands) != 1:
        raise ValueError("specialized residual needs exactly one integrand of each kind")
    if not problem.scale.is_integer_grid:
        raise ValueError("specialized residual needs a contiguous integer scale")
    vals = _admissible_values(problem, y).tolist()
    scale = problem.scale
    pts = scale.points
    n = len(scale)
    f = problem.delta_integrands[0]
    g = problem.nabla_integrands[0]
    clamped = policy == CLAMPED

    def fwd(i):
        return min(i + 1, n - 1)

    def bwd(i):
        return max(i - 1, 0)

    def dy(i):
        if i == n - 1:
            return 0.0 if clamped else math.nan
        return vals[i + 1] - vals[i]

    def ny(i):
        if i == 0:
            return 0.0 if clamped else math.nan
        return vals[i] - vals[i - 1]

    def f_y(i):
        v = dy(i)
        return math.nan if math.isnan(v) else f.partial_y(pts[i], vals[fwd(i)], v)

    def f_v(i):
        v = dy(i)
        return math.nan if math.isnan(v) else f.partial_v(pts[i], vals[fwd(i)], v)

    def g_y(i):
        v = ny(i)
        return math.nan if math.isnan(v) else g.partial_y(pts[i], vals[bwd(i)], v)

    def g_v(i):
        v = ny(i)
        return math.nan if math.isnan(v) else g.partial_v(pts[i], vals[bwd(i)], v)

    # the delta core of f at i <= n - 2 and the nabla core of g at i >= 1,
    # the only points the equations read them at; the rate partials are
    # called first, so a failing call names the same point as it always did
    def gamma_f(i):
        step = f_v(i + 1) - f_v(i)
        return f_y(i) - step

    def gamma_g(i):
        step = g_v(i) - g_v(i - 1)
        return g_y(i) - step

    out = np.full(n, np.nan)
    try:
        # unit steps: the delta integral sums f over 0..n-2, the nabla one g
        # over 1..n-1, each in order from 0.0
        comps = [0.0, 0.0]
        for i in range(n - 1):
            comps[0] += f.value(pts[i], vals[i + 1], dy(i))
            comps[1] += g.value(pts[i + 1], vals[i], ny(i + 1))
        comps = np.array(comps)
        wf = problem.outer.partials[0](comps)
        wg = problem.outer.partials[1](comps)
        for i in scale.interior_domain:
            if which == "first":
                term_delta = wf * gamma_f(i)
                term_mid = wg * (g_y(i + 1) - (g_v(i + 1) - g_v(i)))
                term_tail = wg * (gamma_g(fwd(fwd(i))) - gamma_g(fwd(i)))
                out[i] = term_delta + term_mid + term_tail
            else:
                term_mid = wf * (f_y(i - 1) - (f_v(i) - f_v(i - 1)))
                term_tail = wf * (gamma_f(bwd(i)) - gamma_f(bwd(bwd(i))))
                term_nabla = wg * gamma_g(i)
                out[i] = term_mid + term_nabla - term_tail
    except ZeroDivisionError as exc:   # floats only: a square that underflows to 0
        raise DomainError(_RESIDUAL_FAILS) from exc
    return GridFunction(scale, out, scale.interior_domain)


# ---------------------------------------------------------------------------
# finite-difference validation of analytic partials


def check_integrand_partials(
    integrand: Integrand,
    samples: Sequence,
    rel_tol: float = 1e-6,
) -> float:
    """Largest relative error of the analytic partials against central
    differences over the sample triples; raises if it exceeds ``rel_tol``.

    The first partials are checked against differences of the value, and
    the second partials, when given, against differences of the first:
    ``partial_yv`` against both the y-difference of ``partial_v`` and the
    v-difference of ``partial_y``.
    """
    checks = [("partial_y", integrand.partial_y, integrand.value, 1),
              ("partial_v", integrand.partial_v, integrand.value, 2)]
    for which, differenced, pos in (("partial_yy", integrand.partial_y, 1),
                                    ("partial_yv", integrand.partial_y, 2),
                                    ("partial_yv", integrand.partial_v, 1),
                                    ("partial_vv", integrand.partial_v, 2)):
        fn = getattr(integrand, which)
        if fn is not None:
            checks.append((which, fn, differenced, pos))
    worst = 0.0
    for (t, yv, vv) in samples:
        arg = (t, yv, vv)
        for which, fn, differenced, pos in checks:
            h = 1e-6 * max(1.0, abs(arg[pos]))
            hi = list(arg)
            lo = list(arg)
            hi[pos] += h
            lo[pos] -= h
            approx = (differenced(*hi) - differenced(*lo)) / (2 * h)
            exact = fn(t, yv, vv)
            err = abs(approx - exact) / max(1.0, abs(exact))
            worst = max(worst, err)
            if err > rel_tol:
                raise AssertionError(
                    f"{which} disagrees with central difference at {arg}: "
                    f"analytic {exact}, difference {approx}"
                )
    return worst
