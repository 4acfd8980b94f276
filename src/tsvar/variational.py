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
natural domains.  The assembly reads one convention, the firm model's in
:mod:`tsvar.econ`: past an end of the scale the quotient is zero and the
graininess 1 (the ``clamped`` policy).  The ``strict`` policy of the two
residual readers is a choice of rows, not of arithmetic: they read the
clamped residual on the interior less the one row whose form reads a
quotient past an end, the theorem's own domains T^kappa^2 and T_kappa^2,
and leave that row undefined (NaN in the returned grid function; access
raises).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from operator import add, eq, itemgetter, le, or_
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
    declared guard fails on that column, the arrays raise a floating-point
    error (a division by zero or an invalid operation) or the column's
    output is not finite, it evaluates the state again as floats, point by
    point, and returns that value or raises that error, which names the
    guard's point, so the two give the same bytes and texts.  A problem
    with an integrand that has no read form evaluates as floats alone.  It
    builds each assembly once per form, window and kind of evaluation, on
    first use, and keeps it, with
    the stencils its Jacobian builds on its first call: an evaluation then
    does only the state's arithmetic, since the window's rows, graininess
    and tables are built with the assembly.  This is the one cache of what
    is built from the problem.
    """

    scale: TimeScale
    delta_integrands: tuple
    nabla_integrands: tuple
    outer: OuterFunction
    boundary: tuple
    # (form, points, stacked) -> the assembly of the read forms, built on
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
# A quotient past an end of the scale is 0.0, and the graininess there 1.0,
# so a quotient across an end is exactly zero.


class State(NamedTuple):
    """A state's tables, lists for one state and (n, S) arrays for a stack.
    The quotients are 0.0 past the top (delta) and the bottom (nabla).  A
    stack's ``infeasible`` marks the columns at which a declared guard
    fails; one state has None, since its guard pass raises."""

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
    up: list            # index of sigma(t_i)
    down: list          # index of rho(t_i)
    mu: Sequence        # forward graininess; 1.0 at the top
    nu: Sequence        # backward graininess; 1.0 at the bottom
    gaps: Sequence      # the quotients' divisors, mu_0 .. mu_{n-2}; a stack's by _grain
    delta: tuple        # the delta integrands
    nabla: tuple        # the nabla integrands
    outer: OuterFunction
    stacked: bool
    guards: tuple       # (State field index, summation points, Guard, its bound), in
                        # checking order; a stack's bound is a 0-d array
    times: Sequence     # the points a failed guard names
    sums: tuple         # per component integral, in order: (value, at, graininess,
                        # summation points, State field indices of y and v); a stack
                        # reads at and the graininess (by _grain) on those points


def assemble(gaps: list, integrands, outer: OuterFunction, form: str = "cores",
             points: range = range(0), stacked: bool = False,
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
    ``jacobian``, each also where it sums the integrals itself; ``evaluate``
    and ``jacobian`` also raise their texts where an entry of their output
    is not finite.

    ``state`` checks each integrand's :class:`Guard` once per state, at the
    points its component integral sums, which hold every value a callable
    reads but the zero quotient past an end: the guards on y before those on
    v, each kind's in component order, the delta integrands first, and
    each over ascending points.  For one state the first failure raises
    :class:`DomainError`, naming the point as ``times[i]`` (the indices
    where ``times`` is None); a stack's ``infeasible`` marks the columns at
    which any guard fails.

    What depends on the window and the scale alone is built here, once:
    the rows each piece of the output reads, its graininess and each
    integrand's table (columns for a stack), and a stack's guard bounds as
    0-d arrays, with which numpy computes faster than with Python floats
    and to the same bits.  A stack's graininess on a window, the quotients'
    divisor among them, is a 0-d array where it holds one value, as on
    every firm system and in the gaps of any uniform scale, and an (n, 1)
    column where it varies, as on a non-uniform scale or across an end,
    where the step is 1 (see :func:`_grain`).  A call then does the
    state's arithmetic only.

    A window that is not a range of points in 0 .. n - 1 (it may be empty
    or stepped) raises ValueError.
    """
    n = len(gaps) + 1
    # a range's points lie between its first and its last
    if not (isinstance(points, range)
            and (not points or 0 <= points[0] < n and 0 <= points[-1] < n)):
        raise ValueError(f"points must be a range of points in 0..{n - 1}, got {points!r}")
    mu, nu = gaps + [1.0], [1.0] + gaps
    gaps = mu[:-1]
    integrands = tuple(integrands)
    if stacked:
        mu, nu = np.array(mu, dtype=float), np.array(nu, dtype=float)
        gaps = _grain(mu[:-1])
        integrands = tuple(replace(f, at=np.array(f.at, dtype=float)[:, None])
                           for f in integrands)
    delta = tuple(f for f in integrands if f.kind == "delta")
    nabla = tuple(f for f in integrands if f.kind == "nabla")
    # a delta integral sums mu f over 0..n-2 reading sig and d_rate (fields 0
    # and 2 of a State), a nabla one nu g over 1..n-1 reading rho and n_rate
    # (1 and 3)
    guards = tuple((fields[f.guard.reads], window, f.guard,
                    np.asarray(f.guard.bound) if stacked else f.guard.bound)
                   for reads in ("y", "v")
                   for kind, fields, window in ((delta, {"y": 0, "v": 2}, slice(0, n - 1)),
                                                (nabla, {"y": 1, "v": 3}, slice(1, n)))
                   for f in kind if f.guard is not None and f.guard.reads == reads)
    sums = tuple((f.value, f.at, step, window, y, v)
                 for kind, step, window, y, v in ((delta, mu, range(0, n - 1), 0, 2),
                                                  (nabla, nu, range(1, n), 1, 3))
                 for f in kind)
    if stacked:
        sums = tuple((value, at[rows], _grain(step[rows]), rows, y, v)
                     for value, at, step, window, y, v in sums for rows in (_rows(window),))
    a = _Assembly([*range(1, n), n - 1], [0, *range(n - 1)], mu, nu, gaps, delta, nabla,
                  outer, stacked, guards, range(n) if times is None else times, sums)
    exact = outer.hessian is not None and all(
        None not in (f.partial_yy, f.partial_yv, f.partial_vv) for f in integrands)
    return Assembled(partial(_state, a), partial(_integrals, a), _evaluator(a, form, points),
                     _jacobian(a, form, points) if exact and not stacked else None)


def _rows(indices: Sequence):
    """The rows ``indices`` of a stack's tables: a slice where they are
    consecutive and ascending, so the stack reads a view, and otherwise an
    int array, which copies."""
    start = indices[0] if len(indices) else 0
    if list(indices) == list(range(start, start + len(indices))):
        return slice(start, start + len(indices))
    return np.array(indices)


def _grain(steps: np.ndarray) -> np.ndarray:
    """A stack's graininess on a window of rows, from its steps there: a
    0-d array where every step has the same bits, and an (n, 1) column
    where they vary, as on a non-uniform scale, or where a window reaches
    past an end, whose step is 1.  An (n, S) table times or over a 0-d
    array runs as a same-shape op, at about half the cost of a broadcast
    column, and the two give the same bits, since each entry meets the
    same step."""
    bits = steps.view(np.int64)
    if bits.size and (bits == bits[0]).all():
        return np.array(steps[0])
    return steps[:, None]


def _state(a: _Assembly, y) -> State:
    """The state's tables, once its guards are checked; see :func:`assemble`."""
    if a.stacked:
        rates = np.empty((len(y) + 1, y.shape[1]))
        inner = rates[1:-1]
        np.subtract(y[1:], y[:-1], out=inner)
        inner /= a.gaps
        rates[0] = rates[-1] = 0.0
        padded = np.concatenate((y[:1], y, y[-1:]))
        tables = padded[2:], padded[:-2], rates[1:], rates[:-1]
        # every guard's window has n - 1 rows, so one reduction marks the columns
        fails = [guard.fails(tables[field][window], bound)
                 for field, window, guard, bound in a.guards]
        infeasible = reduce(or_, fails).any(axis=0) if fails else np.zeros(y.shape[1], bool)
        return State(*tables, infeasible)
    # mu[i] and nu[i + 1] are the same gap, so one quotient serves both kinds
    quotient = [(ahead - here) / step for here, ahead, step in zip(y, y[1:], a.gaps)]
    s = State(y[1:] + y[-1:], y[:1] + y[:-1], quotient + [0.0], [0.0] + quotient)
    for field, window, guard, bound in a.guards:
        values = s[field]
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
    (n-1, S) term array in order, for every S but 1, an empty stack
    included, but a single column pairwise, which differs from the
    one-state sum from about eight terms on, so one column is summed by
    ``cumsum``, which is in order but several times slower across a wide
    array (at S = 256 and 2048).  One state's sum and
    ``sum(axis=0)`` start from 0.0 and ``cumsum`` from the first term, which
    differ only where every term is -0.0; 0.0 plus the cumsum gives 0.0
    there too.  One column's integrals are floats, as one state's are, so
    the outer partials read them alike.

    A division by zero, which only floats raise, raises :class:`DomainError`
    with the text ``fails``.
    """
    comps = []
    try:
        for value, at, step, window, y_field, v_field in a.sums:
            y, v = s[y_field], s[v_field]
            if a.stacked:
                terms = step * value(at, y[window], v[window])
                comps.append(terms.sum(axis=0) if terms.shape[1] != 1
                             else 0.0 + np.cumsum(terms[:, 0])[-1].item())
                continue
            total = 0.0
            for i in window:
                total += step[i] * value(at[i], y[i], v[i])
            comps.append(total)
    except ZeroDivisionError as exc:
        raise DomainError(fails) from exc
    return comps


def _evaluator(a: _Assembly, form: str, points: range):
    """``form`` at ``points``, as a function of a state's tables: for lists
    the output is a list, a value per point, for arrays a (len, S) array."""
    up, down, mu, nu, stacked = a.up, a.down, a.mu, a.nu, a.stacked
    derivatives = a.outer.partials
    # each integrand with the index of its component, whose outer partial weights it
    delta_integrands = tuple((index, f.partial_y, f.partial_v, f.at)
                             for index, f in enumerate(a.delta))
    nabla_integrands = tuple((index, g.partial_y, g.partial_v, g.at)
                             for index, g in enumerate(a.nabla, len(a.delta)))

    # A kind is read through (y, v, weights, integrands, rates, forward): y at
    # the jump and the quotient (sig and d_rate for the delta kind, rho and
    # n_rate for the nabla kind), the weights, the kind's integrands as
    # (component index, partial_y, partial_v, at), their rate partials by
    # component index, and whether its quotient looks forward (delta) or
    # back.  A rate partial is read at a point and at its jump: a stack
    # tabulates it once per state, one state calls it at both points (its
    # ``rates`` are None), as tables made a one-state residual at T = 3
    # about a sixth slower.
    def kind(integrands, y, v, weights, forward):
        rates = None
        if stacked:
            rates = {index: partial_v(at, y, v) for index, _, partial_v, at in integrands}
        return y, v, weights, integrands, rates, forward

    def cores(kind, i, j, step):
        """sum w (f_y - (f_v)^Delta), or sum w (g_y - (g_v)^nabla), at t_i,
        whose jump is t_j and graininess ``step``.

        The core of :func:`terms` alone: most residual calls read only the
        cores, and taking them from ``terms`` cost 3% of the benchmark's
        ``tables`` and ``horizon`` throughput (ten pairs each, x86-64)."""
        y, v, weights, integrands, rates, forward = kind
        total = None
        for index, partial_y, partial_v, at in integrands:
            if rates is None:
                here, there = partial_v(at[i], y[i], v[i]), partial_v(at[j], y[j], v[j])
            else:
                here, there = rates[index][i], rates[index][j]
            quotient = (there - here if forward else here - there) / step
            term = weights[index] * (partial_y(at[i], y[i], v[i]) - quotient)
            total = term if total is None else total + term
        return 0.0 if total is None else total

    def terms(kind, i, j, step):
        """The kind's weighted core at t_i, whose jump is t_j and graininess
        ``step``, and the weighted sums of its state partial at t_i and of
        its rate partial at t_i and at t_j."""
        y, v, weights, integrands, rates, forward = kind
        sums = None
        for index, partial_y, partial_v, at in integrands:
            w = weights[index]
            state = partial_y(at[i], y[i], v[i])
            if rates is None:
                here, there = partial_v(at[i], y[i], v[i]), partial_v(at[j], y[j], v[j])
            else:
                here, there = rates[index][i], rates[index][j]
                if isinstance(w, np.ndarray):
                    # (S,) weights, read four times: laid out once at the
                    # table's shape, so the products run as same-shape ops
                    w = w[None].repeat(len(here), axis=0)
            quotient = (there - here if forward else here - there) / step
            parts = (w * (state - quotient), w * state, w * here, w * there)
            sums = parts if sums is None else tuple(map(add, sums, parts))
        return (0.0, 0.0, 0.0, 0.0) if sums is None else sums

    # A point's output reads its row i, its jump j and a third row k, with
    # the graininess gi, gj and gk at three of them; the el forms read the
    # form's other kind, its tail, through its terms at j and its core at k.
    if form == "cores":
        def equation(d, n, i, j, k, gi, gj, gk, ahead, beyond):
            """Both kinds' cores: j and k are the delta and nabla jumps of
            i, gi and gj the delta and nabla graininess at i."""
            return cores(d, i, j, gi) + cores(n, i, k, gj)
        sites = [(i, up[i], down[i]) for i in points]
        grains = (mu, 0), (nu, 0), (nu, 0)   # gi = mu_i, gj = nu_i; gk is unread
        tail, tail_jump, tail_step = (), None, None
    elif form == "delta":
        def equation(d, n, i, j, k, gi, gj, gk, ahead, beyond):
            """The delta cores; the nabla state partials sigma-shifted, less the
            forward quotient of the nabla rate partials; the forward quotient
            of nu times the nabla cores across the sigma-shifted points."""
            core_ahead, state_ahead, rate_ahead, rate_here = ahead
            return (cores(d, i, j, gi) + (state_ahead - (rate_ahead - rate_here) / gi)
                    + (gk * beyond - gj * core_ahead) / gi)
        sites = [(i, up[i], up[up[i]]) for i in points]
        grains = (mu, 0), (nu, 1), (nu, 2)   # gi = mu_i, gj = nu_j, gk = nu_k
        tail, tail_jump, tail_step = nabla_integrands, down, nu
    elif form == "nabla":
        def equation(d, n, i, j, k, gi, gj, gk, ahead, beyond):
            """The mirror image: the delta state partials rho-shifted, less the
            backward quotient of the delta rate partials; the nabla cores;
            less the backward quotient of mu times the delta cores across the
            rho-shifted points."""
            core_behind, state_behind, rate_behind, rate_here = ahead
            return ((state_behind - (rate_here - rate_behind) / gi) + cores(n, i, j, gi)
                    - (gj * core_behind - gk * beyond) / gi)
        sites = [(i, down[i], down[down[i]]) for i in points]
        grains = (nu, 0), (mu, 1), (mu, 2)   # gi = nu_i, gj = mu_j, gk = mu_k
        tail, tail_jump, tail_step = delta_integrands, up, mu
    else:
        raise ValueError(f"unknown form {form!r}")
    # one state tabulates the tail's terms only where the output reads them,
    # since elsewhere an integrand may fail to evaluate, and so does a stack
    reads = sorted({p for _, j, k in sites for p in (j, k)}) if tail else []
    if stacked:
        # a stack reads each window of rows at once, through index objects
        # and graininess built here, once per assembly; the tail's terms are
        # read at its rows j and k among the rows they are tabulated at
        rows = [_rows(column) for column in zip(*sites)] or [slice(0, 0)] * 3
        if tail:
            position = {p: r for r, p in enumerate(reads)}
            reads = (_rows(reads), _rows([tail_jump[p] for p in reads]),
                     _grain(tail_step[_rows(reads)]), _rows([position[j] for _, j, _ in sites]),
                     _rows([position[k] for _, _, k in sites]))
        sites = [(*rows, *(_grain(g[rows[x]]) for g, x in grains))]
    else:
        sites = [(*site, *(g[site[x]] for g, x in grains)) for site in sites]

    def evaluate(s: State, comps=None):
        try:
            if comps is None:
                comps = _integrals(a, s, _RESIDUAL_FAILS)
            weights = [derivative(comps) for derivative in derivatives]
            d = kind(delta_integrands, s.sig, s.d_rate, weights, True)
            n = kind(nabla_integrands, s.rho, s.n_rate, weights, False)
            other = n if form == "delta" else d
            if not tail:   # the cores form, or a tail kind without integrands
                zeros = 0.0, 0.0, 0.0, 0.0
                out = [equation(d, n, i, j, k, gi, gj, gk, zeros, 0.0)
                       for i, j, k, gi, gj, gk in sites]
            elif stacked:
                tabulated, jumps, steps, ahead, beyond = reads
                columns = terms(other, tabulated, jumps, steps)
                (i, j, k, gi, gj, gk), = sites
                return equation(d, n, i, j, k, gi, gj, gk,
                                [column[ahead] for column in columns], columns[0][beyond])
            else:
                table = {p: terms(other, p, tail_jump[p], tail_step[p]) for p in reads}
                out = [equation(d, n, i, j, k, gi, gj, gk, table[j], table[k][0])
                       for i, j, k, gi, gj, gk in sites]
        except ZeroDivisionError as exc:   # floats only: a square that underflows to 0
            raise DomainError(_RESIDUAL_FAILS) from exc
        if stacked:
            return out[0]
        if not all(map(math.isfinite, out)):   # inf or NaN
            raise DomainError(_RESIDUAL_FAILS)
        return out

    return evaluate


def _readers(a: _Assembly, form: str, points: range) -> tuple:
    """What reads the partials of each kind's integrands at each point, for
    :func:`_jacobian` on the one-state assembly's scale, read from its jump
    and graininess lists: the delta kind's readers, then the nabla kind's.

    A kind's readers at point p are its rows as (r, cy, cv, k, hi, lo), and
    its integral gradient as (j, cy, cv).  Row r reads cy f_y(p) + cv f_v(p),
    and its band gains hi . (f_yy, f_yv, f_vv)(p) at index k, the column of
    the upper end of p's quotient, and lo . (f_yy, f_yv, f_vv)(p) at k - 1,
    its lower end: the jump of p is the upper end for the delta kind and the
    lower for the nabla kind, and past an end of the scale the quotient is
    constant and the jump a boundary value, so nothing moves.  Entry j of
    the gradient in y_1..y_{n-2} reads cy f_y(p) + cv f_v(p).  Band index
    5 r + offset holds entry (r, points[r] + offset - 3) of the Jacobian,
    whose columns are y_1..y_{n-2}, where that column exists.
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

    return readers(delta_row, True), readers(nabla_row, False)


def _stencils(a: _Assembly, form: str, points: range) -> tuple:
    """The fixed part of :func:`_jacobian`, its read plan: per integrand, in
    component order, its five partials, the State fields of its y and v,
    and the points its :func:`_readers` read, ascending, each as (p, at[p],
    rows, gradient); and the band index of each entry of the
    (len(points), n - 2) Jacobian, 5 len(points) (the zero slot) where the
    band does not reach.  The Jacobian builds it on its first call and
    keeps it, so it is built once per assembly, which a
    :class:`CompositeProblem` keeps: 19-38 us at T = 3 and 113-171 us at
    T = 20 on the firm systems (x86-64, Python 3.11), where one call takes
    about 18 us and 73 us.
    """
    n = len(a.mu)
    delta_readers, nabla_readers = _readers(a, form, points)
    plans = tuple(((f.partial_y, f.partial_v, f.partial_yy, f.partial_yv, f.partial_vv),
                   y_field, v_field,
                   tuple((p, t, rows, gradient)
                         for p, (t, (rows, gradient)) in enumerate(zip(f.at, reading))
                         if rows or gradient))
                  for integrands, reading, y_field, v_field in (
                      (a.delta, delta_readers, 0, 2), (a.nabla, nabla_readers, 1, 3))
                  for f in integrands)
    size = len(points)
    # column c of row r reads offset c + 3 - points[r] of the row's band
    positions = np.array([[5 * r + offset if 0 <= offset < 5 else 5 * size
                           for offset in range(3 - i, n + 1 - i)] for r, i in enumerate(points)],
                         dtype=np.intp).reshape(size, n - 2)
    positions.flags.writeable = False
    return plans, positions


def _jacobian(a: _Assembly, form: str, points: range):
    """The Jacobian of ``form`` at ``points`` in the interior values
    y_1, ..., y_{n-2}, as a function of one state's tables (and, when known,
    its component integrals).  :func:`assemble` builds it only where every
    integrand has its second partials and the outer function its Hessian.
    A division by zero raises :class:`DomainError`, and so does a matrix
    with an entry that is not finite.

    Every form is linear in the outer weights: its row at a point is
    sum_c w_c R_c, where R_c adds integrand c's state and rate partials at a
    few points with coefficients fixed by the scale and the form.  So the
    Jacobian is sum_c w_c dR_c + sum_c R_c (x) dw_c.  The first part is
    banded: a partial at point p moves with y at the two ends of p's
    quotient, one of them its jump, and every form reads points whose
    quotient ends lie within two points of the row's.  The second part has
    rank at most the number of components: dw_c = sum_d H_cd dI_d, with H
    the outer Hessian and dI_d the gradient of component integral d.

    The first call builds the read plan (:func:`_stencils`).  A call then
    passes once over the points each integrand's plan holds, evaluates its
    partials there once and adds them to every row, band entry and gradient
    entry that reads them; it gathers the matrix from the band by one index
    array, whose entries off the band read the band's zero slot, and adds
    the rank part.
    """
    n = len(a.mu)
    size = len(points)
    derivatives, hessian = a.outer.partials, a.outer.hessian

    stencils = []   # built on the first call, not by assemble: most callers never ask

    def jacobian(s: State, comps=None) -> np.ndarray:
        if not stencils:
            stencils.append(_stencils(a, form, points))
        plans, positions = stencils[0]
        try:
            if comps is None:
                comps = _integrals(a, s, _JACOBIAN_FAILS)
            weights = [derivative(comps) for derivative in derivatives]
            band = [0.0] * (5 * size + 1)   # the last entry is the zero slot
            rows, grads = [], []
            for (f_y, f_v, f_yy, f_yv, f_vv), y_field, v_field, plan in plans:
                w = weights[len(rows)]
                ys, vs = s[y_field], s[v_field]
                row, grad = [0.0] * size, [0.0] * (n - 2)
                for p, t, reading_rows, reading_grad in plan:
                    y, v = ys[p], vs[p]
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
        jac = np.array(band)[positions]
        if any(map(any, outer_hessian)):
            _add_rank_part(jac, rows, outer_hessian, grads)
        if not np.isfinite(jac).all():   # inf or NaN
            raise DomainError(_JACOBIAN_FAILS)
        return jac

    return jacobian


# an overflow, or an inf less an inf, in the rank part makes the Jacobian not
# finite, which the assembly refuses, so numpy's warnings about them are
# off; the errstate is built once, here
@np.errstate(over="ignore", invalid="ignore")
def _add_rank_part(jac: np.ndarray, rows: list, outer_hessian, grads: list) -> None:
    """Adds sum_cd R_c H_cd dI_d to ``jac`` in place."""
    # ndarray.dot: a third cheaper than @ on these small arrays
    jac += np.array(rows).T.dot(np.array(outer_hessian, dtype=float).dot(np.array(grads)))


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


def _problem_assembly(problem: CompositeProblem, form: str = "cores", points: range = range(0),
                      stacked: bool = False) -> Assembled | None:
    """The assembly of ``problem``'s read forms on ``points``, on floats or,
    with ``stacked``, on arrays; None on arrays where an integrand has no
    read form, and on floats that integrand read at its times.

    It depends on the problem, the form, the window and ``stacked`` alone,
    so the problem keeps it from the first call with them on; each read
    form is built then, for its number type.  A read form is missing on
    both number types or on neither, so a float build that finds one
    missing keeps None for the stack too."""
    key = form, points, stacked
    try:
        return problem._assemblies[key]
    except KeyError:
        pass
    scale = problem.scale
    integrands = []
    for f in (*problem.delta_integrands, *problem.nabla_integrands):
        read = None if f.on_points is None else f.on_points(f, scale.points, stacked)
        if read is None:
            problem._assemblies[form, points, True] = None
            if stacked:
                return None
        integrands.append(replace(f, at=scale.points) if read is None else read)
    assembled = problem._assemblies[key] = assemble(
        scale.mu_values()[:-1].tolist(), integrands, problem.outer, form, points, stacked,
        times=scale.points)
    return assembled


def _read(problem: CompositeProblem, y: GridFunction, read, form: str = "cores",
          points: range = range(0)):
    """``read(assembled, tables)`` of the state ``y``: where the problem's
    integrands all have read forms, on ``y`` as one column of the stacked
    assembly, unless a guard fails on it, it raises a floating-point error
    or its output is not finite; then, or without them, on its floats.  The
    two agree bit for bit wherever the column raises nothing, so the floats
    give every value and error text, such as the residual's where it is not
    finite."""
    vals = _admissible_values(problem, y)
    column = _problem_assembly(problem, form, points, True)
    got = None if column is None else _on_column(read, column, vals)
    if got is None or not np.isfinite(got).all():
        one = _problem_assembly(problem, form, points)
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
    ("residual is not finite at this state"), as the firm systems do, and
    so does any entry it computes that is not finite, such as that partial
    past the float range at a huge B.

    The clamped policy reads the whole interior.  The strict policy reads
    the same clamped residual on the theorem's own domain: it leaves out
    the one row that reads a quotient past an end, the last interior point
    (n - 2) for the delta form of a problem with a delta integrand, the
    first (1) for the nabla form of one with a nabla integrand, and holds
    NaN there, so reading that point raises :class:`DomainError`.
    """
    _check_policy(policy)
    if form not in ("delta", "nabla"):
        raise ValueError(f"form must be 'delta' or 'nabla', got {form!r}")
    interior = points = problem.scale.interior_domain
    if policy == STRICT and form == "delta" and problem.delta_integrands:
        points = interior[:-1]
    elif policy == STRICT and form == "nabla" and problem.nabla_integrands:
        points = interior[1:]
    out = np.full(len(problem.scale), np.nan)
    residual = _read(problem, y, lambda one, s: one.evaluate(s), form, points)
    out[points.start : points.stop] = np.ravel(residual)
    return GridFunction(problem.scale, out, interior)


def problem_system(problem: CompositeProblem, form: str, points: range,
                   label: str = "") -> ResidualSystem:
    """The square system of ``form`` on the window ``points``, in the
    problem's interior values y_1, ..., y_{n-2}.

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
    one = _problem_assembly(problem, form, points)
    # building `one` keeps None for the stack where an integrand has no read form
    on_arrays = problem._assemblies.get((form, points, True), one) is not None
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
        return np.array(one.evaluate(*tables(x)))

    def jacobian(x: np.ndarray) -> np.ndarray:
        return one.jacobian(*tables(x))

    def functional(x: np.ndarray) -> float:
        return outer.value(tables(x)[1])

    column = []   # the stacked assembly, built on the first stacked call

    def stacked_residual(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != m:
            raise ValueError(f"expected states of {m} interior values, got shape {xs.shape}")
        if not column:
            column.append(_problem_assembly(problem, form, points, True))
        y = np.empty((n, len(xs)))   # C-ordered, whatever the layout of xs
        y[0] = ya
        y[1:-1] = xs.T
        y[-1] = yb
        return _stacked_rows(column[0], y)

    return ResidualSystem(dimension=m, residual=residual, label=label, functional=functional,
                          jacobian=None if one.jacobian is None else jacobian,
                          stacked_residual=stacked_residual if on_arrays else None)


# overflow is expected in a stacked residual and marked by its NaN rows, so
# numpy's warnings about it are off there; decorated once here rather than
# per system, where the decoration cost a quarter of building one
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _stacked_rows(column: Assembled, y: np.ndarray) -> np.ndarray:
    """The output at the (n, S) states ``y``, a row per state, NaN where a
    guard fails on the state or the row is not finite."""
    s = column.state(y)
    out = column.evaluate(s)
    # reduced along the columns of the C-ordered output: across its
    # transpose the reduction took twice as long at S = 256
    rows = out.T
    rows[s.infeasible | ~np.isfinite(out).all(axis=0)] = np.nan
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
    the state as floats, as the engine does, with a zero quotient past an
    end, and a division by zero in it, or a row it computes that is not
    finite, raises the same :class:`DomainError` ("residual is not finite
    at this state").  ``"first"`` pairs with the delta form and
    ``"second"`` with the nabla form: under the strict policy each leaves
    out the row that reads a quotient past an end, by its own index rule,
    the last interior point for ``"first"`` and the first for
    ``"second"``, and holds NaN there.
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

    def fwd(i):
        return min(i + 1, n - 1)

    def bwd(i):
        return max(i - 1, 0)

    def dy(i):
        return 0.0 if i == n - 1 else vals[i + 1] - vals[i]

    def ny(i):
        return 0.0 if i == 0 else vals[i] - vals[i - 1]

    def f_y(i):
        return f.partial_y(pts[i], vals[fwd(i)], dy(i))

    def f_v(i):
        return f.partial_v(pts[i], vals[fwd(i)], dy(i))

    def g_y(i):
        return g.partial_y(pts[i], vals[bwd(i)], ny(i))

    def g_v(i):
        return g.partial_v(pts[i], vals[bwd(i)], ny(i))

    # the delta core of f at i <= n - 2 and the nabla core of g at i >= 1,
    # the only points the equations read them at; the rate partials are
    # called first, so a failing call names the same point as it always did
    def gamma_f(i):
        step = f_v(i + 1) - f_v(i)
        return f_y(i) - step

    def gamma_g(i):
        step = g_v(i) - g_v(i - 1)
        return g_y(i) - step

    rows = scale.interior_domain
    if policy == STRICT:
        rows = rows[:-1] if which == "first" else rows[1:]
    out = np.full(n, np.nan)
    try:
        # unit steps: the delta integral sums f over 0..n-2, the nabla one g
        # over 1..n-1, each in order from 0.0; the weights read these floats,
        # on which an overflow gives inf without a numpy warning
        comps = [0.0, 0.0]
        for i in range(n - 1):
            comps[0] += f.value(pts[i], vals[i + 1], dy(i))
            comps[1] += g.value(pts[i + 1], vals[i], ny(i + 1))
        wf = problem.outer.partials[0](comps)
        wg = problem.outer.partials[1](comps)
        for i in rows:
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
    if not np.isfinite(out[rows.start : rows.stop]).all():
        raise DomainError(_RESIDUAL_FAILS)
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
