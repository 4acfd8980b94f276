"""Composite variational functionals on finite time scales.

The objects here describe functionals of the form

    H( I_1, ..., I_k, I_{k+1}, ..., I_{k+n} )

where the first k components are delta integrals of integrands evaluated
along ``(t, y(sigma(t)), delta-quotient of y)`` and the remaining n are
nabla integrals evaluated along ``(t, y(rho(t)), nabla-quotient of y)``.
The main theorem's stationarity system is assembled once, from the
integrands and the outer partials; one state evaluates the assembly as
float arithmetic and a stack of states on whole arrays.  For one state the
assembly also gives the system's Jacobian, in the same float arithmetic,
from the integrands' second partials and the outer Hessian.  :func:`assemble`
is its one entry point: the public functions validate their arguments and
read it, and the firm model in :mod:`tsvar.econ` reads windows of it.
:func:`corollary_z_residual`, the integer-scale specialization written
with index shifts, sums its own component integrals and shares none of it,
so it serves as the independent check.

Shifted difference quotients near the scale's extremes exit their
natural domains.  The ``strict`` policy leaves such points undefined
(NaN in the returned grid function; access raises), while the
``clamped`` policy substitutes a zero quotient at the offending extreme,
mirroring the convention used by the firm model in :mod:`tsvar.econ`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import add, itemgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .timescale import DomainError, GridFunction, TimeScale

__all__ = [
    "Assembled",
    "BoundaryMismatchError",
    "CompositeProblem",
    "Integrand",
    "OuterFunction",
    "Pointwise",
    "STRICT",
    "State",
    "CLAMPED",
    "assemble",
    "check_integrand_partials",
    "corollary_z_residual",
    "eval_component_integrals",
    "eval_functional",
    "identity_outer",
    "product_outer",
    "sum_outer",
    "theorem_main_residual",
]

STRICT = "strict"
CLAMPED = "clamped"

_POLICIES = (STRICT, CLAMPED)


class BoundaryMismatchError(ValueError):
    """The candidate state does not take the problem's boundary values."""


@dataclass(frozen=True)
class Integrand:
    """One inner integrand with analytic partial derivatives.

    ``value``, ``partial_y`` and ``partial_v`` all take ``(t, y, v)``:
    the time point, the jump-shifted state and the difference-quotient
    rate fed to this integrand by its kind.  The second partials, when
    given, take the same arguments.
    """

    kind: str  # "delta" or "nabla"
    value: Callable[[float, float, float], float]
    partial_y: Callable[[float, float, float], float]
    partial_v: Callable[[float, float, float], float]
    partial_yy: Callable[[float, float, float], float] | None = None
    partial_yv: Callable[[float, float, float], float] | None = None
    partial_vv: Callable[[float, float, float], float] | None = None

    def __post_init__(self):
        if self.kind not in ("delta", "nabla"):
            raise ValueError(f"kind must be 'delta' or 'nabla', got {self.kind!r}")


@dataclass(frozen=True)
class OuterFunction:
    """Outer combining function with one partial per component integral.

    ``hessian``, when given, maps the component integrals to the matrix of
    second partials, ``arity`` rows of ``arity`` numbers.
    """

    arity: int
    value: Callable[[Sequence[float]], float]
    partials: tuple = field(default=())
    hessian: Callable[[Sequence[float]], Sequence] | None = None

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("outer function needs at least one argument")
        if len(self.partials) != self.arity:
            raise ValueError(
                f"expected {self.arity} partials, got {len(self.partials)}"
            )


def identity_outer() -> OuterFunction:
    return OuterFunction(1, lambda c: float(c[0]), (lambda c: 1.0,), lambda c: ((0.0,),))


def sum_outer(arity: int) -> OuterFunction:
    zero = ((0.0,) * arity,) * arity
    return OuterFunction(
        arity,
        lambda c: float(sum(c)),
        tuple((lambda c: 1.0) for _ in range(arity)),
        lambda c: zero,
    )


def product_outer() -> OuterFunction:
    return OuterFunction(
        2,
        lambda c: c[0] * c[1],
        (itemgetter(1), itemgetter(0)),
        lambda c: ((0.0, 1.0), (1.0, 0.0)),
    )


@dataclass(frozen=True)
class CompositeProblem:
    """A composite functional together with its fixed boundary values."""

    scale: TimeScale
    delta_integrands: tuple
    nabla_integrands: tuple
    outer: OuterFunction
    boundary: tuple

    def __post_init__(self):
        k = len(self.delta_integrands)
        n = len(self.nabla_integrands)
        if k + n < 1:
            raise ValueError("a composite problem needs at least one integrand")
        if self.outer.arity != k + n:
            raise ValueError(
                f"outer arity {self.outer.arity} != number of integrands {k + n}"
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


class Pointwise(NamedTuple):
    """An integrand as the assembly reads it: ``value``, ``partial_y`` and
    ``partial_v`` take ``(at[i], y, v)`` at point i, and so do the second
    partials, which only the Jacobian reads.  ``at`` holds the times of the
    points for an :class:`Integrand`; a model may tabulate something else
    there, as the firm model does its discount factors."""

    value: Callable
    partial_y: Callable
    partial_v: Callable
    at: Sequence
    partial_yy: Callable | None = None
    partial_yv: Callable | None = None
    partial_vv: Callable | None = None


class State(NamedTuple):
    """A state's tables, lists for one state and (n, S) arrays for a stack.
    The quotients take the policy's edge value past the top (delta) and the
    bottom (nabla)."""

    sig: Sequence      # y at sigma(t_i)
    rho: Sequence      # y at rho(t_i)
    d_rate: Sequence   # delta quotient at t_i
    n_rate: Sequence   # nabla quotient at t_i


class Assembled(NamedTuple):
    """One output of the assembly on a window of points; see :func:`assemble`."""

    state: Callable       # a state's values -> its State
    integrals: Callable   # State -> the delta then the nabla component integrals
    evaluate: Callable    # State (and its integrals, if known) -> the output on the window
    jacobian: Callable | None = None   # the same -> its Jacobian, when asked for


class _Assembly(NamedTuple):
    up: Sequence        # index of sigma(t_i)
    down: Sequence      # index of rho(t_i)
    mu: Sequence        # forward graininess; the policy's step at the top
    nu: Sequence        # backward graininess; the policy's step at the bottom
    edge: float         # a quotient past an end: 0.0 clamped, NaN strict
    delta: tuple        # Pointwise delta integrands
    nabla: tuple        # Pointwise nabla integrands
    outer: OuterFunction
    stacked: bool


def assemble(gaps: list, delta, nabla, outer: OuterFunction, policy: str,
             form: str = "cores", points: range = range(0), stacked: bool = False,
             jacobian: bool = False) -> Assembled:
    """The Euler-Lagrange assembly of :class:`Pointwise` integrands on the
    scale with these gaps between consecutive points, read on a window.

    ``form`` is ``"cores"`` (both kinds' weighted cores, f_y - (f_v)^Delta
    and g_y - (g_v)^nabla, summed: the directly discretized system),
    ``"delta"`` or ``"nabla"`` (the theorem's two forms); ``points`` is the
    window, a range.  One state's values are a list, and its output a list;
    with ``stacked`` the values are an (n, S) array, one column per state,
    and the output a (len(points), S) array.

    With ``jacobian``, one state's output also has its Jacobian in the
    interior values y_1, ..., y_{n-2}, a (len(points), n - 2) array; it
    needs every integrand's second partials and the outer function's
    Hessian.
    """
    n = len(gaps) + 1
    step = 1.0 if policy == CLAMPED else math.nan
    up, down = [*range(1, n), n - 1], [0, *range(n - 1)]
    mu, nu = gaps + [step], [step] + gaps
    delta, nabla = tuple(delta), tuple(nabla)
    if stacked:
        def column(values):
            return np.array(values, dtype=float)[:, None]

        up, down, mu, nu = _Jump(up, 1), _Jump(down, -1), column(mu), column(nu)
        delta = tuple(f._replace(at=column(f.at)) for f in delta)
        nabla = tuple(g._replace(at=column(g.at)) for g in nabla)
        points = slice(points.start, points.stop)
    edge = 0.0 if policy == CLAMPED else math.nan
    a = _Assembly(up, down, mu, nu, edge, delta, nabla, outer, stacked)
    one_jacobian = None
    if jacobian:
        if stacked:
            raise ValueError("the Jacobian is assembled for one state, not a stack")
        if outer.hessian is None:
            raise ValueError("the Jacobian needs the outer function's hessian")
        if any(None in (f.partial_yy, f.partial_yv, f.partial_vv) for f in delta + nabla):
            raise ValueError("the Jacobian needs every integrand's second partials")
        one_jacobian = _jacobian(a, form, points)
    return Assembled(partial(_state, a), partial(_integrals, a), _evaluator(a, form, points),
                     one_jacobian)


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
    if a.stacked:
        rates = np.full((len(y) + 1, y.shape[1]), a.edge)
        rates[1:-1] = (y[1:] - y[:-1]) / a.mu[:-1]
        padded = np.concatenate((y[:1], y, y[-1:]))
        return State(padded[2:], padded[:-2], rates[1:], rates[:-1])
    # mu[i] and nu[i + 1] are the same gap, so one quotient serves both kinds
    quotient = [(ahead - here) / step for here, ahead, step in zip(y, y[1:], a.mu)]
    return State(y[1:] + y[-1:], y[:1] + y[:-1], quotient + [a.edge], [a.edge] + quotient)


def _integrals(a: _Assembly, s: State) -> list:
    """The delta then the nabla component integrals of the state(s).

    A delta integral sums mu f over the points 0..n-2, a nabla one nu g over
    1..n-1, where the quotients stay on the scale.  One state adds the terms
    in order, and so does a stack: ``sum(axis=0)`` adds the rows of its
    (n-1, S) term array in order, but a single column pairwise, which
    differs from the one-state sum from about eight terms on, so one column
    is summed by ``cumsum``, which is in order but several times slower
    across a wide array (at S = 256 and 2048).
    """
    top = len(a.mu) - 1
    comps = []
    for integrands, step, y, v, first, stop in ((a.delta, a.mu, s.sig, s.d_rate, 0, top),
                                                (a.nabla, a.nu, s.rho, s.n_rate, 1, top + 1)):
        for f in integrands:
            value, at = f.value, f.at
            if a.stacked:
                i = slice(first, stop)
                terms = step[i] * value(at[i], y[i], v[i])
                comps.append(terms.sum(axis=0) if terms.shape[1] > 1
                             else np.cumsum(terms, axis=0)[-1])
                continue
            total = 0.0
            for i in range(first, stop):
                total += step[i] * value(at[i], y[i], v[i])
            comps.append(total)
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
        if comps is None:
            comps = _integrals(a, s)
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

    return evaluate


def _at(columns: tuple, j) -> tuple:
    """The rows j of the columns; the zeros of a kind without integrands stay floats."""
    return tuple(column if isinstance(column, float) else column[j] for column in columns)


@lru_cache(maxsize=32)
def _stencils(mu: tuple, nu: tuple, form: str, points: range) -> tuple:
    """The fixed part of :func:`_jacobian` on a scale with these graininess
    tables: for each kind, what reads the partials of its integrands at each
    point, and where the band lands in a padded array.  Cached: it depends
    on the scale and the window alone, and building it costs about as much
    as building the rest of a horizon-3 firm system (23 and 26 us, x86-64,
    Python 3.11).

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
    n = len(mu)

    def up(i):
        return min(i + 1, n - 1)

    def down(i):
        return max(i - 1, 0)

    # a kind's share of the row at i, as (point p, coefficient of the state
    # partial at p, of the rate partial at p)
    def delta_core(i, scale=1.0):
        return (i, scale, scale / mu[i]), (up(i), 0.0, -scale / mu[i])

    def nabla_core(i, scale=1.0):
        return (i, scale, -scale / nu[i]), (down(i), 0.0, scale / nu[i])

    def delta_row(i):
        if form != "nabla":
            return delta_core(i)
        j = down(i)
        k = down(j)
        return ((j, 1.0, 1.0 / nu[i]), (up(j), 0.0, -1.0 / nu[i]),
                *delta_core(j, -mu[j] / nu[i]), *delta_core(k, mu[k] / nu[i]))

    def nabla_row(i):
        if form != "delta":
            return nabla_core(i)
        j = up(i)
        k = up(j)
        return ((j, 1.0, -1.0 / mu[i]), (down(j), 0.0, 1.0 / mu[i]),
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
    its component integrals).

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
    delta_readers, nabla_readers, targets = _stencils(tuple(a.mu), tuple(a.nu), form, points)
    kinds = (a.delta, delta_readers), (a.nabla, nabla_readers)
    size = len(points)
    derivatives, hessian = a.outer.partials, a.outer.hessian

    def jacobian(s: State, comps=None) -> np.ndarray:
        if comps is None:
            comps = _integrals(a, s)
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
        jac = np.zeros(size * (n + 4))
        jac[targets] = band
        jac = jac.reshape(size, n + 4)[:, 3:n + 1]
        outer_hessian = hessian(comps)
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
    if abs(vals[0] - ya) > 1e-12 or abs(vals[-1] - yb) > 1e-12:
        raise BoundaryMismatchError(
            f"state endpoints ({vals[0]}, {vals[-1]}) do not match boundary ({ya}, {yb})"
        )
    return vals


def _check_policy(policy: str) -> None:
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")


def _undefined_past_an_end(fn):
    """``fn``, but NaN where the strict quotient is undefined."""
    return lambda t, y, v: math.nan if math.isnan(v) else fn(t, y, v)


def _problem_assembly(problem: CompositeProblem, y: GridFunction, policy: str,
                      form: str = "cores", points: range = range(0)):
    """The float assembly of ``problem`` read on ``points``, and the tables of ``y``."""
    vals = _admissible_values(problem, y)
    times = problem.scale.points
    wrap = _undefined_past_an_end if policy == STRICT else (lambda fn: fn)

    def pointwise(f: Integrand) -> Pointwise:
        return Pointwise(f.value, wrap(f.partial_y), wrap(f.partial_v), times)

    assembled = assemble(problem.scale.mu_values()[:-1].tolist(),
                         map(pointwise, problem.delta_integrands),
                         map(pointwise, problem.nabla_integrands), problem.outer, policy,
                         form, points)
    return assembled, assembled.state(vals.tolist())


def eval_component_integrals(problem: CompositeProblem, y: GridFunction) -> np.ndarray:
    """Vector of the k delta and n nabla component integrals at state y."""
    assembled, s = _problem_assembly(problem, y, CLAMPED)
    return np.asarray(assembled.integrals(s))


def eval_functional(problem: CompositeProblem, y: GridFunction) -> float:
    """Outer function applied to the component integrals."""
    assembled, s = _problem_assembly(problem, y, CLAMPED)
    return float(problem.outer.value(np.asarray(assembled.integrals(s))))


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
    mirror image.  The residual lives on the interior of the scale.
    """
    _check_policy(policy)
    if form not in ("delta", "nabla"):
        raise ValueError(f"form must be 'delta' or 'nabla', got {form!r}")
    interior = problem.scale.interior_domain
    assembled, s = _problem_assembly(problem, y, policy, form, interior)
    out = np.full(len(problem.scale), np.nan)
    out[interior.start : interior.stop] = assembled.evaluate(s)
    return GridFunction(problem.scale, out, interior)


def corollary_z_residual(
    problem: CompositeProblem,
    y: GridFunction,
    which: str = "first",
    policy: str = STRICT,
) -> GridFunction:
    """Residual of the one-delta/one-nabla specialization on an integer scale.

    Written directly with unit index shifts, its component integrals
    included; serves as an independent cross-check of
    :func:`theorem_main_residual` on contiguous integer scales.
    """
    _check_policy(policy)
    if which not in ("first", "second"):
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    if len(problem.delta_integrands) != 1 or len(problem.nabla_integrands) != 1:
        raise ValueError("specialized residual needs exactly one integrand of each kind")
    if not problem.scale.is_integer_grid:
        raise ValueError("specialized residual needs a contiguous integer scale")
    vals = _admissible_values(problem, y)
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

    # unit steps: the delta integral sums f over 0..n-2, the nabla one g
    # over 1..n-1, each in order from 0.0
    comps = [0.0, 0.0]
    for i in range(n - 1):
        comps[0] += f.value(pts[i], vals[i + 1], dy(i))
        comps[1] += g.value(pts[i + 1], vals[i], ny(i + 1))
    comps = np.array(comps)
    wf = problem.outer.partials[0](comps)
    wg = problem.outer.partials[1](comps)

    def gamma_f(i):
        # delta core of f at i: f_y(i) - (f_v(i+1) - f_v(i)); forward
        # difference collapses to zero at the clamped top
        if i == n - 1:
            step = 0.0 if clamped else math.nan
        else:
            step = f_v(i + 1) - f_v(i)
        return f_y(i) - step

    def gamma_g(i):
        if i == 0:
            step = 0.0 if clamped else math.nan
        else:
            step = g_v(i) - g_v(i - 1)
        return g_y(i) - step

    out = np.full(n, np.nan)
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
