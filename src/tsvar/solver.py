"""Damped Newton iteration for square residual systems.

:func:`newton_solve` takes the Jacobian a system supplies (its
``jacobian``) and otherwise approximates it by central differences
(:func:`fd_jacobian`, column by column through the scalar residual);
:func:`lockstep_solve` always takes central differences.  Damping tries the
steps 1, 1/2, 1/4, ... of the Newton step, at most :data:`HALVINGS`
halvings, and takes the first whose residual sup-norm decreases.  Residual
evaluations may signal infeasibility by raising
:class:`~tsvar.timescale.DomainError` (a stacked residual by a NaN row),
which rejects the trial step the same way a norm increase does.

:func:`newton_solve` iterates from one start.  It tries the first
:data:`SCALAR_LEVELS` damping levels (the full step and the first halving)
one by one on the scalar residual.  When both fail and the system has a
``stacked_residual``, it tries all the deeper halvings in one stacked
call, and takes the same first decreasing level; after a step that took
such a deeper level, the next iteration tries every level, the full step
included, in one stacked call.  A system without a stacked form tries every
level on the scalar residual.

:func:`lockstep_solve` (behind :func:`multistart_solve`) iterates from many
starts at once: the states of all active starts form one ``(S, m)`` stack,
and each iteration makes one residual call for every central-difference
Jacobian, one batched ``np.linalg.solve`` for every step, and, for the
damping, one residual call in which each start tries a window of levels
from the full step on, chosen from the level L its last step took: the
full step alone after a full step (and at the first iteration), levels
0 .. 2L+1 after a step at level L >= 1.  A start that takes about the level
it took last time, as most do, needs no further call; the starts that find
no decrease in their window try all their remaining levels in one more
call.  Both solvers share that search, whose trials are laid out row by
row, one window per row.  For a system without a
``jacobian``, every start takes the same steps and stops for the same
reason as under :func:`newton_solve`; for one with a ``jacobian`` the two
solvers take Newton steps from different Jacobians, which can lead a start
to a different root.  A system evaluates the stack through its
``stacked_residual`` when it has one, and otherwise through a loop over its
scalar residual.

The lock-step loop keeps the state of the active starts only, and records
per iteration the states and norms its damping built.  Each start's stop
reason, iteration count, last state and norm come out of the loop; the rest
of a report is built only for the reports a caller returns, the functional
included, from the scalar ``functional`` at that report's root.
:func:`lockstep_solve` rebuilds every start's ``iterates`` and
``residual_norms`` from the records and its failure text from the scalar
callables; :func:`multistart_solve` merges the converged roots first and
builds the reports of the survivors only, so it never calls a system that
has a stacked residual one state at a time, and evaluates the functional
at the roots it returns only.

Both solvers stop for one of the reasons in one table (``_REASONS``, whose
texts begin the reports' messages) and build their reports with one
function, :func:`_report`, which also evaluates the functional at a
converged root (NaN where it raises
:class:`~tsvar.timescale.DomainError`).

Multistart sweeps are bounded: :func:`default_start_grid` refuses to
enumerate more than :data:`MAX_STARTS` points, and a sweep is solved in
stacks of at most :data:`STACK_STARTS` starts.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .timescale import DomainError

__all__ = [
    "ResidualSystem",
    "SolveReport",
    "SolverConfig",
    "fd_jacobian",
    "multistart_solve",
    "lockstep_solve",
    "newton_solve",
    "default_start_grid",
    "MAX_STARTS",
]

log = logging.getLogger(__name__)

#: multistart grid spanned per coordinate unless configured otherwise
DEFAULT_GRID = (0.5, 8.0, 0.5)

#: most points default_start_grid enumerates: 16**4, the default grid up to T=5
MAX_STARTS = 65536

#: most starts lockstep_solve iterates in one stack; larger sweeps run in turn
STACK_STARTS = 1024

#: deepest damping level either solver tries: the steps 2**-k for k = 0 .. HALVINGS
HALVINGS = 30

#: sup-norm of the Newton step at which a solve stops as stagnant
TOL_STEP = 1e-14

#: central-difference step, scaled by max(1, |x_j|) per coordinate
FD_STEP = 1e-7

#: damping levels newton_solve tries one by one on the scalar residual (the
#: full step and the first halving) before it tries the deeper halvings of a
#: system with a stacked residual in one call.  Most iterations of the firm
#: cells accept one of these two levels, where one scalar call is cheaper than
#: one stacked call.  Measured with ``bench/run.py --workload horizon`` (ten
#: alternating pairs, x86-64, Python 3.11, numpy 2.4): one scalar level gives
#: 4% more throughput and an 8% lower tail, but a 3.5% higher median latency.
#: An iteration that follows one which took a deeper level skips them and
#: tries every level in one stacked call: after a deep step the next one
#: mostly goes deep again (in 213 of the 216 iterations of the stalled T=20
#: firm cells both scalar levels failed).
SCALAR_LEVELS = 2

#: sup-norm distance within which multistart_solve merges two converged roots
DISTINCT_TOL = 1e-6

@dataclass(frozen=True)
class SolverConfig:
    tol_residual: float = 1e-12   # sup-norm of the residual at acceptance
    max_iterations: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.tol_residual) and self.tol_residual > 0):
            raise ValueError(f"tol_residual must be positive and finite, got {self.tol_residual}")
        limit = self.max_iterations
        # compared, not converted to float: an int may exceed its range
        if limit != limit or abs(limit) == math.inf or int(limit) != limit:
            raise ValueError(f"max_iterations must be an integer, got {limit}")
        # an integral float or numpy integer is kept as a Python int, which range() needs
        object.__setattr__(self, "max_iterations", int(limit))
        if limit < 1:
            raise ValueError(f"max_iterations must be at least 1, got {limit}")


@dataclass(frozen=True)
class ResidualSystem:
    """A square nonlinear system with an optional objective attached.

    ``jacobian``, when given, is the residual's exact Jacobian, an (m, m)
    array; it may raise :class:`DomainError` where it is not finite.
    ``stacked_residual``, when given, evaluates a stack of states at once,
    ``(S, m) -> (S, m)``: row ``i`` equals the residual at state ``i``, and
    is all-NaN where that call would raise :class:`DomainError`.  The
    functional has no stacked form: the solvers evaluate it at the roots
    they report only.
    """

    dimension: int
    residual: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    functional: Callable[[np.ndarray], float] | None = None
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    stacked_residual: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class SolveReport:
    root: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    functional_value: float | None = None
    message: str = ""
    residual_norms: tuple = ()
    iterates: tuple = ()


# The reductions below are ndarray methods: np.max and np.all reach the same
# ufunc reduction through a Python wrapper that costs a few microseconds a
# call, several times per Newton iteration.  Both forms propagate NaN alike.


def _norm(r: np.ndarray) -> float:
    return float(np.abs(r).max())


def _row_norms(r: np.ndarray) -> np.ndarray:
    return np.abs(r).max(axis=-1)


def _nan_rows(r: np.ndarray) -> np.ndarray:
    return np.isnan(r).all(axis=-1)


def fd_jacobian(system: ResidualSystem, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian, column by column through the scalar
    residual; a perturbed state at which it raises :class:`DomainError`
    raises one that names the coordinate being perturbed."""
    x = np.asarray(x, dtype=float)
    m = system.dimension
    jac = np.empty((m, m))
    for j in range(m):
        h = step * max(1.0, abs(x[j]))
        hi = x.copy()
        lo = x.copy()
        hi[j] += h
        lo[j] -= h
        try:
            jac[:, j] = (system.residual(hi) - system.residual(lo)) / (2.0 * h)
        except DomainError as exc:
            raise DomainError(
                f"residual evaluation failed while perturbing coordinate {j}: {exc}"
            ) from exc
    return jac


def newton_solve(
    system: ResidualSystem,
    guess: Sequence[float],
    config: SolverConfig | None = None,
) -> SolveReport:
    cfg = config or SolverConfig()
    x = np.array(guess, dtype=float)
    if x.shape != (system.dimension,):
        raise ValueError(f"guess has shape {x.shape}, system dimension is {system.dimension}")
    try:
        res = np.asarray(system.residual(x), dtype=float)
    except DomainError as exc:
        return _report(system, _INFEASIBLE, x, detail=exc)
    if res.shape != (system.dimension,):
        raise ValueError("residual shape does not match the system dimension")
    norm = _norm(res)
    norms = [norm]
    path = [x.copy()]   # the start, then the state after each step
    deep = False   # whether the last step took a level past the scalar ones
    levels = HALVINGS + 1
    why, detail = _LIMIT, None

    for _ in range(cfg.max_iterations):
        if norm <= cfg.tol_residual:
            why = _TOLERANCE
            break
        try:
            if system.jacobian is None:
                jac = fd_jacobian(system, x)
            else:
                jac = system.jacobian(x)
        except DomainError as exc:
            why, detail = _JACOBIAN_FAILED, exc
            break
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            why = _SINGULAR
            break
        if not np.isfinite(step).all():
            why = _NOT_FINITE
            break

        if system.stacked_residual is None:
            scalar_levels = levels
        else:
            scalar_levels = 0 if deep else SCALAR_LEVELS
        accepted = False
        for level in range(scalar_levels):
            trial = x + 0.5 ** level * step
            try:
                trial_res = np.asarray(system.residual(trial), dtype=float)
            except DomainError:
                continue
            trial_norm = _norm(trial_res)
            if trial_norm < norm:
                accepted = True
                break
        if not accepted and scalar_levels < levels:
            rows = _first_decrease(system.stacked_residual, x[None], step[None],
                                   np.array([norm]), scalar_levels, levels,
                                   np.array([levels - scalar_levels]))
            trial, trial_res, trial_norm, level, accepted = (row[0] for row in rows)
            trial_norm = float(trial_norm)
        if not accepted:
            why = _NO_DECREASE
            break
        deep = level >= SCALAR_LEVELS
        step_size = _norm(0.5 ** level * step)
        x, res, norm = trial, trial_res, trial_norm
        norms.append(norm)
        path.append(x.copy())
        if step_size <= TOL_STEP:
            why = _STAGNANT
            break

    # converged is the last norm's test whatever the reason: the tolerance stop
    # passes it, and the failures before a step come after it failed
    return _report(system, why, x, norm, len(path) - 1, norm <= cfg.tol_residual,
                   norms, path, detail)


def default_start_grid(dimension: int, spec: tuple = DEFAULT_GRID) -> list:
    """Cartesian product of an inclusive coordinate grid lo:hi:step.

    Raises ValueError, before enumerating anything, when lo, hi or step is
    not finite, or when the grid has more than :data:`MAX_STARTS` points.
    """
    lo, hi, step = spec
    if not all(math.isfinite(v) for v in spec):
        raise ValueError(f"start grid {spec} is not finite")
    if step <= 0 or hi < lo:
        raise ValueError(f"bad start grid {spec}")
    # counted up to MAX_STARTS + 1 per coordinate: (hi - lo) / step may be
    # hundreds of digits long, or overflow to inf
    count = int(round(min((hi - lo) / step, MAX_STARTS))) + 1
    if lo + (count - 1) * step > hi + 1e-12:
        count -= 1
    if count > MAX_STARTS:
        raise ValueError(
            f"start grid {spec} has more than MAX_STARTS = {MAX_STARTS} points per coordinate"
        )
    # at a long horizon count ** dimension has thousands of digits, more than
    # int-to-str conversion allows; it is formed and named only when short
    if dimension * math.log10(count) > 64:
        raise ValueError(
            f"start grid {spec} has {count}^{dimension} points, more than MAX_STARTS = {MAX_STARTS}"
        )
    starts = count ** dimension
    if starts > MAX_STARTS:
        raise ValueError(
            f"start grid {spec} has {count}^{dimension} = {starts} points, "
            f"more than MAX_STARTS = {MAX_STARTS}"
        )
    axis = [lo + i * step for i in range(count)]
    return list(itertools.product(axis, repeat=dimension))


def _lift_residual(system: ResidualSystem) -> Callable:
    m = system.dimension

    def residual(xs: np.ndarray) -> np.ndarray:
        out = np.full((len(xs), m), np.nan)
        for i, x in enumerate(xs):
            try:
                r = np.asarray(system.residual(x), dtype=float)
            except DomainError:
                continue
            if r.shape != (m,):
                raise ValueError("residual shape does not match the system dimension")
            out[i] = r
        return out

    return residual


def _domain_message(call, *args) -> str:
    """The DomainError text of a scalar call that its stacked form marked NaN."""
    try:
        call(*args)
    except DomainError as exc:
        return str(exc)
    return "residual is not finite"


def _stacked_jacobian(residual: Callable, x: np.ndarray):
    """Central-difference Jacobians of a stack of states, and which failed.

    One residual call evaluates the 2m perturbed states of every start; the
    steps and differences are the ones :func:`fd_jacobian` takes.
    """
    count, m = x.shape
    h = FD_STEP * np.maximum(1.0, np.abs(x))
    cols = np.arange(m)
    probes = np.repeat(x[:, None, :], 2 * m, axis=1)
    probes[:, cols, cols] += h
    probes[:, m + cols, cols] -= h
    r = residual(probes.reshape(-1, m)).reshape(count, 2 * m, m)
    jac = ((r[:, :m] - r[:, m:]) / (2.0 * h[:, :, None])).transpose(0, 2, 1)
    return jac, _nan_rows(r).any(axis=1)


def _newton_steps(jac: np.ndarray, rhs: np.ndarray):
    """Solves every system of the stack, and flags the singular ones."""
    singular = np.zeros(len(jac), dtype=bool)
    try:
        return np.linalg.solve(jac, rhs[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        pass
    steps = np.empty_like(rhs)
    for i in range(len(jac)):
        try:
            steps[i] = np.linalg.solve(jac[i], rhs[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return steps, singular


def _first_decrease(residual: Callable, x: np.ndarray, step: np.ndarray, base: np.ndarray,
                    level: int, levels: int, window: np.ndarray):
    """Damping of a stack of Newton steps, from halving ``level`` on.

    Row i tries the trial states ``x[i] + 2**-k * step[i]`` for k = ``level``,
    ..., ``levels - 1`` in ascending order and takes the first whose
    residual norm is below ``base[i]``; a NaN row (an infeasible trial)
    never is.  The first residual call tries ``window[i]`` levels of row i;
    a second call tries, for every row still looking, all of that row's
    remaining levels.  Returns the taken trial states, residuals, norms and levels,
    and which rows took one.

    The trials are ragged: the trials of each row are consecutive, laid out
    by ``np.repeat`` of the widths, and one ``np.minimum.reduceat`` over the
    indices of the trials that decrease finds each row's first.
    """
    count, m = x.shape
    taken = np.zeros(count, dtype=int)
    accepted = np.zeros(count, dtype=bool)
    trial = np.empty((count, m))
    trial_res = np.empty((count, m))
    trial_norm = np.empty(count)
    pending = np.arange(count)
    level = np.full(count, level)   # each pending row's next level
    width = np.minimum(window, levels - level)
    while pending.size:
        # trial r belongs to row owner[r] and tries its level tried[r]; every
        # width is at least 1, so the segments start strictly later
        first = np.cumsum(width) - width
        total = int(first[-1] + width[-1])
        index = np.arange(total)
        owner = np.repeat(pending, width)
        tried = np.repeat(level - first, width) + index
        # take gathers rows several times faster than an index array does
        cand = x.take(owner, axis=0) + (0.5 ** tried)[:, None] * step.take(owner, axis=0)
        cand_res = residual(cand)
        cand_norm = _row_norms(cand_res)
        at = np.minimum.reduceat(np.where(cand_norm < base.take(owner), index, total), first)
        found = at < total
        at = at[found]
        hit = pending[found]
        trial[hit], trial_res[hit], trial_norm[hit] = cand[at], cand_res[at], cand_norm[at]
        taken[hit] = tried[at]
        accepted[hit] = True
        if at.size == found.size:   # every row took a level
            break
        # the rows still looking with levels left try all of them in one more call
        looking = ~found & (width < levels - level)
        level = level[looking] + width[looking]
        pending = pending[looking]
        width = levels - level
    return trial, trial_res, trial_norm, taken, accepted


# why a solve stopped, as newton_solve and _lockstep record it: the codes index
# these texts, which begin the messages of the reports
(_INFEASIBLE, _JACOBIAN_FAILED, _TOLERANCE, _SINGULAR, _NOT_FINITE, _NO_DECREASE,
 _STAGNANT, _LIMIT) = range(8)
_REASONS = (
    "infeasible start", "jacobian failed", "residual tolerance reached",
    "singular jacobian", "non-finite newton step", "damping found no residual decrease",
    "step below stagnation tolerance", "iteration limit reached",
)


def _report(system: ResidualSystem, why: int, x: np.ndarray, norm: float = math.inf,
            iterations: int = 0, converged: bool = False, norms: Iterable = (),
            iterates: Iterable = (), detail=None) -> SolveReport:
    """The report of a solve that stopped at ``x`` for the reason ``why``,
    its message followed by ``detail`` when given; the functional is
    evaluated here, at a converged root only, and is NaN where it raises
    :class:`DomainError`."""
    message = _REASONS[why] if detail is None else f"{_REASONS[why]}: {detail}"
    value = None
    if converged and system.functional is not None:
        try:
            value = float(system.functional(x))
        except DomainError:
            value = math.nan
    return SolveReport(
        root=x.copy(), residual_norm=norm, iterations=iterations, converged=converged,
        functional_value=value, message=message,
        residual_norms=tuple(norms), iterates=tuple(iterates),
    )


class _Outcome(NamedTuple):
    """What :func:`_lockstep` keeps of one stack of starts; each array has a row per start."""

    reason: np.ndarray       # why it stopped, an index into _REASONS
    converged: np.ndarray
    iterations: np.ndarray
    root: np.ndarray         # its last state: the start itself where infeasible
    norm: np.ndarray         # that state's residual sup-norm; inf where infeasible
    # per iteration, from the starts themselves on: (ids, states, norms) of
    # the starts that moved then, ids ascending
    path: list


def lockstep_solve(
    system: ResidualSystem,
    guesses: Iterable[Sequence[float]],
    config: SolverConfig | None = None,
) -> list:
    """Damped Newton from every guess at once; one report per guess, in order.

    The Jacobians are central differences, whatever the system supplies.
    For a system without a ``jacobian``, each report has the fields
    :func:`newton_solve` gives for that guess: the same steps, halvings,
    tolerances and stop reason.
    """
    cfg = config or SolverConfig()
    reports = []
    for out in _stacks(system, guesses, cfg):
        reports.extend(_reports(system, out, range(len(out.reason))))
    return reports


def _stacks(system: ResidualSystem, guesses: Iterable[Sequence[float]], cfg: SolverConfig):
    """The :class:`_Outcome` of each stack of starts, in turn."""
    m = system.dimension
    starts = np.array(list(guesses), dtype=float)
    if starts.size == 0:
        return
    if starts.ndim != 2 or starts.shape[1] != m:
        raise ValueError(f"guesses have shape {starts.shape}, system dimension is {m}")
    residual = system.stacked_residual or _lift_residual(system)
    for lo in range(0, len(starts), STACK_STARTS):
        yield _lockstep(residual, starts[lo:lo + STACK_STARTS], cfg)


def _lockstep(residual: Callable, x0: np.ndarray, cfg: SolverConfig) -> _Outcome:
    """Damped Newton from every row of ``x0`` at once.

    The loop's state (``ids``, ``x``, ``res``, ``norm`` and the damping level
    ``last`` of each start's last step) holds the active starts only; it
    shrinks when a start stops, which records the start's reason, iteration
    count, state and norm.  Each iteration appends to the path the ids,
    states and norms the damping has just built, without copying them.
    Failure texts, functional values and the per-start paths are left to
    :func:`_reports`, for the reports a caller returns.
    """
    count = len(x0)
    res = residual(x0)
    if res.shape != x0.shape:
        raise ValueError("residual shape does not match the system dimension")
    norm = _row_norms(res)
    reason = np.full(count, _INFEASIBLE)
    converged = np.zeros(count, dtype=bool)
    iterations = np.zeros(count, dtype=int)
    root = x0.copy()
    final_norm = np.full(count, np.inf)
    ids = np.flatnonzero(~_nan_rows(res))
    x = x0
    if ids.size < count:
        x, res, norm = x[ids], res[ids], norm[ids]
    last = np.zeros(ids.size, dtype=int)
    path = [(ids, x, norm)]

    def stop(rows, why, taken, ok=False):
        """Records that the active starts marked in ``rows`` stop."""
        s = ids[rows]
        reason[s], converged[s], iterations[s] = why, ok, taken
        root[s], final_norm[s] = x[rows], norm[rows]

    levels = HALVINGS + 1
    for it in range(1, cfg.max_iterations + 1):
        done = norm <= cfg.tol_residual
        if done.any():
            stop(done, _TOLERANCE, it - 1, True)
            keep = ~done
            ids, x, res, norm, last = ids[keep], x[keep], res[keep], norm[keep], last[keep]
        if not ids.size:
            break

        jac, failed = _stacked_jacobian(residual, x)
        if failed.any():
            stop(failed, _JACOBIAN_FAILED, it - 1)
            keep = ~failed
            ids, x, res, norm, last, jac = (
                ids[keep], x[keep], res[keep], norm[keep], last[keep], jac[keep])
        step, singular = _newton_steps(jac, -res)
        bad = singular | ~np.isfinite(step).all(axis=1)
        if bad.any():
            stop(singular, _SINGULAR, it - 1)
            stop(bad & ~singular, _NOT_FINITE, it - 1)
            keep = ~bad
            ids, x, res, norm, last, step = (
                ids[keep], x[keep], res[keep], norm[keep], last[keep], step[keep])

        # damping: the first of the steps 1, 1/2, 1/4, ... whose residual norm
        # decreases.  A start mostly takes about the level its last step took,
        # so the first call tries the full step alone after a full step, and
        # levels 0 .. 2L+1 after a step at level L >= 1
        window = np.where(last > 0, 2 * last + 2, 1)
        trial, trial_res, trial_norm, level, accepted = _first_decrease(
            residual, x, step, norm, 0, levels, window)
        if accepted.all():
            x, res, norm, last = trial, trial_res, trial_norm, level
        else:
            stop(~accepted, _NO_DECREASE, it - 1)
            ids, step = ids[accepted], step[accepted]
            x, res, norm, last = (
                trial[accepted], trial_res[accepted], trial_norm[accepted], level[accepted])
        path.append((ids, x, norm))

        stagnant = _row_norms(0.5 ** last[:, None] * step) <= TOL_STEP
        if stagnant.any():
            stop(stagnant, _STAGNANT, it, norm[stagnant] <= cfg.tol_residual)
            keep = ~stagnant
            ids, x, res, norm, last = ids[keep], x[keep], res[keep], norm[keep], last[keep]
    if ids.size:
        stop(slice(None), _LIMIT, cfg.max_iterations, norm <= cfg.tol_residual)
    return _Outcome(reason, converged, iterations, root, final_norm, path)


def _paths(out: _Outcome, rows: np.ndarray):
    """The iterates and residual norms of the feasible starts ``rows`` of a
    stack, as (k + 1, len(rows), m) and (k + 1, len(rows)) arrays, k their
    most iterations; start j's own path is the first iterations + 1 entries."""
    depth = int(out.iterations[rows].max()) + 1 if rows.size else 0
    where = np.full(len(out.reason), -1)
    where[rows] = np.arange(rows.size)
    states = np.empty((depth, rows.size, out.root.shape[1]))
    norms = np.empty((depth, rows.size))
    for k, (ids, xs, ns) in enumerate(out.path[:depth]):
        j = where[ids]
        mine = j >= 0
        states[k, j[mine]], norms[k, j[mine]] = xs[mine], ns[mine]
    return states, norms


def _reports(system: ResidualSystem, out: _Outcome, rows) -> list:
    """The full reports of the starts ``rows`` of one stack, in that order,
    built by :func:`_report`: failure texts from the scalar callables, paths
    from ``out.path``."""
    rows = np.asarray(rows, dtype=int)
    moved = rows[out.reason[rows] != _INFEASIBLE]
    states, norms = _paths(out, moved)
    column = dict(zip(moved.tolist(), range(moved.size)))
    reports = []
    for s in rows.tolist():
        why, x = int(out.reason[s]), out.root[s]
        if why == _INFEASIBLE:
            reports.append(_report(system, why, x, detail=_domain_message(system.residual, x)))
            continue
        detail = _domain_message(fd_jacobian, system, x) if why == _JACOBIAN_FAILED else None
        k, j = int(out.iterations[s]), column[s]
        reports.append(_report(system, why, x, float(out.norm[s]), k, bool(out.converged[s]),
                               norms[:k + 1, j].tolist(), states[:k + 1, j].copy(), detail))
    return reports


def multistart_solve(
    system: ResidualSystem,
    guesses: Iterable[Sequence[float]],
    config: SolverConfig | None = None,
) -> list:
    """Newton from every guess; distinct converged roots, best first.

    The guesses are solved as by :func:`lockstep_solve`, and each returned
    report equals that start's report there.  Roots within
    :data:`DISTINCT_TOL` of each other in sup-norm are merged: in the
    lexicographic order of the roots, each goes to the first kept root within
    the tolerance, and the copy with the smaller residual survives.  When the system carries a
    functional the survivors are ordered by its value, otherwise
    lexicographically.  Only the survivors' reports are built, so a system
    with a stacked residual is never called one state at a time, and the
    functional is evaluated at the returned roots only.
    """
    cfg = config or SolverConfig()
    stacks, found = [], []   # found: (stack, start) of each converged start
    total = 0
    for out in _stacks(system, guesses, cfg):
        rows = np.flatnonzero(out.converged)
        found.extend(zip(itertools.repeat(len(stacks)), rows.tolist()))
        stacks.append(out)
        total += len(out.reason)
    if len(found) < total:
        log.debug("%s: %d of %d starts failed to converge",
                  system.label or "system", total - len(found), total)
    if not found:
        return []

    roots = np.concatenate([out.root[out.converged] for out in stacks])
    norms = np.concatenate([out.norm[out.converged] for out in stacks])
    # stable, as the sort by tuple(root) is: equal roots keep the start order
    order = np.lexsort(roots.T[::-1])
    kept_roots = np.empty_like(roots)
    kept = []   # the index into found of each kept root, in the order kept
    for i in order.tolist():
        gaps = _row_norms(kept_roots[:len(kept)] - roots[i])
        near = np.flatnonzero(gaps <= DISTINCT_TOL)
        if not near.size:
            kept_roots[len(kept)] = roots[i]
            kept.append(i)
        elif norms[i] < norms[kept[near[0]]]:
            kept_roots[near[0]] = roots[i]
            kept[near[0]] = i

    by_stack = {}
    for i in kept:
        by_stack.setdefault(found[i][0], []).append(found[i][1])
    reports = {}
    for stack, rows in by_stack.items():
        reports.update(zip(((stack, s) for s in rows), _reports(system, stacks[stack], rows)))
    distinct = [reports[found[i]] for i in kept]
    if system.functional is not None:
        distinct.sort(key=lambda r: (r.functional_value, tuple(r.root)))
    else:
        distinct.sort(key=lambda r: tuple(r.root))
    return distinct
