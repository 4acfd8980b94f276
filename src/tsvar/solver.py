"""Damped Newton iteration for square residual systems.

The Jacobian is approximated by central differences; damping tries the
steps 1, 1/2, 1/4, ... of the Newton step, at most ``max_halvings``
halvings, and takes the first whose residual sup-norm decreases.  Residual
evaluations may signal infeasibility by raising
:class:`~tsvar.timescale.DomainError` (a stacked residual by a NaN row),
which rejects the trial step the same way a norm increase does.

:func:`fd_jacobian` evaluates the 2m perturbed states of a system with a
``stacked_residual`` in one stacked call once the dimension m reaches
:data:`STACKED_JACOBIAN_DIMENSION`; below it, for systems without a stacked
form, and wherever a perturbed state is infeasible, it goes column by
column through the scalar residual.

:func:`newton_solve` iterates from one start.  It tries the first
:data:`SCALAR_LEVELS` damping levels (the full step and the first halving)
one by one on the scalar residual.  When both fail and the system has a
``stacked_residual``, it tries the deeper halvings in blocks of at most
:data:`HALVING_BLOCK` per stacked call, and takes the same first decreasing
level; after a step that took such a deeper level, the next iteration
starts its blocks at the full step.  A system without a stacked form tries
every level on the scalar residual.  Neither solver tries a level past
:data:`MAX_HALVINGS`, where the step scale 2**-k has become 0.

:func:`lockstep_solve` (behind :func:`multistart_solve`) iterates from many
starts at once: the states of all active starts form one ``(S, m)`` stack,
and each iteration makes one residual call for every central-difference
Jacobian, one batched ``np.linalg.solve`` for every step, and, for the
damping, one residual call in which each start tries a window of levels
from the full step on, chosen from the level L its last step took: the
full step alone after a full step (and at the first iteration), levels
0 .. 2L+1 (at most :data:`HALVING_BLOCK`) after a step at level L >= 1.  A
start that takes about the level it took last time, as most do, needs no
further call; the starts that find no decrease in their window go on, all
in one call per block, in blocks of :data:`HALVING_BLOCK` levels from their
own next level.  Both solvers share that block search.  Every start takes
the same steps and stops for the same reason as under :func:`newton_solve`.
A system evaluates the stack through its ``stacked_residual`` and
``stacked_functional`` when it has them, and otherwise through a loop over
its scalar callables.

Multistart sweeps are bounded: :func:`default_start_grid` refuses to
enumerate more than :data:`MAX_STARTS` points, and a sweep is solved in
stacks of at most :data:`STACK_STARTS` starts.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

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

#: most damping levels (halvings) tried together in one stacked residual call
HALVING_BLOCK = 32

#: damping levels newton_solve tries one by one on the scalar residual (the
#: full step and the first halving) before it tries the deeper halvings of a
#: system with a stacked residual in blocks.  Most iterations of the firm
#: cells accept one of these two levels, where one scalar call is cheaper than
#: one stacked call.  Measured with ``bench/run.py --workload horizon`` (ten
#: alternating pairs, x86-64, Python 3.11, numpy 2.4): one scalar level gives
#: 4% more throughput and an 8% lower tail, but a 3.5% higher median latency.
#: An iteration that follows one which took a deeper level skips them and
#: starts its first block at the full step: after a deep step the next one
#: mostly goes deep again (in 213 of the 216 iterations of the stalled T=20
#: firm cells both scalar levels failed).
SCALAR_LEVELS = 2

#: deepest damping level either solver tries, whatever ``max_halvings`` says:
#: 2.0**-1075 is 0.0, so every deeper level would retry the current state,
#: whose norm never decreases.
MAX_HALVINGS = 1074

#: smallest dimension at which fd_jacobian makes one stacked residual call for
#: all 2m perturbed states.  Measured on the eight firm systems against the
#: column loop (x86-64, Python 3.11, numpy 2.4): at m = 2 the loop is
#: 1.6-1.9x cheaper, at m = 3 the two are about even (0.9-1.15x), at m = 4
#: one call is 1.4-2.0x cheaper and at m = 7 3.7-5.0x.
STACKED_JACOBIAN_DIMENSION = 3


@dataclass(frozen=True)
class SolverConfig:
    tol_residual: float = 1e-12   # sup-norm of the residual at acceptance
    tol_step: float = 1e-14       # sup-norm of the Newton step at stagnation
    max_iterations: int = 100
    fd_step: float = 1e-7         # scaled by max(1, |x_j|) per coordinate
    max_halvings: int = 30

    def __post_init__(self):
        steps = (self.tol_residual, self.tol_step, self.fd_step)
        if not all(math.isfinite(v) and v > 0 for v in steps):
            raise ValueError("tolerances and the difference step must be positive and finite")
        if self.max_iterations < 1 or self.max_halvings < 0:
            raise ValueError("iteration limits out of range")


@dataclass(frozen=True)
class ResidualSystem:
    """A square nonlinear system with an optional objective attached.

    ``stacked_residual`` and ``stacked_functional``, when given, evaluate a
    stack of states at once, ``(S, m) -> (S, m)`` and ``(S, m) -> (S,)``.
    Row ``i`` equals the scalar callable at state ``i``, and is all-NaN
    where the scalar call would raise :class:`DomainError`.
    """

    dimension: int
    residual: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    functional: Callable[[np.ndarray], float] | None = None
    stacked_residual: Callable[[np.ndarray], np.ndarray] | None = None
    stacked_functional: Callable[[np.ndarray], np.ndarray] | None = None


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


def fd_jacobian(system: ResidualSystem, x: np.ndarray, step: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian.

    A system with a ``stacked_residual`` and at least
    :data:`STACKED_JACOBIAN_DIMENSION` coordinates, the measured crossover,
    evaluates all 2m perturbed states in one stacked call, split into calls
    of at most :data:`STACK_STARTS` states.  Any other system,
    and any ``x`` at which a perturbed residual holds a NaN (a stacked
    residual marks an infeasible state so), goes column by column through
    the scalar residual, which raises the :class:`DomainError` naming the
    coordinate being perturbed.  Both paths take the same steps and
    differences.
    """
    x = np.asarray(x, dtype=float)
    m = system.dimension
    if system.stacked_residual is not None and m >= STACKED_JACOBIAN_DIMENSION:
        jac, _ = _stacked_jacobian(_in_chunks(system.stacked_residual), x[None], step)
        if not np.isnan(jac).any():
            return jac[0]
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


def _in_chunks(residual: Callable) -> Callable:
    """``residual`` on a stack, called on at most :data:`STACK_STARTS` states at a time."""
    def call(xs: np.ndarray) -> np.ndarray:
        return np.concatenate([residual(xs[lo:lo + STACK_STARTS])
                               for lo in range(0, len(xs), STACK_STARTS)])

    return call


def newton_solve(
    system: ResidualSystem,
    guess: Sequence[float],
    config: SolverConfig | None = None,
) -> SolveReport:
    cfg = config or SolverConfig()
    x = np.array(guess, dtype=float)
    if x.shape != (system.dimension,):
        raise ValueError(f"guess has shape {x.shape}, system dimension is {system.dimension}")

    def report(converged: bool, norm: float, iters: int, msg: str,
               norms: list, path: list) -> SolveReport:
        fval = None
        if converged and system.functional is not None:
            fval = float(system.functional(x))
        return SolveReport(
            root=x.copy(), residual_norm=norm, iterations=iters, converged=converged,
            functional_value=fval, message=msg,
            residual_norms=tuple(norms), iterates=tuple(np.copy(p) for p in path),
        )

    try:
        res = np.asarray(system.residual(x), dtype=float)
    except DomainError as exc:
        return SolveReport(x, np.inf, 0, False, message=f"infeasible start: {exc}")
    if res.shape != (system.dimension,):
        raise ValueError("residual shape does not match the system dimension")
    norm = _norm(res)
    norms = [norm]
    path = [x.copy()]
    deep = False   # whether the last step took a level past the scalar ones

    for it in range(1, cfg.max_iterations + 1):
        if norm <= cfg.tol_residual:
            return report(True, norm, it - 1, "residual tolerance reached", norms, path)
        try:
            jac = fd_jacobian(system, x, cfg.fd_step)
        except DomainError as exc:
            return report(False, norm, it - 1, f"jacobian failed: {exc}", norms, path)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return report(False, norm, it - 1, "singular jacobian", norms, path)
        if not np.isfinite(step).all():
            return report(False, norm, it - 1, "non-finite newton step", norms, path)

        levels = min(cfg.max_halvings, MAX_HALVINGS) + 1
        if system.stacked_residual is None:
            scalar_levels = levels
        else:
            scalar_levels = 0 if deep else min(SCALAR_LEVELS, levels)
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
                                   np.array([norm]), scalar_levels, levels, HALVING_BLOCK)
            trial, trial_res, trial_norm, level, accepted = (row[0] for row in rows)
            trial_norm = float(trial_norm)
        if not accepted:
            return report(False, norm, it - 1,
                          "damping found no residual decrease", norms, path)
        deep = level >= SCALAR_LEVELS
        step_size = _norm(0.5 ** level * step)
        x, res, norm = trial, trial_res, trial_norm
        norms.append(norm)
        path.append(x.copy())
        if step_size <= cfg.tol_step:
            return report(norm <= cfg.tol_residual, norm, it,
                          "step below stagnation tolerance", norms, path)

    return report(norm <= cfg.tol_residual, norm, cfg.max_iterations,
                  "iteration limit reached", norms, path)


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


def _lift_functional(system: ResidualSystem) -> Callable:
    def functional(xs: np.ndarray) -> np.ndarray:
        out = np.full(len(xs), np.nan)
        for i, x in enumerate(xs):
            try:
                out[i] = system.functional(x)
            except DomainError:
                pass
        return out

    return functional


def _domain_message(call, *args) -> str:
    """The DomainError text of a scalar call that its stacked form marked NaN."""
    try:
        call(*args)
    except DomainError as exc:
        return str(exc)
    return "residual is not finite"


def _stacked_jacobian(residual: Callable, x: np.ndarray, step: float):
    """Central-difference Jacobians of a stack of states, and which failed.

    One residual call evaluates the 2m perturbed states of every start; the
    steps and differences are the ones :func:`fd_jacobian` takes.
    """
    count, m = x.shape
    h = step * np.maximum(1.0, np.abs(x))
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
                    level: int, levels: int, window: int | np.ndarray):
    """Damping of a stack of Newton steps, from halving ``level`` on.

    Row i tries the trial states ``x[i] + 2**-k * step[i]`` for k = ``level``,
    ..., ``levels - 1`` in ascending order and takes the first whose
    residual norm is below ``base[i]``; a NaN row (an infeasible trial)
    never is.  The first residual call tries ``window[i]`` levels of row i
    (``window`` may be one int for every row); each later call tries, for
    every row still looking, at most :data:`HALVING_BLOCK` levels from that
    row's own next level, all rows in one call.  Returns the taken trial
    states, residuals, norms and levels, and which rows took one.
    """
    count, m = x.shape
    taken = np.zeros(count, dtype=int)
    accepted = np.zeros(count, dtype=bool)
    trial = np.empty((count, m))
    trial_res = np.empty((count, m))
    trial_norm = np.empty(count)
    pending = np.arange(count)
    ragged = np.ndim(window) > 0
    if ragged:
        level = np.full(count, level)   # each pending row's next level
    narrow = np.minimum if ragged else min
    width = narrow(window, levels - level)
    while pending.size:
        if ragged:
            # row r of the call is level level[owner[r]] + offset[r] of start
            # pending[owner[r]]: the rows of one start are consecutive, in
            # ascending level, and end where its window does
            inside = np.arange(width.max()) < width[:, None]
            owner, offset = np.nonzero(inside)
            rows = pending[owner]
            cand = x[rows] + (0.5 ** (level[owner] + offset))[:, None] * step[rows]
            cand_res = residual(cand)
            cand_norm = np.full(inside.shape, np.inf)
            cand_norm[inside] = _row_norms(cand_res)
            start = np.cumsum(width) - width
        else:
            # one window for every row: a rectangular block of levels, which
            # keeps the one-row calls of newton_solve lean
            scales = 0.5 ** np.arange(level, level + width)
            cand = (x[pending, None, :] + scales[None, :, None] * step[pending, None, :]).reshape(-1, m)
            cand_res = residual(cand)
            cand_norm = _row_norms(cand_res).reshape(-1, width)
            start = np.arange(0, cand_norm.size, width)
        better = cand_norm < base[pending, None]
        found = better.any(axis=1)
        first = better.argmax(axis=1)[found]
        at = start[found] + first
        hit = pending[found]
        trial[hit], trial_res[hit], trial_norm[hit] = (
            cand[at], cand_res[at], cand_norm[found, first])
        accepted[hit] = True
        # the rows still looking with levels left go on from their next level
        looking = ~found & (width < levels - level)
        if ragged:
            taken[hit] = level[found] + first
            level = level[looking] + width[looking]
        else:
            taken[hit] = level + first
            level += width
        pending = pending[looking]
        width = narrow(HALVING_BLOCK, levels - level)
    return trial, trial_res, trial_norm, taken, accepted


def lockstep_solve(
    system: ResidualSystem,
    guesses: Iterable[Sequence[float]],
    config: SolverConfig | None = None,
) -> list:
    """Damped Newton from every guess at once; one report per guess, in order.

    Each report has the fields :func:`newton_solve` gives for that guess:
    the same steps, halvings, tolerances and stop reason.
    """
    return list(_stacked_reports(system, guesses, config))


def _stacked_reports(system: ResidualSystem, guesses: Iterable[Sequence[float]],
                     config: SolverConfig | None):
    """The reports of :func:`lockstep_solve`, one stack of starts at a time."""
    cfg = config or SolverConfig()
    m = system.dimension
    starts = np.array(list(guesses), dtype=float)
    if starts.size == 0:
        return
    if starts.ndim != 2 or starts.shape[1] != m:
        raise ValueError(f"guesses have shape {starts.shape}, system dimension is {m}")
    residual = system.stacked_residual or _lift_residual(system)
    functional = system.stacked_functional
    if functional is None and system.functional is not None:
        functional = _lift_functional(system)
    for lo in range(0, len(starts), STACK_STARTS):
        stack = starts[lo:lo + STACK_STARTS]
        yield from _lockstep(system, residual, functional, stack, cfg)


def _lockstep(system, residual, functional, x0: np.ndarray, cfg: SolverConfig) -> list:
    count = len(x0)
    res = residual(x0)
    if res.shape != x0.shape:
        raise ValueError("residual shape does not match the system dimension")
    norm = _row_norms(res)
    # the state and norm of every start after each iteration; a start that
    # stopped keeps its last row, so its path is the first taken + 1 rows
    states, norms = [x0], [norm]
    taken = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    messages = [""] * count
    infeasible = _nan_rows(res)
    for s in np.flatnonzero(infeasible).tolist():
        messages[s] = f"infeasible start: {_domain_message(system.residual, x0[s])}"
    x = x0
    active = np.flatnonzero(~infeasible)
    last = np.zeros(count, dtype=int)   # the damping level of each start's last step

    def stop(rows, message, ok=False):
        converged[rows] = ok
        for s in rows.tolist():
            messages[s] = message

    for _ in range(cfg.max_iterations):
        done = norm[active] <= cfg.tol_residual
        stop(active[done], "residual tolerance reached", True)
        active = active[~done]
        if not active.size:
            break

        jac, failed = _stacked_jacobian(residual, x[active], cfg.fd_step)
        for s in active[failed].tolist():
            messages[s] = f"jacobian failed: {_domain_message(fd_jacobian, system, x[s], cfg.fd_step)}"
        active, jac = active[~failed], jac[~failed]
        step, singular = _newton_steps(jac, -res[active])
        stop(active[singular], "singular jacobian")
        finite = np.isfinite(step).all(axis=1)
        stop(active[~singular & ~finite], "non-finite newton step")
        keep = ~singular & finite
        active, step = active[keep], step[keep]

        # damping: the first of the steps 1, 1/2, 1/4, ... whose residual norm
        # decreases.  A start mostly takes about the level its last step took,
        # so the first call tries the full step alone after a full step, and
        # levels 0 .. 2L+1 after a step at level L >= 1
        prior = last[active]
        window = np.where(prior > 0, np.minimum(2 * prior + 2, HALVING_BLOCK), 1)
        trial, trial_res, trial_norm, level, accepted = _first_decrease(
            residual, x[active], step, norm[active], 0,
            min(cfg.max_halvings, MAX_HALVINGS) + 1, window)
        stop(active[~accepted], "damping found no residual decrease")

        moved = active[accepted]
        last[moved] = level[accepted]
        step_size = _row_norms(0.5 ** level[accepted, None] * step[accepted])
        x, norm = x.copy(), norm.copy()
        x[moved], res[moved], norm[moved] = (
            trial[accepted], trial_res[accepted], trial_norm[accepted])
        states.append(x)
        norms.append(norm)
        taken[moved] += 1
        stagnant = step_size <= cfg.tol_step
        stop(moved[stagnant], "step below stagnation tolerance",
             norm[moved[stagnant]] <= cfg.tol_residual)
        active = moved[~stagnant]
    stop(active, "iteration limit reached", norm[active] <= cfg.tol_residual)

    states, norms = np.stack(states), np.stack(norms)
    values = [None] * count
    found = np.flatnonzero(converged)
    if found.size and functional is not None:
        for s, value in zip(found.tolist(), functional(states[taken[found], found]).tolist()):
            values[s] = value
    reports = []
    for s in range(count):
        if infeasible[s]:
            reports.append(SolveReport(x0[s].copy(), np.inf, 0, False, message=messages[s]))
            continue
        k = int(taken[s])
        reports.append(SolveReport(
            root=states[k, s].copy(), residual_norm=float(norms[k, s]), iterations=k,
            converged=bool(converged[s]), functional_value=values[s], message=messages[s],
            residual_norms=tuple(norms[:k + 1, s].tolist()),
            iterates=tuple(states[:k + 1, s].copy()),
        ))
    return reports


def multistart_solve(
    system: ResidualSystem,
    guesses: Iterable[Sequence[float]],
    config: SolverConfig | None = None,
    distinct_tol: float = 1e-6,
) -> list:
    """Newton from every guess; distinct converged roots, best first.

    The guesses are solved as by :func:`lockstep_solve`, and the failed
    starts of each stack are dropped as soon as it finishes.  Roots
    closer than ``distinct_tol`` in sup-norm are merged (the copy with the
    smaller residual survives).  When the system carries a functional the
    survivors are ordered by its value, otherwise lexicographically.
    """
    converged = []
    failed = 0
    total = 0
    for rep in _stacked_reports(system, guesses, config):
        total += 1
        if rep.converged:
            converged.append(rep)
        else:
            failed += 1
    if failed:
        log.debug("%s: %d of %d starts failed to converge",
                  system.label or "system", failed, total)

    converged.sort(key=lambda r: tuple(r.root))
    distinct = []
    for rep in converged:
        for i, kept in enumerate(distinct):
            if _norm(rep.root - kept.root) <= distinct_tol:
                if rep.residual_norm < kept.residual_norm:
                    distinct[i] = rep
                break
        else:
            distinct.append(rep)

    if system.functional is not None:
        distinct.sort(key=lambda r: (r.functional_value, tuple(r.root)))
    else:
        distinct.sort(key=lambda r: tuple(r.root))
    return distinct
