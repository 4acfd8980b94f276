"""Damped Newton iteration for square residual systems.

The Jacobian is always approximated by central differences; damping
halves the step until the residual sup-norm decreases.  Residual
evaluations may signal infeasibility by raising
:class:`~tsvar.timescale.DomainError`, which rejects the trial step the
same way a norm increase does.

:func:`newton_solve` iterates from one start.  :func:`lockstep_solve`
(behind :func:`multistart_solve`) iterates from many starts at once: the
states of all active starts form one ``(S, m)`` stack, and each iteration
makes one residual call for every central-difference Jacobian, one batched
``np.linalg.solve`` for every step, and, for the damping, one residual
call for all full steps plus one per :data:`HALVING_BLOCK` halvings of the
starts whose full step failed.  Every start takes the same steps and stops
for the same reason as under :func:`newton_solve`.  A system evaluates the stack
through its ``stacked_residual`` and ``stacked_functional`` when it has
them, and otherwise through a loop over its scalar callables.

Multistart sweeps are bounded: :func:`default_start_grid` refuses to
enumerate more than :data:`MAX_STARTS` points, and a sweep is solved in
stacks of at most :data:`STACK_STARTS` starts.
"""

from __future__ import annotations

import itertools
import logging
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

#: halvings lockstep_solve tries together once the full Newton step fails
HALVING_BLOCK = 32


@dataclass(frozen=True)
class SolverConfig:
    tol_residual: float = 1e-12   # sup-norm of the residual at acceptance
    tol_step: float = 1e-14       # sup-norm of the Newton step at stagnation
    max_iterations: int = 100
    fd_step: float = 1e-7         # scaled by max(1, |x_j|) per coordinate
    max_halvings: int = 30

    def __post_init__(self):
        if self.tol_residual <= 0 or self.tol_step <= 0 or self.fd_step <= 0:
            raise ValueError("tolerances and the difference step must be positive")
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


def _norm(r: np.ndarray) -> float:
    return float(np.max(np.abs(r)))


def fd_jacobian(system: ResidualSystem, x: np.ndarray, step: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian, column by column."""
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
        if not np.all(np.isfinite(step)):
            return report(False, norm, it - 1, "non-finite newton step", norms, path)

        scale = 1.0
        accepted = False
        for _ in range(cfg.max_halvings + 1):
            trial = x + scale * step
            try:
                trial_res = np.asarray(system.residual(trial), dtype=float)
            except DomainError:
                scale *= 0.5
                continue
            trial_norm = _norm(trial_res)
            if trial_norm < norm:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            return report(False, norm, it - 1,
                          "damping found no residual decrease", norms, path)
        step_size = _norm(scale * step)
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

    Raises ValueError, before enumerating anything, when the grid has more
    than :data:`MAX_STARTS` points.
    """
    lo, hi, step = spec
    if step <= 0 or hi < lo:
        raise ValueError(f"bad start grid {spec}")
    count = int(round((hi - lo) / step)) + 1
    if lo + (count - 1) * step > hi + 1e-12:
        count -= 1
    starts = count ** dimension
    if starts > MAX_STARTS:
        raise ValueError(
            f"start grid {spec} has {count}^{dimension} = {starts} points, "
            f"more than MAX_STARTS = {MAX_STARTS}"
        )
    axis = [lo + i * step for i in range(count)]
    return list(itertools.product(axis, repeat=dimension))


def _row_norms(r: np.ndarray) -> np.ndarray:
    return np.max(np.abs(r), axis=-1)


def _nan_rows(r: np.ndarray) -> np.ndarray:
    return np.isnan(r).all(axis=-1)


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
    count, m = x0.shape
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

        # damping: the first of the halved steps 1, 1/2, 1/4, ... whose
        # residual norm decreases; after the full step, the remaining
        # halvings of every pending start are tried in blocks in one call
        base = norm[active]
        scale = np.zeros(len(active))
        trial = np.empty((len(active), m))
        trial_res = np.empty((len(active), m))
        trial_norm = np.empty(len(active))
        pending = np.arange(len(active))
        level, levels = 0, cfg.max_halvings + 1
        while pending.size and level < levels:
            block = 1 if level == 0 else min(HALVING_BLOCK, levels - level)
            scales = 0.5 ** np.arange(level, level + block)
            cand = (x[active[pending], None, :]
                    + scales[None, :, None] * step[pending, None, :]).reshape(-1, m)
            cand_res = residual(cand)
            cand_norm = _row_norms(cand_res).reshape(-1, block)
            better = cand_norm < base[pending, None]   # NaN rows (infeasible) never are
            found = better.any(axis=1)
            first = better.argmax(axis=1)[found]
            rows = np.flatnonzero(found) * block + first
            hit = pending[found]
            trial[hit], trial_res[hit], trial_norm[hit] = (
                cand[rows], cand_res[rows], cand_norm[found, first])
            scale[hit] = scales[first]
            pending = pending[~found]
            level += block
        accepted = np.ones(len(active), dtype=bool)
        accepted[pending] = False
        stop(active[pending], "damping found no residual decrease")

        moved = active[accepted]
        step_size = _row_norms(scale[accepted, None] * step[accepted])
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
