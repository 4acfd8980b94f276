"""Damped Newton iteration for square residual systems.

:func:`newton_solve` takes the Jacobian a system supplies (its
``jacobian``) and otherwise approximates it by central differences
(:func:`fd_jacobian`, the lock-step's difference probes for one start, over
the scalar residual); :func:`lockstep_solve` always takes central
differences.  Damping tries the steps 1, 1/2, 1/4, ... of the Newton step,
at most :data:`HALVINGS` halvings, and takes the first whose residual
sup-norm decreases.  Residual evaluations may signal infeasibility by raising
:class:`~tsvar.timescale.DomainError` or by an all-NaN residual (a stacked
residual by a NaN row), which rejects the trial step the same way a norm
increase does.

:func:`newton_solve` iterates from one start.  It tries the first
:data:`SCALAR_LEVELS` damping levels (the full step and the first halving)
one by one on the scalar residual.  When both fail and the system has a
``stacked_residual``, it tries all the deeper halvings in one stacked
call, and takes the same first decreasing level; after a step that took
such a deeper level, the next iteration tries every level, the full step
included, in one stacked call.  A system without a stacked form tries every
level on the scalar residual.

:func:`lockstep_solve` and :func:`multistart_solve` iterate from many
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
row, one window per row, and the difference probes.  Both read an all-NaN
residual as a raised :class:`~tsvar.timescale.DomainError`: at a start it
makes the start infeasible, at a probe it fails the Jacobian.  For a system
without a ``jacobian``, every start takes the same steps and stops for the
same reason as under :func:`newton_solve`; for one with a ``jacobian`` the two
solvers take Newton steps from different Jacobians, which can lead a start
to a different root.  A system evaluates the stack through its
``stacked_residual`` when it has one, and otherwise through a loop over its
scalar residual.

Most lock-step iterations of a sweep carry a few starts: on the 16 firm
cells at T = 3 swept from the default grid, half of them carry 8 or fewer.
Such an iteration costs about the same whatever their number: a median of
about 240 us at one start and 340 us at 9-16 (x86-64, Python 3.11, numpy
2.4, firm systems, over the 16 cells' sweeps, on a 2-CPU container whose
CPU speed swings by up to 2x), and its two or three stacked residual
calls, about 75 us each at up to 32 rows, take about 63% of it.  The rest
is a fixed count of whole-array numpy calls, a microsecond or so each,
with no Python loop over the starts and none whose result decides
nothing: the difference probes perturb both blocks of each start's probes
through one strided view of their diagonals, the damping lays its trials
out by repeating the rows, a batched solve that succeeds flags no
singular system, a first damping call in which every start takes its one
trial returns that call's own arrays, and one in which every start took a
level scans for no second call.

The lock-step loop keeps the state of the active starts only, and records
per iteration the states and norms its damping built; a start that stops
leaves it in one place, which records its stop reason, iteration count,
last state and norm.  Each stack of a sweep has its own outcome, and start
s of the sweep is start ``s % STACK_STARTS`` of stack ``s // STACK_STARTS``.
Both solvers build their reports from the stacks' outcomes, and only the
reports a caller returns: a report's ``iterates`` and ``residual_norms``
come from the records, its failure text from the scalar callables and its
functional from the scalar ``functional`` at its root.
:func:`lockstep_solve` reports every start; :func:`multistart_solve` merges
the converged roots first and reports the survivors only, or the first
start where none converged, so it calls a system that has a stacked
residual one state at a time only for the failure text of that first
start, and evaluates the functional at the roots it returns only.  The
merge (:func:`_merged`) compares the converged roots as Python floats,
each against the roots kept so far, the first coordinate alone first:
most kept roots differ from a root there by more than
:data:`DISTINCT_TOL`, and one float subtraction rules them out.

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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
    "DEFAULT_GRID",
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
    :func:`newton_solve` raises ValueError where its guess, a scalar
    residual or the Jacobian has another shape.
    ``stacked_residual``, when given, evaluates a stack of states at once,
    ``(S, m) -> (S, m)``: row ``i`` equals the residual at state ``i``, and
    is all-NaN where that call would raise :class:`DomainError`.  A system
    gives one only where it evaluates a stack faster than state by state:
    without it the lock-step solvers loop over the scalar residual
    themselves, and :func:`newton_solve` tries its levels one by one,
    stopping at the first decrease.  The functional has no stacked form:
    the solvers evaluate it at the roots they report only.
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


def fd_jacobian(system: ResidualSystem, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian at one state: the one-start case of the
    lock-step's probes (:func:`_stacked_jacobian`) over the scalar residual,
    with the step :data:`FD_STEP` scaled by ``max(1, |x_j|)``.  A probe at
    which the residual raises :class:`DomainError` or is all NaN fails; the
    first that fails, coordinate by coordinate and the upper probe first,
    raises a :class:`DomainError` that names the coordinate it perturbs."""
    jac, probes, failed = _stacked_jacobian(_lift_residual(system),
                                            np.asarray(x, dtype=float)[None])
    if failed.any():
        j, lower = divmod(int(failed[0].reshape(2, -1).T.argmax()), 2)
        detail = _domain_message(system.residual, probes[0, lower * system.dimension + j])
        raise DomainError(f"residual evaluation failed while perturbing coordinate {j}: {detail}")
    return jac[0]


def newton_solve(
    system: ResidualSystem,
    guess: Sequence[float],
    config: SolverConfig | None = None,
) -> SolveReport:
    cfg = config or SolverConfig()
    m = system.dimension
    x = np.array(guess, dtype=float)
    if x.shape != (m,):
        raise ValueError(f"guess has shape {x.shape}, system dimension is {m}")
    try:
        res = np.asarray(system.residual(x), dtype=float)
    except DomainError as exc:
        return _report(system, _INFEASIBLE, x, detail=exc)
    if res.shape != (m,):
        raise ValueError("residual shape does not match the system dimension")
    if _nan_rows(res):
        return _report(system, _INFEASIBLE, x, detail=_domain_message(system.residual, x))
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
        # checked here, or np.linalg.solve would report a wrong shape as singular
        if np.shape(jac) != (m, m):
            raise ValueError(f"jacobian has shape {np.shape(jac)}, system dimension is {m}")
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            why = _SINGULAR
            break
        # the max of |step| is NaN or inf exactly where a component is
        step_norm = _norm(step)
        if not math.isfinite(step_norm):
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
            if trial_res.shape != (m,):
                raise ValueError("residual shape does not match the system dimension")
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
        # the norm of the scaled step, bit for bit: scaling by a power of two
        # is exact for normal numbers, and rounding is monotone, so the max
        # commutes with it even where a product underflows
        step_size = 0.5 ** level * step_norm
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
    """Central-difference Jacobians of a stack of states, their probes, and
    which probes failed.

    One residual call evaluates the 2m probes of every start, an ``(S, 2m,
    m)`` stack: probe j perturbs coordinate j up, probe m + j down, by
    :data:`FD_STEP` scaled by ``max(1, |x_j|)``.  A probe fails where its
    residual row is all NaN.  The two blocks of a start's probes are m x m
    blocks of copies of its state, and their diagonals, the perturbed
    entries, are one strided view.
    """
    count, m = x.shape
    h = FD_STEP * np.maximum(1.0, np.abs(x))
    probes = x[:, None, :].repeat(2 * m, axis=1)
    diagonals = probes.reshape(count, 2, m * m)[:, :, ::m + 1]
    diagonals[:, 0] += h
    diagonals[:, 1] -= h
    r = residual(probes.reshape(-1, m)).reshape(count, 2 * m, m)
    jac = ((r[:, :m] - r[:, m:]) / (2.0 * h[:, :, None])).transpose(0, 2, 1)
    return jac, probes, _nan_rows(r)


def _newton_steps(jac: np.ndarray, rhs: np.ndarray):
    """Solves every system of the stack; returns the steps and the flags
    of the singular systems, None where one batched solve found none."""
    try:
        return np.linalg.solve(jac, rhs[:, :, None])[:, :, 0], None
    except np.linalg.LinAlgError:
        pass
    singular = np.zeros(len(jac), dtype=bool)
    steps = np.empty_like(rhs)
    for i in range(len(jac)):
        try:
            steps[i] = np.linalg.solve(jac[i], rhs[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return steps, singular


def _trials(residual: Callable, x: np.ndarray, step: np.ndarray, base: np.ndarray,
            level, width: np.ndarray):
    """One residual call in which row i tries the levels ``level[i]`` ..
    ``level[i] + width[i] - 1`` of its step (``level`` may be one int for
    every row).  Returns the trial states, residuals, norms and levels, a
    row per trial, and per row the index of its first trial whose norm is
    below ``base[i]`` and whether it has one.

    The trials are ragged: the trials of each row are consecutive, laid out
    by repeating the row's state, step and norm by its width, and one
    ``np.minimum.reduceat`` over the indices of the trials that decrease
    finds each row's first.  The ndarray methods skip the wrappers of their
    numpy functions, which cost up to a microsecond a call.
    """
    # every width is at least 1, so the segments start strictly later
    ends = np.add.accumulate(width)
    first = ends - width
    total = int(ends[-1])
    index = np.arange(total)
    tried = (level - first).repeat(width) + index
    cand = x.repeat(width, axis=0) + (0.5 ** tried)[:, None] * step.repeat(width, axis=0)
    cand_res = residual(cand)
    cand_norm = _row_norms(cand_res)
    at = np.minimum.reduceat(np.where(cand_norm < base.repeat(width), index, total), first)
    return cand, cand_res, cand_norm, tried, at, at < total


def _first_decrease(residual: Callable, x: np.ndarray, step: np.ndarray, base: np.ndarray,
                    level: int, levels: int, window: np.ndarray):
    """Damping of a stack of Newton steps, from halving ``level`` on.

    Row i tries the trial states ``x[i] + 2**-k * step[i]`` for k = ``level``,
    ..., ``levels - 1`` in ascending order and takes the first whose
    residual norm is below ``base[i]``; a NaN row (an infeasible trial)
    never is.  The first residual call (:func:`_trials`) tries ``window[i]``
    levels of row i; a second call tries, for every row still looking, all
    of that row's remaining levels.  Returns the taken trial states,
    residuals, norms and levels, and which rows took one; the other rows'
    entries are arbitrary.  A row that tried one level in the first call
    keeps that call's row, as every row does where each tried one.
    """
    width = np.minimum(window, levels - level)
    trial, trial_res, trial_norm, taken, at, accepted = _trials(
        residual, x, step, base, level, width)
    if len(trial) > len(x):   # each row's first decrease, or its last trial
        at = np.minimum(at, len(trial) - 1)
        trial, trial_res, trial_norm, taken = trial[at], trial_res[at], trial_norm[at], taken[at]
    # the rows still looking with levels left try all of them in one more call
    rows = () if accepted.all() else (~accepted & (width < levels - level)).nonzero()[0]
    if len(rows):
        # written below: not the arrays the residual was given or returned
        trial, trial_res = trial.copy(), trial_res.copy()
        after = level + width[rows]
        cand, cand_res, cand_norm, tried, at, found = _trials(
            residual, x[rows], step[rows], base[rows], after, levels - after)
        hit, at = rows[found], at[found]
        trial[hit], trial_res[hit], trial_norm[hit] = cand[at], cand_res[at], cand_norm[at]
        taken[hit] = tried[at]
        accepted[hit] = True
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
    """What :func:`_lockstep` keeps of one stack of starts; each array has a
    row per start, in start order.

    ``path`` is the stack's path as :func:`_lockstep` built it: per
    iteration, from the starts themselves on, the ids, states and norms of
    the starts that moved then, ids ascending and local to the stack.
    """

    reason: np.ndarray       # why it stopped, an index into _REASONS
    converged: np.ndarray
    iterations: np.ndarray
    root: np.ndarray         # its last state: the start itself where infeasible
    norm: np.ndarray         # that state's residual sup-norm; inf where infeasible
    path: list               # per iteration: (ids, states, norms)


def lockstep_solve(
    system: ResidualSystem,
    guesses: Iterable[Sequence[float]],
    config: SolverConfig | None = None,
) -> list:
    """Damped Newton from every guess at once; one report per guess, in order.

    The Jacobians are central differences, whatever the system supplies.
    For a system without a ``jacobian``, each report has the fields
    :func:`newton_solve` gives for that guess: the same steps, halvings,
    tolerances and stop reason.  Both solvers read an all-NaN residual as a
    raised :class:`DomainError`: an infeasible start, or a failed Jacobian
    where a probe gives one.  Each stack's reports are built before the
    next stack runs, so a sweep holds one stack's path at a time.
    """
    reports = []
    for out in _stacks(system, guesses, config or SolverConfig()):
        reports += _reports(system, [out], range(len(out.reason)))
        del out   # its path, before the next stack builds its own
    return reports


def _stacks(system: ResidualSystem, guesses: Iterable[Sequence[float]],
            cfg: SolverConfig) -> Iterator[_Outcome]:
    """The :class:`_Outcome` of each stack of at most :data:`STACK_STARTS`
    guesses, in order, each solved when it is asked for."""
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
    ``last`` of each start's last step) holds the active starts only.  One
    function, ``stop``, records the stopping starts' reasons, iteration
    counts, states and norms, and drops them from that state and from any
    other per-start array the caller passes.  Each iteration appends to the
    path the ids, states and norms the damping has just built, without
    copying them.  Failure texts, functional values and the per-start paths
    are left to :func:`_reports`, for the reports a caller returns.
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

    def stop(rows, why, taken, *more, ok=False):
        """Records that the active starts marked in ``rows`` stop, for the
        reason ``why`` (one, or one per stopping start), and drops them from
        the active state; returns the rows of ``more`` that stay."""
        nonlocal ids, x, res, norm, last
        s = ids[rows]
        reason[s], converged[s], iterations[s] = why, ok, taken
        root[s], final_norm[s] = x[rows], norm[rows]
        keep = ~rows
        ids, x, res, norm, last = ids[keep], x[keep], res[keep], norm[keep], last[keep]
        return [a[keep] for a in more]

    levels = HALVINGS + 1
    for it in range(1, cfg.max_iterations + 1):
        done = norm <= cfg.tol_residual
        if done.any():
            stop(done, _TOLERANCE, it - 1, ok=True)
        if not ids.size:
            break

        jac, _, failed = _stacked_jacobian(residual, x)
        failed = failed.any(axis=1)
        if failed.any():
            jac, = stop(failed, _JACOBIAN_FAILED, it - 1, jac)
        step, singular = _newton_steps(jac, -res)
        bad = ~np.isfinite(step).all(axis=1)
        why = _NOT_FINITE
        if singular is not None:
            bad |= singular
            why = np.where(singular, _SINGULAR, _NOT_FINITE)[bad]
        if bad.any():
            step, = stop(bad, why, it - 1, step)
        if not ids.size:   # the damping lays out no trials for an empty stack
            break

        # damping: the first of the steps 1, 1/2, 1/4, ... whose residual norm
        # decreases.  A start mostly takes about the level its last step took,
        # so the first call tries the full step alone after a full step, and
        # levels 0 .. 2L+1 after a step at level L >= 1
        window = np.where(last > 0, 2 * last + 2, 1)
        trial, trial_res, trial_norm, level, accepted = _first_decrease(
            residual, x, step, norm, 0, levels, window)
        if not accepted.all():
            step, trial, trial_res, trial_norm, level = stop(
                ~accepted, _NO_DECREASE, it - 1, step, trial, trial_res, trial_norm, level)
        x, res, norm, last = trial, trial_res, trial_norm, level
        path.append((ids, x, norm))

        stagnant = 0.5 ** last * _row_norms(step) <= TOL_STEP
        if stagnant.any():
            stop(stagnant, _STAGNANT, it, ok=norm[stagnant] <= cfg.tol_residual)
    if ids.size:
        stop(np.ones(ids.size, dtype=bool), _LIMIT, cfg.max_iterations,
             ok=norm <= cfg.tol_residual)
    return _Outcome(reason, converged, iterations, root, final_norm, path)


def _reports(system: ResidualSystem, outs: list, rows) -> list:
    """The full reports of the starts ``rows`` of a sweep whose stacks'
    outcomes are ``outs``, in that order, built by :func:`_report`: failure
    texts from the scalar callables, each start's iterates and norms from
    its stack's path entries it moved in.  Start s of a sweep is start
    ``s % STACK_STARTS`` of stack ``s // STACK_STARTS``."""
    reports = []
    for s in rows:
        stack, local = divmod(s, STACK_STARTS)
        out = outs[stack]
        why, x = int(out.reason[local]), out.root[local]
        if why == _INFEASIBLE:
            reports.append(_report(system, why, x, detail=_domain_message(system.residual, x)))
            continue
        detail = _domain_message(fd_jacobian, system, x) if why == _JACOBIAN_FAILED else None
        k = int(out.iterations[local])
        path = out.path[:k + 1]
        at = [ids.searchsorted(local) for ids, _, _ in path]   # the start's row in each entry
        reports.append(_report(system, why, x, float(out.norm[local]), k,
                               bool(out.converged[local]),
                               [float(ns[j]) for (_, _, ns), j in zip(path, at)],
                               [xs[j].copy() for (_, xs, _), j in zip(path, at)], detail))
    return reports


def _merged(roots: np.ndarray, norms: np.ndarray) -> list:
    """The indices of the roots that survive the merge of
    :func:`multistart_solve`, in the order they were first kept.

    In the lexicographic order of the roots (stable: equal roots keep their
    order), each root goes to the first kept root within
    :data:`DISTINCT_TOL` in sup-norm, and replaces it where its norm is
    smaller.  The test runs over Python floats: a gap is within the
    tolerance exactly where every coordinate's is, NaN failing as it fails
    the sup-norm, and the first coordinate, tested alone first, rules most
    kept roots out.
    """
    order = np.lexsort(roots.T[::-1])
    points, norms = roots.tolist(), norms.tolist()
    kept = []   # the index of each kept root, in the order kept
    for i in order.tolist():
        root = points[i]
        lead, rest = root[0], root[1:]
        for slot, k in enumerate(kept):
            other = points[k]
            if abs(other[0] - lead) <= DISTINCT_TOL and all(
                    abs(a - b) <= DISTINCT_TOL for a, b in zip(other[1:], rest)):
                if norms[i] < norms[k]:
                    kept[slot] = i
                break
        else:
            kept.append(i)
    return kept


def multistart_solve(
    system: ResidualSystem,
    guesses: Iterable[Sequence[float]],
    config: SolverConfig | None = None,
) -> list:
    """Newton from every guess; distinct converged roots, best first, or
    the first guess's report when no guess converges.

    The guesses are solved as by :func:`lockstep_solve`, in one sweep, and
    each returned report equals that start's report there.  Roots within
    :data:`DISTINCT_TOL` of each other in sup-norm are merged: in the
    lexicographic order of the roots, each goes to the first kept root within
    the tolerance, and the copy with the smaller residual survives.  When the system carries a
    functional the survivors are ordered by its value, otherwise
    lexicographically.  Only the returned reports are built, so a system
    with a stacked residual is called one state at a time only for the
    failure text of a sweep that converges nowhere, and the functional is
    evaluated at the returned roots only.  No guesses give no reports.
    """
    outs = list(_stacks(system, guesses, config or SolverConfig()))
    if not outs:
        return []
    converged, roots, norms = (np.concatenate(column) for column in
                               zip(*((out.converged, out.root, out.norm) for out in outs)))
    found = np.flatnonzero(converged)
    if found.size < len(converged):
        log.debug("%s: %d of %d starts failed to converge",
                  system.label or "system", len(converged) - found.size, len(converged))
    if not found.size:
        return _reports(system, outs, [0])

    kept = _merged(roots[found], norms[found])
    distinct = _reports(system, outs, found[kept].tolist())
    if system.functional is not None:
        distinct.sort(key=lambda r: (r.functional_value, tuple(r.root)))
    else:
        distinct.sort(key=lambda r: tuple(r.root))
    return distinct
