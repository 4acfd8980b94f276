"""Tests for the damped Newton solver and the multistart driver."""

import dataclasses
import logging
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tsvar import solver as tsolver
from tsvar import (
    MAX_STARTS,
    CompositeProblem,
    DomainError,
    EquationKind,
    FirmParams,
    Integrand,
    ProblemKind,
    ResidualSystem,
    SolverConfig,
    TimeScale,
    default_start_grid,
    fd_jacobian,
    lockstep_solve,
    multistart_solve,
    newton_solve,
    problem_system,
    residual_system,
    sum_outer,
)
from tsvar.cli import CELL_SEEDS


def affine_system():
    mat = np.array([[2.0, 1.0], [1.0, 3.0]])
    rhs = np.array([5.0, 10.0])
    return ResidualSystem(2, lambda x: mat @ x - rhs), np.linalg.solve(mat, rhs)


def hand_hessian_all_forward(y1, y2):
    """Independent closed-form Jacobian of the all-forward stationarity system.

    The system is the exact gradient of F = K * A with three-term forward
    sums, so its Jacobian is the Hessian of F; every partial below was
    derived by hand from those sums.
    """
    rho, c0, c1, c2 = 0.05, 3.0, 0.5, 3.0
    lam, beta, b, B, p0, floor = 0.5, 0.25, 4.0, 2.0, 1.0, 1.0
    horizon = 3
    disc = [(1 + rho) ** (t - horizon) for t in range(horizon + 1)]
    y = [2.0, y1, y2, 3.0]
    dy = [y[t + 1] - y[t] for t in range(3)]
    s = [dy[t] + b for t in range(3)]
    total_k = sum(
        disc[t]
        * (c0 + c1 * y[t + 1] + c2 * dy[t] ** 2 - y[t + 1] * p0
           - B * y[t + 1] / (y[t + 1] - floor))
        for t in range(3)
    )
    total_a = sum(
        disc[t] * (lam * y[t + 1] + beta * math.sqrt(s[t])) for t in range(3)
    )
    k1 = disc[0] * (c1 - p0 + B * floor / (y1 - floor) ** 2 + 2 * c2 * dy[0]) \
        - disc[1] * 2 * c2 * dy[1]
    k2 = disc[1] * (c1 - p0 + B * floor / (y2 - floor) ** 2 + 2 * c2 * dy[1]) \
        - disc[2] * 2 * c2 * dy[2]
    a1 = disc[0] * (lam + beta / (2 * math.sqrt(s[0]))) \
        - disc[1] * beta / (2 * math.sqrt(s[1]))
    a2 = disc[1] * (lam + beta / (2 * math.sqrt(s[1]))) \
        - disc[2] * beta / (2 * math.sqrt(s[2]))
    k11 = disc[0] * (-2 * B * floor / (y1 - floor) ** 3 + 2 * c2) + disc[1] * 2 * c2
    k12 = -disc[1] * 2 * c2
    k22 = disc[1] * (-2 * B * floor / (y2 - floor) ** 3 + 2 * c2) + disc[2] * 2 * c2
    a11 = -beta / 4 * (disc[0] * s[0] ** -1.5 + disc[1] * s[1] ** -1.5)
    a12 = disc[1] * beta / (4 * s[1] ** 1.5)
    a22 = -beta / 4 * (disc[1] * s[1] ** -1.5 + disc[2] * s[2] ** -1.5)
    grad = np.array([total_a * k1 + total_k * a1, total_a * k2 + total_k * a2])
    hess = np.array(
        [
            [total_a * k11 + total_k * a11 + 2 * k1 * a1,
             total_a * k12 + total_k * a12 + k1 * a2 + k2 * a1],
            [total_a * k12 + total_k * a12 + k1 * a2 + k2 * a1,
             total_a * k22 + total_k * a22 + 2 * k2 * a2],
        ]
    )
    return grad, hess


# ---------------------------------------------------------------------------
# configuration


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_residual=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tol_residual must be positive and finite"):
            SolverConfig(tol_residual=value)


def test_max_iterations_must_be_an_integer():
    for value in (2.5, math.inf, -math.inf, math.nan, np.float64(0.5)):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            SolverConfig(max_iterations=value)
    for value in (4.0, np.int64(4), np.float64(4.0)):
        limit = SolverConfig(max_iterations=value).max_iterations
        assert limit == 4 and type(limit) is int
    # an integral float limit gives both solvers the int limit's reports
    system = ResidualSystem(1, lambda x: np.array([x[0] ** 2 + 1.0]))   # no root
    starts = [(0.3,), (-2.0,)]
    config, whole = SolverConfig(max_iterations=4.0), SolverConfig(max_iterations=4)
    for got, expected in zip(lockstep_solve(system, starts, config),
                             lockstep_solve(system, starts, whole)):
        assert_same_report(got, expected)
    assert_same_report(newton_solve(system, starts[0], config),
                       newton_solve(system, starts[0], whole))


# ---------------------------------------------------------------------------
# newton iteration


def test_affine_system_converges_in_at_most_two_iterations():
    system, solution = affine_system()
    report = newton_solve(system, (0.0, 0.0))
    assert report.converged
    assert report.iterations <= 2
    assert_allclose(report.root, solution, rtol=1e-10)


def test_starting_at_the_root_counts_zero_iterations():
    system, solution = affine_system()
    report = newton_solve(system, solution)
    assert report.converged and report.iterations == 0


def test_iteration_cap_is_reported():
    system = ResidualSystem(1, lambda x: np.array([math.exp(x[0]) ]))
    report = newton_solve(system, (0.0,), SolverConfig(max_iterations=5))
    assert not report.converged
    assert report.iterations == 5


def test_singular_jacobian_is_reported():
    system = ResidualSystem(2, lambda x: np.array([x[0] + x[1], x[0] + x[1]]))
    report = newton_solve(system, (1.0, 1.0))
    assert not report.converged
    assert "singular" in report.message


def test_infeasible_start_is_reported_not_raised():
    system = residual_system(FirmParams(), ProblemKind.DELTA_DELTA)
    # the drop from 7 to 1 pushes the rate change past the sqrt guard
    report = newton_solve(system, (7.0, 1.0))
    assert not report.converged
    assert report.iterations == 0


def test_domain_error_during_jacobian_names_the_coordinate(monkeypatch):
    def residual(x):
        if x[1] < 1.0:
            raise DomainError("out of range")
        return np.array([x[0], x[1] - 2.0])

    def nan_residual(x):   # fails the lower probe of x1 without raising
        return np.full(2, np.nan) if x[1] < 1.0 else np.array([x[0], x[1] - 2.0])

    monkeypatch.setattr(tsolver, "FD_STEP", 1e-3)
    for function in (residual, nan_residual):
        system = ResidualSystem(2, function)
        with pytest.raises(DomainError, match="coordinate 1"):
            fd_jacobian(system, np.array([0.0, 1.0]))


def test_fd_jacobian_matches_hand_derived_hessian():
    system = residual_system(FirmParams(), ProblemKind.DELTA_DELTA)
    x = np.array([2.3, 2.7])
    grad, hess = hand_hessian_all_forward(*x)
    # the residual itself is the exact gradient of the product functional
    assert_allclose(system.residual(x), grad, rtol=1e-12)
    assert_allclose(fd_jacobian(system, x), hess, atol=1e-5)


def test_newton_residuals_decrease_monotonically_from_worked_start():
    system = residual_system(FirmParams(), ProblemKind.DELTA_DELTA)
    report = newton_solve(system, (2.3, 2.7))
    assert report.converged
    norms = np.asarray(report.residual_norms)
    assert norms.size >= 2
    assert np.all(np.diff(norms) < 0)


def test_newton_error_contracts_near_the_root():
    system = residual_system(FirmParams(), ProblemKind.DELTA_DELTA)
    report = newton_solve(system, (2.3, 2.7))
    root = report.root
    errors = [
        float(np.max(np.abs(np.asarray(it) - root))) for it in report.iterates
    ]
    late = [e for e in errors if 0.0 < e < 1e-1]
    assert len(late) >= 2
    for previous, current in zip(late, late[1:]):
        assert current < previous


def test_functional_is_attached_to_converged_reports():
    system = residual_system(FirmParams(), ProblemKind.DELTA_DELTA)
    report = newton_solve(system, (2.3, 2.7))
    assert report.functional_value is not None
    assert_allclose(report.functional_value, -16.97843026, atol=1e-6)


# ---------------------------------------------------------------------------
# multistart


def test_default_start_grid_enumeration():
    grid = default_start_grid(2)
    assert len(grid) == 16 * 16
    assert grid[0] == (0.5, 0.5)
    assert grid[1] == (0.5, 1.0)   # last coordinate varies fastest
    assert grid[-1] == (8.0, 8.0)
    assert default_start_grid(1, (1.0, 3.0, 1.0)) == [(1.0,), (2.0,), (3.0,)]
    # 1.0 / 0.6 rounds up to 2 steps, and the point 1.2 past hi is dropped
    assert default_start_grid(1, (0.0, 1.0, 0.6)) == [(0.0,), (0.6,)]


def test_multistart_deduplicates_repeated_roots():
    system, solution = affine_system()
    guesses = [(0.0, 0.0), (1.0, 1.0), (5.0, -3.0), tuple(solution)]
    reports = multistart_solve(system, guesses)
    assert len(reports) == 1
    assert_allclose(reports[0].root, solution, rtol=1e-10)


def test_multistart_separates_distinct_roots():
    system = ResidualSystem(2, lambda x: np.array([x[0] ** 2 - 1.0, x[1] - 2.0]))
    reports = multistart_solve(system, [(0.5, 0.0), (-0.5, 0.0), (2.0, 5.0)])
    roots = sorted(tuple(np.round(r.root, 9)) for r in reports)
    assert roots == [(-1.0, 2.0), (1.0, 2.0)]


def merged_by_arrays(roots, norms):
    """The merge as multistart_solve wrote it on arrays: each root, in
    lexicographic order, goes to the first kept root within DISTINCT_TOL in
    sup-norm, and replaces it where its norm is smaller."""
    order = np.lexsort(roots.T[::-1])
    kept_roots = np.empty_like(roots)
    kept = []
    for i in order.tolist():
        gaps = np.abs(kept_roots[:len(kept)] - roots[i]).max(axis=-1)
        near = np.flatnonzero(gaps <= tsolver.DISTINCT_TOL)
        if not near.size:
            kept_roots[len(kept)] = roots[i]
            kept.append(i)
        elif norms[i] < norms[kept[near[0]]]:
            kept_roots[near[0]] = roots[i]
            kept[near[0]] = i
    return kept


@st.composite
def clustered_roots(draw):
    """Roots in a few clusters, each a chain of points half DISTINCT_TOL
    apart per coordinate, so that a gap can be the tolerance itself, a root
    can be near two kept roots, and a replacement can move a kept root; with
    norms from a few values, so that equal norms occur, and now and then a
    NaN or an infinite coordinate."""
    m = draw(st.integers(1, 3))
    centres = draw(st.lists(st.lists(st.sampled_from([0.0, -1.0, 2.5]), min_size=m, max_size=m),
                            min_size=1, max_size=3))
    count = draw(st.integers(1, 24))
    offset = st.integers(-3, 3).map(lambda k: k * 0.5 * tsolver.DISTINCT_TOL)
    roots = np.array([[c + draw(offset) for c in draw(st.sampled_from(centres))]
                      for _ in range(count)])
    if draw(st.integers(0, 4)) == 0:
        roots[draw(st.integers(0, count - 1)), draw(st.integers(0, m - 1))] = draw(
            st.sampled_from([math.nan, math.inf]))
    norms = draw(st.lists(st.sampled_from([0.0, 1e-14, 1e-13, 5e-13]),
                          min_size=count, max_size=count))
    return roots, np.array(norms)


@given(clustered_roots())
def test_multistart_merge_keeps_the_roots_the_array_merge_keeps(case):
    roots, norms = case
    with np.errstate(invalid="ignore"):   # inf - inf in a gap
        expected = merged_by_arrays(roots, norms)
    assert tsolver._merged(roots, norms) == expected


def test_multistart_is_idempotent_under_guess_repetition():
    system = ResidualSystem(2, lambda x: np.array([x[0] ** 2 - 1.0, x[1] - 2.0]))
    once = multistart_solve(system, [(0.5, 0.0), (-0.5, 0.0)])
    twice = multistart_solve(system, [(0.5, 0.0), (-0.5, 0.0)] * 2)
    assert len(once) == len(twice)
    for a, b in zip(once, twice):
        assert_allclose(a.root, b.root, rtol=1e-12)


def test_multistart_orders_by_functional_when_attached():
    system = ResidualSystem(
        2,
        lambda x: np.array([x[0] ** 2 - 1.0, x[1] - 2.0]),
        functional=lambda x: float(x[0]),   # prefers the root at -1
    )
    reports = multistart_solve(system, [(0.5, 0.0), (-0.5, 0.0)])
    assert_allclose(reports[0].root, [-1.0, 2.0], rtol=1e-10)
    assert_allclose(reports[1].root, [1.0, 2.0], rtol=1e-10)


def test_multistart_recovers_hard_worked_roots_over_default_grid():
    # the backward-form root near the sales floor and the far stationary
    # point of the mixed backward/forward system are both in the sweep
    params = FirmParams()
    grid = default_start_grid(2)
    cases = [
        (ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL2,
         (0.5930298703, 1.090438395)),
        (ProblemKind.NABLA_DELTA, EquationKind.TIMESCALE_EL1,
         (7.879260741, 4.775003718)),
    ]
    for kind, equation, expected in cases:
        system = residual_system(params, kind, equation)
        reports = multistart_solve(system, grid)
        best = min(
            float(np.max(np.abs(r.root - np.asarray(expected)))) for r in reports
        )
        assert best <= 1e-6


def test_default_start_grid_refuses_oversized_grids_immediately():
    assert len(default_start_grid(4)) == MAX_STARTS   # the default grid at T=5
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"16\\^5 = 1048576 points, more than MAX_STARTS = {MAX_STARTS}"):
        default_start_grid(5)
    with pytest.raises(ValueError, match=str(16 ** 40)):
        default_start_grid(40)
    # a fine axis is refused before it is built, too, by its own count
    with pytest.raises(ValueError, match="MAX_STARTS = 65536 points per coordinate"):
        default_start_grid(1, (0.0, 1.0, 1e-12))
    with pytest.raises(ValueError, match="per coordinate"):
        default_start_grid(1, (0.0, float(MAX_STARTS), 1.0))
    assert len(default_start_grid(1, (1.0, float(MAX_STARTS), 1.0))) == MAX_STARTS
    assert time.perf_counter() - started < 0.5


# ---------------------------------------------------------------------------
# lock-step multistart against the one-start solver


def sqrt_system():
    """Feasible only for x0 >= 0; a root at (2.25, 2.25)."""
    def residual(x):
        if x[0] < 0.0:
            raise DomainError(f"negative x0 = {x[0]}")
        return np.array([math.sqrt(x[0]) - 1.5, x[1] - x[0]])

    return ResidualSystem(2, residual, functional=lambda x: float(x[0] + x[1]))


LIFTED_CASES = [
    # (system, starts, config, the solver module constants set for the case)
    (affine_system()[0], [(0.0, 0.0), (1.0, 1.0), (5.0, -3.0), (1.0, 3.0)], None, {}),
    # x0 = 0 makes the difference Jacobian exactly singular
    (ResidualSystem(2, lambda x: np.array([x[0] ** 2 - 1.0, x[1] - 2.0]),
                    functional=lambda x: float(x[0])),
     [(0.5, 0.0), (-0.5, 0.0), (0.0, 1.0), (2.0, 5.0), (0.0, 0.0), (-3.0, 7.0)], None, {}),
    # infeasible starts, a start on the edge whose lower difference fails,
    # and steps that overshoot into the infeasible half-plane
    (sqrt_system(),
     [(-1.0, 0.0), (0.0, 1.0), (0.01, 0.0), (9.0, 1.0), (30.0, -4.0), (2.0, 2.0)], None, {}),
    # no root: damping stops every start but x = 0, where the Jacobian vanishes
    (ResidualSystem(1, lambda x: np.array([x[0] ** 2 + 1.0])),
     [(0.3,), (-2.0,), (5.0,), (0.0,)], SolverConfig(max_iterations=40), {}),
    (ResidualSystem(1, lambda x: np.array([math.exp(x[0])])),
     [(0.0,), (1.0,), (-3.0,)], SolverConfig(max_iterations=5), {}),
    # the double root converges linearly, so the steps shrink below TOL_STEP
    (ResidualSystem(1, lambda x: np.array([x[0] ** 2])),
     [(1.0,), (-3.0,), (0.5,)], None, {"TOL_STEP": 1e-3}),
    # the residual overflows at the first start, so its step is not finite
    (ResidualSystem(1, lambda x: np.array([1e300 * (x[0] - 2.0)])),
     [(1e10,), (3.0,)], None, {"HALVINGS": 3}),
    # a lone start stops before the damping: the stack is empty there
    (ResidualSystem(1, lambda x: np.array([x[0] ** 2 + 1.0])), [(0.0,)], None, {}),
    (sqrt_system(), [(0.0, 1.0)], None, {}),
    # an all-NaN residual is infeasible as a raised DomainError is: at the
    # start, and at the difference probes that cross into x0 > 1
    (ResidualSystem(2, lambda x: np.full(2, np.nan)), [(1.0, 2.0)], None, {}),
    (ResidualSystem(2, lambda x: np.full(2, np.nan) if x[0] > 1.0
                    else np.array([x[0] ** 2 - 2.0, x[1] - 1.0])),
     [(0.9, 0.0), (1 - 1e-8, 0.0), (1.5, 0.0)], None, {}),
]


def assert_same_report(got, expected):
    assert np.array_equal(got.root, expected.root)
    assert got.converged == expected.converged
    assert got.iterations == expected.iterations
    assert got.residual_norm == expected.residual_norm
    assert got.message == expected.message
    assert got.functional_value == expected.functional_value
    assert got.residual_norms == expected.residual_norms
    assert len(got.iterates) == len(expected.iterates)
    for a, b in zip(got.iterates, expected.iterates):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", range(len(LIFTED_CASES)))
def test_lockstep_matches_newton_start_by_start_on_lifted_systems(case, monkeypatch):
    system, starts, config, constants = LIFTED_CASES[case]
    for name, value in constants.items():
        monkeypatch.setattr(tsolver, name, value)
    assert system.stacked_residual is None
    with np.errstate(invalid="ignore", over="ignore"):
        reports = lockstep_solve(system, starts, config)
        expected = [newton_solve(system, guess, config) for guess in starts]
    assert len(reports) == len(starts)
    for got, want in zip(reports, expected):
        assert_same_report(got, want)


def test_newton_reports_a_functional_that_fails_at_the_root_as_lockstep_does():
    def functional(x):
        raise DomainError("no functional at this root")

    system = ResidualSystem(1, lambda x: np.array([x[0] - 1.0]), functional=functional)
    got, want = newton_solve(system, (3.0,)), lockstep_solve(system, [(3.0,)])[0]
    assert got.converged and math.isnan(got.functional_value)
    assert math.isnan(want.functional_value)   # NaN != NaN, so compared apart
    assert_same_report(dataclasses.replace(got, functional_value=None),
                       dataclasses.replace(want, functional_value=None))


def test_a_step_with_an_inf_but_no_nan_is_not_finite():
    # 1 / 1e-320 overflows: the step is -inf, with no NaN component
    system = ResidualSystem(1, lambda x: np.array([1.0]),
                            jacobian=lambda x: np.array([[1e-320]]))
    report = newton_solve(system, (0.0,))
    assert not report.converged
    assert report.message == "non-finite newton step"
    assert report.iterations == 0


def test_lifted_cases_reach_every_stop_reason(monkeypatch):
    reasons = set()
    with np.errstate(invalid="ignore", over="ignore"):
        for system, starts, config, constants in LIFTED_CASES:
            with monkeypatch.context() as patch:
                for name, value in constants.items():
                    patch.setattr(tsolver, name, value)
                reports = lockstep_solve(system, starts, config)
            reasons.update(r.message.split(":")[0] for r in reports)
    assert reasons == {
        "residual tolerance reached", "infeasible start", "jacobian failed",
        "singular jacobian", "non-finite newton step",
        "damping found no residual decrease", "iteration limit reached",
        "step below stagnation tolerance",
    }


def test_lockstep_results_do_not_depend_on_the_stack_size(monkeypatch):
    system = residual_system(FirmParams(), ProblemKind.NABLA_DELTA, EquationKind.TIMESCALE_EL2)
    grid = default_start_grid(2)[::5]
    whole = lockstep_solve(system, grid)
    monkeypatch.setattr(tsolver, "STACK_STARTS", 7)
    for got, expected in zip(lockstep_solve(system, grid), whole):
        assert_same_report(got, expected)


def test_a_sweep_keeps_each_stacks_path_as_the_lockstep_built_it(monkeypatch):
    # nothing is copied: the sweep's path entries are the arrays each stack's
    # lock-step returned
    system = residual_system(FirmParams(), ProblemKind.NABLA_DELTA, EquationKind.TIMESCALE_EL2)
    lockstep, built = tsolver._lockstep, []

    def recorded(*args):
        built.append(lockstep(*args))
        return built[-1]

    monkeypatch.setattr(tsolver, "STACK_STARTS", 2)
    monkeypatch.setattr(tsolver, "_lockstep", recorded)
    outs = list(tsolver._stacks(system, default_start_grid(2)[:4], SolverConfig()))
    assert len(built) == len(outs) == 2
    for stack, path in zip(built, (out.path for out in outs)):
        own = stack.path
        assert len(path) == len(own) > 1
        for entry, own_entry in zip(path, own):
            assert all(got is want for got, want in zip(entry, own_entry))


def test_a_sweep_reports_each_stack_before_the_next_runs(monkeypatch):
    # lockstep_solve builds a stack's reports before the next stack is solved,
    # so it holds one stack's path at a time; its reports equal, field by
    # field, those built from the stacks' outcomes multistart_solve reads
    system = residual_system(FirmParams(), ProblemKind.NABLA_DELTA, EquationKind.TIMESCALE_EL2)
    guesses = [(0.5, 0.5), (1.0, 1.0), (2.2, 2.4), (9.0, 0.5)]   # two converge, two are infeasible
    monkeypatch.setattr(tsolver, "STACK_STARTS", 2)
    outs = list(tsolver._stacks(system, guesses, SolverConfig()))
    want = tsolver._reports(system, outs, range(len(guesses)))
    order = []
    lockstep, reports = tsolver._lockstep, tsolver._reports

    def solved(*args):
        order.append("solve")
        return lockstep(*args)

    def reported(*args):
        order.append("report")
        return reports(*args)

    monkeypatch.setattr(tsolver, "_lockstep", solved)
    monkeypatch.setattr(tsolver, "_reports", reported)
    got = lockstep_solve(system, guesses)
    assert order == ["solve", "report", "solve", "report"]
    assert len(got) == len(want) == 4
    assert len({r.message.split(":")[0] for r in got}) > 1
    for g, w in zip(got, want):
        assert_same_report(g, w)


def test_lockstep_rejects_guesses_of_the_wrong_dimension():
    system, _ = affine_system()
    with pytest.raises(ValueError, match="dimension"):
        lockstep_solve(system, [(1.0, 2.0, 3.0)])
    assert lockstep_solve(system, []) == []


def test_newton_refuses_a_guess_or_a_residual_of_the_wrong_shape():
    system, _ = affine_system()
    with pytest.raises(ValueError, match=r"^guess has shape \(3,\), system dimension is 2$"):
        newton_solve(system, (1.0, 2.0, 3.0))
    short = ResidualSystem(2, lambda x: np.array([x[0]]))
    with pytest.raises(ValueError, match="^residual shape does not match the system dimension$"):
        newton_solve(short, (1.0, 2.0))


@pytest.mark.parametrize("shape", [(2, 3), (2,)])
def test_newton_refuses_a_jacobian_of_the_wrong_shape(shape):
    # np.linalg.solve raises LinAlgError on these, which read as singular
    system, _ = affine_system()
    wide = dataclasses.replace(system, jacobian=lambda x: np.ones(shape))
    text = f"jacobian has shape {shape}, system dimension is 2"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        newton_solve(wide, (1.0, 2.0))


def test_newton_refuses_a_trial_residual_of_the_wrong_shape():
    # right at the start only: the trial's residual decreases, and the next
    # step's solve would fail on its shape in numpy's own words
    def residual(x):
        r = np.array([x[0] - 1.0, x[1] - 2.0])
        return r if x[0] == 0.0 else np.append(r, 0.5)

    system = ResidualSystem(2, residual, jacobian=lambda x: np.eye(2))
    with pytest.raises(ValueError, match="^residual shape does not match the system dimension$"):
        newton_solve(system, (0.0, 0.0))


def test_lockstep_refuses_a_residual_of_the_wrong_shape():
    # a stacked residual is checked on the whole stack, a lifted scalar one
    # row by row
    system, _ = affine_system()
    stacked = dataclasses.replace(system, stacked_residual=lambda xs: xs[:, :1])
    short = ResidualSystem(2, lambda x: np.array([x[0]]))
    for bad in (stacked, short):
        with pytest.raises(ValueError, match="^residual shape does not match the system"):
            lockstep_solve(bad, [(1.0, 2.0)])


def test_a_start_a_trial_and_a_lifted_row_read_the_residual_through_one_check(monkeypatch):
    # arctan's full Newton step from 3 lands near -9.5 and its half step near
    # -3.2, so the first step takes its quarter, near -0.1; each scalar call
    # of a feasible solve is one checked read
    calls = []
    system = ResidualSystem(1, lambda x: calls.append("residual") or np.arctan(x))
    exact = dataclasses.replace(system, jacobian=lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]]))
    checked = tsolver._residual_at
    monkeypatch.setattr(tsolver, "_residual_at",
                        lambda s, x: calls.append("checked") or checked(s, x))
    for solve in (newton_solve, lambda s, g: lockstep_solve(s, [g])[0]):
        for used in (system, exact):
            calls.clear()
            report = solve(used, (3.0,))
            assert report.converged and abs(report.iterates[1][0]) < 1.0
            assert calls == ["checked", "residual"] * (len(calls) // 2) and calls


@pytest.mark.parametrize("fails", ["raises", "nan"])
def test_an_infeasible_newton_start_names_its_error_as_the_lock_step_does(fails):
    def residual(x):
        if x[0] < 0.0:
            if fails == "raises":
                raise DomainError("below zero")
            return np.full(2, np.nan)
        return x - 1.0

    system = ResidualSystem(2, residual)
    report = newton_solve(system, (-1.0, 2.0))
    text = "below zero" if fails == "raises" else "residual is not finite"
    assert report.message == f"infeasible start: {text}"
    assert report.iterations == 0 and report.residual_norm == math.inf
    assert_same_report(report, lockstep_solve(system, [(-1.0, 2.0)])[0])


def test_a_start_whose_residual_is_nan_without_raising_is_infeasible():
    # the lifted residual marks the start infeasible by its NaN row, and the
    # scalar call, which raises nothing, gives no DomainError text to name
    system = ResidualSystem(2, lambda x: np.full(2, np.nan))
    report, = lockstep_solve(system, [(1.0, 2.0)])
    assert report.message == "infeasible start: residual is not finite"
    assert not report.converged and report.iterations == 0


@pytest.mark.parametrize("rate", [0.05, 0.02])
def test_lockstep_multistart_finds_the_per_start_root_set(rate):
    # start by start, the lock-step sweep reports what newton_solve reports:
    # both take difference Jacobians here, and the stacked residual equals
    # the scalar one bit for bit.  With the analytic Jacobian, newton_solve
    # reaches a different root set from this grid (see the analytic-Jacobian
    # tests)
    params = FirmParams(discount_rate=rate)
    grid = default_start_grid(2)
    for kind in ProblemKind:
        equations = EquationKind if kind.is_mixed else (EquationKind.DIRECT,)
        for equation in equations:
            system = dataclasses.replace(residual_system(params, kind, equation), jacobian=None)
            for got, want in zip(lockstep_solve(system, grid),
                                 [newton_solve(system, g) for g in grid], strict=True):
                assert_same_report(got, want)


# ---------------------------------------------------------------------------
# the firm systems from their seeds


FIRM_SYSTEMS = [(kind, equation) for kind in ProblemKind
                for equation in (EquationKind if kind.is_mixed else (EquationKind.DIRECT,))]


def column_loop(system):
    return dataclasses.replace(system, stacked_residual=None)


def linear_seed(params):
    a, b, m = params.y_initial, params.y_terminal, params.horizon - 1
    return np.array([a + (b - a) * j / (m + 1) for j in range(1, m + 1)])


def counted(system):
    """The system, and a dict counting its scalar calls and stacked rows."""
    counts = {"scalar": 0, "stacked calls": 0, "stacked rows": 0}

    def residual(x):
        counts["scalar"] += 1
        return system.residual(x)

    def stacked_residual(xs):
        counts["stacked calls"] += 1
        counts["stacked rows"] += len(xs)
        return system.stacked_residual(xs)

    if system.stacked_residual is None:
        stacked_residual = None
    return dataclasses.replace(system, residual=residual,
                               stacked_residual=stacked_residual), counts


def test_long_horizon_solves_match_the_column_loop():
    # every T=10 and T=20 cell from the linear seed, with difference
    # Jacobians, with and without the stacked damping: the same stop reason
    # and iteration count, and converged cells reach the same root and
    # functional
    for horizon in (10, 20):
        params = FirmParams(horizon=horizon)
        seed = linear_seed(params)
        for kind, equation in FIRM_SYSTEMS:
            system = dataclasses.replace(residual_system(params, kind, equation), jacobian=None)
            got = newton_solve(system, seed)
            expected = newton_solve(column_loop(system), seed)
            assert got.message == expected.message, system.label
            assert got.converged == expected.converged, system.label
            assert got.iterations == expected.iterations, system.label
            if expected.converged:
                assert float(np.max(np.abs(got.root - expected.root))) <= 1e-10
                assert abs(got.functional_value - expected.functional_value) <= 1e-10


# ---------------------------------------------------------------------------
# the firm systems' analytic Jacobian in the one-start solver


def published_and_linear_starts():
    """Every table cell from its published seed at rho 0.05 and 0.02, and every
    cell at T = 10 and 20 from the linear seed, as (params, kind, equation, start)."""
    for rate in (0.05, 0.02):
        params = FirmParams(discount_rate=rate)
        for (kind, equation), seed in CELL_SEEDS.items():
            yield params, kind, equation, np.array(seed)
    for horizon in (10, 20):
        params = FirmParams(horizon=horizon)
        for kind, equation in FIRM_SYSTEMS:
            yield params, kind, equation, linear_seed(params)


# (horizon, rate, system): (iterations with difference Jacobians, with the
# analytic one); every other solve takes the same number of iterations
ITERATION_MOVES = {(20, 0.05, "dd/direct"): (32, 33)}


def test_analytic_jacobian_solves_match_the_difference_solves():
    moves = {}
    for params, kind, equation, start in published_and_linear_starts():
        system = residual_system(params, kind, equation)
        got = newton_solve(system, start)
        expected = newton_solve(dataclasses.replace(system, jacobian=None), start)
        label = (params.horizon, params.discount_rate, system.label)
        assert got.message == expected.message, label
        assert got.converged == expected.converged, label
        if expected.converged:
            assert float(np.max(np.abs(got.root - expected.root))) <= 1e-10, label
            gap = abs(got.functional_value - expected.functional_value)
            assert gap <= 1e-10 * max(1.0, abs(expected.functional_value)), label
        if got.iterations != expected.iterations:
            moves[label] = (expected.iterations, got.iterations)
    assert moves == ITERATION_MOVES


def test_newton_takes_the_systems_jacobian_and_differences_without_one(monkeypatch):
    system, solution = affine_system()
    calls = []

    def jacobian(x):
        calls.append(x.copy())
        return np.array([[2.0, 1.0], [1.0, 3.0]])

    def refused(*args):
        raise AssertionError("difference Jacobian taken for a system that has one")

    with monkeypatch.context() as patch:
        patch.setattr(tsolver, "fd_jacobian", refused)
        report = newton_solve(dataclasses.replace(system, jacobian=jacobian), (0.0, 0.0))
    assert report.converged and len(calls) == report.iterations >= 1
    assert_allclose(report.root, solution, rtol=1e-12)
    differences, taken = tsolver.fd_jacobian, []

    def counted_differences(*args):
        taken.append(args[1].copy())
        return differences(*args)

    with monkeypatch.context() as patch:
        patch.setattr(tsolver, "fd_jacobian", counted_differences)
        report = newton_solve(system, (0.0, 0.0))
    assert report.converged and len(taken) == report.iterations >= 1


def test_a_failing_jacobian_stops_the_solve_with_its_reason():
    def jacobian(x):
        raise DomainError("jacobian is not finite at this state")

    system, _ = affine_system()
    report = newton_solve(dataclasses.replace(system, jacobian=jacobian), (0.0, 0.0))
    assert not report.converged and report.iterations == 0
    assert report.message == "jacobian failed: jacobian is not finite at this state"


# ---------------------------------------------------------------------------
# stacked damping in the one-start solver


def steep_system():
    """Newton overshoots far from (1, -0.5); trials with x0 < -20 are infeasible."""
    def residual(x):
        if x[0] < -20.0:
            raise DomainError(f"x0 = {x[0]} below -20")
        return np.array([math.atan(x[0] - 1.0) + 0.01 * x[1], math.atan(x[1] + 0.5)])

    plain = ResidualSystem(2, residual)
    return dataclasses.replace(plain, stacked_residual=tsolver._lift_residual(plain))


# (26, 5), (14, -2) and (17, 40) alternate deep and shallow damping levels
STEEP_STARTS = [(50.0, -40.0), (-15.0, 60.0), (5.0, 5.0), (0.9, -0.4), (-30.0, 0.0),
                (300.0, 2.0), (2.0, 400.0), (26.0, 5.0), (14.0, -2.0), (17.0, 40.0)]


def logged(system):
    """The system, and a log of its calls in order: ("scalar", 1, failed) and
    ("stacked", rows, failed), failed when the call raised DomainError or
    returned a NaN row."""
    log = []

    def residual(x):
        try:
            r = system.residual(x)
        except DomainError:
            log.append(("scalar", 1, True))
            raise
        log.append(("scalar", 1, False))
        return r

    def stacked_residual(xs):
        rows = system.stacked_residual(xs)
        log.append(("stacked", len(xs), bool(np.isnan(rows).any())))
        return rows

    return dataclasses.replace(system, residual=residual,
                               stacked_residual=stacked_residual), log


def damping_trace(monkeypatch, system, start, config):
    """The report of newton_solve, and what its damping did at each iteration.

    Per iteration: the residual calls after the Jacobian, "scalar" or
    "stacked", and the block search as (first level, level taken, taken),
    None when the scalar trials took a step.
    """
    tracked, log = logged(system)
    first_decrease = tsolver._first_decrease

    def marked(jacobian):
        def call(*args):
            calls = len(log)
            try:
                return jacobian(*args)
            finally:
                del log[calls:]   # the Jacobian's own residual calls
                log.append(("jacobian",))

        return call

    if tracked.jacobian is not None:
        tracked = dataclasses.replace(tracked, jacobian=marked(tracked.jacobian))

    def marked_search(residual, x, step, base, level, levels, window):
        rows = first_decrease(residual, x, step, base, level, levels, window)
        log.append(("search", level, int(rows[3][0]), bool(rows[4][0])))
        return rows

    with monkeypatch.context() as patch:
        patch.setattr(tsolver, "fd_jacobian", marked(tsolver.fd_jacobian))
        patch.setattr(tsolver, "_first_decrease", marked_search)
        report = newton_solve(tracked, start, config)
    iterations = []
    for entry in log[1:]:   # after the residual at the start
        if entry[0] == "jacobian":
            iterations.append({"calls": [], "search": None})
        elif entry[0] == "search":
            iterations[-1]["search"] = entry[1:]
        else:
            iterations[-1]["calls"].append(entry[0])
    return report, iterations


def deep_steps(iterations):
    """Whether each iteration took a damping level past the scalar ones."""
    return [it["search"] is not None and it["search"][2] and
            it["search"][1] >= tsolver.SCALAR_LEVELS for it in iterations]


def assert_scalar_levels_skipped_after_deep_steps(iterations):
    for before, it in zip(deep_steps(iterations), iterations[1:]):
        if before:
            # the whole search is stacked, from the full step on
            assert "scalar" not in it["calls"]
            assert it["search"] is None or it["search"][0] == 0
        else:
            assert it["calls"][:1] == ["scalar"]
            assert it["search"] is None or it["search"][0] == tsolver.SCALAR_LEVELS


@pytest.mark.parametrize("halvings", [0, 1, 2, 3, tsolver.HALVINGS])
def test_stacked_damping_matches_the_scalar_loop(monkeypatch, halvings):
    # the 2-D system keeps the scalar residual's probes, so every stacked call
    # is a damping trial; its row loop is bit-identical to the scalar call
    monkeypatch.setattr(tsolver, "HALVINGS", halvings)
    system, log = logged(steep_system())
    reasons = set()
    lockstep = lockstep_solve(steep_system(), STEEP_STARTS)
    for start, together in zip(STEEP_STARTS, lockstep):
        got = newton_solve(system, start)
        expected = newton_solve(column_loop(system), start)
        assert_same_report(got, expected)
        assert_same_report(together, expected)
        reasons.add(got.message.split(":")[0])
    stacked = [failed for kind, _, failed in log if kind == "stacked"]
    assert any(failed for kind, _, failed in log if kind == "scalar")
    if halvings < tsolver.SCALAR_LEVELS:
        assert not stacked
    else:
        assert any(stacked)   # infeasible trials inside a stacked call
    if halvings > 3:
        assert reasons == {"residual tolerance reached", "infeasible start",
                           "iteration limit reached"}
        for start in STEEP_STARTS[-3:]:
            _, iterations = damping_trace(monkeypatch, steep_system(), start, None)
            deep = "".join("d" if d else "s" for d in deep_steps(iterations))
            assert "dsd" in deep   # deep, shallow after a deep one, deep again
            assert_scalar_levels_skipped_after_deep_steps(iterations)


def test_stalled_long_horizon_cell_keeps_its_damping_budget(monkeypatch):
    # dn/el2 at T=20 stalls from the linear seed after many deep halvings;
    # each iteration makes one Jacobian call, at most SCALAR_LEVELS scalar
    # trials and at most one stacked call for the remaining levels, and none
    # of the scalar trials once the iteration before it went deep
    params = FirmParams(horizon=20)
    system = residual_system(params, ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL2)
    config = SolverConfig()
    got, iterations = damping_trace(monkeypatch, system, linear_seed(params), config)
    expected = newton_solve(column_loop(system), linear_seed(params), config)
    assert (got.iterations, got.message) == (expected.iterations, expected.message)
    assert got.message == "damping found no residual decrease"

    assert len(iterations) == got.iterations + 1   # the last one found no step
    for it in iterations:
        assert it["calls"].count("scalar") <= tsolver.SCALAR_LEVELS
        assert it["calls"].count("stacked") <= 1
    assert sum(it["calls"].count("stacked") for it in iterations) >= 10
    assert_scalar_levels_skipped_after_deep_steps(iterations)
    assert sum(deep_steps(iterations)) >= 10


def test_damping_tries_each_level_at_most_once_per_iteration():
    # the last iteration finds no decrease, so it tries all HALVINGS + 1 levels
    plain = ResidualSystem(1, lambda x: np.array([x[0] ** 2 + 1.0]))   # no root
    stacked = dataclasses.replace(plain, stacked_residual=tsolver._lift_residual(plain))
    for system in (plain, stacked):
        tracked, counts = counted(system)
        report = newton_solve(tracked, (0.3,))
        assert report.message == "damping found no residual decrease"
        # per iteration: the Jacobian (2 calls) and at most every level once
        bound = 1 + (report.iterations + 1) * (2 + tsolver.HALVINGS + 1)
        assert tsolver.HALVINGS + 1 < counts["scalar"] + counts["stacked rows"] <= bound



def test_a_system_without_read_forms_damps_on_its_scalar_residual():
    # on Z from 0 to 6, delta y^4/4 + v^2 and nabla y^2 + v^4/4 have no array
    # read form, so the problem's system offers no stacked residual and
    # newton_solve stops at the first decreasing level; a lift of its residual
    # gives the same reports from every deeper halving, one state at a time
    scale = TimeScale.integer_range(0, 6)
    f = Integrand("delta", lambda t, y, v: y ** 4 / 4 + v * v, lambda t, y, v: y ** 3,
                  lambda t, y, v: 2 * v, lambda t, y, v: 3 * y * y, lambda t, y, v: 0.0,
                  lambda t, y, v: 2.0)
    g = Integrand("nabla", lambda t, y, v: y * y + v ** 4 / 4, lambda t, y, v: 2 * y,
                  lambda t, y, v: v ** 3, lambda t, y, v: 2.0, lambda t, y, v: 0.0,
                  lambda t, y, v: 3 * v * v)
    problem = CompositeProblem(scale, (f,), (g,), sum_outer(2), (1.0, 2.0))
    system = problem_system(problem, "cores", scale.interior_domain)
    assert system.stacked_residual is None and system.jacobian is not None
    lifted = dataclasses.replace(system, stacked_residual=tsolver._lift_residual(system))
    # start: (scalar residual calls, those of the lift: scalar calls and stacked rows)
    calls = {(5.0, 5.0, 5.0, 5.0, 5.0): (442, 683),
             (-4.0, 6.0, -3.0, 7.0, 2.0): (40, 203),
             (10.0, -10.0, 10.0, -10.0, 10.0): (52, 295)}
    for start, (scalar, lift) in calls.items():
        tracked, counts = counted(system)
        tracked_lift, lift_counts = counted(lifted)
        assert_same_report(newton_solve(tracked, start), newton_solve(tracked_lift, start))
        assert counts["scalar"] == scalar
        assert lift_counts["scalar"] + lift_counts["stacked rows"] == lift

def lockstep_searches(monkeypatch, system, starts):
    """The reports of lockstep_solve, and per iteration its damping search as
    (first windows, levels taken, which starts took one, residual calls)."""
    searches = []
    first_decrease = tsolver._first_decrease

    def marked_search(residual, x, step, base, level, levels, window):
        calls = []

        def counted_residual(xs):
            calls.append(len(xs))
            return residual(xs)

        rows = first_decrease(counted_residual, x, step, base, level, levels, window)
        searches.append((np.broadcast_to(window, len(x)), rows[3], rows[4], len(calls)))
        return rows

    with monkeypatch.context() as patch:
        patch.setattr(tsolver, "_first_decrease", marked_search)
        reports = lockstep_solve(system, starts)
    return reports, searches


def test_lockstep_damping_starts_from_the_last_level(monkeypatch):
    # nd/el1 at rho = 0.05: many starts crawl at deep levels until the
    # iteration cap
    system = residual_system(FirmParams(), ProblemKind.NABLA_DELTA, EquationKind.TIMESCALE_EL1)
    reports, searches = lockstep_searches(monkeypatch, system, default_start_grid(2))
    # one start alone: the full step alone at first and after a full step,
    # levels 0 .. 2L+1 after a step at level L >= 1
    crawlers = [tuple(r.iterates[0]) for r in reports if r.iterations >= 50][:3]
    assert len(crawlers) == 3
    for start in crawlers:
        _, alone = lockstep_searches(monkeypatch, system, [start])
        assert len(alone) >= 50 and alone[0][0][0] == 1
        for (_, level, accepted, _), (window, *_) in zip(alone, alone[1:]):
            assert accepted[0]
            assert window[0] == (1 if level[0] == 0 else 2 * level[0] + 2)
    # an iteration whose starts all took a halving last time and all find a
    # decrease inside their windows makes exactly one damping call
    inside = [calls for window, level, accepted, calls in searches
              if (window > 1).all() and accepted.all() and (level < window).all()]
    assert len(inside) >= 10
    assert inside == [1] * len(inside)


# ---------------------------------------------------------------------------
# what multistart builds of the lock-step reports


def merged_roots(reports, tol=1e-6):
    """multistart_solve's merge of the converged reports, as a plain loop: in
    root order, each goes to the first kept root within tol, the smaller
    residual survives, and the survivors are ordered by (functional, root)."""
    distinct = []
    for rep in sorted((r for r in reports if r.converged), key=lambda r: tuple(r.root)):
        for i, kept in enumerate(distinct):
            if float(np.max(np.abs(rep.root - kept.root))) <= tol:
                if rep.residual_norm < kept.residual_norm:
                    distinct[i] = rep
                break
        else:
            distinct.append(rep)
    return sorted(distinct, key=lambda r: (r.functional_value, tuple(r.root)))


@pytest.mark.parametrize("rate", [0.05, 0.02])
def test_multistart_returns_the_merged_lockstep_reports(rate):
    grid = default_start_grid(2)
    for kind, equation in FIRM_SYSTEMS:
        system = residual_system(FirmParams(discount_rate=rate), kind, equation)
        expected = merged_roots(lockstep_solve(system, grid))
        got = multistart_solve(system, grid)
        assert len(got) == len(expected), system.label
        for ours, theirs in zip(got, expected):
            assert_same_report(ours, theirs)


def test_multistart_makes_no_scalar_call_on_a_stacked_system():
    # the grid has infeasible starts (on the pole y = y_floor) and starts
    # whose difference Jacobian fails; their failure texts are not built,
    # and the functional is evaluated once at each returned root only
    def refused(*args):
        raise AssertionError("scalar call from multistart_solve")

    for kind, equation in FIRM_SYSTEMS:
        system, counts = counted(residual_system(FirmParams(), kind, equation))
        sizes, evaluated = [], []

        def stacked_residual(xs, inner=system.stacked_residual):
            sizes.append(len(xs))
            return inner(xs)

        def functional(x, inner=system.functional):
            evaluated.append(tuple(x))
            return inner(x)

        system = dataclasses.replace(system, functional=functional, jacobian=refused,
                                     stacked_residual=stacked_residual)
        reports = multistart_solve(system, default_start_grid(2))
        assert reports, system.label
        assert counts["scalar"] == 0, system.label
        assert min(sizes) > 0, system.label   # no call once every start stopped
        assert sorted(evaluated) == sorted(tuple(r.root) for r in reports), system.label
    reports = lockstep_solve(residual_system(FirmParams(), *FIRM_SYSTEMS[0]), default_start_grid(2))
    assert any(r.message.startswith("infeasible start: ") for r in reports)


@pytest.mark.parametrize("rate", [0.05, 0.02])
def test_sweep_functionals_are_the_scalar_functional_at_each_root(rate):
    grid = default_start_grid(2)
    for kind, equation in FIRM_SYSTEMS:
        system = residual_system(FirmParams(discount_rate=rate), kind, equation)
        together = lockstep_solve(system, grid)
        assert all(r.functional_value is None for r in together if not r.converged)
        reports = [r for r in together if r.converged] + multistart_solve(system, grid)
        assert reports, system.label
        for report in reports:
            assert report.functional_value == system.functional(report.root), system.label


@pytest.mark.parametrize("stack", [1, tsolver.STACK_STARTS])
def test_a_sweep_that_converges_nowhere_returns_its_first_start(stack, monkeypatch):
    # damping stops both starts; with stacks of one start the report comes
    # from a sweep of two stacks
    system = residual_system(FirmParams(), ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL2)
    guesses = [(4.0, 1.5), (4.0, 2.0)]
    want = lockstep_solve(system, guesses)[0]
    monkeypatch.setattr(tsolver, "STACK_STARTS", stack)
    [got] = multistart_solve(system, guesses)
    assert not got.converged and got.iterations == 20
    assert_same_report(got, want)
    assert multistart_solve(system, []) == []


def test_multistart_logs_the_exact_failure_count(monkeypatch, caplog):
    system = residual_system(FirmParams(), ProblemKind.NABLA_DELTA, EquationKind.TIMESCALE_EL1)
    grid = default_start_grid(2)
    failed = sum(not r.converged for r in lockstep_solve(system, grid))
    assert 0 < failed < len(grid)
    whole = multistart_solve(system, grid)
    monkeypatch.setattr(tsolver, "STACK_STARTS", 100)   # three stacks
    with caplog.at_level(logging.DEBUG, logger="tsvar.solver"):
        stacked = multistart_solve(system, grid)
        multistart_solve(*affine_system()[:1], [(0.0, 0.0), (1.0, 1.0)])   # none failed
    assert caplog.messages == [f"nd/el1: {failed} of {len(grid)} starts failed to converge"]
    assert len(stacked) == len(whole)
    for got, expected in zip(stacked, whole):
        assert_same_report(got, expected)


@st.composite
def damping_searches(draw):
    """A stack of Newton steps with a window per row, a level range and a
    residual that is NaN (infeasible) on a band of trial states."""
    count = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    coords = st.floats(-4.0, 4.0)
    x = np.array(draw(st.lists(st.lists(coords, min_size=m, max_size=m),
                               min_size=count, max_size=count)))
    step = np.array(draw(st.lists(st.lists(coords, min_size=m, max_size=m),
                                  min_size=count, max_size=count)))
    base = np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=count, max_size=count)))
    window = np.array(draw(st.lists(st.integers(1, 40), min_size=count, max_size=count)))
    level = draw(st.integers(0, 40))
    levels = draw(st.integers(level + 1, level + 80))
    centre = np.array(draw(st.lists(coords, min_size=m, max_size=m)))
    band = draw(st.floats(-1.0, 1.1))   # above 1: no NaN row

    def residual(xs):
        rows = np.abs(xs - centre)
        rows[np.sin(7.0 * xs[:, 0]) > band] = np.nan
        return rows

    return residual, x, step, base, level, levels, window


@given(damping_searches())
def test_ragged_damping_search_takes_each_rows_first_decreasing_level(case):
    residual, x, step, base, level, levels, window = case
    trial, trial_res, trial_norm, taken, accepted = tsolver._first_decrease(
        residual, x, step, base, level, levels, window)
    for i in range(len(x)):
        for k in range(level, levels):
            cand = x[i] + 0.5 ** k * step[i]
            res = residual(cand[None])[0]
            if float(np.abs(res).max()) < base[i]:   # False on a NaN row
                assert accepted[i] and taken[i] == k
                assert np.array_equal(trial[i], cand) and np.array_equal(trial_res[i], res)
                assert trial_norm[i] == np.abs(res).max()
                break
        else:
            assert not accepted[i]
