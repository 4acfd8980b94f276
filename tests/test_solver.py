"""Tests for the damped Newton solver and the multistart driver."""

import dataclasses
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tsvar import solver as tsolver
from tsvar import (
    MAX_STARTS,
    DomainError,
    EquationKind,
    FirmParams,
    ProblemKind,
    ResidualSystem,
    SolverConfig,
    default_start_grid,
    fd_jacobian,
    lockstep_solve,
    multistart_solve,
    newton_solve,
    residual_system,
)


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
        SolverConfig(fd_step=-1e-7)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(max_halvings=-1)
    for name in ("tol_residual", "tol_step", "fd_step"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(**{name: value})


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


def test_domain_error_during_jacobian_names_the_coordinate():
    def residual(x):
        if x[1] < 1.0:
            raise DomainError("out of range")
        return np.array([x[0], x[1] - 2.0])

    system = ResidualSystem(2, residual)
    with pytest.raises(DomainError, match="coordinate 1"):
        fd_jacobian(system, np.array([0.0, 1.0]), step=1e-3)


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
    # (system, starts, config)
    (affine_system()[0], [(0.0, 0.0), (1.0, 1.0), (5.0, -3.0), (1.0, 3.0)], None),
    # x0 = 0 makes the difference Jacobian exactly singular
    (ResidualSystem(2, lambda x: np.array([x[0] ** 2 - 1.0, x[1] - 2.0]),
                    functional=lambda x: float(x[0])),
     [(0.5, 0.0), (-0.5, 0.0), (0.0, 1.0), (2.0, 5.0), (0.0, 0.0), (-3.0, 7.0)], None),
    # infeasible starts, a start on the edge whose lower difference fails,
    # and steps that overshoot into the infeasible half-plane
    (sqrt_system(),
     [(-1.0, 0.0), (0.0, 1.0), (0.01, 0.0), (9.0, 1.0), (30.0, -4.0), (2.0, 2.0)], None),
    # no root: damping stops every start but x = 0, where the Jacobian vanishes
    (ResidualSystem(1, lambda x: np.array([x[0] ** 2 + 1.0])),
     [(0.3,), (-2.0,), (5.0,), (0.0,)], SolverConfig(max_iterations=40)),
    (ResidualSystem(1, lambda x: np.array([math.exp(x[0])])),
     [(0.0,), (1.0,), (-3.0,)], SolverConfig(max_iterations=5)),
    # the double root converges linearly, so the steps shrink below tol_step
    (ResidualSystem(1, lambda x: np.array([x[0] ** 2])),
     [(1.0,), (-3.0,), (0.5,)], SolverConfig(tol_step=1e-3)),
    # the residual overflows at the first start, so its step is not finite
    (ResidualSystem(1, lambda x: np.array([1e300 * (x[0] - 2.0)])),
     [(1e10,), (3.0,)], SolverConfig(max_halvings=3)),
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
def test_lockstep_matches_newton_start_by_start_on_lifted_systems(case):
    system, starts, config = LIFTED_CASES[case]
    assert system.stacked_residual is None
    with np.errstate(invalid="ignore", over="ignore"):
        reports = lockstep_solve(system, starts, config)
        expected = [newton_solve(system, guess, config) for guess in starts]
    assert len(reports) == len(starts)
    for got, want in zip(reports, expected):
        assert_same_report(got, want)


def test_lifted_cases_reach_every_stop_reason():
    reasons = set()
    with np.errstate(invalid="ignore", over="ignore"):
        for system, starts, config in LIFTED_CASES:
            reasons.update(r.message.split(":")[0] for r in lockstep_solve(system, starts, config))
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


def test_lockstep_rejects_guesses_of_the_wrong_dimension():
    system, _ = affine_system()
    with pytest.raises(ValueError, match="dimension"):
        lockstep_solve(system, [(1.0, 2.0, 3.0)])
    assert lockstep_solve(system, []) == []


def distinct_roots(reports, tol=1e-6):
    roots = []
    for rep in sorted((r for r in reports if r.converged), key=lambda r: tuple(r.root)):
        if not any(float(np.max(np.abs(rep.root - kept))) <= tol for kept in roots):
            roots.append(rep.root)
    return roots


@pytest.mark.parametrize("rate", [0.05, 0.02])
def test_lockstep_multistart_finds_the_per_start_root_set(rate):
    # per-start equality is not asserted for the firm systems: the stacked
    # residual may differ from the scalar one in the last bit, which can
    # flip a start that sits on a basin boundary
    params = FirmParams(discount_rate=rate)
    grid = default_start_grid(2)
    for kind in ProblemKind:
        equations = EquationKind if kind.is_mixed else (EquationKind.DIRECT,)
        for equation in equations:
            system = residual_system(params, kind, equation)
            lockstep = [r.root for r in multistart_solve(system, grid)]
            per_start = distinct_roots([newton_solve(system, g) for g in grid])
            assert len(lockstep) == len(per_start), system.label
            for ours, theirs in ((lockstep, per_start), (per_start, lockstep)):
                for root in ours:
                    gap = min(float(np.max(np.abs(root - other))) for other in theirs)
                    assert gap <= 1e-9, f"{system.label}: root {root} unmatched ({gap:.1e})"


# ---------------------------------------------------------------------------
# one stacked residual call per finite-difference Jacobian


FIRM_SYSTEMS = [(kind, equation) for kind in ProblemKind
                for equation in (EquationKind if kind.is_mixed else (EquationKind.DIRECT,))]


def column_loop(system):
    return dataclasses.replace(system, stacked_residual=None)


def linear_seed(params):
    a, b, m = params.y_initial, params.y_terminal, params.horizon - 1
    return np.array([a + (b - a) * j / (m + 1) for j in range(1, m + 1)])


@pytest.mark.parametrize("horizon", [4, 10, 20])
def test_one_call_jacobian_matches_the_column_loop_on_firm_systems(horizon):
    params = FirmParams(horizon=horizon)
    rng = np.random.default_rng(300 + horizon)
    for kind, equation in FIRM_SYSTEMS:
        system = residual_system(params, kind, equation)
        for _ in range(5):
            x = linear_seed(params) + rng.uniform(-0.3, 0.3, horizon - 1)
            expected = fd_jacobian(column_loop(system), x)
            gap = float(np.max(np.abs(fd_jacobian(system, x) - expected)))
            assert gap <= 1e-8 * float(np.max(np.abs(expected))), system.label


def guarded_cubic(dimension):
    """A coupled system defined for x0 >= 1 only, with a row-loop stacked form."""
    def residual(x):
        if x[0] < 1.0:
            raise DomainError(f"x0 = {x[0]} below 1")
        return np.array([x[j] ** 3 - x[j - 1] * math.sqrt(x[0]) for j in range(dimension)])

    plain = ResidualSystem(dimension, residual)
    return dataclasses.replace(plain, stacked_residual=tsolver._lift_residual(plain))


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


def test_one_call_jacobian_is_bit_identical_on_a_row_loop_system():
    system = guarded_cubic(3)
    x = np.array([1.7, -0.4, 2.9])
    tracked, counts = counted(system)
    assert np.array_equal(fd_jacobian(tracked, x), fd_jacobian(column_loop(system), x))
    assert counts == {"scalar": 0, "stacked calls": 1, "stacked rows": 6}


def test_jacobians_below_the_threshold_keep_the_column_loop():
    assert tsolver.STACKED_JACOBIAN_DIMENSION == 3
    tracked, counts = counted(guarded_cubic(2))
    fd_jacobian(tracked, np.array([1.7, -0.4]))
    assert counts == {"scalar": 4, "stacked calls": 0, "stacked rows": 0}


def test_one_call_jacobian_raises_the_column_loops_domain_error():
    system = guarded_cubic(3)
    x = np.array([1.0, 2.0, 3.0])   # the lower probe of coordinate 0 leaves x0 >= 1
    with pytest.raises(DomainError) as expected:
        fd_jacobian(column_loop(system), x, step=1e-3)
    assert "perturbing coordinate 0" in str(expected.value)
    with pytest.raises(DomainError) as got:
        fd_jacobian(system, x, step=1e-3)
    assert str(got.value) == str(expected.value)


def test_one_call_jacobian_does_not_depend_on_the_chunk_size(monkeypatch):
    cases = [
        (residual_system(FirmParams(horizon=20), ProblemKind.DELTA_NABLA,
                         EquationKind.TIMESCALE_EL2), linear_seed(FirmParams(horizon=20))),
        (guarded_cubic(7), np.linspace(1.5, 3.0, 7)),
    ]
    whole = [fd_jacobian(system, x) for system, x in cases]
    monkeypatch.setattr(tsolver, "STACK_STARTS", 5)
    for (system, x), expected in zip(cases, whole):
        tracked, counts = counted(system)
        assert np.array_equal(fd_jacobian(tracked, x), expected)
        assert counts["stacked calls"] == -(-2 * system.dimension // 5)
        assert counts["scalar"] == 0


def test_long_horizon_solves_match_the_column_loop():
    # every T=10 and T=20 cell from the linear seed: the same stop reason and
    # iteration count, and converged cells reach the same root and functional
    for horizon in (10, 20):
        params = FirmParams(horizon=horizon)
        seed = linear_seed(params)
        for kind, equation in FIRM_SYSTEMS:
            system = residual_system(params, kind, equation)
            got = newton_solve(system, seed)
            expected = newton_solve(column_loop(system), seed)
            assert got.message == expected.message, system.label
            assert got.converged == expected.converged, system.label
            assert got.iterations == expected.iterations, system.label
            if expected.converged:
                assert float(np.max(np.abs(got.root - expected.root))) <= 1e-10
                assert abs(got.functional_value - expected.functional_value) <= 1e-10


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
    jacobian, first_decrease = tsolver.fd_jacobian, tsolver._first_decrease

    def marked_jacobian(*args):
        calls = len(log)
        try:
            return jacobian(*args)
        finally:
            del log[calls:]   # the Jacobian's own residual calls
            log.append(("jacobian",))

    def marked_search(residual, x, step, base, level, levels, window):
        rows = first_decrease(residual, x, step, base, level, levels, window)
        log.append(("search", level, int(rows[3][0]), bool(rows[4][0])))
        return rows

    with monkeypatch.context() as patch:
        patch.setattr(tsolver, "fd_jacobian", marked_jacobian)
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


@pytest.mark.parametrize("block", [32, 5])
@pytest.mark.parametrize("max_halvings", [0, 1, 2, 3, 40])
def test_stacked_damping_matches_the_scalar_loop(monkeypatch, block, max_halvings):
    # the 2-D system keeps the column-loop Jacobian, so every stacked call
    # is a damping trial; its row loop is bit-identical to the scalar call
    monkeypatch.setattr(tsolver, "HALVING_BLOCK", block)
    system, log = logged(steep_system())
    config = SolverConfig(max_halvings=max_halvings)
    reasons = set()
    lockstep = lockstep_solve(steep_system(), STEEP_STARTS, config)
    for start, together in zip(STEEP_STARTS, lockstep):
        got = newton_solve(system, start, config)
        expected = newton_solve(column_loop(system), start, config)
        assert_same_report(got, expected)
        assert_same_report(together, expected)
        reasons.add(got.message.split(":")[0])
    stacked = [failed for kind, _, failed in log if kind == "stacked"]
    assert any(failed for kind, _, failed in log if kind == "scalar")
    if max_halvings < tsolver.SCALAR_LEVELS:
        assert not stacked
    else:
        assert any(stacked)   # infeasible trials inside a stacked block
    if max_halvings == 40:
        assert reasons == {"residual tolerance reached", "infeasible start",
                           "iteration limit reached"}
        if block == 5:
            # deeper than one block: consecutive stacked calls in one iteration
            assert any(a[0] == b[0] == "stacked" for a, b in zip(log, log[1:]))
        for start in STEEP_STARTS[-3:]:
            _, iterations = damping_trace(monkeypatch, steep_system(), start, config)
            deep = "".join("d" if d else "s" for d in deep_steps(iterations))
            assert "dsd" in deep   # deep, shallow after a deep one, deep again
            assert_scalar_levels_skipped_after_deep_steps(iterations)


def test_stalled_long_horizon_cell_keeps_its_damping_budget(monkeypatch):
    # dn/el2 at T=20 stalls from the linear seed after many deep halvings;
    # each iteration makes one Jacobian call, at most SCALAR_LEVELS scalar
    # trials and at most one block of the remaining levels, and none of the
    # scalar trials once the iteration before it went deep
    params = FirmParams(horizon=20)
    system = residual_system(params, ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL2)
    config = SolverConfig()
    got, iterations = damping_trace(monkeypatch, system, linear_seed(params), config)
    expected = newton_solve(column_loop(system), linear_seed(params), config)
    assert (got.iterations, got.message) == (expected.iterations, expected.message)
    assert got.message == "damping found no residual decrease"

    assert len(iterations) == got.iterations + 1   # the last one found no step
    blocks = -(-(config.max_halvings + 1) // tsolver.HALVING_BLOCK)
    for it in iterations:
        assert it["calls"].count("scalar") <= tsolver.SCALAR_LEVELS
        assert it["calls"].count("stacked") <= blocks
    assert sum(it["calls"].count("stacked") for it in iterations) >= 10
    assert_scalar_levels_skipped_after_deep_steps(iterations)
    assert sum(deep_steps(iterations)) >= 10


def test_damping_levels_stop_where_the_step_scale_reaches_zero():
    # past level MAX_HALVINGS every trial is the current state, so a larger
    # max_halvings gives the same reports from the same residual calls
    assert 2.0 ** -tsolver.MAX_HALVINGS > 0.0 == 2.0 ** -(tsolver.MAX_HALVINGS + 1)
    plain = ResidualSystem(1, lambda x: np.array([x[0] ** 2 + 1.0]))   # no root
    stacked = dataclasses.replace(plain, stacked_residual=tsolver._lift_residual(plain))
    capped = SolverConfig(max_halvings=tsolver.MAX_HALVINGS)
    huge = SolverConfig(max_halvings=10 ** 6)
    for system in (plain, stacked):
        tracked, counts = counted(system)
        expected = newton_solve(tracked, (0.3,), capped)
        assert expected.message == "damping found no residual decrease"
        calls = dict(counts)
        tracked, counts = counted(system)
        assert_same_report(newton_solve(tracked, (0.3,), huge), expected)
        assert counts == calls
        # per iteration: the Jacobian (2 calls) and at most every level once
        bound = 1 + (expected.iterations + 1) * (2 + tsolver.MAX_HALVINGS + 1)
        assert counts["scalar"] + counts["stacked rows"] <= bound
    tracked, counts = counted(stacked)
    expected = lockstep_solve(tracked, [(0.3,), (-2.0,)], capped)
    calls = dict(counts)
    tracked, counts = counted(stacked)
    for got, want in zip(lockstep_solve(tracked, [(0.3,), (-2.0,)], huge), expected):
        assert_same_report(got, want)
    assert counts == calls


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
            expected = 1 if level[0] == 0 else min(2 * level[0] + 2, tsolver.HALVING_BLOCK)
            assert window[0] == expected
    # an iteration whose starts all took a halving last time and all find a
    # decrease inside their windows makes exactly one damping call
    inside = [calls for window, level, accepted, calls in searches
              if (window > 1).all() and accepted.all() and (level < window).all()]
    assert len(inside) >= 10
    assert inside == [1] * len(inside)
