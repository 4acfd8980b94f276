"""Tests for the firm production/investment model and its residual systems."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tsvar import (
    CLAMPED,
    DomainError,
    EquationKind,
    FirmParams,
    GridFunction,
    ProblemKind,
    TimeScale,
    corollary_z_residual,
    eval_component_integrals,
    eval_functional,
    fd_jacobian,
    firm_integrand,
    firm_problem,
    gamma_term,
    newton_solve,
    residual_system,
)

ALL_KINDS = (
    ProblemKind.DELTA_DELTA,
    ProblemKind.NABLA_NABLA,
    ProblemKind.DELTA_NABLA,
    ProblemKind.NABLA_DELTA,
)

# converged operating points of the eight horizon-3 systems, printed to ten
# digits by the original computation; transcription checks below drive the
# residuals at these states toward zero
WORKED_ROOTS = {
    (ProblemKind.DELTA_NABLA, EquationKind.DIRECT): (2.910488556, 2.970017180),
    (ProblemKind.NABLA_DELTA, EquationKind.DIRECT): (2.183517532, 2.446990272),
    (ProblemKind.DELTA_DELTA, EquationKind.DIRECT): (2.322251304, 2.679109437),
    (ProblemKind.NABLA_NABLA, EquationKind.DIRECT): (1.495415602, 2.228040364),
    (ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL1): (2.901851949, 2.967442285),
    (ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL2): (0.5930298703, 1.090438395),
    (ProblemKind.NABLA_DELTA, EquationKind.TIMESCALE_EL1): (7.879260741, 4.775003718),
    (ProblemKind.NABLA_DELTA, EquationKind.TIMESCALE_EL2): (2.186742579, 2.457402400),
}


def linear_state(params):
    scale = TimeScale.integer_range(0, params.horizon)
    a, b, T = params.y_initial, params.y_terminal, params.horizon
    return GridFunction(scale, [a + (b - a) * t / T for t in range(T + 1)])


def random_inner(params, rng):
    return rng.uniform(1.3, 3.8, params.horizon - 1)


# ---------------------------------------------------------------------------
# parameters and enums


def test_params_validation_names_the_field():
    cases = [
        (dict(discount_rate=-1.0), "discount_rate"),
        (dict(discount_rate=1.0), "discount_rate"),
        (dict(c2=0.0), "c2"),
        (dict(b=0.0), "b"),
        (dict(B=-2.0), "B"),
        (dict(beta=-0.1), "beta"),
        (dict(horizon=1), "horizon"),
        (dict(y_initial=1.0), "y_initial"),
        (dict(y_terminal=0.5), "y_terminal"),
        (dict(horizon=math.inf), "horizon"),
        (dict(horizon=1001), "horizon"),
    ]
    # every field must be finite: a NaN passes the range checks above
    cases += [({field.name: bad}, field.name)
              for field in dataclasses.fields(FirmParams)
              for bad in (math.nan, math.inf, -math.inf)]
    for overrides, name in cases:
        with pytest.raises(ValueError, match=name):
            FirmParams(**overrides)


def test_integral_float_horizon_is_stored_as_an_int():
    for horizon in (10.0, np.int64(10)):
        params = FirmParams(horizon=horizon)
        assert type(params.horizon) is int and params == FirmParams(horizon=10)
        system = residual_system(params, ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL2)
        assert system.residual(np.linspace(2.0, 3.0, 11)[1:-1]).shape == (9,)
    with pytest.raises(ValueError, match="horizon"):
        FirmParams(horizon=10.5)


def test_kind_properties():
    assert ProblemKind.DELTA_NABLA.capital_mode == "delta"
    assert ProblemKind.DELTA_NABLA.technology_mode == "nabla"
    assert ProblemKind.NABLA_DELTA.capital_mode == "nabla"
    assert ProblemKind.NABLA_DELTA.technology_mode == "delta"
    assert ProblemKind.DELTA_NABLA.is_mixed and ProblemKind.NABLA_DELTA.is_mixed
    assert not ProblemKind.DELTA_DELTA.is_mixed
    assert not ProblemKind.NABLA_NABLA.is_mixed


def test_unknown_integrand_name_is_rejected():
    with pytest.raises(ValueError):
        firm_integrand(FirmParams(), "capital_sideways")


# ---------------------------------------------------------------------------
# integrand partials against finite differences


def test_analytic_partials_match_finite_differences():
    params = FirmParams()
    rng = np.random.default_rng(101)
    names = ("capital_delta", "capital_nabla", "technology_delta", "technology_nabla")
    for name in names:
        integrand = firm_integrand(params, name)
        for _ in range(100):
            t = float(rng.integers(0, params.horizon + 1))
            y = rng.uniform(1.2, 4.5)
            v = rng.uniform(-2.0, 2.0)
            for pos, analytic in ((1, integrand.partial_y), (2, integrand.partial_v)):
                arg = [t, y, v]
                h = 1e-6 * max(1.0, abs(arg[pos]))
                hi, lo = arg.copy(), arg.copy()
                hi[pos] += h
                lo[pos] -= h
                fd = (integrand.value(*hi) - integrand.value(*lo)) / (2 * h)
                assert_allclose(analytic(t, y, v), fd, rtol=1e-7, atol=1e-10)


# ---------------------------------------------------------------------------
# gamma terms


def test_forward_capital_gamma_closed_form_on_a_line():
    # constant slope kills the curvature term, leaving
    # disc * (c1 - p0 + B*floor/margin^2 - 2*c2*rho*slope)
    params = FirmParams()
    y = linear_state(params)
    got = gamma_term(params, "capital_delta", y, 1)
    assert_allclose(got, 0.10884353741496615, rtol=1e-12)
    slope = 1.0 / 3.0
    margin = (2.0 + 2.0 / 3.0) - params.y_floor
    expect = (1.05 ** (1 - 3)) * (
        params.c1 - params.p0 + params.B * params.y_floor / margin**2
        - 2.0 * params.c2 * params.discount_rate * slope
    )
    assert_allclose(got, expect, rtol=1e-12)


def test_backward_technology_gamma_closed_form_on_a_line():
    # constant backward rate d gives disc * (lam - beta*rho / (2 sqrt(d+b)))
    params = FirmParams()
    y = linear_state(params)
    got = gamma_term(params, "technology_nabla", y, 2)
    assert_allclose(got, 0.4721477172603468, rtol=1e-12)
    expect = 0.95 * (0.5 - 0.25 * 0.05 / (2.0 * math.sqrt(1.0 / 3.0 + 4.0)))
    assert_allclose(got, expect, rtol=1e-12)


def test_gamma_terms_are_component_integral_gradients():
    # forward components: d(integral)/dy_j equals the gamma at t = j - 1;
    # backward components: the gamma at t = j + 1
    params = FirmParams()
    problem = firm_problem(params, ProblemKind.DELTA_NABLA)
    scale = problem.scale
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(10):
        inner = random_inner(params, rng)
        vals = np.array([2.0, *inner, 3.0])

        def comp(which, vals_):
            y = GridFunction(scale, vals_)
            return eval_component_integrals(problem, y)[which]

        for j in (1, 2):
            hi, lo = vals.copy(), vals.copy()
            hi[j] += h
            lo[j] -= h
            fd_capital = (comp(0, hi) - comp(0, lo)) / (2 * h)
            fd_technology = (comp(1, hi) - comp(1, lo)) / (2 * h)
            assert_allclose(
                gamma_term(params, "capital_delta", vals, j - 1),
                fd_capital, rtol=1e-6, atol=1e-9,
            )
            assert_allclose(
                gamma_term(params, "technology_nabla", vals, j + 1),
                fd_technology, rtol=1e-6, atol=1e-9,
            )


def test_gamma_term_accepts_grid_functions_and_sequences():
    params = FirmParams()
    y = linear_state(params)
    from_grid = gamma_term(params, "technology_delta", y, 1)
    from_list = gamma_term(params, "technology_delta", list(y.values), 1)
    assert_allclose(from_grid, from_list, rtol=0)
    with pytest.raises(ValueError):
        gamma_term(params, "sideways", y, 1)
    for t in (math.inf, math.nan, 1.5, params.horizon + 1):
        with pytest.raises(ValueError, match="not a point of the horizon scale"):
            gamma_term(params, "technology_delta", y, t)


# ---------------------------------------------------------------------------
# residual systems


def test_residuals_vanish_at_worked_roots():
    # the roots are printed to ten significant digits, so the residual can
    # sit at (rounding error) x (Jacobian scale), up to a few times 1e-7
    params = FirmParams()
    for (kind, equation), root in WORKED_ROOTS.items():
        system = residual_system(params, kind, equation)
        norm = float(np.max(np.abs(system.residual(np.asarray(root)))))
        assert norm <= 5e-7, f"{system.label}: {norm}"


def test_system_metadata():
    params = FirmParams()
    system = residual_system(params, ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL1)
    assert system.dimension == params.horizon - 1
    assert system.label == "dn/el1"
    root = np.array([2.901851949, 2.967442285])
    problem = firm_problem(params, ProblemKind.DELTA_NABLA)
    state = GridFunction(problem.scale, [2.0, *root, 3.0])
    assert_allclose(system.functional(root), eval_functional(problem, state), rtol=1e-14)


def test_pure_kind_variants_coincide():
    params = FirmParams()
    rng = np.random.default_rng(55)
    for kind in (ProblemKind.DELTA_DELTA, ProblemKind.NABLA_NABLA):
        systems = [residual_system(params, kind, eq) for eq in EquationKind]
        for _ in range(50):
            x = random_inner(params, rng)
            base = systems[0].residual(x)
            for other in systems[1:]:
                assert_allclose(other.residual(x), base, rtol=0, atol=1e-12)


def test_mixed_kind_variants_are_distinct_systems():
    params = FirmParams()
    x = np.array([2.0 + 1 / 3, 2.0 + 2 / 3])
    for kind in (ProblemKind.DELTA_NABLA, ProblemKind.NABLA_DELTA):
        direct = residual_system(params, kind, EquationKind.DIRECT).residual(x)
        el1 = residual_system(params, kind, EquationKind.TIMESCALE_EL1).residual(x)
        el2 = residual_system(params, kind, EquationKind.TIMESCALE_EL2).residual(x)
        assert float(np.max(np.abs(direct - el1))) > 1e-3
        assert float(np.max(np.abs(direct - el2))) > 1e-3
        assert float(np.max(np.abs(el1 - el2))) > 1e-3


def test_guards_name_their_condition():
    params = FirmParams()
    system = residual_system(params, ProblemKind.DELTA_DELTA)
    with pytest.raises(DomainError, match="rate-change guard"):
        system.residual(np.array([7.0, 1.5]))
    with pytest.raises(DomainError, match="price-curve guard"):
        system.residual(np.array([1.0, 2.5]))


def test_longer_horizon_systems_are_stationary_at_their_roots():
    params = FirmParams(horizon=4)
    system = residual_system(params, ProblemKind.DELTA_DELTA)
    assert system.dimension == 3
    report = newton_solve(system, (2.2, 2.5, 2.8))
    assert report.converged
    # central finite differences of the functional vanish at the root
    h = 1e-6
    for j in range(3):
        hi = report.root.copy()
        lo = report.root.copy()
        hi[j] += h
        lo[j] -= h
        fd = (system.functional(hi) - system.functional(lo)) / (2 * h)
        assert abs(fd) <= 1e-5


def test_discount_factor_conventions():
    # forward components discount with (1+rho)^(t-T), backward components
    # grow with (1-rho)^(T-t); check through the integrand values directly
    params = FirmParams()
    tech_d = firm_integrand(params, "technology_delta")
    tech_n = firm_integrand(params, "technology_nabla")
    base = 0.5 * 2.0 + 0.25 * 2.0   # lam*y + beta*sqrt(0+4)
    assert_allclose(tech_d.value(3.0, 2.0, 0.0), base, rtol=1e-15)
    assert_allclose(tech_d.value(0.0, 2.0, 0.0), base / 1.05**3, rtol=1e-15)
    assert_allclose(tech_n.value(3.0, 2.0, 0.0), base, rtol=1e-15)
    assert_allclose(tech_n.value(0.0, 2.0, 0.0), base * 0.95**3, rtol=1e-15)


# ---------------------------------------------------------------------------
# stacked evaluation


EIGHT_SYSTEMS = tuple(WORKED_ROOTS)


def stacked_test_states(params, rng, count=60):
    """Random interior states plus rows that hit each guard."""
    m = params.horizon - 1
    states = rng.uniform(0.5, 8.0, (count, m))
    states[1::7, rng.integers(0, m)] = params.y_floor               # price-curve pole
    states[2::7, 0] = params.y_initial - params.b                   # quotient + b == 0
    for row in range(3, count, 7):
        j = rng.integers(0, m - 1) if m > 1 else 0
        states[row, j] = 8.0
        if m > 1:
            states[row, j + 1] = 8.0 - params.b - rng.uniform(0.0, 2.0)   # quotient + b <= 0
    return states


@pytest.mark.parametrize("horizon", [2, 3, 4, 10, 20])
def test_stacked_residual_and_functional_match_the_scalar_ones(horizon):
    params = FirmParams(horizon=horizon)
    rng = np.random.default_rng(2024 + horizon)
    states = stacked_test_states(params, rng)
    for kind, equation in EIGHT_SYSTEMS:
        system = residual_system(params, kind, equation)
        stacked = system.stacked_residual(states)
        assert stacked.shape == states.shape
        raised = 0
        for x, row in zip(states, stacked):
            try:
                expected = system.residual(x)
            except DomainError:
                raised += 1
                assert np.isnan(row).all()
                with pytest.raises(DomainError):
                    system.functional(x)
                continue
            # one algebra serves both forms, so they agree bit for bit, in a
            # stack of one state too, whose integrals add in the same order
            assert row.tolist() == expected.tolist()
            assert system.stacked_residual(x[None])[0].tolist() == expected.tolist()
        assert raised >= len(states) // 7 * 3, f"{system.label}: guards not exercised"


def test_stacked_residual_rejects_a_wrong_state_width():
    system = residual_system(FirmParams(), ProblemKind.DELTA_DELTA)
    with pytest.raises(ValueError, match="interior values"):
        system.stacked_residual(np.ones((4, 3)))


OVERFLOW_CASES = [
    # (params, states): squares and products past 1.8e308, and a margin whose
    # square underflows to zero
    (FirmParams(y_terminal=3e200), [(1e200, 2e200), (2.0, 2.5), (1e154, 2e154)]),
    (FirmParams(y_initial=1e200, y_terminal=1e200), [(1e200, 1e200)]),
    (FirmParams(y_floor=0.0), [(1e-170, 2.0), (2.0, 2.5)]),
    # an el2 tail reads its core at 0..T-2 only; the dn core at t = 2 reads the
    # margin 1e-170 at t = 3, whose square underflows to zero, so a one-state
    # residual that evaluated the core there too would raise
    (FirmParams(y_floor=0.0, y_terminal=1e-170), [(1.5, 1.0), (2.0, 0.5)]),
]


@pytest.mark.filterwarnings("error")
def test_overflowing_states_are_infeasible_in_both_forms():
    raised = finite = 0
    for params, states in OVERFLOW_CASES:
        states = np.array(states)
        for kind, equation in EIGHT_SYSTEMS:
            system = residual_system(params, kind, equation)
            stacked = system.stacked_residual(states)
            for x, row in zip(states, stacked):
                try:
                    expected = system.residual(x)
                except DomainError as exc:
                    assert "not finite" in str(exc)
                    assert np.isnan(row).all(), system.label
                    raised += 1
                    continue
                assert np.isfinite(row).all() and np.isfinite(expected).all()
                assert row.tolist() == expected.tolist()
                finite += 1
    assert raised >= 8 * 3 and finite >= 8 * 2


# ---------------------------------------------------------------------------
# the systems against oracles that share none of their code
#
# The systems are windows of the general Euler-Lagrange assembly, so they
# agree with theorem_main_residual by construction.  The integer-grid
# corollary, written directly with index shifts, and central differences of
# the functional are independent of it.


@st.composite
def feasible_states(draw):
    """Firm parameters at T = 2..20 and either rate, and interior sales
    safely above the floor whose quotients keep the roots real."""
    horizon = draw(st.integers(2, 20))
    params = FirmParams(horizon=horizon, discount_rate=draw(st.sampled_from([0.05, 0.02])))
    inner = draw(st.lists(st.floats(1.3, 3.8), min_size=horizon - 1, max_size=horizon - 1))
    return params, np.array(inner)


@given(feasible_states())
def test_timescale_systems_match_the_integer_grid_corollary(case):
    params, inner = case
    for kind in (ProblemKind.DELTA_NABLA, ProblemKind.NABLA_DELTA):
        problem = firm_problem(params, kind)
        y = GridFunction(problem.scale, [params.y_initial, *inner, params.y_terminal])
        for eq, which in ((EquationKind.TIMESCALE_EL1, "first"),
                          (EquationKind.TIMESCALE_EL2, "second")):
            rows = residual_system(params, kind, eq).residual(inner)
            oracle = corollary_z_residual(problem, y, which, CLAMPED).values[1:-1]
            gap = np.abs(rows - oracle) / np.maximum(1.0, np.abs(oracle))
            assert gap.max() <= 1e-10, f"{kind.value}/{eq.value}: {gap.max():.3e}"


@given(feasible_states())
def test_pure_systems_are_the_functional_gradient(case):
    # a pure kind's system is the gradient of the functional in y_1..y_{T-1}
    params, inner = case
    for kind in (ProblemKind.DELTA_DELTA, ProblemKind.NABLA_NABLA):
        system = residual_system(params, kind)
        rows = system.residual(inner)
        for j in range(len(inner)):
            h = 1e-6 * max(1.0, abs(inner[j]))
            hi, lo = inner.copy(), inner.copy()
            hi[j] += h
            lo[j] -= h
            fd = (system.functional(hi) - system.functional(lo)) / (2 * h)
            assert_allclose(rows[j], fd, rtol=1e-6, atol=1e-9, err_msg=kind.value)


@st.composite
def firm_states(draw):
    """Firm parameters at T = 2, 3, 4, 10 or 20 and either rate, and interior
    sales safely above the floor whose quotients keep the roots real."""
    horizon = draw(st.sampled_from([2, 3, 4, 10, 20]))
    params = FirmParams(horizon=horizon, discount_rate=draw(st.sampled_from([0.05, 0.02])))
    inner = draw(st.lists(st.floats(1.3, 3.8), min_size=horizon - 1, max_size=horizon - 1))
    return params, np.array(inner)


@given(firm_states())
def test_analytic_jacobians_match_central_differences(case):
    params, inner = case
    for kind, equation in EIGHT_SYSTEMS:
        system = residual_system(params, kind, equation)
        expected = fd_jacobian(dataclasses.replace(system, jacobian=None), inner)
        got = system.jacobian(inner)
        assert got.shape == expected.shape
        gap = float(np.abs(got - expected).max())
        assert gap <= 1e-6 * max(1.0, float(np.abs(expected).max())), system.label


def test_jacobian_where_a_second_partial_fails_is_not_finite():
    # with the floor at 0 the capital state partial's B y_floor / margin^2 is
    # 0 for any positive sales, but its y-derivative divides 0 by a margin
    # cubed that underflows to 0; the residual itself is finite there.  The
    # dn direct and el1 rows read that derivative only where the sales are
    # 2.5, so their Jacobians stay finite
    params = FirmParams(y_floor=0.0)
    x = np.array([1e-110, 2.5])
    failed = set()
    for kind, equation in EIGHT_SYSTEMS:
        system = residual_system(params, kind, equation)
        assert np.isfinite(system.residual(x)).all()
        try:
            got = system.jacobian(x)
        except DomainError as exc:
            assert str(exc) == "jacobian is not finite at this state"
            report = newton_solve(system, x)
            assert report.message == "jacobian failed: jacobian is not finite at this state"
            failed.add(system.label)
            continue
        expected = fd_jacobian(dataclasses.replace(system, jacobian=None), x)
        assert float(np.abs(got - expected).max()) <= 1e-6 * float(np.abs(expected).max())
    assert failed == {"dd/direct", "nn/direct", "dn/el2", "nd/direct", "nd/el1", "nd/el2"}
