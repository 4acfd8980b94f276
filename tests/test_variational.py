"""Tests for composite functionals and their stationarity residuals."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tsvar import (
    CLAMPED,
    STRICT,
    BoundaryMismatchError,
    CompositeProblem,
    DomainError,
    FirmParams,
    GridFunction,
    Integrand,
    OuterFunction,
    ProblemKind,
    ResidualSystem,
    TimeScale,
    check_integrand_partials,
    corollary_z_residual,
    eval_component_integrals,
    eval_functional,
    fd_jacobian,
    firm_integrand,
    firm_problem,
    identity_outer,
    product_outer,
    sum_outer,
    theorem_main_residual,
)
from tsvar.variational import Pointwise, assemble


def quadratic_rate_integrand(kind):
    """Integrand v^2 / 2, whose stationary states are straight lines."""
    return Integrand(
        kind,
        value=lambda t, y, v: 0.5 * v * v,
        partial_y=lambda t, y, v: 0.0,
        partial_v=lambda t, y, v: v,
    )


def single_problem(scale, integrand, boundary):
    if integrand.kind == "delta":
        return CompositeProblem(scale, (integrand,), (), identity_outer(), boundary)
    return CompositeProblem(scale, (), (integrand,), identity_outer(), boundary)


def random_feasible_state(params, rng):
    """Interior values safely above the sales floor with sqrt-feasible rates."""
    scale = TimeScale.integer_range(0, params.horizon)
    inner = rng.uniform(1.3, 3.8, params.horizon - 1)
    vals = np.concatenate([[params.y_initial], inner, [params.y_terminal]])
    return GridFunction(scale, vals)


# ---------------------------------------------------------------------------
# building blocks


def test_integrand_kind_is_validated():
    with pytest.raises(ValueError):
        Integrand("sideways", lambda *a: 0.0, lambda *a: 0.0, lambda *a: 0.0)


def test_outer_function_arity_is_validated():
    with pytest.raises(ValueError):
        OuterFunction(0, lambda c: 0.0, ())
    with pytest.raises(ValueError):
        OuterFunction(2, lambda c: 0.0, (lambda c: 1.0,))


def test_outer_factories():
    ident = identity_outer()
    assert ident.value([4.0]) == 4.0 and ident.partials[0]([4.0]) == 1.0
    total = sum_outer(3)
    assert total.value([1.0, 2.0, 3.0]) == 6.0
    assert all(p([1.0, 2.0, 3.0]) == 1.0 for p in total.partials)
    prod = product_outer()
    assert prod.value([2.0, 5.0]) == 10.0
    assert prod.partials[0]([2.0, 5.0]) == 5.0
    assert prod.partials[1]([2.0, 5.0]) == 2.0
    assert np.array_equal(prod.hessian([2.0, 5.0]), [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(total.hessian([1.0, 2.0, 3.0]), np.zeros((3, 3)))
    assert np.array_equal(ident.hessian([4.0]), [[0.0]])


def test_composite_problem_validates_slots():
    scale = TimeScale.integer_range(0, 3)
    f = quadratic_rate_integrand("delta")
    g = quadratic_rate_integrand("nabla")
    with pytest.raises(ValueError):
        CompositeProblem(scale, (), (), identity_outer(), (0.0, 1.0))
    with pytest.raises(ValueError):
        CompositeProblem(scale, (f,), (g,), identity_outer(), (0.0, 1.0))
    with pytest.raises(ValueError):
        CompositeProblem(scale, (g,), (), identity_outer(), (0.0, 1.0))
    with pytest.raises(ValueError):
        CompositeProblem(scale, (), (f,), identity_outer(), (0.0, 1.0))


@pytest.mark.parametrize("boundary", [
    (math.nan, math.nan), (0.0, math.inf), (-math.inf, 1.0), (0.0,), (0.0, 1.0, 2.0),
    ("0", 1.0), 1.0,
])
def test_composite_problem_rejects_a_boundary_that_is_not_two_finite_numbers(boundary):
    # unchecked, a NaN boundary admits every state (|v - nan| > tol is
    # False), and a tuple of the wrong length fails only at the first state
    scale = TimeScale.integer_range(0, 3)
    f = quadratic_rate_integrand("delta")
    with pytest.raises(ValueError, match="boundary must be two finite numbers"):
        CompositeProblem(scale, (f,), (), identity_outer(), boundary)


def test_firm_integrand_worked_value():
    # technology forward-kind integrand at t=0, y=2, v=0
    tech = firm_integrand(FirmParams(), "technology_delta")
    assert_allclose(tech.value(0.0, 2.0, 0.0), 1.295756397797214, rtol=1e-15)
    assert_allclose(tech.value(0.0, 2.0, 0.0), 1.5 / 1.05**3, rtol=1e-15)


# ---------------------------------------------------------------------------
# functional evaluation


def test_component_integrals_on_linear_state():
    # hand-summed forward capital and backward technology integrals at the
    # straight-line state (2, 7/3, 8/3, 3)
    problem = firm_problem(FirmParams(), ProblemKind.DELTA_NABLA)
    scale = problem.scale
    y = GridFunction(scale, [2.0, 2 + 1 / 3, 2 + 2 / 3, 3.0])
    comps = eval_component_integrals(problem, y)
    assert comps.shape == (2,)
    assert_allclose(comps[0], -3.351329949969405, rtol=1e-14)
    assert_allclose(comps[1], 4.828654732535952, rtol=1e-14)
    assert_allclose(
        eval_functional(problem, y), comps[0] * comps[1], rtol=1e-14
    )


def test_functional_matches_published_values_at_published_roots():
    dn = firm_problem(FirmParams(), ProblemKind.DELTA_NABLA)
    y = GridFunction(dn.scale, [2.0, 2.910488556, 2.970017180, 3.0])
    assert_allclose(eval_functional(dn, y), -10.11399047, atol=1e-6)
    nn = firm_problem(FirmParams(), ProblemKind.NABLA_NABLA)
    y = GridFunction(nn.scale, [2.0, 1.495415602, 2.228040364, 3.0])
    assert_allclose(eval_functional(nn, y), -13.20842214, atol=1e-6)


def test_state_validation_errors():
    problem = firm_problem(FirmParams(), ProblemKind.DELTA_DELTA)
    other_scale = TimeScale.integer_range(0, 4)
    with pytest.raises(ValueError):
        eval_functional(problem, GridFunction(other_scale, [2, 2, 2, 2, 3.0]))
    partial = GridFunction(problem.scale, [2.0, 2.2, 2.4, 3.0], support=range(0, 3))
    with pytest.raises(DomainError):
        eval_functional(problem, partial)
    with pytest.raises(BoundaryMismatchError):
        eval_functional(problem, GridFunction(problem.scale, [2.0, 2.2, 2.4, 3.5]))


# ---------------------------------------------------------------------------
# theorem residual


def test_straight_lines_are_stationary_for_quadratic_rate_cost():
    scale = TimeScale.integer_range(0, 5)
    problem = single_problem(scale, quadratic_rate_integrand("delta"), (1.0, 11.0))
    y = GridFunction.from_callable(scale, lambda t: 1.0 + 2.0 * t)
    res = theorem_main_residual(problem, y, form="delta", policy=STRICT)
    # strictly defined interior points carry a vanishing residual ...
    for i in range(1, 4):
        assert_allclose(res(scale.points[i]), 0.0, atol=1e-13)
    # ... while the last interior point lies outside the pure forward
    # domain: strict access refuses it
    with pytest.raises(DomainError):
        res(scale.points[4])
    # the clamped convention substitutes a zero rate past the end, so the
    # filled-in value equals the line's slope instead of vanishing
    clamped = theorem_main_residual(problem, y, form="delta", policy=CLAMPED)
    for i in range(1, 4):
        assert_allclose(clamped(scale.points[i]), 0.0, atol=1e-13)
    assert_allclose(clamped(scale.points[4]), 2.0, rtol=1e-13)


def test_nabla_form_mirrors_strict_domain():
    scale = TimeScale.integer_range(0, 5)
    problem = single_problem(scale, quadratic_rate_integrand("nabla"), (1.0, 11.0))
    y = GridFunction.from_callable(scale, lambda t: 1.0 + 2.0 * t)
    res = theorem_main_residual(problem, y, form="nabla", policy=STRICT)
    with pytest.raises(DomainError):
        res(scale.points[1])
    for i in range(2, 5):
        assert_allclose(res(scale.points[i]), 0.0, atol=1e-13)
    clamped = theorem_main_residual(problem, y, form="nabla", policy=CLAMPED)
    assert_allclose(clamped(scale.points[1]), -2.0, rtol=1e-13)


def test_time_only_integrand_contributes_nothing():
    # a component that ignores the state cannot move the residual
    params = FirmParams()
    base = firm_problem(params, ProblemKind.DELTA_NABLA)
    pure_time = Integrand(
        "delta",
        value=lambda t, y, v: np.cos(t),
        partial_y=lambda t, y, v: 0.0,
        partial_v=lambda t, y, v: 0.0,
    )
    k_delta = base.delta_integrands[0]
    tech = base.nabla_integrands[0]
    time_integral = sum(np.cos(float(t)) for t in range(3))

    def outer_value(c):
        return c[0] * c[2]

    padded = CompositeProblem(
        base.scale,
        (k_delta, pure_time),
        (tech,),
        OuterFunction(
            3,
            outer_value,
            (lambda c: float(c[2]), lambda c: 0.0, lambda c: float(c[0])),
        ),
        base.boundary,
    )
    rng = np.random.default_rng(11)
    for _ in range(10):
        y = random_feasible_state(params, rng)
        base_res = theorem_main_residual(base, y, form="delta", policy=CLAMPED)
        padded_res = theorem_main_residual(padded, y, form="delta", policy=CLAMPED)
        comps = eval_component_integrals(padded, y)
        assert_allclose(comps[1], time_integral, rtol=1e-14)
        for i in base.scale.interior_domain:
            t = base.scale.points[i]
            assert_allclose(padded_res(t), base_res(t), rtol=1e-12, atol=1e-12)


def test_residual_vanishes_at_converged_mixed_roots():
    # delta-form system root for the mixed forward/backward problem
    params = FirmParams()
    problem = firm_problem(params, ProblemKind.DELTA_NABLA)
    scale = problem.scale
    el1_root = GridFunction(scale, [2.0, 2.901851946, 2.967442286, 3.0])
    res = theorem_main_residual(problem, el1_root, form="delta", policy=CLAMPED)
    for i in scale.interior_domain:
        assert abs(res(scale.points[i])) <= 1e-6
    el2_root = GridFunction(scale, [2.0, 0.5930298695, 1.090438397, 3.0])
    res = theorem_main_residual(problem, el2_root, form="nabla", policy=CLAMPED)
    for i in scale.interior_domain:
        assert abs(res(scale.points[i])) <= 1e-6


def test_policy_name_is_validated():
    params = FirmParams()
    problem = firm_problem(params, ProblemKind.DELTA_NABLA)
    y = GridFunction(problem.scale, [2.0, 2.4, 2.7, 3.0])
    with pytest.raises(ValueError):
        theorem_main_residual(problem, y, form="delta", policy="loose")
    with pytest.raises(ValueError):
        theorem_main_residual(problem, y, form="diagonal", policy=CLAMPED)


def test_stacked_assembly_matches_one_state_on_a_non_uniform_scale():
    """Every form, on windows that reach both ends of a scale whose
    graininess is not 1, evaluates a stack as its states bit for bit."""
    rng = np.random.default_rng(33)
    gaps = rng.uniform(0.3, 1.7, 7).tolist()
    times = np.concatenate(([0.0], np.cumsum(gaps))).tolist()

    def pointwise(c):
        return Pointwise(lambda t, y, v: t * y * y + c * v * v,
                         lambda t, y, v: 2.0 * t * y,
                         lambda t, y, v: 2.0 * c * v, times)

    states = rng.uniform(1.0, 3.0, (6, 8))
    slots = [((pointwise(0.5),), (pointwise(1.5),)),
             ((pointwise(0.5), pointwise(2.0)), ()),
             ((), (pointwise(0.5), pointwise(2.0)))]
    for delta, nabla in slots:
        for form in ("cores", "delta", "nabla"):
            for points in (range(0, 8), range(1, 7), range(2, 5)):
                one = assemble(gaps, delta, nabla, product_outer(), CLAMPED, form, points)
                stack = assemble(gaps, delta, nabla, product_outer(), CLAMPED, form, points,
                                 stacked=True)
                tables = stack.state(states.T)
                rows = stack.evaluate(tables).T
                comps = np.array(stack.integrals(tables)).T
                for x, row, comp in zip(states, rows, comps):
                    s = one.state(x.tolist())
                    assert row.tolist() == one.evaluate(s)
                    assert comp.tolist() == one.integrals(s)


# ---------------------------------------------------------------------------
# corollary specialization


def test_corollary_matches_theorem_on_integer_scales():
    params = FirmParams()
    rng = np.random.default_rng(21)
    for kind in (ProblemKind.DELTA_NABLA, ProblemKind.NABLA_DELTA):
        problem = firm_problem(params, kind)
        scale = problem.scale
        for _ in range(25):
            y = random_feasible_state(params, rng)
            first = corollary_z_residual(problem, y, which="first", policy=CLAMPED)
            second = corollary_z_residual(problem, y, which="second", policy=CLAMPED)
            th_delta = theorem_main_residual(problem, y, "delta", CLAMPED)
            th_nabla = theorem_main_residual(problem, y, "nabla", CLAMPED)
            for i in scale.interior_domain:
                t = scale.points[i]
                assert_allclose(first(t), th_delta(t), rtol=1e-10, atol=1e-12)
                assert_allclose(second(t), th_nabla(t), rtol=1e-10, atol=1e-12)


def test_corollary_does_not_read_the_engine(monkeypatch):
    # the corollary is the engine's independent check, so breaking the
    # engine's component integrals must move the theorem's residual only
    from tsvar import variational

    params = FirmParams(horizon=6)
    rng = np.random.default_rng(22)
    problem = firm_problem(params, ProblemKind.DELTA_NABLA)
    states = [random_feasible_state(params, rng) for _ in range(5)]

    def residuals(residual, forms):
        return np.array([residual(problem, y, form, CLAMPED).values[1:-1]
                         for y in states for form in forms])

    corollary = residuals(corollary_z_residual, ("first", "second"))
    theorem = residuals(theorem_main_residual, ("delta", "nabla"))
    integrals = variational._integrals
    monkeypatch.setattr(variational, "_integrals",
                        lambda a, s: [2.0 * c for c in integrals(a, s)])
    assert not np.allclose(residuals(theorem_main_residual, ("delta", "nabla")), theorem)
    assert np.array_equal(residuals(corollary_z_residual, ("first", "second")), corollary)


def test_corollary_requires_unit_grid_and_single_pair():
    params = FirmParams()
    problem = firm_problem(params, ProblemKind.DELTA_DELTA)
    y = GridFunction(problem.scale, [2.0, 2.4, 2.7, 3.0])
    with pytest.raises(ValueError):
        corollary_z_residual(problem, y, which="first")
    scaled = TimeScale([0.0, 0.5, 2.0, 3.0])
    f = quadratic_rate_integrand("delta")
    g = quadratic_rate_integrand("nabla")
    offgrid = CompositeProblem(scaled, (f,), (g,), product_outer(), (0.0, 1.0))
    state = GridFunction(scaled, [0.0, 0.4, 0.8, 1.0])
    with pytest.raises(ValueError):
        corollary_z_residual(offgrid, state, which="first")


# ---------------------------------------------------------------------------
# analytic partials checker


def test_partials_checker_accepts_firm_integrands():
    params = FirmParams()
    rng = np.random.default_rng(31)
    samples = [
        (float(rng.integers(0, 4)), rng.uniform(1.3, 4.0), rng.uniform(-1.5, 1.5))
        for _ in range(40)
    ]
    for name in (
        "capital_delta",
        "capital_nabla",
        "technology_delta",
        "technology_nabla",
    ):
        integrand = firm_integrand(params, name)
        # the checker covers the second partials too, which these all have
        assert None not in (integrand.partial_yy, integrand.partial_yv, integrand.partial_vv)
        worst = check_integrand_partials(integrand, samples)
        assert worst <= 1e-7


def test_partials_checker_flags_wrong_partials():
    wrong = Integrand(
        "delta",
        value=lambda t, y, v: y * y + v,
        partial_y=lambda t, y, v: y,   # should be 2 y
        partial_v=lambda t, y, v: 1.0,
    )
    with pytest.raises(AssertionError):
        check_integrand_partials(wrong, [(0.0, 2.0, 0.5)])


def test_partials_checker_flags_wrong_second_partials():
    def integrand(**second):
        return Integrand("delta", lambda t, y, v: y * y * v, lambda t, y, v: 2.0 * y * v,
                         lambda t, y, v: y * y, **second)

    right = {"partial_yy": lambda t, y, v: 2.0 * v, "partial_yv": lambda t, y, v: 2.0 * y,
             "partial_vv": lambda t, y, v: 0.0}
    samples = [(0.0, 2.0, 0.5), (1.0, -1.5, 3.0)]
    assert check_integrand_partials(integrand(**right), samples) <= 1e-7
    for which in right:
        wrong = dict(right, **{which: lambda t, y, v: 1.0})
        with pytest.raises(AssertionError, match=which):
            check_integrand_partials(integrand(**wrong), samples)


# ---------------------------------------------------------------------------
# the assembly's analytic Jacobian


def smooth_pointwise(coefficients, times):
    """a t y^2 + b v^2 + c y v + d y^3 / 3 + e cos v, with its partials."""
    a, b, c, d, e = coefficients
    return Pointwise(
        lambda t, y, v: a * t * y * y + b * v * v + c * y * v + d * y ** 3 / 3 + e * math.cos(v),
        lambda t, y, v: 2 * a * t * y + c * v + d * y * y,
        lambda t, y, v: 2 * b * v + c * y - e * math.sin(v),
        times,
        lambda t, y, v: 2 * a * t + 2 * d * y,
        lambda t, y, v: c,
        lambda t, y, v: 2 * b - e * math.cos(v),
    )


@st.composite
def assemblies(draw):
    """A random non-uniform scale with 3 to 10 points, generic integrands of
    either kind under the product or the sum outer, a form, a window of
    n - 2 points and a state."""
    n = draw(st.integers(3, 10))
    gaps = draw(st.lists(st.floats(0.3, 1.7), min_size=n - 1, max_size=n - 1))
    times = np.concatenate(([0.0], np.cumsum(gaps))).tolist()
    k, m = draw(st.sampled_from([(1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (1, 0), (0, 1)]))
    outer = draw(st.sampled_from([product_outer(), sum_outer(2)])) if k + m == 2 \
        else sum_outer(k + m)
    coefficients = st.tuples(*[st.floats(-2.0, 2.0)] * 5)
    integrands = [smooth_pointwise(draw(coefficients), times) for _ in range(k + m)]
    form = draw(st.sampled_from(["cores", "delta", "nabla"]))
    start = draw(st.integers(0, 2))
    values = draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n))
    return (gaps, integrands[:k], integrands[k:], outer, form, range(start, start + n - 2),
            values)


@given(assemblies())
def test_analytic_jacobian_matches_central_differences(case):
    gaps, delta, nabla, outer, form, points, values = case
    assembled = assemble(gaps, delta, nabla, outer, CLAMPED, form, points, jacobian=True)

    def residual(x):
        return np.array(assembled.evaluate(assembled.state([values[0], *x, values[-1]])))

    x = np.array(values[1:-1])
    expected = fd_jacobian(ResidualSystem(len(x), residual), x)
    got = assembled.jacobian(assembled.state(values))
    assert got.shape == expected.shape
    gap = float(np.abs(got - expected).max())
    assert gap <= 1e-6 * max(1.0, float(np.abs(expected).max()))


def test_the_jacobian_needs_second_partials_and_an_outer_hessian():
    times = [0.0, 1.0, 2.5, 3.0]
    f = smooth_pointwise((1.0, 0.5, 0.2, -0.1, 0.3), times)
    gaps = [1.0, 1.5, 0.5]

    def build(delta=(f,), outer=identity_outer(), **options):
        return assemble(gaps, delta, (), outer, CLAMPED, "cores", range(1, 3), **options)

    assert build().jacobian is None
    assert build(jacobian=True).jacobian is not None
    with pytest.raises(ValueError, match="second partials"):
        build(delta=(f._replace(partial_yv=None),), jacobian=True)
    with pytest.raises(ValueError, match="hessian"):
        build(outer=OuterFunction(1, lambda c: c[0], (lambda c: 1.0,)), jacobian=True)
    with pytest.raises(ValueError, match="one state"):
        build(jacobian=True, stacked=True)
