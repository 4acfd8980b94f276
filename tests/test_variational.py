"""Tests for composite functionals and their stationarity residuals."""

import dataclasses
import inspect
import math
import operator
import re

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
    EquationKind,
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
    lockstep_solve,
    multistart_solve,
    newton_solve,
    product_outer,
    residual_system,
    sum_outer,
    theorem_main_residual,
)
from tsvar import econ, variational
from tsvar.solver import _lift_residual
from tsvar.variational import Guard, assemble, problem_system


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
        OuterFunction(lambda c: 0.0, ())


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


@pytest.mark.parametrize("evaluate", [eval_functional, eval_component_integrals,
                                      theorem_main_residual, corollary_z_residual])
@pytest.mark.parametrize("values", [[math.nan, 2.3, 2.6, 3.0], [2.0, 2.3, 2.6, math.nan]])
def test_a_nan_state_endpoint_is_not_the_boundary(evaluate, values):
    # |nan - y_a| > tol is False, so a test written that way admits it and
    # the evaluation returns NaN
    problem = firm_problem(FirmParams(), ProblemKind.DELTA_NABLA)
    with pytest.raises(BoundaryMismatchError):
        evaluate(problem, GridFunction(problem.scale, values))


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


def polynomial_integrand(kind, c, times):
    return Integrand(kind, lambda t, y, v: t * y * y + c * v * v,
                     lambda t, y, v: 2.0 * t * y, lambda t, y, v: 2.0 * c * v, at=times)


POLYNOMIALS = (polynomial_integrand("delta", 1.0, [0.0, 1.0, 2.0, 3.0]),
               polynomial_integrand("nabla", 2.0, [0.0, 1.0, 2.0, 3.0]))


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("policy", ["Clamped", "bogus", ""])
def test_assemble_refuses_a_policy_it_does_not_know(policy, stacked):
    # the assembly reads one convention; the two residual readers choose
    # their rows by a policy, and refuse one they do not know before they
    # read the state, on a problem read on arrays or on floats alike
    scale = TimeScale.integer_range(0, 3)
    f, g = (polynomial_integrand(kind, c, scale.points) for kind, c in (("delta", 1.0),
                                                                        ("nabla", 2.0)))
    if stacked:   # read forms, so a feasible state is read as one column
        f, g = (dataclasses.replace(h, on_points=lambda h, points, stacked: h) for h in (f, g))
    problem = CompositeProblem(scale, (f,), (g,), product_outer(), (1.0, 5.0))
    y = GridFunction(scale, [1.0, 2.0, 3.0, 5.0])
    text = f"policy must be one of ('strict', 'clamped'), got {policy!r}"
    for reader, form in ((theorem_main_residual, "delta"), (corollary_z_residual, "first")):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            reader(problem, y, form, policy)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("points", [range(-1, 2), range(2, 6), range(4, 0, -1), [1, 2], (1,)])
def test_assemble_refuses_a_window_off_the_scale(points, stacked):
    # range(-1, 2) read "point -1" at point 3, range(2, 6) raised IndexError
    text = f"points must be a range of points in 0..3, got {points!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        assemble([1.0] * 3, POLYNOMIALS, product_outer(), "cores", points, stacked)


@pytest.mark.parametrize("policy", [CLAMPED, STRICT])
@pytest.mark.parametrize("points", [range(0), range(0, 4), range(0, 4, 2), range(3, -1, -2)])
def test_assemble_takes_an_empty_or_stepped_window(points, policy):
    # a strict reading is the clamped assembly read on fewer rows, so under
    # it a window's rows are also the whole scale's rows at its points
    y = [1.0, 2.0, 3.0, 5.0]
    one = assemble([1.0] * 3, POLYNOMIALS, product_outer(), "cores", points)
    stack = assemble([1.0] * 3, POLYNOMIALS, product_outer(), "cores", points, True)
    row = one.evaluate(one.state(y))
    assert len(row) == len(points)
    column = stack.evaluate(stack.state(np.array(y)[:, None]))
    assert np.asarray(row).tobytes() == column[:, 0].tobytes()
    if policy == STRICT:
        whole = assemble([1.0] * 3, POLYNOMIALS, product_outer(), "cores", range(0, 4))
        rows = whole.evaluate(whole.state(y))
        assert np.asarray(row).tobytes() == np.array([rows[i] for i in points]).tobytes()


def stack_and_states(gaps, integrands, form, points, states):
    """The stacked assembly, and the bytes of its rows and integrals and of
    each state's alone, as rows."""
    one = assemble(gaps, integrands, product_outer(), form, points)
    stack = assemble(gaps, integrands, product_outer(), form, points, stacked=True)
    tables = stack.state(states.T)
    alone = [(one.evaluate(s), one.integrals(s)) for s in map(one.state, states.tolist())]
    return stack, ([row.tobytes() for row in stack.evaluate(tables).T],
                   [row.tobytes() for row in np.array(stack.integrals(tables)).T],
                   [np.array(row).tobytes() for row, _ in alone],
                   [np.array(comps).tobytes() for _, comps in alone])


def test_stacked_assembly_matches_one_state_on_a_non_uniform_scale():
    """Every form, on windows that reach both ends of a scale whose
    graininess is not 1, evaluates a stack as its states bit for bit; and an
    integrand's kind, not its position, decides its component."""
    rng = np.random.default_rng(33)
    gaps = rng.uniform(0.3, 1.7, 7).tolist()
    times = np.concatenate(([0.0], np.cumsum(gaps))).tolist()
    states = rng.uniform(1.0, 3.0, (6, 8))

    def outputs(integrands, form, points):
        return stack_and_states(gaps, integrands, form, points, states)[1]

    mixed = (polynomial_integrand("delta", 0.5, times), polynomial_integrand("nabla", 1.5, times))
    for integrands in (mixed, (polynomial_integrand("delta", 0.5, times),
                               polynomial_integrand("delta", 2.0, times)),
                       (polynomial_integrand("nabla", 0.5, times),
                        polynomial_integrand("nabla", 2.0, times))):
        for form in ("cores", "delta", "nabla"):
            for points in (range(0, 8), range(1, 7), range(2, 5)):
                rows, comps, alone_rows, alone_comps = outputs(integrands, form, points)
                assert rows == alone_rows
                assert comps == alone_comps
                if integrands is mixed:
                    assert outputs(mixed[::-1], form, points) == (rows, comps, alone_rows,
                                                                  alone_comps)


def graininess(stack):
    """Every graininess a stacked assembly reads: its quotients' divisor,
    its component sums' steps, its evaluator's gi, gj and gk, and its
    tail's steps where it has a tail."""
    a = stack.state.args[0]
    read = inspect.getclosurevars(stack.evaluate).nonlocals
    (*_, gi, gj, gk), = read["sites"]
    tail = [read["reads"][2]] if read["reads"] else []
    return [a.gaps, *(step for _, _, step, *_ in a.sums), gi, gj, gk, *tail]


@pytest.mark.parametrize("policy", [CLAMPED, STRICT])
@pytest.mark.parametrize("gap", [1.0, 0.5, 3.0, None], ids=["1", "0.5", "3", "non-uniform"])
def test_a_stack_reads_one_graininess_as_a_0_d_array_to_the_one_state_bytes(gap, policy):
    """A stack reads a graininess that holds one value as a 0-d array, as
    every graininess on a unit scale, and one that varies (on a non-uniform
    scale, or across an end, whose step is 1) as a column; either way every
    form, on the windows a reader reads under the policy, gives each
    state's rows and integrals byte for byte.  The clamped windows reach
    both ends; the strict ones are the theorem's own, the interior less the
    row that reads a quotient past an end, where a uniform scale's every
    graininess is one value."""
    rng = np.random.default_rng(38)
    gaps = [gap] * 7 if gap else rng.uniform(0.3, 1.7, 7).tolist()
    times = np.concatenate(([0.0], np.cumsum(gaps))).tolist()
    states = rng.uniform(1.0, 3.0, (6, 8))
    windows = ((range(0, 8), range(1, 7), range(0, 3), range(5, 8)) if policy == CLAMPED
               else (range(1, 6), range(2, 7)))
    for integrands in ((polynomial_integrand("delta", 0.5, times),
                        polynomial_integrand("nabla", 1.5, times)),
                       (polynomial_integrand("delta", 0.5, times),
                        polynomial_integrand("delta", 2.0, times)),
                       (polynomial_integrand("nabla", 0.5, times),
                        polynomial_integrand("nabla", 2.0, times))):
        for form in ("cores", "delta", "nabla"):
            for points in windows:
                stack, (rows, comps, alone_rows, alone_comps) = stack_and_states(
                    gaps, integrands, form, points, states)
                assert rows == alone_rows
                assert comps == alone_comps
                assert not any(np.isnan(np.frombuffer(row)).any() for row in rows)
                dims = [g.ndim for g in graininess(stack)]
                if gap is None:
                    assert 2 in dims
                else:   # the divisor and the sums' steps read the gaps alone
                    assert dims[:1 + len(integrands)] == [0] * (1 + len(integrands))
                if gap == 1.0 or gap and policy == STRICT:   # the step past an end is 1
                    assert set(dims) == {0}


def test_an_empty_stack_gives_an_empty_output():
    times = [0.0, 1.0, 2.5, 3.0]
    integrands = (polynomial_integrand("delta", 0.5, times),
                  polynomial_integrand("nabla", 1.5, times))
    for form in ("cores", "delta", "nabla"):
        stack = assemble([1.0, 1.5, 0.5], integrands, product_outer(), form, range(1, 3),
                         stacked=True)
        tables = stack.state(np.empty((4, 0)))
        assert stack.evaluate(tables).shape == (2, 0)
        assert [comp.shape for comp in stack.integrals(tables)] == [(0,), (0,)]


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
                        lambda a, s, *fails: [2.0 * c for c in integrals(a, s, *fails)])
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


def smooth_integrand(kind, coefficients, times):
    """a t y^2 + b v^2 + c y v + d y^3 / 3 + e cos v, with its partials."""
    a, b, c, d, e = coefficients
    return Integrand(
        kind,
        lambda t, y, v: a * t * y * y + b * v * v + c * y * v + d * y ** 3 / 3 + e * math.cos(v),
        lambda t, y, v: 2 * a * t * y + c * v + d * y * y,
        lambda t, y, v: 2 * b * v + c * y - e * math.sin(v),
        lambda t, y, v: 2 * a * t + 2 * d * y,
        lambda t, y, v: c,
        lambda t, y, v: 2 * b - e * math.cos(v),
        at=times,
    )


@st.composite
def assemblies(draw, unit_steps=False):
    """A random non-uniform scale with 3 to 10 points (with ``unit_steps``,
    the integers 0..n-1), generic integrands of either kind under the
    product or the sum outer, a form, a window of n - 2 points and a state."""
    n = draw(st.integers(3, 10))
    gaps = [1.0] * (n - 1) if unit_steps else draw(
        st.lists(st.floats(0.3, 1.7), min_size=n - 1, max_size=n - 1))
    times = np.concatenate(([0.0], np.cumsum(gaps))).tolist()
    k, m = draw(st.sampled_from([(1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (1, 0), (0, 1)]))
    outer = draw(st.sampled_from([product_outer(), sum_outer(2)])) if k + m == 2 \
        else sum_outer(k + m)
    coefficients = st.tuples(*[st.floats(-2.0, 2.0)] * 5)
    integrands = [smooth_integrand("delta" if j < k else "nabla", draw(coefficients), times)
                  for j in range(k + m)]
    form = draw(st.sampled_from(["cores", "delta", "nabla"]))
    start = draw(st.integers(0, 2))
    values = draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n))
    return gaps, integrands, outer, form, range(start, start + n - 2), values


@given(assemblies())
def test_analytic_jacobian_matches_central_differences(case):
    gaps, integrands, outer, form, points, values = case
    assembled = assemble(gaps, integrands, outer, form, points)

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
    f = smooth_integrand("delta", (1.0, 0.5, 0.2, -0.1, 0.3), times)
    gaps = [1.0, 1.5, 0.5]

    def build(integrand=f, outer=identity_outer(), stacked=False):
        return assemble(gaps, (integrand,), outer, "cores", range(1, 3), stacked)

    one = build()
    assert one.jacobian(one.state([1.0, 2.0, 1.5, 0.5])).shape == (2, 2)
    for second in ("partial_yy", "partial_yv", "partial_vv"):
        assert build(integrand=dataclasses.replace(f, **{second: None})).jacobian is None
    assert build(outer=OuterFunction(lambda c: c[0], (lambda c: 1.0,))).jacobian is None
    assert build(stacked=True).jacobian is None


def loop_jacobian(assembled, form, points):
    """The one-state Jacobian as the assembly computed it before its read
    plan, kept as the plan's oracle: its call is the loop over every point
    of every integrand, zipped with its kind's readers, and the band
    scattered into a zero-padded array and sliced.  It refuses nothing, so
    a matrix that is not finite is returned as computed; numpy's
    warnings about the rank part are off, as they were where it was read."""
    a = assembled.state.args[0]
    n = len(a.mu)
    size = len(points)
    derivatives, hessian = a.outer.partials, a.outer.hessian
    delta_readers, nabla_readers = variational._readers(a, form, points)
    targets = np.array([r * (n + 4) + i + offset for r, i in enumerate(points)
                        for offset in range(5)])

    def jacobian(s, comps=None):
        kinds = (a.delta, delta_readers), (a.nabla, nabla_readers)
        try:
            if comps is None:
                comps = variational._integrals(a, s, variational._JACOBIAN_FAILS)
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
            outer_hessian = hessian(comps)
        except ZeroDivisionError as exc:   # a power of the margin that underflows to 0
            raise DomainError(variational._JACOBIAN_FAILS) from exc
        jac = np.zeros(size * (n + 4))
        jac[targets] = band
        jac = jac.reshape(size, n + 4)[:, 3:n + 1]
        if any(map(any, outer_hessian)):
            with np.errstate(over="ignore", invalid="ignore"):
                jac += np.array(rows).T.dot(
                    np.array(outer_hessian, dtype=float).dot(np.array(grads)))
        return jac

    return jacobian


def outcome(call, *args):
    """What ``call`` gives: its array, or the text of its DomainError."""
    try:
        return call(*args)
    except DomainError as exc:
        return str(exc)


def assert_same_jacobian(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def assert_plan_gives_the_loops_jacobian(assembled, form, points, values):
    """The assembly's Jacobian at the state, with its integrals given and
    not, has the loop's bytes or raises the loop's text; it raises where the
    loop's matrix is not finite."""
    loop = loop_jacobian(assembled, form, points)
    s = assembled.state(values)
    comps = outcome(assembled.integrals, s)
    for given in (None,) if isinstance(comps, str) else (None, comps):
        expected = outcome(loop, s, given)
        if not isinstance(expected, str) and not np.isfinite(expected).all():
            expected = "jacobian is not finite at this state"
        assert_same_jacobian(outcome(assembled.jacobian, s, given), expected)


def firm_window(problem, kind, equation):
    form, domain = econ._WINDOWS[kind, equation]
    return form, getattr(problem.scale, domain)


@st.composite
def firm_jacobian_states(draw):
    """A firm model at T = 2, 3, 4, 10 or 20 and either rate, and a state
    whose sales keep the guards."""
    horizon = draw(st.sampled_from([2, 3, 4, 10, 20]))
    params = FirmParams(horizon=horizon, discount_rate=draw(st.sampled_from([0.05, 0.02])))
    inner = draw(st.lists(st.floats(1.3, 3.8), min_size=horizon - 1, max_size=horizon - 1))
    return params, [params.y_initial, *inner, params.y_terminal]


@given(firm_jacobian_states())
def test_the_read_plan_gives_the_loops_jacobian_on_the_firm_systems(case):
    params, values = case
    for kind in ProblemKind:
        problem = firm_problem(params, kind)
        for equation in EquationKind:
            form, points = firm_window(problem, kind, equation)
            one = variational._problem_assembly(problem, form, points)
            assert_plan_gives_the_loops_jacobian(one, form, points, values)


@given(st.one_of(assemblies(), assemblies(unit_steps=True)))
def test_the_read_plan_gives_the_loops_jacobian_on_smooth_integrands(case):
    gaps, integrands, outer, form, points, values = case
    assembled = assemble(gaps, integrands, outer, form, points)
    assert_plan_gives_the_loops_jacobian(assembled, form, points, values)


def test_the_clamped_assembly_refuses_a_jacobian_that_is_not_finite():
    # near the sales floor with B up to 1e305 the loop's matrix has entries
    # that are inf or NaN at some states: the assembly, and the firm system
    # that reads it, raise exactly there
    rng = np.random.default_rng(20)
    seen = set()
    for _ in range(300):
        horizon = int(rng.choice([2, 3, 4, 6]))
        params = FirmParams(B=10.0 ** rng.uniform(0.0, 305.0), horizon=horizon,
                            discount_rate=float(rng.choice([0.05, 0.02])))
        inner = params.y_floor + 2.0 ** -rng.uniform(0.0, 60.0, horizon - 1)
        inner[rng.random(horizon - 1) < 0.3] = rng.uniform(1.5, 4.0)
        values = [params.y_initial, *inner.tolist(), params.y_terminal]
        kind = list(ProblemKind)[rng.integers(4)]
        equation = list(EquationKind)[rng.integers(3)]
        problem = firm_problem(params, kind)
        form, points = firm_window(problem, kind, equation)
        clamped = variational._problem_assembly(problem, form, points)
        try:
            s = clamped.state(values)
        except DomainError:   # a guard fails
            continue
        expected = outcome(loop_jacobian(clamped, form, points), s)
        refused = isinstance(expected, str) or not np.isfinite(expected).all()
        if refused:
            expected = "jacobian is not finite at this state"
        assert_same_jacobian(outcome(clamped.jacobian, s), expected)
        assert_same_jacobian(outcome(residual_system(params, kind, equation).jacobian, inner),
                             expected)
        seen.add(refused)
    # finite matrices, and refused ones
    assert seen == {False, True}


# ---------------------------------------------------------------------------
# the strict residual: the clamped one on the theorem's own domain


@st.composite
def strict_cases(draw):
    """A problem on the integers 0..n-1 or a non-uniform scale on [0, n-1],
    n = 3 to 12, and a state through its boundary: the firm dn or nd pair
    at a B of 2 or 1e100, whose sales stay 0.5 above the floor and whose
    quotients keep the roots real, or smooth integrands of every (k, m)
    mix under the product or the sum outer."""
    n = draw(st.integers(3, 12))
    if draw(st.booleans()):
        scale = TimeScale.integer_range(0, n - 1)
    else:
        gaps = np.array(draw(st.lists(st.floats(0.7, 1.5), min_size=n - 1, max_size=n - 1)))
        points = np.concatenate(([0.0], np.cumsum(gaps) * (n - 1) / gaps.sum()))
        points[-1] = n - 1
        scale = TimeScale(points.tolist())
    if draw(st.booleans()):
        params = FirmParams(horizon=n - 1, B=draw(st.sampled_from([2.0, 1e100])))
        kind = draw(st.sampled_from([ProblemKind.DELTA_NABLA, ProblemKind.NABLA_DELTA]))
        integrands = [firm_integrand(params, f"capital_{kind.capital_mode}"),
                      firm_integrand(params, f"technology_{kind.technology_mode}")]
        outer = product_outer()
        inner = draw(st.lists(st.floats(1.5, 3.0), min_size=n - 2, max_size=n - 2))
        values = [params.y_initial, *inner, params.y_terminal]
    else:
        k, m = draw(st.sampled_from([(1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (1, 0), (0, 1)]))
        outer = draw(st.sampled_from([product_outer(), sum_outer(2)])) if k + m == 2 \
            else sum_outer(k + m)
        coefficients = st.tuples(*[st.floats(-2.0, 2.0)] * 5)
        integrands = [smooth_integrand("delta" if j < k else "nabla", draw(coefficients),
                                       scale.points) for j in range(k + m)]
        values = draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n))
    problem = CompositeProblem(scale, tuple(f for f in integrands if f.kind == "delta"),
                               tuple(f for f in integrands if f.kind == "nabla"), outer,
                               (values[0], values[-1]))
    return problem, GridFunction(scale, values)


@given(strict_cases(), st.sampled_from(["delta", "nabla"]))
def test_a_strict_residual_is_the_clamped_one_less_the_row_past_an_end(case, form):
    # the delta form of a problem with a delta integrand reads a quotient
    # past the top at the last interior point, the nabla form of one with a
    # nabla integrand past the bottom at the first; the strict residual
    # holds NaN there alone, and elsewhere the clamped residual's bytes
    problem, y = case
    interior = problem.scale.interior_domain
    if form == "delta":
        left_out = [interior[-1]] if problem.delta_integrands else []
    else:
        left_out = [interior[0]] if problem.nabla_integrands else []
    strict = theorem_main_residual(problem, y, form, STRICT)
    clamped = theorem_main_residual(problem, y, form, CLAMPED).values
    assert strict.support == interior
    assert [i for i in interior if np.isnan(strict.values[i])] == left_out
    kept = [i for i in interior if i not in left_out]
    assert strict.values[kept].tobytes() == clamped[kept].tobytes()
    for i in left_out:
        with pytest.raises(DomainError):
            strict(problem.scale.points[i])


# ---------------------------------------------------------------------------
# the assemblies a problem keeps

KEPT_SCALES = {"integer": TimeScale.integer_range(0, 5),
               "non-uniform": TimeScale([0.0, 0.6, 1.9, 2.5, 3.8, 5.0])}


def kept_problem(scale, integrands):
    """A product problem on ``scale``, built afresh: the firm's dn pair,
    which the problem reads through ``on_points``, or smooth test
    integrands, which have no ``on_points``."""
    if integrands == "firm":
        params = FirmParams(horizon=5)
        delta = (firm_integrand(params, "capital_delta"),)
        nabla = (firm_integrand(params, "technology_nabla"),)
        boundary = (params.y_initial, params.y_terminal)
    else:
        delta = (smooth_integrand("delta", (1.0, 0.5, 0.2, -0.1, 0.3), scale.points),)
        nabla = (smooth_integrand("nabla", (-0.5, 1.5, 0.1, 0.2, -0.4), scale.points),)
        boundary = (1.0, 2.0)
    return CompositeProblem(scale, delta, nabla, product_outer(), boundary)


def kept_states(problem):
    """Two states through the problem's boundary: the line and a bent one."""
    (ya, yb), pts = problem.boundary, problem.scale.points
    line = [ya + (yb - ya) * t / pts[-1] for t in pts]
    bent = [y + bump for y, bump in zip(line, (0.0, 0.1, -0.05, 0.08, 0.03, 0.0))]
    return GridFunction(problem.scale, line), GridFunction(problem.scale, bent)


def fresh(evaluate, scale, integrands, y):
    """``evaluate`` on a problem built for this call alone; its table is
    emptied first, so that it builds its assembly even were problems to
    share one table."""
    problem = kept_problem(scale, integrands)
    problem._assemblies.clear()
    return evaluate(problem, y)


def residual_values(form, policy):
    return lambda problem, y: theorem_main_residual(problem, y, form, policy).values


# each policy and form of the residual, the strict one first, between the
# functional and the component integrals
KEPT_EVALUATIONS = (residual_values("delta", STRICT), eval_functional,
                    residual_values("nabla", CLAMPED), eval_component_integrals,
                    residual_values("delta", CLAMPED), residual_values("nabla", STRICT))


def test_a_problem_builds_one_assembly_per_policy_form_and_window(monkeypatch):
    from tsvar import variational

    built = []

    def counted(gaps, integrands, outer, form="cores", points=range(0), stacked=False,
                **names):
        built.append((form, points))
        return assemble(gaps, integrands, outer, form, points, stacked, **names)

    monkeypatch.setattr(variational, "assemble", counted)
    problem = kept_problem(KEPT_SCALES["integer"], "firm")
    for _ in range(3):
        for y in kept_states(problem):
            for evaluate in KEPT_EVALUATIONS:
                evaluate(problem, y)
            for which in ("first", "second"):
                for policy in (STRICT, CLAMPED):
                    corollary_z_residual(problem, y, which, policy)
    # the clamped forms read the interior, the strict ones the theorem's own
    # domains within it: the delta form leaves out the last point, the nabla
    # form the first
    interior = problem.scale.interior_domain
    assert sorted(built, key=repr) == sorted([
        ("cores", range(0)), ("delta", interior), ("nabla", interior),
        ("delta", interior[:-1]), ("nabla", interior[1:])], key=repr)


@pytest.mark.parametrize("integrands", ["firm", "smooth"])
@pytest.mark.parametrize("scale", KEPT_SCALES.values(), ids=KEPT_SCALES)
def test_a_kept_assembly_gives_a_fresh_problem_s_results(scale, integrands):
    """Interleaved policies, forms and states on one problem give, bit for
    bit, what a problem built for the one call gives: a key without the
    window, say, would read the strict delta form's rows in the clamped one."""
    problem = kept_problem(scale, integrands)
    states = kept_states(problem)
    for evaluations in (KEPT_EVALUATIONS, KEPT_EVALUATIONS[::-1], KEPT_EVALUATIONS):
        for y in states:
            for evaluate in evaluations:
                assert np.array_equal(evaluate(problem, y), fresh(evaluate, scale, integrands, y),
                                      equal_nan=True)


@pytest.mark.parametrize("scale", KEPT_SCALES.values(), ids=KEPT_SCALES)
def test_a_kept_assembly_outlives_a_failed_guard(scale):
    problem = kept_problem(scale, "firm")
    y, _ = kept_states(problem)
    at_the_floor = GridFunction(scale, [2.0, 1.0, *y.values[2:]])
    for evaluate in KEPT_EVALUATIONS:
        with pytest.raises(DomainError) as kept:
            evaluate(problem, at_the_floor)
        with pytest.raises(DomainError) as built:
            fresh(evaluate, scale, "firm", at_the_floor)
        assert str(kept.value) == str(built.value)
        assert np.array_equal(evaluate(problem, y), fresh(evaluate, scale, "firm", y),
                              equal_nan=True)


def test_a_replaced_problem_keeps_its_own_assemblies():
    # both scales have the same window, so a shared table would hand the
    # moved problem the integer scale's graininess
    problem = kept_problem(KEPT_SCALES["integer"], "firm")
    for evaluate in KEPT_EVALUATIONS:
        evaluate(problem, kept_states(problem)[1])
    other = KEPT_SCALES["non-uniform"]
    moved = dataclasses.replace(problem, scale=other)
    y = kept_states(moved)[1]
    for evaluate in KEPT_EVALUATIONS:
        assert np.array_equal(evaluate(moved, y), fresh(evaluate, other, "firm", y),
                              equal_nan=True)
    assert len(problem._assemblies) == len(moved._assemblies) == 5


def test_an_evaluated_problem_compares_hashes_and_prints_as_before():
    problem = kept_problem(KEPT_SCALES["non-uniform"], "smooth")
    unevaluated = dataclasses.replace(problem)
    for evaluate in KEPT_EVALUATIONS:
        evaluate(problem, kept_states(problem)[0])
    assert problem == unevaluated
    assert hash(problem) == hash(unevaluated)
    assert repr(problem) == repr(unevaluated)


# ---------------------------------------------------------------------------
# a residual system for any problem


@pytest.mark.parametrize("scale", KEPT_SCALES.values(), ids=KEPT_SCALES)
@pytest.mark.parametrize("integrands", ["firm", "smooth"])
def test_a_problem_system_reads_the_problem_s_window(integrands, scale):
    # its rows are the clamped theorem form on the interior, bit for bit,
    # one state at a time or in a stack: on one column of arrays where the
    # integrands have read forms; where they have none the system offers no
    # stack, and the solvers' lift evaluates it state by state
    problem = kept_problem(scale, integrands)
    interior = scale.interior_domain
    system = problem_system(problem, "delta", interior, label="delta")
    assert system.dimension == len(scale) - 2 and system.label == "delta"
    assert (system.stacked_residual is None) == (integrands == "smooth")
    stacked = system.stacked_residual or _lift_residual(system)
    states = kept_states(problem)
    xs = np.array([y.values[1:-1] for y in states])
    for x, y, row in zip(xs, states, stacked(xs)):
        want = theorem_main_residual(problem, y, "delta", CLAMPED).values[1:-1]
        assert system.residual(x).tobytes() == row.tobytes() == want.tobytes()
        assert system.functional(x) == eval_functional(problem, y)
    with pytest.raises(ValueError, match="consecutive points"):
        problem_system(problem, "delta", range(0, len(scale)))


def test_a_problem_system_refuses_a_state_of_the_wrong_length_and_an_unknown_form():
    problem = kept_problem(KEPT_SCALES["integer"], "firm")
    interior = problem.scale.interior_domain
    system = problem_system(problem, "cores", interior)
    for call in (system.residual, system.jacobian, system.functional):
        with pytest.raises(ValueError, match="^expected 4 interior values, got 3$"):
            call([2.2, 2.4, 2.6])
    with pytest.raises(ValueError, match="^unknown form 'bogus'$"):
        problem_system(problem, "bogus", interior)


def test_the_corollary_refuses_an_unknown_equation():
    problem = kept_problem(KEPT_SCALES["integer"], "firm")
    with pytest.raises(ValueError, match="^which must be 'first' or 'second', got 'third'$"):
        corollary_z_residual(problem, kept_states(problem)[0], "third")


def test_a_problem_system_names_the_guard_at_the_scale_s_point():
    # a guard on a smooth integrand: the one-state residual names the
    # failing point of the scale; the system offers no stack, and the
    # solvers' lift of it marks the failing row NaN
    scale = KEPT_SCALES["non-uniform"]
    f = smooth_integrand("delta", (1.0, 0.5, 0.2, -0.1, 0.3), scale.points)
    guarded = dataclasses.replace(f, guard=Guard("v", operator.le, 0.0,
                                                 lambda v, t: f"rate {v} not positive at t={t}"))
    g = smooth_integrand("nabla", (-0.5, 1.5, 0.1, 0.2, -0.4), scale.points)
    problem = CompositeProblem(scale, (guarded,), (g,), product_outer(), (1.0, 2.0))
    system = problem_system(problem, "cores", scale.interior_domain)
    fine, steep = [1.2, 1.3, 1.5, 1.8], [1.2, 1.1, 1.5, 1.8]
    with pytest.raises(DomainError, match=r"^rate -0\.07\d* not positive at t=0\.6$"):
        system.residual(steep)
    assert system.stacked_residual is None
    rows = _lift_residual(system)(np.array([fine, steep]))
    assert rows[0].tobytes() == system.residual(fine).tobytes() and np.isnan(rows[1]).all()
    with pytest.raises(ValueError, match="a guard reads"):
        dataclasses.replace(f, guard=Guard("t", operator.le, 0.0, str))
    with pytest.raises(ValueError, match="a guard fails by"):
        dataclasses.replace(f, guard=Guard("v", operator.gt, 1.0, str))


def test_newton_takes_central_differences_where_the_integrands_have_no_second_partials():
    # without second partials the system has no exact Jacobian, so Newton
    # differences the residual and reaches the root the exact one reaches
    scale = KEPT_SCALES["non-uniform"]
    f = smooth_integrand("delta", (0.1, 1.0, 0.1, 0.02, 0.2), scale.points)
    g = smooth_integrand("nabla", (0.1, 0.8, -0.1, 0.02, 0.1), scale.points)
    roots = []
    for second in (True, False):
        bare = {} if second else dict(partial_yy=None, partial_yv=None, partial_vv=None)
        problem = CompositeProblem(scale, (dataclasses.replace(f, **bare),),
                                   (dataclasses.replace(g, **bare),), sum_outer(2), (1.0, 2.0))
        system = problem_system(problem, "nabla", scale.interior_domain)
        report = newton_solve(system, [1.2, 1.4, 1.6, 1.8])
        assert report.converged, report.message
        assert (system.jacobian is None) is not second
        roots.append(report.root)
    assert np.abs(roots[0] - roots[1]).max() <= 1e-10


def test_a_division_by_zero_in_the_integrals_is_a_domain_error():
    # 1 / (y - 2) at y_1 = 2: the integrals name themselves, the theorem's
    # residual keeps its text, and the solvers report an infeasible start
    f = Integrand("delta", lambda t, y, v: 1.0 / (y - 2.0),
                  lambda t, y, v: -1.0 / ((y - 2.0) * (y - 2.0)), lambda t, y, v: 0.0)
    scale = TimeScale.integer_range(0, 4)
    problem = CompositeProblem(scale, (f,), (), identity_outer(), (1.0, 3.0))
    start = [2.0, 2.5, 2.7]
    y = GridFunction(scale, [1.0, *start, 3.0])
    for evaluate in (eval_functional, eval_component_integrals):
        with pytest.raises(DomainError, match="^component integrals are not finite at this state$"):
            evaluate(problem, y)
    for form in ("delta", "nabla"):
        with pytest.raises(DomainError, match="^residual is not finite at this state$"):
            theorem_main_residual(problem, y, form)
    system = problem_system(problem, "cores", scale.interior_domain)
    want = "infeasible start: component integrals are not finite at this state"
    reports = [newton_solve(system, start), *lockstep_solve(system, [start]),
               *multistart_solve(system, [start])]
    assert [report.message for report in reports] == [want] * 3
