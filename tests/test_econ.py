"""Tests for the firm production/investment model and its residual systems."""

import dataclasses
import fractions
import gc
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tsvar import (
    CLAMPED,
    STRICT,
    CompositeProblem,
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
    identity_outer,
    newton_solve,
    product_outer,
    residual_system,
    theorem_main_residual,
)
from tsvar.econ import INTEGRAND_NAMES
from tsvar.solver import _lift_residual
from tsvar.variational import assemble

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
        (dict(c0=10**400), "c0"),   # finite, but past the float range
    ]
    # every field must be finite: a NaN passes the range checks above
    cases += [({field.name: bad}, field.name)
              for field in dataclasses.fields(FirmParams)
              for bad in (math.nan, math.inf, -math.inf)]
    for overrides, name in cases:
        with pytest.raises(ValueError, match=name):
            FirmParams(**overrides)


@pytest.mark.parametrize("sign", [1, -1])
def test_horizon_past_int_formatting_is_refused_by_name(sign):
    # 10**5000 has more digits than str() formats
    with pytest.raises(ValueError, match="^horizon must be .* integer of more than 64 digits$"):
        FirmParams(horizon=sign * 10 ** 5000)


def test_integral_float_horizon_is_stored_as_an_int():
    for horizon in (10.0, np.int64(10)):
        params = FirmParams(horizon=horizon)
        assert type(params.horizon) is int and params == FirmParams(horizon=10)
        system = residual_system(params, ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL2)
        assert system.residual(np.linspace(2.0, 3.0, 11)[1:-1]).shape == (9,)
    with pytest.raises(ValueError, match="horizon"):
        FirmParams(horizon=10.5)
    # and every other field as a Python float, which a numpy scalar, an int
    # or a fraction is not, though each compares and hashes equal to it
    for value in (np.float64(3.0), 3, fractions.Fraction(3)):
        params = FirmParams(c2=value)
        assert type(params.c2) is float and params == FirmParams()


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


PARTIALS = ("value", "partial_y", "partial_v", "partial_yy", "partial_yv", "partial_vv")


def read_scales(horizon, rng):
    """The integer scale 0..T, a random non-uniform one on [0, T], and one
    whose first two points share a discount, as 1e-17 - T rounds to -T."""
    inner = np.sort(rng.uniform(0.0, horizon, horizon - 1)).tolist()
    return (TimeScale.integer_range(0, horizon), TimeScale([0.0, *inner, float(horizon)]),
            TimeScale([0.0, 1e-17, *range(1, horizon + 1)]))


@pytest.mark.parametrize("rate", [0.05, 0.02])
@pytest.mark.parametrize("horizon", [3, 10])
def test_integrands_on_any_scale_match_the_tabulated_ones(rate, horizon):
    # the firm model is declared once: firm_integrand takes the time and
    # checks its declared guard per call, and a problem, whose windows are
    # the residual systems, reads the bare terms at tabulated discounts
    # after the assembly's one guard pass; on feasible states they agree bit
    # for bit
    params = FirmParams(discount_rate=rate, horizon=horizon)
    rng = np.random.default_rng(211)
    guarded = {"capital": {"value", "partial_y", "partial_yy"},
               "technology": {"value", "partial_v", "partial_vv"}}
    for name in INTEGRAND_NAMES:
        family = name.rsplit("_", 1)[0]
        anywhere = firm_integrand(params, name)
        forms = [(scale.points, anywhere.on_points(anywhere, scale.points, False))
                 for scale in read_scales(horizon, rng)]
        for points, form in forms:
            # the read form declares the integrand's guard, which the
            # assembly checks; its callables check none
            assert form.guard is anywhere.guard
            assert form.kind == anywhere.kind and len(form.at) == len(points)
            for t, d in zip(points, form.at):
                ys, vs = rng.uniform(1.05, 6.0, 20).tolist(), rng.uniform(-3.9, 4.0, 20).tolist()
                for y, v in zip(ys, vs):
                    for partial in PARTIALS:
                        got = getattr(anywhere, partial)(t, y, v)
                        want = getattr(form, partial)(d, y, v)
                        assert got.hex() == want.hex(), (name, partial, t, y, v)
                # at the floor and at a rate of -b only the guarded time
                # callables raise, each naming its guard and the point; a NaN
                # rate passes
                guard = "price-curve guard" if family == "capital" else "rate-change guard"
                for partial in PARTIALS:
                    call, read = getattr(anywhere, partial), getattr(form, partial)
                    call(t, 2.0, math.nan)
                    read(d, 2.0, math.nan)
                    if partial not in guarded[family]:
                        call(t, params.y_floor, -params.b)
                        continue
                    with pytest.raises(DomainError, match=f"^{guard}: .* at t={t}$"):
                        call(t, params.y_floor, -params.b)


def firm_composite(params, kind, scale, read=True):
    """The firm problem of ``kind`` on any scale spanning 0..T; without
    ``read`` its integrands have no ``on_points``, so it reads them at the
    times."""
    integrands = (firm_integrand(params, f"capital_{kind.capital_mode}"),
                  firm_integrand(params, f"technology_{kind.technology_mode}"))
    if not read:
        integrands = tuple(dataclasses.replace(f, on_points=None) for f in integrands)
    return CompositeProblem(scale, tuple(f for f in integrands if f.kind == "delta"),
                            tuple(f for f in integrands if f.kind == "nabla"), product_outer(),
                            (params.y_initial, params.y_terminal))


def evaluations(problem, y) -> list:
    """The problem's functional, component integrals and both theorem forms
    under both policies at ``y``, as bytes, or the text of the DomainError
    each raises."""
    calls = [lambda: eval_functional(problem, y), lambda: eval_component_integrals(problem, y)]
    calls += [lambda form=form, policy=policy: theorem_main_residual(problem, y, form, policy).values
              for form in ("delta", "nabla") for policy in (STRICT, CLAMPED)]
    out = []
    for call in calls:
        try:
            out.append(np.asarray(call()).tobytes())
        except DomainError as exc:
            out.append(str(exc))
    return out


def test_a_problem_evaluates_no_firm_callable_at_its_times():
    # a problem reads its firm integrands at tabulated discounts: an
    # evaluation calls none of the time callables, so takes no power
    params = FirmParams(horizon=3)
    rng = np.random.default_rng(5)
    for kind in (ProblemKind.DELTA_NABLA, ProblemKind.NABLA_DELTA):
        for scale in read_scales(3, rng)[:2]:
            problem = firm_composite(params, kind, scale)
            integrands = (*problem.delta_integrands, *problem.nabla_integrands)
            codes = {getattr(f, name).__code__ for f in integrands for name in PARTIALS}
            calls = []

            def profile(frame, event, arg):
                if event == "call" and frame.f_code in codes:
                    calls.append(frame.f_code)

            y = GridFunction(scale, [2.0, 2.5, 2.7, 3.0])
            sys.setprofile(profile)
            try:
                evaluations(problem, y)
                called = len(calls)
                integrands[0].value(scale.points[1], 2.5, 0.2)   # the counter sees a time call
            finally:
                sys.setprofile(None)
            assert called == 0 and len(calls) == 1


def test_a_negative_zero_param_is_not_the_cached_zero():
    # params that differ only in the sign of a zero give outputs whose zeros
    # differ in sign, so the caches keyed on them keep them apart
    zero, negative = FirmParams(beta=0.0, lam=0.0), FirmParams(beta=-0.0, lam=0.0)
    assert zero != negative
    assert FirmParams(beta=-0.0, lam=0.0) == negative
    assert hash(FirmParams(beta=-0.0, lam=0.0)) == hash(negative)
    firm_integrand(zero, "technology_nabla")
    fresh = firm_integrand.__wrapped__(negative, "technology_nabla")
    assert fresh.partial_v(3.0, 2.0, 0.0).hex() == "-0x0.0p+0"
    got = firm_integrand(negative, "technology_nabla").partial_v(3.0, 2.0, 0.0)
    assert got.hex() == "-0x0.0p+0"
    firm_problem(zero, ProblemKind.DELTA_NABLA)
    technology = firm_problem(negative, ProblemKind.DELTA_NABLA).nabla_integrands[0]
    assert technology.partial_v(3.0, 2.0, 0.0).hex() == "-0x0.0p+0"


def test_a_kept_assembly_builds_its_jacobian_stencils_once(monkeypatch):
    # the Jacobian builds its stencils on its first call and keeps them, and
    # the cached problem keeps the assembly: a second system of the same
    # params, kind and equation reads the same one
    from tsvar import econ, variational

    calls, real = [], variational._stencils
    monkeypatch.setattr(variational, "_stencils", lambda *args: calls.append(args) or real(*args))
    econ.firm_problem.cache_clear()
    params = FirmParams(horizon=6)
    rng = np.random.default_rng(17)
    for _ in range(2):
        system = residual_system(params, ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL1)
        for x in rng.uniform(2.2, 2.8, (3, params.horizon - 1)):
            assert np.isfinite(system.jacobian(x)).all()
    assert len(calls) == 1


def test_a_replaced_firm_callable_is_the_one_a_problem_evaluates():
    params = FirmParams()
    problem = firm_problem(params, ProblemKind.DELTA_NABLA)
    capital = problem.delta_integrands[0]
    seen = []

    def value(t, y, v):
        seen.append(t)
        return capital.value(t, y, v)

    replaced = CompositeProblem(problem.scale, (dataclasses.replace(capital, value=value),),
                                problem.nabla_integrands, problem.outer, problem.boundary)
    y = linear_state(params)
    assert eval_functional(replaced, y) == eval_functional(problem, y)
    assert seen == [0.0, 1.0, 2.0]   # the delta integral's points, as times


@st.composite
def read_cases(draw):
    """A firm problem of any kind on an integer or non-uniform scale, and a
    state, one of whose interior values may sit at the floor or step down
    from its predecessor at the rate -b."""
    horizon = draw(st.integers(2, 6))
    params = FirmParams(discount_rate=draw(st.sampled_from([0.05, 0.02])), horizon=horizon)
    kind = draw(st.sampled_from(ALL_KINDS))
    points = list(range(horizon + 1))
    if draw(st.booleans()):
        inner = draw(st.lists(st.floats(0.01, horizon - 0.01), min_size=horizon - 1,
                              max_size=horizon - 1, unique=True))
        points = [0.0, *sorted(inner), float(horizon)]
    scale = TimeScale(points)
    values = [params.y_initial, *draw(st.lists(st.floats(0.5, 8.0), min_size=horizon - 1,
                                               max_size=horizon - 1)), params.y_terminal]
    guard = draw(st.sampled_from([None, "floor", "rate"]))
    i = draw(st.integers(1, horizon - 1))
    if guard == "floor":
        values[i] = params.y_floor
    elif guard == "rate":
        values[i] = values[i - 1] - params.b * (scale.points[i] - scale.points[i - 1])
    return params, kind, scale, GridFunction(scale, values)


@given(read_cases())
def test_a_problem_reads_its_integrands_as_at_their_times(case):
    # the time callables are the reference: a problem evaluates bit for bit,
    # or raises the same text, as the problem without the read forms
    params, kind, scale, y = case
    assert (evaluations(firm_composite(params, kind, scale), y)
            == evaluations(firm_composite(params, kind, scale, read=False), y))


def test_a_read_form_runs_on_arrays_as_on_floats():
    # on a column of its table and (n, 1) states a read callable computes each
    # entry as the float form does, bit for bit; the declared guard marks the
    # failing entries of an array, which the callables, checking nothing,
    # compute past
    params = FirmParams(horizon=6)
    rng = np.random.default_rng(41)
    for name in INTEGRAND_NAMES:
        anywhere = firm_integrand(params, name)
        guard = anywhere.guard
        for scale in read_scales(6, rng):
            form = anywhere.on_points(anywhere, scale.points, True)
            floats = anywhere.on_points(anywhere, scale.points, False)
            assert form.at == floats.at and form.guard is guard
            d = np.array(form.at)[:, None]
            y, v = rng.uniform(1.05, 6.0, (len(d), 1)), rng.uniform(-3.9, 4.0, (len(d), 1))
            v[0] = math.nan
            y_hit, v_hit = y.copy(), v.copy()
            y_hit[-2], v_hit[-2] = params.y_floor, -params.b
            hit = guard.fails(y_hit if guard.reads == "y" else v_hit, guard.bound)
            assert np.flatnonzero(hit).tolist() == [len(d) - 2]
            for partial in PARTIALS:
                read = getattr(form, partial)
                got = np.broadcast_to(read(d, y, v), y.shape)
                want = [getattr(floats, partial)(*map(float, entry))
                        for entry in zip(d[:, 0], y[:, 0], v[:, 0])]
                assert got[:, 0].tobytes() == np.array(want).tobytes(), (name, partial)
                with np.errstate(all="ignore"):
                    read(d, y_hit, v_hit)


@st.composite
def extreme_reads(draw):
    """Firm params with B up to 1e305 and lam and beta zeros of either sign,
    and (y, v) entries whose margins over the floor reach down to 2**-500
    and whose quotients sit next to -b, at or just past it."""
    zero = st.sampled_from([0.0, -0.0])
    params = FirmParams(B=draw(st.one_of(st.floats(1e-3, 1e305), st.sampled_from([1e305]))),
                        lam=draw(st.one_of(zero, st.floats(-10.0, 10.0))),
                        beta=draw(st.one_of(zero, st.floats(0.0, 10.0))),
                        y_floor=draw(st.sampled_from([0.0, 1.0])), horizon=4)
    margin = st.one_of(st.floats(2.0 ** -500, 2.0 ** -400), st.floats(2.0 ** -60, 10.0),
                       st.sampled_from([2.0 ** -500, 0.0]))
    b = params.b
    rate = st.one_of(st.sampled_from([-b, math.nextafter(-b, math.inf),
                                      math.nextafter(-b, -math.inf)]),
                     st.floats(-b, -b + 1e-9), st.floats(-b + 1e-9, 4.0))
    ys = [params.y_floor + draw(margin) for _ in range(params.horizon + 1)]
    vs = [draw(rate) for _ in range(params.horizon + 1)]
    return params, np.array(ys)[:, None], np.array(vs)[:, None]


@given(extreme_reads())
def test_a_read_form_runs_on_arrays_as_on_floats_at_extremes(case):
    # the array form computes with 0-d constants, the float form with
    # Python floats; at huge B, margins whose powers underflow, roots of
    # next to nothing and signed zeros each entry the floats give without
    # raising is the array's to the byte
    params, y, v = case
    scale = TimeScale.integer_range(0, params.horizon)
    for name in INTEGRAND_NAMES:
        anywhere = firm_integrand(params, name)
        form = anywhere.on_points(anywhere, scale.points, True)
        floats = anywhere.on_points(anywhere, scale.points, False)
        d = np.array(form.at)[:, None]
        for partial in PARTIALS:
            with np.errstate(all="ignore"):
                got = np.broadcast_to(getattr(form, partial)(d, y, v), y.shape)[:, 0]
            for entry, (t, yi, vi) in enumerate(zip(d[:, 0], y[:, 0], v[:, 0])):
                try:
                    want = getattr(floats, partial)(float(t), float(yi), float(vi))
                except (ZeroDivisionError, ValueError):   # a zero margin or root, a negative root
                    continue
                assert got[entry].tobytes() == np.float64(want).tobytes(), (name, partial, entry)


def fast_path_count(monkeypatch):
    """The ``stacked`` flag of every assembly a problem evaluation asks for."""
    from tsvar import variational

    asked, real = [], variational._problem_assembly

    def counted(problem, policy, form="cores", points=range(0), stacked=False):
        asked.append(stacked)
        return real(problem, policy, form, points, stacked)

    monkeypatch.setattr(variational, "_problem_assembly", counted)
    return asked


@pytest.mark.parametrize("size", [64, 256])
def test_a_problem_reads_a_feasible_state_on_arrays(size, monkeypatch):
    # on feasible states a problem with read forms evaluates one column of the
    # stacked assembly and never falls back to floats, under either policy,
    # and gives the bytes of the problem read at its times
    horizon = size - 1
    params = FirmParams(horizon=horizon)
    rng = np.random.default_rng(size)
    gaps = rng.uniform(0.5, 1.5, horizon)
    uneven = np.concatenate(([0.0], np.cumsum(gaps) * horizon / gaps.sum()))
    uneven[-1] = horizon
    for scale in (TimeScale.integer_range(0, horizon), TimeScale(uneven.tolist())):
        pts = np.array(scale.points)
        line = params.y_initial + (params.y_terminal - params.y_initial) * pts / horizon
        line[1:-1] += rng.normal(0.0, 0.02, size - 2)
        y = GridFunction(scale, line)
        for kind in ALL_KINDS:
            want = evaluations(firm_composite(params, kind, scale, read=False), y)
            problem = firm_composite(params, kind, scale)
            with monkeypatch.context() as patch:
                asked = fast_path_count(patch)
                got = evaluations(problem, y)
            assert asked == [True] * 6
            assert got == want
            assert not any(isinstance(out, str) for out in got)


def test_a_negative_zero_first_term_sums_as_on_floats(monkeypatch):
    # with lam = 0 and beta = -0.0 every technology term is -0.0; one state's
    # integral adds them to 0.0, and so must the column
    params = FirmParams(lam=0.0, beta=-0.0, y_floor=-10.0, y_initial=-5.0, y_terminal=-4.0,
                        horizon=4)
    scale = TimeScale.integer_range(0, 4)
    y = GridFunction(scale, [-5.0, -4.7, -4.5, -4.2, -4.0])
    asked = fast_path_count(monkeypatch)
    for kind in ALL_KINDS:
        problem = firm_composite(params, kind, scale)
        asked.clear()
        got = evaluations(problem, y)
        assert asked == [True] * 6
        assert got == evaluations(firm_composite(params, kind, scale, read=False), y)
        assert not np.signbit(eval_component_integrals(problem, y)).any()


@pytest.mark.parametrize("guard", ["floor", "rate"])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
def test_a_problem_names_the_point_on_a_scale_of_equal_discounts(kind, guard):
    # on (0, 1e-17, 1, ...) the first two points share a discount, which the
    # column cannot tell apart; a guard hit falls back to floats, which name
    # the point as the problem read at its times does
    params = FirmParams(horizon=5)
    scale = read_scales(5, np.random.default_rng(3))[2]
    pts = scale.points
    line = [params.y_initial + (params.y_terminal - params.y_initial) * t / pts[-1] for t in pts]
    named = set()
    for i in range(1, len(pts) - 1):
        values = list(line)
        if guard == "floor":
            values[i] = params.y_floor
        else:
            values[i] = values[i - 1] - params.b * (pts[i] - pts[i - 1])
        y = GridFunction(scale, values)
        got = evaluations(firm_composite(params, kind, scale), y)
        assert got == evaluations(firm_composite(params, kind, scale, read=False), y)
        named.update(out for out in got if isinstance(out, str))
    assert named and all(" at t=" in text for text in named)


@pytest.mark.parametrize("policy", [STRICT, CLAMPED])
@pytest.mark.parametrize("form", ["delta", "nabla"])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
def test_a_margin_whose_square_underflows_is_a_domain_error(kind, form, policy):
    # at y_1 = 1e-170 above a floor of 0 the margin's square is 0: the float
    # division raises ZeroDivisionError, which the residual reports as the
    # residual systems do; the column falls back to the floats
    params = FirmParams(y_floor=0.0)
    for read in (True, False):
        problem = firm_composite(params, kind, TimeScale.integer_range(0, 3), read)
        y = GridFunction(problem.scale, [2.0, 1e-170, 2.5, 3.0])
        if (kind.value, form) in (("dd", "delta"), ("dn", "delta")):   # y_1 unread by partial_y
            assert np.isfinite(theorem_main_residual(problem, y, form, policy)(1.0))
            continue
        with pytest.raises(DomainError, match="^residual is not finite at this state$"):
            theorem_main_residual(problem, y, form, policy)


def test_a_clamped_theorem_residual_that_is_not_finite_raises_as_the_systems_do():
    # at B = 1e300 and a margin of 2**-40 the capital state partial is past
    # the float range: both el systems refuse the state, and the clamped
    # theorem residual, on floats or read first as one column, does so too
    params = FirmParams(B=1e300)
    for read in (True, False):
        problem = firm_composite(params, ProblemKind.DELTA_NABLA, TimeScale.integer_range(0, 3),
                                 read)
        y = GridFunction(problem.scale, [2.0, 1 + 2 ** -40, 2.5, 3.0])
        for form in ("delta", "nabla"):
            with pytest.raises(DomainError, match="^residual is not finite at this state$"):
                theorem_main_residual(problem, y, form, CLAMPED)
    for equation in (EquationKind.TIMESCALE_EL1, EquationKind.TIMESCALE_EL2):
        system = residual_system(params, ProblemKind.DELTA_NABLA, equation)
        with pytest.raises(DomainError, match="^residual is not finite at this state$"):
            system.residual(np.array([1 + 2 ** -40, 2.5]))


@pytest.mark.parametrize("horizon", [3, 4, 6])
def test_the_clamped_theorem_residual_raises_where_the_el_systems_raise(horizon):
    # each el system is the theorem's form on the interior under the clamped
    # policy; at states near the floor with B up to 1e305 the two raise the
    # same text at the same states and give the same bytes elsewhere
    rng = np.random.default_rng(3000 + horizon)
    outcomes = set()
    for _ in range(60):
        params = FirmParams(B=10.0 ** rng.uniform(0.0, 305.0), horizon=horizon)
        inner = params.y_floor + 2.0 ** -rng.uniform(0.0, 60.0, horizon - 1)
        inner[rng.random(horizon - 1) < 0.3] = rng.uniform(1.5, 4.0)
        for kind in (ProblemKind.DELTA_NABLA, ProblemKind.NABLA_DELTA):
            problem = firm_problem(params, kind)
            y = GridFunction(problem.scale, [params.y_initial, *inner, params.y_terminal])
            for equation, form in ((EquationKind.TIMESCALE_EL1, "delta"),
                                   (EquationKind.TIMESCALE_EL2, "nabla")):
                results = []
                for residual in (lambda: residual_system(params, kind, equation).residual(inner),
                                 lambda: theorem_main_residual(problem, y, form,
                                                               CLAMPED).values[1:-1]):
                    try:
                        results.append(residual().tobytes())
                    except DomainError as exc:
                        results.append(str(exc))
                assert results[0] == results[1], (params.B, inner.tolist(), kind, form)
                outcomes.add(isinstance(results[0], str))
    assert outcomes == {True, False}


def test_the_corollary_reports_a_margin_whose_square_underflows_as_the_theorem_does():
    # the corollary reads the state as floats, as the engine does, so the
    # second form's division by the margin's square, 0 at y_1 = 1e-170 above
    # a floor of 0, raises the theorem's DomainError in place of NaN rows;
    # the first form never reads the state partial at y_1
    problem = firm_problem(FirmParams(y_floor=0.0), ProblemKind.DELTA_NABLA)
    y = GridFunction(problem.scale, [2.0, 1e-170, 3.5, 3.0])
    first = corollary_z_residual(problem, y, "first", CLAMPED)
    assert first.values[1:3].tolist() == [108.75508265326856, 7.393344729997576]
    for residual, form in ((corollary_z_residual, "second"), (theorem_main_residual, "nabla")):
        with pytest.raises(DomainError, match="^residual is not finite at this state$"):
            residual(problem, y, form, CLAMPED)


# ---------------------------------------------------------------------------
# one integrand's Euler-Lagrange core


def core(params, which, values, t):
    """The core of the integrand ``which`` at point ``t`` of the state
    ``values`` on {0, ..., T}: the integrand alone under the identity outer,
    read at the times, with clamped shifts."""
    T = params.horizon
    f = dataclasses.replace(firm_integrand(params, which), at=tuple(range(T + 1)))
    assembled = assemble([1.0] * T, (f,), identity_outer(), CLAMPED, "cores", range(0, T + 1))
    return assembled.evaluate(assembled.state(list(values)))[t]


def test_forward_capital_core_closed_form_on_a_line():
    # constant slope kills the curvature term, leaving
    # disc * (c1 - p0 + B*floor/margin^2 - 2*c2*rho*slope)
    params = FirmParams()
    y = linear_state(params)
    got = core(params, "capital_delta", y.values, 1)
    assert_allclose(got, 0.10884353741496615, rtol=1e-12)
    slope = 1.0 / 3.0
    margin = (2.0 + 2.0 / 3.0) - params.y_floor
    expect = (1.05 ** (1 - 3)) * (
        params.c1 - params.p0 + params.B * params.y_floor / margin**2
        - 2.0 * params.c2 * params.discount_rate * slope
    )
    assert_allclose(got, expect, rtol=1e-12)


def test_backward_technology_core_closed_form_on_a_line():
    # constant backward rate d gives disc * (lam - beta*rho / (2 sqrt(d+b)))
    params = FirmParams()
    y = linear_state(params)
    got = core(params, "technology_nabla", y.values, 2)
    assert_allclose(got, 0.4721477172603468, rtol=1e-12)
    expect = 0.95 * (0.5 - 0.25 * 0.05 / (2.0 * math.sqrt(1.0 / 3.0 + 4.0)))
    assert_allclose(got, expect, rtol=1e-12)


def test_cores_are_component_integral_gradients():
    # forward components: d(integral)/dy_j equals the core at t = j - 1;
    # backward components: the core at t = j + 1
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
                core(params, "capital_delta", vals, j - 1),
                fd_capital, rtol=1e-6, atol=1e-9,
            )
            assert_allclose(
                core(params, "technology_nabla", vals, j + 1),
                fd_technology, rtol=1e-6, atol=1e-9,
            )


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


@pytest.mark.parametrize("horizon", [3, 20])
def test_an_empty_stack_gives_no_rows(horizon):
    # an empty stack sums its (n - 1, 0) terms as every width but 1 does;
    # the one-column sum read a column it does not have
    params = FirmParams(horizon=horizon)
    for kind in ProblemKind:
        for equation in EquationKind:
            system = residual_system(params, kind, equation)
            empty = np.empty((0, system.dimension))
            got = system.stacked_residual(empty)
            assert got.shape == _lift_residual(system)(empty).shape == (0, horizon - 1)


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


@pytest.mark.parametrize("horizon", [129, 257])
@pytest.mark.parametrize("kind, equation", [EIGHT_SYSTEMS[2], EIGHT_SYSTEMS[4]],
                         ids=["dd/direct", "dn/el1"])
def test_a_stack_in_any_layout_gives_the_one_state_rows(horizon, kind, equation):
    # an F-ordered stack would add each column's integral pairwise, off the
    # one-state sum from about eight terms on; the system lays every stack
    # out in C order, so no layout of the input changes a bit of a row
    params = FirmParams(horizon=horizon)
    rng = np.random.default_rng(horizon)
    line = np.linspace(params.y_initial, params.y_terminal, horizon + 1)[1:-1]
    xs = line + rng.normal(0.0, 0.02, (8, horizon - 1))
    system = residual_system(params, kind, equation)
    want = [system.residual(x).tobytes() for x in xs]
    for stack in (xs, np.asfortranarray(xs), xs.T.copy().T):
        assert [row.tobytes() for row in system.stacked_residual(stack)] == want


# stack sizes the solvers pass: one state, the 2m probes of each of 8 starts
# at T = 3, a start's 31 damping levels, and the largest stack
STACK_SIZES = (1, 4 * 8, 31, 1024)


@pytest.mark.parametrize("horizon", [3, 20])
@pytest.mark.parametrize("rate", [0.05, 0.02])
def test_a_stack_of_any_size_gives_the_one_state_rows(rate, horizon):
    # a stack's window indices, tables and constants are built once per
    # assembly; whatever the stack's size and wherever a state sits in it,
    # its row is the one-state residual's bytes, or NaN where that raises
    params = FirmParams(discount_rate=rate, horizon=horizon)
    rng = np.random.default_rng(horizon + int(rate * 100))
    line = np.linspace(params.y_initial, params.y_terminal, horizon + 1)[1:-1]
    pool = np.concatenate((stacked_test_states(params, rng, count=40),
                           line + rng.normal(0.0, 0.05, (20, horizon - 1))))
    for kind, equation in EIGHT_SYSTEMS:
        system = residual_system(params, kind, equation)
        want = []
        for x in pool:
            try:
                want.append(system.residual(x).tobytes())
            except DomainError:
                want.append(None)
        assert None in want and any(want), system.label
        for size in STACK_SIZES:
            picks = rng.integers(0, len(pool), size)   # each state at random rows
            for row, pick in zip(system.stacked_residual(pool[picks]), picks):
                if want[pick] is None:
                    assert np.isnan(row).all(), (system.label, size)
                else:
                    assert row.tobytes() == want[pick], (system.label, size)


def test_a_state_that_fails_both_guards_names_the_margin_first():
    # y_1 sits at the floor and the quotient from y_2 to y_3 is -b - 1; the
    # assembly checks the margins before the roots, so every system and the
    # problem read on each system's window name the floor, at the point
    # whose capital term reads y_1
    from tsvar import econ, variational

    params = FirmParams(horizon=4)
    x = np.array([1.0, 2.5, -2.5])
    for kind, equation in EIGHT_SYSTEMS:
        t = 0.0 if kind.capital_mode == "delta" else 2.0
        want = f"price-curve guard: sales hit the floor 1.0 at t={t}"
        system = residual_system(params, kind, equation)
        for call in (system.residual, system.jacobian, system.functional):
            with pytest.raises(DomainError) as raised:
                call(x)
            assert str(raised.value) == want, system.label
        assert np.isnan(system.stacked_residual(x[None])).all()
        problem = firm_problem(params, kind)
        y = GridFunction(problem.scale, [params.y_initial, *x, params.y_terminal])
        form, domain = econ._WINDOWS[kind, equation]
        points = getattr(problem.scale, domain)
        with pytest.raises(DomainError) as raised:
            variational._read(problem, y, lambda one, s: one.evaluate(s), CLAMPED, form, points)
        assert str(raised.value) == want, system.label
        assert evaluations(problem, y) == [want] * 6


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


def test_a_jacobian_that_overflows_is_a_domain_error_without_a_warning():
    # sales just above the floor: at B = 1e300 an inf and a -inf meet in the
    # Jacobian's rank part, and at B = 1e280, where the residual is finite,
    # a band entry is -inf; both fail the finiteness check, and numpy warns
    # of neither
    x = np.array([1 + 2**-40, 2.5])
    for B in (1e300, 1e280):
        system = residual_system(FirmParams(B=B), ProblemKind.DELTA_DELTA)
        with pytest.raises(DomainError, match="^jacobian is not finite at this state$"):
            system.jacobian(x)
    assert np.isfinite(system.residual(x)).all()


def test_a_dropped_system_is_freed_without_the_cycle_collector():
    # no closure of a system holds the system, so dropping it frees it, and
    # the tables of its last state, by reference counting alone
    enabled = gc.isenabled()
    gc.disable()
    try:
        system = residual_system(FirmParams(), ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL1)
        system.residual(np.array([2.9, 3.0]))
        ref = weakref.ref(system)
        del system
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
