"""Tests for the finite time scale and its difference calculus."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tsvar import DomainError, GridFunction, PointNotInScaleError, TimeScale


def random_scale(rng, min_points=3, max_points=12):
    """A nonuniform strictly increasing scale with 3 to 12 points."""
    n = int(rng.integers(min_points, max_points + 1))
    gaps = rng.uniform(0.1, 2.0, n - 1)
    start = rng.uniform(-5.0, 5.0)
    return TimeScale(start + np.concatenate([[0.0], np.cumsum(gaps)]))


# ---------------------------------------------------------------------------
# construction and point lookup


def test_scale_requires_three_points():
    with pytest.raises(ValueError):
        TimeScale([0.0, 1.0])


def test_scale_rejects_non_increasing_points():
    with pytest.raises(ValueError):
        TimeScale([0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        TimeScale([0.0, 2.0, 1.0])


@pytest.mark.parametrize("points", [[0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0],
                                    [0.0, 1.0, 2.0, np.inf]])
def test_scale_rejects_points_that_are_not_finite(points):
    with pytest.raises(ValueError, match="finite, got -?inf"):
        TimeScale(points)
    with pytest.raises(ValueError, match="strictly increasing"):
        TimeScale([0.0, np.nan, 1.0])
    # finite points whose gap overflows: refused by name, without a warning
    with pytest.raises(ValueError, match="-1.7e\\+308 and 1.7e\\+308 overflows"):
        TimeScale([-1.7e308, 1.7e308, 1.75e308])


def test_index_and_membership():
    ts = TimeScale([0.0, 0.5, 2.0])
    assert ts.index(0.5) == 1
    assert 2.0 in ts and 1.0 not in ts
    with pytest.raises(PointNotInScaleError):
        ts.index(1.0)


def test_integer_range_builder():
    ts = TimeScale.integer_range(0, 3)
    assert ts.points == (0.0, 1.0, 2.0, 3.0)
    assert ts.is_integer_grid
    assert not TimeScale([0.0, 0.5, 2.0]).is_integer_grid


def test_scales_compare_by_points():
    assert TimeScale([0, 1, 2]) == TimeScale.integer_range(0, 2)
    assert hash(TimeScale([0, 1, 2])) == hash(TimeScale.integer_range(0, 2))
    assert TimeScale([0, 1, 2]) != TimeScale([0, 1, 3])


# ---------------------------------------------------------------------------
# jump operators and graininess


def test_jump_operators_clamp_at_extremes():
    ts = TimeScale([0.0, 0.5, 2.0])
    assert ts.sigma(0.0) == 0.5
    assert ts.sigma(0.5) == 2.0
    assert ts.sigma(2.0) == 2.0   # clamp at the maximum
    assert ts.rho(0.0) == 0.0     # clamp at the minimum
    assert ts.rho(0.5) == 0.0
    assert ts.rho(2.0) == 0.5


def test_graininess_vanishes_exactly_at_the_clamped_end():
    ts = TimeScale([0.0, 0.5, 2.0])
    assert_allclose(ts.mu_values(), [0.5, 1.5, 0.0], rtol=0, atol=0)
    assert_allclose(ts.nu_values(), [0.0, 0.5, 1.5], rtol=0, atol=0)
    assert ts.mu(2.0) == 0.0
    assert ts.nu(0.0) == 0.0
    assert ts.graininess(0.0, "forward") == 0.5
    assert ts.graininess(0.5, "backward") == 0.5
    with pytest.raises(ValueError):
        ts.graininess(0.0, "sideways")


def test_trimmed_domains():
    ts = TimeScale.integer_range(0, 4)
    assert ts.delta_domain == range(0, 4)
    assert ts.nabla_domain == range(1, 5)
    assert ts.interior_domain == range(1, 4)
    assert ts.delta2_domain == range(0, 3)
    assert ts.nabla2_domain == range(2, 5)


# ---------------------------------------------------------------------------
# grid functions


def test_grid_function_needs_one_value_per_point():
    ts = TimeScale.integer_range(0, 2)
    with pytest.raises(ValueError):
        GridFunction(ts, [1.0, 2.0])


@pytest.mark.parametrize("values, shape", [(3.0, "()"), (np.ones((1, 3)), "(1, 3)")])
def test_grid_function_names_a_wrong_shape(values, shape):
    # a scalar once raised IndexError, and a (1, 3) array was refused as "got 1 for 3"
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape} for 3 points")):
        GridFunction(TimeScale([0, 1, 2]), values)


@pytest.mark.parametrize("support", [range(0, 4), range(-1, 2), range(0, 3, 2)])
def test_grid_function_refuses_a_support_that_does_not_fit(support):
    with pytest.raises(ValueError, match=re.escape(f"support {support} does not fit a scale "
                                                   "of 3 points")):
        GridFunction(TimeScale([0, 1, 2]), [1.0, 2.0, 3.0], support)


def test_grid_function_repr_of_a_half_built_instance_is_text():
    # the instance a refused __init__ leaves, as a traceback or debugger shows it
    assert repr(GridFunction.__new__(GridFunction)) == "GridFunction(<unbuilt>)"
    f = GridFunction(TimeScale([0, 1, 2]), [1.0, 2.0, 3.0])
    assert repr(f).startswith("GridFunction([") and repr(f).endswith("support=range(0, 3))")


def test_grid_function_access_and_domain_errors():
    ts = TimeScale.integer_range(0, 3)
    f = GridFunction(ts, [1.0, 2.0, 3.0, 4.0], support=range(1, 3))
    assert f(1.0) == 2.0
    assert f.value(2.0) == 3.0
    for t in (0.0, 3.0):
        with pytest.raises(DomainError):
            f(t)
    with pytest.raises(PointNotInScaleError):
        f(0.25)


def test_from_callable_fills_every_point():
    ts = TimeScale([0.0, 0.5, 2.0])
    f = GridFunction.from_callable(ts, lambda t: t * t)
    assert_allclose(f.values, [0.0, 0.25, 4.0])


def test_product_intersects_supports():
    ts = TimeScale.integer_range(0, 3)
    f = GridFunction(ts, [1.0, 2.0, 3.0, 4.0], support=range(0, 3))
    g = GridFunction(ts, [5.0, 6.0, 7.0, 8.0], support=range(1, 4))
    h = f * g
    assert h.support == range(1, 3)
    assert h(1.0) == 12.0 and h(2.0) == 21.0
    with pytest.raises(DomainError):
        h(0.0)


def test_product_takes_grid_functions_only():
    f = GridFunction(TimeScale.integer_range(0, 2), [1.0, 2.0, 3.0])
    with pytest.raises(TypeError):
        f * 2.0


def test_product_requires_same_scale():
    f = GridFunction(TimeScale.integer_range(0, 2), [1.0, 1.0, 1.0])
    g = GridFunction(TimeScale.integer_range(0, 3), [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        f * g


# ---------------------------------------------------------------------------
# difference quotients


def test_forward_quotient_on_worked_values():
    ts = TimeScale.integer_range(0, 3)
    y = GridFunction(ts, [2.0, 2.910488556, 2.970017180, 3.0])
    dy = y.delta_derivative()
    assert dy.support == range(0, 3)
    assert_allclose(dy(0.0), 0.910488556, rtol=1e-12)
    assert_allclose(dy(1.0), 2.970017180 - 2.910488556, rtol=1e-12)
    with pytest.raises(DomainError):
        dy(3.0)   # no forward neighbour at the maximum


def test_backward_quotient_on_nonuniform_scale():
    ts = TimeScale([0.0, 0.5, 2.0])
    f = GridFunction(ts, [1.0, 2.0, 4.0])
    nf = f.nabla_derivative()
    assert nf.support == range(1, 3)
    assert_allclose(nf(0.5), (2.0 - 1.0) / 0.5)
    assert_allclose(nf(2.0), (4.0 - 2.0) / 1.5)
    with pytest.raises(DomainError):
        nf(0.0)


def test_quotients_shrink_partial_supports():
    ts = TimeScale.integer_range(0, 4)
    f = GridFunction(ts, np.arange(5.0) ** 2, support=range(1, 4))
    assert f.delta_derivative().support == range(1, 3)
    assert f.nabla_derivative().support == range(2, 4)


def test_jump_compositions():
    ts = TimeScale([0.0, 0.5, 2.0])
    f = GridFunction(ts, [1.0, 2.0, 4.0])
    fs = f.compose_sigma()
    fr = f.compose_rho()
    # the clamped composition is defined wherever the jump stays in support
    assert_allclose(fs.values[:2], [2.0, 4.0])
    assert fs(2.0) == 4.0    # sigma clamps, so f(sigma(max)) = f(max)
    assert fr(0.0) == 1.0    # rho clamps at the minimum
    assert_allclose(fr.values[1:], [1.0, 2.0])


def test_composition_supports_follow_the_jump():
    ts = TimeScale.integer_range(0, 4)
    f = GridFunction(ts, np.arange(5.0), support=range(1, 4))
    # f(sigma(t)) needs sigma(t) in {1,2,3}: t in {0,1,2}
    assert f.compose_sigma().support == range(0, 3)
    # f(rho(t)) needs rho(t) in {1,2,3}: t in {2,3,4}
    assert f.compose_rho().support == range(2, 5)


# ---------------------------------------------------------------------------
# integrals


def test_delta_integral_on_worked_example():
    ts = TimeScale([0.0, 0.5, 2.0])
    g = GridFunction(ts, [1.0, 2.0, 4.0])
    # forward sum over [0, 2): 0.5 * 1 + 1.5 * 2
    assert_allclose(g.delta_integral(0.0, 2.0), 3.5, rtol=0)
    # backward sum over (0, 2]: 0.5 * 2 + 1.5 * 4
    assert_allclose(g.nabla_integral(0.0, 2.0), 7.0, rtol=0)


def test_integral_edge_cases():
    ts = TimeScale([0.0, 0.5, 2.0])
    g = GridFunction(ts, [1.0, 2.0, 4.0])
    assert g.delta_integral(0.5, 0.5) == 0.0
    assert g.nabla_integral(2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        g.delta_integral(2.0, 0.0)
    with pytest.raises(ValueError, match=r"^integration bounds out of order: a=2\.0 > b=0\.5$"):
        g.nabla_integral(2.0, 0.5)
    with pytest.raises(PointNotInScaleError):
        g.delta_integral(0.0, 1.0)


def test_integral_requires_defined_window():
    ts = TimeScale.integer_range(0, 3)
    f = GridFunction(ts, np.ones(4), support=range(1, 4))
    with pytest.raises(DomainError):
        f.delta_integral(0.0, 3.0)
    # the nabla window (1, 3] never reads the missing first point
    assert_allclose(f.nabla_integral(1.0, 3.0), 2.0)


def test_integral_across_a_nan_inside_the_support_is_a_domain_error():
    f = GridFunction(TimeScale.integer_range(0, 3), [1.0, np.nan, 3.0, 4.0])
    text = "grid function is not defined on all of [0.0, 3.0]"
    for integral in (f.delta_integral, f.nabla_integral):
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            integral(0.0, 3.0)
    # windows that miss the NaN: [2, 3) and (2, 3]
    assert f.delta_integral(2.0, 3.0) == 3.0 and f.nabla_integral(2.0, 3.0) == 4.0


def test_norm_combines_shifted_and_differenced_views():
    ts = TimeScale.integer_range(0, 3)
    y = GridFunction(ts, [0.0, 2.0, -1.0, 1.0])
    # interior points {1, 2}: sup |y^sigma| = 1, sup |dy| = 3,
    # sup |y^rho| = 2, sup |ny| = 3
    assert_allclose(y.norm_1_inf(), 1.0 + 3.0 + 2.0 + 3.0)


# ---------------------------------------------------------------------------
# calculus identities on random scales


def test_derivative_duality_random_scales():
    # backward quotient equals the forward quotient composed with rho
    rng = np.random.default_rng(42)
    for _ in range(100):
        ts = random_scale(rng)
        f = GridFunction(ts, rng.normal(size=len(ts)))
        nab = f.nabla_derivative()
        del_rho = f.delta_derivative().compose_rho()
        for i in ts.nabla_domain:
            t = ts.points[i]
            assert_allclose(nab(t), del_rho(t), rtol=1e-10)


def test_integral_duality_random_scales():
    # the forward integral of f equals the backward integral of f(rho(.))
    rng = np.random.default_rng(43)
    for _ in range(100):
        ts = random_scale(rng)
        f = GridFunction(ts, rng.normal(size=len(ts)))
        a, b = ts.points[0], ts.points[-1]
        lhs = f.delta_integral(a, b)
        rhs = f.compose_rho().nabla_integral(a, b)
        assert_allclose(rhs, lhs, rtol=1e-10, atol=1e-12)


def test_integral_additivity_random_scales():
    rng = np.random.default_rng(44)
    for _ in range(100):
        ts = random_scale(rng)
        f = GridFunction(ts, rng.normal(size=len(ts)))
        i, j, k = sorted(rng.integers(0, len(ts), 3))
        a, mid, b = (ts.points[x] for x in (i, j, k))
        assert_allclose(
            f.delta_integral(a, mid) + f.delta_integral(mid, b),
            f.delta_integral(a, b),
            rtol=1e-10,
            atol=1e-12,
        )
        assert_allclose(
            f.nabla_integral(a, mid) + f.nabla_integral(mid, b),
            f.nabla_integral(a, b),
            rtol=1e-10,
            atol=1e-12,
        )


def test_delta_integration_by_parts_random_scales():
    # sum rule: int f(sigma) g' = [fg] - int f' g over the whole scale
    rng = np.random.default_rng(45)
    for _ in range(100):
        ts = random_scale(rng)
        f = GridFunction(ts, rng.normal(size=len(ts)))
        g = GridFunction(ts, rng.normal(size=len(ts)))
        a, b = ts.points[0], ts.points[-1]
        lhs = (f.compose_sigma() * g.delta_derivative()).delta_integral(a, b)
        boundary = f(b) * g(b) - f(a) * g(a)
        rhs = boundary - (f.delta_derivative() * g).delta_integral(a, b)
        assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)
