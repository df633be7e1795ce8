import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import levyint as L


def test_exp_decay_primitive_matches_quad():
    f = L.exp_decay()
    for a, b in ((0.0, 1.0), (-2.0, 5.0), (3.0, 30.0)):
        q, _ = integrate.quad(lambda y: math.exp(-y), a, b)
        assert float(f.integral_on(a, b)) == pytest.approx(q, rel=1e-10)


def test_inverse_power_primitive_matches_quad():
    for p in (0.5, 1.0, 2.0, 3.5):
        f = L.inverse_power(p)
        for a, b in ((-3.0, -1.0), (-1.0, 2.0), (0.0, 50.0)):
            q, _ = integrate.quad(lambda y: (1.0 + abs(y)) ** (-p), a, b)
            assert float(f.integral_on(a, b)) == pytest.approx(q, rel=1e-8)


def test_step_function_integral_exact():
    f = L.step_function([(2.0, 0.0, 1.0), (0.5, 3.0, 7.0)])
    assert float(f.integral_on(0.0, 10.0)) == pytest.approx(2.0 + 0.5 * 4.0)
    assert float(f.integral_on(0.5, 0.75)) == pytest.approx(0.5)
    assert float(f.integral_on(1.0, 3.0)) == 0.0


def test_indicator_values():
    f = L.indicator(0.0, 1.0)
    assert f(np.array([-0.5, 0.5, 1.5])).tolist() == [0.0, 1.0, 0.0]


def test_negative_function_rejected():
    with pytest.raises(ValueError):
        L.from_callable(lambda y: np.sin(y), name="signed")


def test_lattice_sine_zero_on_lattice_machine_exact():
    f = L.lattice_sine(1.0)
    sites = np.arange(-50.0, 200.0)
    assert np.all(f(sites) == 0.0)
    f3 = L.lattice_sine(0.75)
    assert np.all(f3(0.75 * np.arange(0, 100)) == 0.0)


def test_lattice_sine_tail_integral_grows_linearly():
    f = L.lattice_sine(1.0)
    # primitive y - sin(2 pi y)/(2 pi): over [0, n] the integral is exactly n
    for n in (1.0, 7.0, 100.0):
        assert float(f.integral_on(0.0, n)) == pytest.approx(n, rel=1e-12)


def test_triangle_train_unit_mass_per_bump():
    f = L.triangle_train([0.0, 5.0, 11.0], [1.0, 1e-3, 1e-7])
    for a, b in ((0.0, 1.0), (5.0, 5.0 + 1e-3), (11.0, 11.0 + 1e-7)):
        assert float(f.integral_on(a, b)) == pytest.approx(1.0, rel=1e-12)
    assert float(f.integral_on(-10.0, 20.0)) == pytest.approx(3.0, rel=1e-12)
    assert float(f.integral_on(2.0, 4.0)) == 0.0


def test_triangle_train_peak_height():
    w = 1e-4
    f = L.triangle_train([3.0], [w])
    assert float(f(np.array([3.0 + w / 2]))[0]) == pytest.approx(2.0 / w)
    assert float(f(np.array([3.0]))[0]) == 0.0


def test_triangle_train_overlap_rejected():
    with pytest.raises(ValueError):
        L.triangle_train([0.0, 0.5], [1.0, 1.0])


@pytest.mark.parametrize("build", [
    lambda: L.constant(math.nan),
    lambda: L.constant(math.inf),
    lambda: L.step_function([(math.nan, 0.0, 1.0)]),
    lambda: L.step_function([(math.inf, 0.0, 1.0)]),
    lambda: L.triangle_train([0.0, math.nan], [1.0, 1.0]),
    lambda: L.triangle_train([math.inf], [1.0]),
    lambda: L.triangle_train([0.0], [math.nan]),
    lambda: L.triangle_train([0.0], [math.inf]),
], ids=["constant_nan", "constant_inf", "step_nan", "step_inf", "starts_nan", "starts_inf",
        "widths_nan", "widths_inf"])
def test_parameters_that_are_not_finite_are_refused(build):
    """Only interval ends may be infinite: a NaN step coefficient is not
    silently dropped (f would read 0), and no other value builds a function."""
    with pytest.raises(ValueError, match="finite"):
        build()


def test_live_intervals_are_the_nonzero_pieces():
    """The intervals f lives on: the pieces with a nonzero coefficient, the
    bumps, or the whole line."""
    step = L.step_function([(1.0, 0.0, 1.0), (0.0, 2.0, 3.0), (2.0, 4.0, 5.0)])
    assert step.live_intervals.tolist() == [[0.0, 1.0], [4.0, 5.0]]
    train = L.triangle_train([3.0, 1.0], [0.5, 0.25])
    assert train.live_intervals.tolist() == [[1.0, 1.25], [3.0, 3.5]]
    assert L.exp_decay().live_intervals.tolist() == [[-math.inf, math.inf]]


def test_support_is_the_hull_of_the_live_intervals():
    """A zero-coefficient piece widens nothing, and f with no live piece
    has support (0, 0)."""
    assert L.step_function([(1.0, 0.0, 1.0), (0.0, 100.0, 200.0)]).support == (0.0, 1.0)
    assert L.step_function([(0.0, -5.0, 1.0), (2.0, 4.0, 5.0)]).support == (4.0, 5.0)
    assert L.step_function([(0.0, 0.0, 1.0)]).support == (0.0, 0.0)
    assert L.triangle_train([3.0, 1.0], [0.5, 0.25]).support == (1.0, 3.5)
    assert L.exp_decay().support == (-math.inf, math.inf)


def test_ladder_windows_exposed():
    f = L.triangle_train([1.0, 4.0], [0.5, 0.25])
    assert np.allclose(f.ladder_windows, [1.5, 4.25])
    assert L.exp_decay().ladder_windows is None


@given(st.floats(min_value=-20, max_value=20), st.floats(min_value=0.01, max_value=30))
@settings(max_examples=50, deadline=None)
def test_primitive_additivity(a, width):
    """integral_on is additive: [a, a+w] splits at any interior point."""
    f = L.inverse_power(2.0)
    b = a + width
    mid = a + width / 3.0
    whole = float(f.integral_on(a, b))
    parts = float(f.integral_on(a, mid)) + float(f.integral_on(mid, b))
    assert whole == pytest.approx(parts, rel=1e-9, abs=1e-12)


@given(st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_step_scaling(c):
    """Scaling a step function scales its integrals exactly."""
    base = L.step_function([(1.0, 0.0, 2.0)])
    scaled = L.step_function([(c, 0.0, 2.0)])
    assert float(scaled.integral_on(-1.0, 3.0)) == c * float(base.integral_on(-1.0, 3.0))


def test_simpson_fallback_no_primitive():
    f = L.from_callable(lambda y: np.exp(-np.abs(y)), name="no_prim")
    q, _ = integrate.quad(lambda y: math.exp(-abs(y)), -1.0, 2.0, points=[0.0])
    assert float(f.integral_on(-1.0, 2.0)) == pytest.approx(q, rel=1e-6)
