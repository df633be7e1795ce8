"""Cross-validate the oracle routes against each other.

These tests involve no package code: they pin down the constants the rest
of the suite treats as ground truth.
"""

import math

import pytest

import oracles


def test_lattice_site_mass_is_inverse_rate():
    for n in (0, 1, 5, 20):
        assert oracles.lattice_site_mass_quad(n) == pytest.approx(0.5, rel=1e-8)


def test_geometric_potential_value_frozen():
    assert oracles.geometric_potential_sum() == pytest.approx(
        oracles.GEOMETRIC_POTENTIAL_VALUE, rel=1e-12)
    # and against the closed form of the geometric series
    assert oracles.GEOMETRIC_POTENTIAL_VALUE == pytest.approx(
        1.0 / (2.0 * (1.0 - math.exp(-1.0))), rel=1e-12)


def test_ts_mean_is_two():
    assert oracles.ts_mean_quad() == pytest.approx(2.0, rel=1e-9)


def test_overshoot_cdf_quad_matches_closed_form():
    for u in (1e-8, 1e-5, 1e-3, 0.05, 0.3, 0.9, 1.0):
        assert oracles.overshoot_limit_cdf_quad(u) == pytest.approx(
            oracles.overshoot_limit_cdf_closed(u), rel=1e-6, abs=1e-12)


def test_bm_potential_density_quad_matches_closed_form():
    for y in (-3.0, -1.0, -0.25, 0.1, 1.0, 10.0):
        assert oracles.bm_potential_density_quad(y) == pytest.approx(
            oracles.bm_potential_density_closed(y), rel=2e-6)


def test_exp_mgf_at_unit_theta():
    # the exponential holding time at rate 2 has E[e^I] = 2
    assert oracles.exp_mgf(2.0, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_pareto_mean_edge():
    assert oracles.pareto_mean(2.0) == pytest.approx(2.0)
    assert math.isinf(oracles.pareto_mean(1.0))
    assert math.isinf(oracles.pareto_mean(0.5))


def test_running_integral_by_hand():
    # held at 0 for 2 time units, then at 1 for 3; e^{-y} and 1_(0.5, 2)
    times, values = [0.0, 2.0, 5.0], [0.0, 1.0, 1.0]
    got = oracles.running_integral(times, values, 0.0, True, ("exp",), 0.0, [0.0, 1.0, 2.0, 5.0])
    assert got == pytest.approx([0.0, 1.0, 2.0, 2.0 + 3.0 * math.exp(-1.0)], rel=1e-15)
    got = oracles.running_integral(times, values, 0.0, True, ("indicator", 0.5, 2.0), 0.0, [3.0])
    assert got == [1.0]
    # one sweep at rate 2 from 0: (1 - e^{-2t}) / 2, and 1.5 / 2 inside (0.5, 2)
    got = oracles.running_integral([0.0, 4.0], [0.0, 8.0], 2.0, True, ("exp",), 0.0, [1.0, 4.0])
    assert got == pytest.approx([(1 - math.exp(-2.0)) / 2, (1 - math.exp(-8.0)) / 2], rel=1e-15)
    assert oracles.running_integral([0.0, 4.0], [0.0, 8.0], 2.0, True,
                                    ("indicator", 0.5, 2.0), 0.0, [4.0]) == [0.75]
    # falling at rate -1 from 3: the time in (0.5, 2) is 1.5
    assert oracles.running_integral([0.0, 4.0], [3.0, -1.0], -1.0, True,
                                    ("indicator", 0.5, 2.0), 0.0, [4.0]) == [1.5]
    # a grid cell from 0 to 1 over [0, 2]: trapezoid, then half of it at t = 1
    got = oracles.running_integral([0.0, 2.0], [0.0, 1.0], 0.0, False, ("exp",), 0.0, [1.0, 2.0])
    cell = (1.0 + math.exp(-1.0)) * 2.0 / 2
    assert got == pytest.approx([cell / 2, cell], rel=1e-15)
