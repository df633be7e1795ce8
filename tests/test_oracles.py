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
