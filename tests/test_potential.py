import warnings

import numpy as np
import pytest

import levyint as L

import oracles


def test_lattice_site_masses_match_renewal_value(lattice_model, lattice_pm):
    """Each site holds 1/rate; agreement within 3 standard errors per site."""
    z = np.abs(lattice_pm.masses - 0.5) / np.maximum(lattice_pm.stderr, 1e-12)
    assert float(z.max()) < 3.0
    # oracle route: quadrature of the Poisson marginal
    assert oracles.lattice_site_mass_quad(3) == pytest.approx(0.5, rel=1e-8)


def test_lattice_analytic_branch(lattice_model):
    edges = np.arange(12.0) - 0.5
    ap = L.analytic_potential(lattice_model, edges)
    assert ap is not None
    assert np.allclose(ap.masses, 0.5, atol=0)


def test_pure_drift_occupation_exact():
    m = L.build_model(drift=2.0)
    edges = np.linspace(0.0, 10.0, 11)
    pm = L.estimate_potential(m, edges, paths=3, seed=0, horizon=100.0)
    # occupation of each unit bin is width / drift, with zero variance
    assert np.allclose(pm.masses, 0.5, atol=1e-12)
    assert np.allclose(pm.stderr, 0.0, atol=1e-15)
    ap = L.analytic_potential(m, edges)
    assert np.allclose(ap.masses, pm.masses, atol=1e-12)


def test_bm_closed_form_density(bm_model, bm_pm):
    """Monte Carlo vs closed form: at most 1% of bins outside 3 SE.

    268 bins at 3 SE expect ~0.7 exceedances by chance alone; a strict
    all-bins assertion would be flaky by construction.
    """
    ap = L.analytic_potential(bm_model, bm_pm.edges)
    assert ap is not None
    d = np.abs(bm_pm.masses - ap.masses)
    zero_se = bm_pm.stderr == 0
    assert np.all(d[zero_se] < 2e-3)
    z = d[~zero_se] / bm_pm.stderr[~zero_se]
    assert float((z > 3.0).mean()) <= 0.01
    assert float(z.max()) < 5.0
    # oracle route for the closed form itself
    y = float(bm_pm.centers[10])
    assert oracles.bm_potential_density_quad(y) == pytest.approx(
        oracles.bm_potential_density_closed(y), rel=2e-6)


def test_ts_total_mass_governed_by_mean(ts_model, ts_pm):
    """Occupation of [0, B] for a subordinator with mean m is about B/m."""
    total = float(ts_pm.masses.sum())
    assert total == pytest.approx(128.0 / 2.0, rel=0.05)


def test_stderr_shrinks_with_paths(lattice_model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = L.estimate_potential(lattice_model, np.arange(6.0) - 0.5, paths=400,
                                 seed=11, horizon=50.0)
        b = L.estimate_potential(lattice_model, np.arange(6.0) - 0.5, paths=1600,
                                 seed=11, horizon=50.0)
    ratio = float(np.mean(a.stderr / np.maximum(b.stderr, 1e-12)))
    assert 1.7 < ratio < 2.3


def test_csv_round_trip(tmp_path, lattice_pm):
    """potential.csv carries every edge, mass and stderr exactly, and the span."""
    p = tmp_path / "potential.csv"
    lattice_pm.to_csv(p)
    lines = p.read_text().splitlines()
    assert f"# lattice_span: {lattice_pm.lattice_span!r}" in lines
    header = lines.index("bin_lo,bin_hi,mass,stderr")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[header + 1:]])
    assert np.array_equal(rows[:, 0], lattice_pm.edges[:-1])
    assert np.array_equal(rows[:, 1], lattice_pm.edges[1:])
    assert np.array_equal(rows[:, 2], lattice_pm.masses)
    assert np.array_equal(rows[:, 3], lattice_pm.stderr)


def test_mass_between_interpolates():
    pm = L.PotentialMeasure(edges=np.array([0.0, 1.0, 2.0]),
                            masses=np.array([1.0, 3.0]),
                            stderr=np.zeros(2))
    assert pm.mass_between(0.0, 2.0) == pytest.approx(4.0)
    assert pm.mass_between(0.5, 1.5) == pytest.approx(0.5 + 1.5)
    assert pm.mass_between(3.0, 4.0) == 0.0


def test_lattice_grid_validation(lattice_model):
    with pytest.raises(ValueError), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        L.estimate_potential(lattice_model, np.array([0.0, 2.0, 4.0]), paths=10,
                             seed=0, horizon=10.0)


def test_horizon_heuristic_and_warning(lattice_model):
    h = L.horizon_heuristic(lattice_model, -0.5, 50.5)
    assert h == pytest.approx(8.0 * 51.0 / 2.0)
    with pytest.warns(UserWarning):
        L.estimate_potential(lattice_model, np.arange(52.0) - 0.5, paths=5,
                             seed=0, horizon=10.0)


def test_occupation_histogram_linear_sweep_splits_bins():
    """A drift segment crossing several bins splits its time by overlap."""
    m = L.build_model(drift=4.0)
    edges = np.array([0.0, 1.0, 2.5, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # short horizon is the point
        pm = L.estimate_potential(m, edges, paths=1, seed=0, horizon=1.0)
    assert np.allclose(pm.masses, np.diff(edges) / 4.0, atol=1e-12)
