import math
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


@pytest.mark.filterwarnings("ignore:horizon")
def test_identical_paths_have_zero_stderr():
    """Pure-drift paths are all the same, so every bin's standard error is 0
    up to the rounding of a chunk mean, not E[X^2] - E[X]^2 cancelling."""
    m = L.build_model(drift=1.5)
    edges = np.arange(83) * 0.5 - 0.5
    for paths in (10, 600):     # one chunk, and three combined
        pm = L.estimate_potential(m, edges, paths=paths, seed=3, horizon=30.0)
        assert np.allclose(pm.masses[1:], 1.0 / 3.0, atol=1e-12) and pm.masses[0] == 0.0
        assert (pm.stderr <= 1e-12 * pm.masses).all()


@pytest.mark.filterwarnings("ignore:horizon")
def test_stderr_matches_two_pass_over_paths(lattice_model):
    """Chunks combined in order give the population standard deviation of
    the per-path rows, over sqrt(paths), as a two-pass numpy sum does."""
    edges, paths = np.arange(12.0) - 0.5, 700
    pm = L.estimate_potential(lattice_model, edges, paths=paths, seed=4, horizon=20.0)

    def rows(chunk):
        blocks = list(chunk)
        out = [np.zeros((len(block), len(edges) - 1)) for block in blocks]
        for block, row in zip(blocks, out):
            L.potential.occupation_histogram(block, edges, row)
        return np.concatenate(out)

    per_path = np.concatenate(L.models.reduce_paths(
        lattice_model, 20.0, paths, 4, rows, ceiling=float(edges[-1])))
    assert per_path.shape == (paths, len(edges) - 1)
    np.testing.assert_allclose(pm.masses, per_path.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(pm.stderr, per_path.std(axis=0) / math.sqrt(paths), rtol=1e-9)


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


@pytest.mark.parametrize("lattice", [False, True])
def test_mass_between_matches_bin_walk_oracle(lattice):
    """U([lo, y]) for every y at once agrees with the bin-by-bin sum on grids
    that start below, at and above lo, at bounds on edges, inside bins, on
    and beside sites and past both grid ends.  It is a difference of two
    cumulative masses, so it agrees to 1e-12 relative to the larger of the
    answer and the mass below lo: purely relative when no mass lies below lo,
    as for U([0, y]) on a subordinator's grid."""
    gen = np.random.default_rng(17)
    for _ in range(20):
        if lattice:
            sites = np.arange(int(gen.integers(-5, 3)), 40)
            edges = np.append(sites - 0.5, sites[-1] + 0.5)
        else:
            edges = np.cumsum(np.append(gen.uniform(-5.0, 1.0), gen.uniform(0.01, 1.0, 60)))
        masses = gen.exponential(1.0, len(edges) - 1) * (gen.random(len(edges) - 1) > 0.1)
        pm = L.PotentialMeasure(edges=edges, masses=masses, stderr=np.zeros(len(masses)),
                                lattice_span=1.0 if lattice else None)
        for lo in (0.0, 3.0 + 1e-10, float(edges[0]), float(edges[3]),
                   float(gen.uniform(edges[0], edges[-1]))):
            ys = np.sort(np.concatenate([edges, gen.uniform(edges[0] - 2, edges[-1] + 2, 50),
                                         np.round(gen.uniform(-2, 40, 20)) + 1e-10,
                                         np.round(gen.uniform(-2, 40, 20)) - 1e-10, [lo]]))
            want = [oracles.potential_mass_between(edges, masses, lo, y, pm.lattice_span)
                    for y in ys]
            below = oracles.potential_mass_between(edges, masses, edges[0] - 1.0, lo,
                                                   pm.lattice_span)
            np.testing.assert_allclose(pm.mass_between(lo, ys), want, rtol=1e-12,
                                       atol=1e-12 * below)


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


@pytest.mark.parametrize("edges", [[0.0, math.nan, 2.0], [0.0, 1.0, math.inf],
                                   [-math.inf, 0.0, 1.0], [3.0, 1.0, 2.0]])
def test_bad_edges_refused_before_any_path(monkeypatch, lattice_model, edges):
    """Non-finite or non-increasing edges are refused by the measure itself
    and by the estimator before it draws a path (a NaN passes a diff <= 0 test)."""
    drawn = []
    monkeypatch.setattr(L.models, "_jump_paths", lambda *a, **kw: drawn.append(1))
    with pytest.raises(ValueError, match="edges"):
        L.estimate_potential(lattice_model, np.array(edges), paths=5, seed=0, horizon=10.0)
    assert not drawn
    with pytest.raises(ValueError, match="edges"):
        L.PotentialMeasure(edges=np.array(edges), masses=np.zeros(2), stderr=np.zeros(2))


def _rows(path, edges):
    out = np.zeros((len(path), len(edges) - 1)) if isinstance(path, L.models.PathBlock) \
        else np.zeros(len(edges) - 1)
    L.potential.occupation_histogram(path, edges, out)
    return out


def test_passage_rows_equal_sweep_oracle_on_lattice_blocks(lattice_model):
    """A one-atom lattice path holds each site for one segment, so its
    passage-time differences are that segment's dt: equal bytes to the
    oracle's per-segment sums, for every piece of every cut block."""
    edges = np.arange(-2.0, 40.0) - 0.5
    blocks = [b for part in L.models.reduce_paths(lattice_model, 7.5, 300, 4, list) for b in part]
    assert all(b.nondecreasing and len(b) > 1 for b in blocks)
    for block in blocks:
        want = [oracles.occupation_by_sweeps(p.times, p.values, 0.0, edges) for p in block.pieces()]
        assert _rows(block, edges).tobytes() == np.array(want).tobytes()


def test_passage_rows_step_off_rounding_ties():
    """Piece 199's keys are offset by 199 * 32 = 6368, where 1 - 1e-13 rounds
    onto the edge at 1: that segment still lies below the edge, and its two
    time units stay in the bin under it."""
    k = 200
    starts = 2 * np.arange(k + 1)
    t0, t1 = np.tile([0.0, 1.0], k), np.tile([1.0, 3.0], k)
    v0 = np.tile([0.0, 1.0 - 1e-13], k)
    block = L.models.PathBlock(starts, t0, t1, v0, v0[1::2].copy(), exact=True, horizon=3.0,
                               nondecreasing=True)
    edges = np.array([0.0, 1.0, 2.0])
    assert 6368.0 + v0[1] == 6368.0 + edges[1]          # the tie
    want = [oracles.occupation_by_sweeps(p.times, p.values, 0.0, edges) for p in block.pieces()]
    assert np.array(want).tolist() == [[3.0, 0.0]] * k
    assert _rows(block, edges).tobytes() == np.array(want).tobytes()


def test_passage_rows_value_on_an_edge_counts_above():
    """A path that sits on an edge spends that time in the bin above it."""
    path = L.PathSample([0.0, 1.0, 3.0, 4.0, 6.0], [0.0, 1.0, 1.0, 2.0, 2.0], exact=True,
                        horizon=6.0, nondecreasing=True)
    edges = np.array([0.0, 1.0, 2.0, 3.0])
    want = oracles.occupation_by_sweeps(path.times, path.values, 0.0, edges)
    assert want.tolist() == [1.0, 3.0, 2.0]
    assert _rows(path, edges).tobytes() == want.tobytes()


@pytest.mark.parametrize("which", ["tstable", "drift"])
def test_passage_rows_match_sweep_oracle(which, ts_model):
    """Sweeping paths, with and without a ceiling at the grid top, against
    the oracle on the whole path.  The two routes round differently, each
    within a few ulps of times up to the horizon, so they agree to 1e-12 of
    the row's largest bin."""
    model, horizon = (ts_model, 200.0) if which == "tstable" else (L.build_model(drift=1.5), 60.0)
    edges = np.linspace(-1.0, 128.0, 259)
    for i in range(6 if which == "tstable" else 1):
        full = L.simulate_path(model, horizon, rng=L.derive_rng(9, i))
        want = oracles.occupation_by_sweeps(full.times, full.values, full.linear_rate, edges)
        assert full.nondecreasing
        # the tstable path ends above the grid top, the drift path inside it
        assert (full.values[-1] > edges[-1]) == (which == "tstable")
        paths = [full]
        if which == "tstable":
            paths.append(L.simulate_path(model, horizon, rng=L.derive_rng(9, i),
                                         ceiling=float(edges[-1])))
            assert len(paths[1].times) < len(full.times)
        for path in paths:
            np.testing.assert_allclose(_rows(path, edges), want, rtol=0, atol=1e-12 * want.max())


@pytest.mark.parametrize("bad", [{"step": math.inf}, {"step": math.nan}, {"paths": 0},
                                 {"threads": 2.5}],
                         ids=["step-inf", "step-nan", "paths-0", "threads-2.5"])
def test_refused_potential_call_does_not_warn(bm_model, bad):
    """A call refused for its step, budget or threads is refused before the
    horizon warning: H = 20 is below the heuristic on [0, 8], and an accepted
    call with the same horizon does warn."""
    edges = np.linspace(0.0, 8.0, 9)
    call = {"paths": 20, "seed": 1, "horizon": 20.0, "step": 0.1}
    with pytest.warns(UserWarning, match="horizon 20 is below the heuristic"):
        L.estimate_potential(bm_model, edges, **call)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ValueError):
            L.estimate_potential(bm_model, edges, **{**call, **bad})
    assert not seen, [str(w.message) for w in seen]
