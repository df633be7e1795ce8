import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import levyint as L
from levyint.models import ModelRejectionError, reduce_paths

import oracles


# -- model acceptance -------------------------------------------------------

def test_negative_mean_rejected():
    with pytest.raises(ModelRejectionError):
        L.build_model(drift=-1.0)
    with pytest.raises(ModelRejectionError):
        L.build_model(drift=-3.0, jumps=L.CompoundPoisson(rate=1.0, atoms=((1.0, 1.0),)))


def test_zero_model_rejected():
    with pytest.raises(ModelRejectionError):
        L.build_model(drift=0.0)


def test_infinite_mean_accepted():
    m = L.build_model(jumps=L.CompoundPoisson(rate=1.0, law=("pareto", 1.0, 0.5)))
    assert math.isinf(m.mean)


def test_driftless_subordinator_accepted(ts_model):
    assert ts_model.is_subordinator
    assert ts_model.mean == pytest.approx(oracles.ts_mean_quad(), rel=1e-9)


def test_lattice_constraints():
    jumps = L.CompoundPoisson(rate=2.0, atoms=((1.0, 1.0),))
    with pytest.raises(ModelRejectionError):
        L.build_model(drift=0.5, jumps=jumps, lattice_span=1.0)
    with pytest.raises(ModelRejectionError):
        L.build_model(gaussian_var=1.0, jumps=jumps, lattice_span=1.0)
    with pytest.raises(ModelRejectionError):
        L.build_model(jumps=L.CompoundPoisson(rate=2.0, atoms=((1.5, 1.0),)),
                      lattice_span=1.0)


def test_negative_atom_values_allowed_but_mean_checked():
    """Two-sided jumps are fine as long as the overall mean stays positive."""
    two_sided = L.CompoundPoisson(rate=1.0, atoms=((-1.0, 0.25), (1.0, 0.75)))
    assert L.build_model(jumps=two_sided).mean == pytest.approx(0.5)
    balanced = L.CompoundPoisson(rate=1.0, atoms=((-1.0, 0.5), (1.0, 0.5)))
    with pytest.raises(ValueError):
        L.build_model(jumps=balanced)          # zero mean: no drift to +infinity


def test_nonpositive_atom_probability_rejected():
    with pytest.raises(ValueError):
        L.CompoundPoisson(rate=1.0, atoms=((1.0, -0.5), (2.0, 1.5)))


# -- path structure ---------------------------------------------------------

def test_pure_drift_path_exact():
    m = L.build_model(drift=2.0)
    p = L.simulate_path(m, 10.0, seed=0)
    assert p.exact and p.linear_rate == 2.0
    assert p.values[-1] == pytest.approx(20.0)


def test_lattice_path_stays_on_lattice(lattice_model):
    p = L.simulate_path(lattice_model, 100.0, seed=5)
    assert p.exact
    assert np.all(p.values == np.round(p.values))
    assert np.all(np.diff(p.values) >= 0)


def test_subordinator_path_nondecreasing(ts_model):
    p = L.simulate_path(ts_model, 20.0, seed=9)
    assert p.exact and p.linear_rate > 0
    # piecewise-linear with positive rate and nonnegative jumps
    assert np.all(np.diff(p.values) >= 0)
    assert p.times[0] == 0.0 and p.times[-1] == pytest.approx(20.0)


def test_gaussian_needs_step(bm_model):
    with pytest.raises(ValueError):
        L.simulate_path(bm_model, 10.0)
    p = L.simulate_path(bm_model, 10.0, step=0.1, seed=3)
    assert not p.exact and p.linear_rate == 0.0


def test_bit_reproducible(ts_model, bm_model):
    for m, kw in ((ts_model, {}), (bm_model, {"step": 0.05})):
        a = L.simulate_path(m, 15.0, seed=77, **kw)
        b = L.simulate_path(m, 15.0, seed=77, **kw)
        assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)


def test_mean_drift_statistics(ts_model):
    """Sample mean of xi_T / T close to the model mean."""
    finals = [L.simulate_path(ts_model, 50.0, rng=L.derive_rng(10, 1, i)).values[-1]
              for i in range(400)]
    m = np.mean(finals) / 50.0
    se = np.std(finals) / 50.0 / math.sqrt(400)
    assert abs(m - 2.0) < 4 * se + 1e-3


def test_disjoint_window_increments_uncorrelated(lattice_model):
    n = 400
    inc1, inc2 = [], []
    for i in range(n):
        p = L.simulate_path(lattice_model, 20.0, rng=L.derive_rng(21, 1, i))
        v = np.interp([5.0, 6.0, 15.0, 16.0], p.times, p.values)
        inc1.append(v[1] - v[0])
        inc2.append(v[3] - v[2])
    r = np.corrcoef(inc1, inc2)[0, 1]
    assert abs(r) < 3.0 / math.sqrt(n)


def test_poisson_jump_counts(lattice_model):
    """P(no jump by t=1) = e^{-2}: the final value is 0 iff no jump occurred."""
    zeros = [L.simulate_path(lattice_model, 1.0, rng=L.derive_rng(31, 1, i)).values[-1] == 0
             for i in range(2000)]
    p_hat = np.mean(zeros)
    p_exact = oracles.poisson_count_pmf(0, 2.0, 1.0)
    assert abs(p_hat - p_exact) < 3 * math.sqrt(p_exact * (1 - p_exact) / 2000)


# -- path engine ------------------------------------------------------------

@pytest.mark.parametrize("which", ["lattice", "tstable"])
def test_reduce_paths_matches_seeded_paths(which, lattice_model, ts_model):
    """Three chunks, a non-default key: path i is the one derive_rng(seed, *key, i)
    gives, in index order, whatever the thread count."""
    m = lattice_model if which == "lattice" else ts_model
    key = (L.rng.STREAM_INNER, 4)
    expected = [L.simulate_path(m, 3.0, rng=L.derive_rng(17, *key, i)) for i in range(600)]
    for threads in (1, 2):
        parts = reduce_paths(m, 3.0, 600, 17, list, key=key, threads=threads)
        assert [len(part) for part in parts] == [256, 256, 88]
        got = [path for part in parts for path in part]
        for a, b in zip(got, expected):
            assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)
            assert a.linear_rate == b.linear_rate


def test_verify_counterexample_independent_of_threads(ts_model):
    table = L.estimate_overshoot_cdf(ts_model, [2, 3, 4, 6, 8, 12], paths=300, seed=5)
    trap = L.build_transient_trap(table, n_max=4, safety=2.0)
    reports = [L.verify_counterexample(ts_model, trap, paths=300, seed=6, horizon=40.0,
                                       threads=threads, small_jump_cutoff=1e-3).to_dict()
               for threads in (1, 2)]
    assert reports[0] == reports[1]


def test_lattice_counterexample_max_integral_is_python_float(lattice_model):
    rep = L.lattice_counterexample(lattice_model, paths=300, horizon=20.0, seed=3)
    assert type(rep.max_integral) is float


_ZERO_BUDGET = {
    "reduce_paths": lambda m: reduce_paths(m, 5.0, 0, 1, list),
    "estimate_potential": lambda m: L.estimate_potential(m, np.arange(11.0) - 0.5, paths=0, seed=1),
    "lattice_counterexample": lambda m: L.lattice_counterexample(m, paths=0, horizon=5.0, seed=1),
    "estimate_L_set": lambda m: L.estimate_L_set(L.exp_decay(), m, a=1.0, q=0.5,
                                                 x_grid=[0.0, 1.0], horizon=5.0, paths=0, seed=1),
    "batty_inequality_check": lambda m: L.batty_inequality_check(
        L.indicator(0.0, 1.0), m, 0.0, a=1.0, t=5.0, n_outer=0, seed=1),
    "transience_probe": lambda m: L.transience_probe(
        m, L.RegionSpec(intervals=[(0.5, 1.5)]), paths=0, horizon=5.0, seed=1),
    "estimate_overshoot_cdf": lambda m: L.estimate_overshoot_cdf(
        L.build_model(jumps=L.TruncatedStable(activity=1.0, index=0.5, cutoff=1.0)),
        [2.0], paths=0, seed=1),
}


@pytest.mark.parametrize("routine", sorted(_ZERO_BUDGET))
def test_zero_path_budget_refused(routine, lattice_model):
    """No routine returns an estimate, or a pass, from zero paths."""
    with pytest.raises(ValueError, match="paths must be >= 1"):
        _ZERO_BUDGET[routine](lattice_model)


# -- first passage ----------------------------------------------------------

def test_first_passage_nonpositive_level(ts_model):
    p = L.simulate_path(ts_model, 5.0, seed=1)
    rec = L.first_passage(p, 0.0)
    assert rec.passage_time == 0.0 and rec.overshoot == 0.0


def test_first_passage_drift_hits_exactly():
    m = L.build_model(drift=1.0)
    p = L.simulate_path(m, 10.0, seed=0)
    rec = L.first_passage(p, 3.0)
    assert rec.hit_exactly and rec.passage_time == pytest.approx(3.0) and rec.overshoot == 0.0


def test_first_passage_jump_overshoot(lattice_model):
    """Unit jumps from integer sites: overshoot of level x is ceil(x) - x."""
    for x in (0.5, 1.25, 7.75):
        p = L.simulate_path(lattice_model, 100.0, seed=13)
        rec = L.first_passage(p, x)
        assert not rec.censored
        assert rec.overshoot == pytest.approx(math.ceil(x) - x)


def test_first_passage_censored(lattice_model):
    p = L.simulate_path(lattice_model, 1.0, seed=2)
    rec = L.first_passage(p, 1e9)
    assert rec.censored


@given(st.floats(min_value=0.1, max_value=40.0))
@settings(max_examples=25, deadline=None)
def test_first_passage_time_monotone_in_level(x):
    m = L.build_model(jumps=L.CompoundPoisson(rate=2.0, atoms=((1.0, 1.0),)),
                      lattice_span=1.0)
    p = L.simulate_path(m, 200.0, seed=99)
    r1 = L.first_passage(p, x)
    r2 = L.first_passage(p, x + 1.0)
    if not r2.censored:
        assert r1.passage_time <= r2.passage_time


def test_truncated_stable_jump_bounds(ts_model):
    j = ts_model.jumps
    g = np.random.default_rng(0)
    s = j.sample_jumps(g, 10_000, 1e-3)
    assert s.min() >= 1e-3 and s.max() <= 1.0


def test_truncated_stable_tail_mass_matches_quad(ts_model):
    j = ts_model.jumps
    for eps in (1e-4, 1e-2, 0.5):
        assert j.tail_mass(eps) == pytest.approx(oracles.ts_levy_tail(eps), rel=1e-8)
