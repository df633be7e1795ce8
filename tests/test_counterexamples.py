import math

import numpy as np
import pytest

import levyint as L
from levyint import counterexamples
from levyint.counterexamples import (FINE_CUTOFF_FRACTION, OvershootTable,
                                     TrapConstructionError, _cutoff_ladder, dkw_halfwidth)
from levyint.perpetual import _ladder_samples

import oracles


# -- overshoot tables -------------------------------------------------------

def test_overshoot_cdf_rows_monotone(overshoot_table):
    t = overshoot_table
    assert np.all(np.diff(t.cdfs, axis=1) >= 0)
    assert np.all((t.cdfs >= 0) & (t.cdfs <= 1))


def test_overshoot_limit_matches_renewal_oracle(overshoot_table):
    """Empirical limit-level CDF within a DKW band (+ level-convergence gap)
    of the integrated-tail stationary law."""
    t = overshoot_table
    exact = np.array([oracles.overshoot_limit_cdf_quad(u) for u in t.eps_grid])
    gap = np.abs(t.limit_proxy - exact).max()
    assert gap < dkw_halfwidth(t.paths_per_level) + t.limit_gap + 0.01


def test_overshoot_levels_converge(overshoot_table):
    assert overshoot_table.limit_gap < 0.05


def test_overshoot_creep_negligible(overshoot_table):
    assert float(overshoot_table.creep_fraction.max()) < 0.005


def test_overshoot_rejects_wrong_model(lattice_model):
    with pytest.raises(ValueError):
        L.estimate_overshoot_cdf(lattice_model, [2.0], paths=10, seed=0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_overshoot_rejects_non_finite_levels(ts_model, bad):
    with pytest.raises(ValueError, match="finite"):
        L.estimate_overshoot_cdf(ts_model, [2.0, bad], paths=10, seed=0)


def _no_draws(*args):
    raise AssertionError("the overshoot sampler ran")


def test_overshoot_refuses_repeated_levels_before_any_draw(ts_model, monkeypatch):
    monkeypatch.setattr(counterexamples, "_overshoot_chunk", _no_draws)
    with pytest.raises(ValueError, match="distinct"):
        L.estimate_overshoot_cdf(ts_model, [2, 2, 30], paths=400, seed=1)


def test_overshoot_refuses_an_empty_level_list_before_any_draw(ts_model, monkeypatch):
    monkeypatch.setattr(counterexamples, "_overshoot_chunk", _no_draws)
    with pytest.raises(ValueError, match="levels must be nonempty"):
        L.estimate_overshoot_cdf(ts_model, [], paths=400, seed=1)


# 257: a one-path last chunk; 200: one chunk per level, so the levels share the pool
@pytest.mark.parametrize("paths", [600, 257, 200])
def test_overshoot_table_is_the_same_bytes_for_any_threads(ts_model, paths):
    tables = [L.estimate_overshoot_cdf(ts_model, [2, 6], paths=paths, seed=12, threads=t)
              for t in (1, 2, 8)]
    for t in tables[1:]:
        assert t.cdfs.tobytes() == tables[0].cdfs.tobytes()
        assert t.creep_fraction.tobytes() == tables[0].creep_fraction.tobytes()


def test_overshoot_creep_matches_single_cutoff_reference(ts_model, monkeypatch):
    """With both cutoff fractions at 1e-2 the ladder is one 1e-2 cutoff, where
    about a tenth of the paths cross the level by drift: the creep fraction
    matches the reference's share of zero overshoots (two-sample binomial,
    |z| <= 4), and the CDF above the cutoff lies in the two-sample DKW band."""
    cutoff, level, n = 1e-2, 4.0, 4000
    monkeypatch.setattr(counterexamples, "COARSE_CUTOFF_FRACTION", cutoff)
    monkeypatch.setattr(counterexamples, "FINE_CUTOFF_FRACTION", cutoff)
    table = L.estimate_overshoot_cdf(ts_model, [level], paths=n, seed=103)
    ref = oracles.ts_overshoot_single_cutoff(level, n, 103, cutoff=cutoff)
    p_table, p_ref = float(table.creep_fraction[0]), float(np.mean(ref == 0.0))
    pooled = 0.5 * (p_table + p_ref)
    z = (p_table - p_ref) / math.sqrt(pooled * (1.0 - pooled) * 2.0 / n)
    assert abs(z) <= 4.0, (p_table, p_ref)
    keep = table.eps_grid >= cutoff
    ref_cdf = (ref[:, None] <= table.eps_grid[keep]).mean(axis=0)
    assert np.abs(table.cdfs[0, keep] - ref_cdf).max() <= 2.0 * dkw_halfwidth(n, confidence=0.995)


@pytest.mark.parametrize("r", [1.0, 0.3])
@pytest.mark.parametrize("level", [0.5, 2.0, 30.0])
def test_cutoff_ladder_stays_below_distance_left(r, level):
    """Each stage's cutoff is at most the distance left at its stop and at
    least the floor; the last stage runs at the floor up to the level."""
    stages = _cutoff_ladder(r, level)
    floor = FINE_CUTOFF_FRACTION * r
    for eps, stop in stages[:-1]:
        assert floor <= eps <= level - stop
    assert stages[-1] == (floor, level)
    stops = [stop for _, stop in stages]
    assert np.all(np.diff(stops) > 0)
    assert np.all(np.diff([eps for eps, _ in stages]) <= 0)


@pytest.mark.parametrize("level, seed", [(2.0, 101), (22.0, 102)])
def test_overshoot_ladder_matches_single_cutoff_reference(ts_model, level, seed):
    """The ladder sampler's overshoot CDF agrees with a brute-force
    single-cutoff sampler within the 99 % two-sample DKW band (each sample's
    band at 99.5 %) at every grid point the reference resolves."""
    n = 4000
    ref_cutoff = 1e-5
    table = L.estimate_overshoot_cdf(ts_model, [level], paths=n, seed=seed)
    ref = oracles.ts_overshoot_single_cutoff(level, n, seed, cutoff=ref_cutoff)
    keep = table.eps_grid >= ref_cutoff
    ref_cdf = (ref[:, None] <= table.eps_grid[keep]).mean(axis=0)
    gap = np.abs(table.cdfs[0, keep] - ref_cdf).max()
    assert gap <= 2.0 * dkw_halfwidth(n, confidence=0.995)


# -- trap construction ------------------------------------------------------

def test_trap_recursion_identities(trap20):
    tr = trap20
    assert tr.alpha[0] == tr.x_levels[0]
    assert np.allclose(tr.beta, tr.alpha + tr.eps)
    assert np.allclose(tr.alpha[1:], tr.alpha[:-1] + 1.0 + tr.x_levels[1:])
    # bumps strictly separated by at least the unit gap
    assert np.all(tr.alpha[1:] - tr.beta[:-1] > 0.999)


def test_trap_eps_strictly_decreasing(trap20):
    assert np.all(np.diff(trap20.eps) < 0)
    assert np.all(np.diff(trap20.x_levels) >= 0)


def test_trap_certificate_caps(trap20):
    for c in trap20.certificate:
        n = c["n"]
        assert c["certified_cap"] == pytest.approx(1.0 / (2 * n * n))
        assert c["limit_cdf"] <= 1.0 / (2.0 * trap20.safety * n * n) + 1e-12
        assert c["level_cdf"] <= trap20.safety * c["limit_cdf"] + 1e-12
    assert trap20.certified_visit_bound == pytest.approx(
        sum(1.0 / (2 * n * n) for n in range(1, 21)))


def test_trap_tail_bound(trap20):
    # sum of 2/n^2 beyond depth 20 is pi^2/3 minus the partial sum
    want = 2.0 * (math.pi ** 2 / 6.0 - sum(1.0 / (n * n) for n in range(1, 21)))
    assert trap20.tail_bound == pytest.approx(want, rel=1e-3)


def test_trap_monotone_in_safety(overshoot_table):
    """A larger safety factor never loosens the certified visit bound."""
    t2 = L.build_transient_trap(overshoot_table, n_max=10, safety=2.0)
    t4 = L.build_transient_trap(overshoot_table, n_max=10, safety=4.0)
    assert t4.certified_visit_bound <= t2.certified_visit_bound + 1e-12
    # and the stricter trap uses narrower (or equal) bumps at every depth
    assert np.all(t4.eps <= t2.eps + 1e-18)


@pytest.mark.parametrize("safety", [math.nan, math.inf, 0.5])
def test_trap_refuses_a_safety_factor_that_is_not_finite_and_at_least_1(overshoot_table, safety):
    """A bad safety factor is a bad parameter, not a failed certificate."""
    with pytest.raises(ValueError, match="safety"):
        L.build_transient_trap(overshoot_table, n_max=10, safety=safety)


def test_trap_depth_failure_reports_first_n(overshoot_table):
    with pytest.raises(TrapConstructionError) as err:
        L.build_transient_trap(overshoot_table, n_max=10_000, safety=2.0)
    assert "n=" in str(err.value)


def _limit_law_table(floor=None):
    """Two levels, both at the limit law 2 sqrt(u) - u, with a stated floor."""
    grid = np.geomspace(1e-9, 1.0, 181)
    row = 2.0 * np.sqrt(grid) - grid
    meta = {} if floor is None else {"cutoff_floor": floor}
    return OvershootTable(levels=np.array([2.0, 30.0]), eps_grid=grid,
                          cdfs=np.vstack([row, row]), paths_per_level=8000,
                          creep_fraction=np.zeros(2), meta=meta)


def test_trap_refuses_eps_below_cutoff_floor():
    with pytest.raises(TrapConstructionError, match="floor"):
        L.build_transient_trap(_limit_law_table(floor=1e-6), n_max=20)
    trap = L.build_transient_trap(_limit_law_table(floor=1e-6), n_max=5)
    assert [c["eps_over_floor"] for c in trap.certificate] == pytest.approx(trap.eps / 1e-6)
    exact = L.build_transient_trap(_limit_law_table(), n_max=20)
    assert all(c["eps_over_floor"] == math.inf for c in exact.certificate)


def test_trap_certificate_records_sampler_floor(overshoot_table, trap20):
    floor = overshoot_table.meta["cutoff_floor"]
    assert floor == FINE_CUTOFF_FRACTION * 1.0
    for c in trap20.certificate:
        assert c["eps_over_floor"] == pytest.approx(c["eps"] / floor)
        assert c["eps_over_floor"] >= 1.0


def test_trap_function_and_region_align(trap20):
    f = trap20.f
    assert f.support[0] == pytest.approx(trap20.alpha[0])
    assert f.support[1] == pytest.approx(trap20.beta[-1])
    # unit mass per bump via the exact primitive
    assert float(f.integral_on(0.0, trap20.beta[-1] + 1.0)) == pytest.approx(20.0, rel=1e-9)
    comp = trap20.complement_region()
    assert comp.describes_complement
    mid = 0.5 * (trap20.beta[0] + trap20.alpha[1])
    assert comp.contains(mid)
    inside_bump = trap20.alpha[0] + 0.5 * trap20.eps[0]
    assert not comp.contains(inside_bump)


def test_trap_serializes(trap20):
    d = trap20.to_dict()
    assert len(d["alpha"]) == 20 and len(d["certificate"]) == 20
    assert d["certificate"][0]["n"] == 1


# -- lattice counterexample -------------------------------------------------

def test_lattice_counterexample_report(lattice_model):
    rep = L.lattice_counterexample(lattice_model, paths=300, horizon=100.0, seed=67)
    assert rep.passed
    assert rep.max_abs_on_lattice == 0.0
    assert rep.dk_verdict == "infinite"
    assert rep.max_integral <= 1e-9 * 100.0
    assert rep.mismatch_required


def test_lattice_counterexample_needs_lattice(ts_model):
    with pytest.raises(ValueError):
        L.lattice_counterexample(ts_model, paths=10, horizon=10.0, seed=0)


# -- trap verification ------------------------------------------------------

def test_trap_verification_assertions(trap_verification):
    v = trap_verification
    assert v.visit_ok
    assert v.visit_fraction <= v.visit_bound + 3.0 * v.visit_stderr
    assert v.diagnosis_ok and v.diagnosis_outcome == "finite"
    assert v.potential_ok and v.potential_integral_value == 0.0
    assert v.dk_ok and v.dk_verdict == "infinite"
    assert v.passed


def test_trap_verification_records_potential_warnings(ts_model):
    """The 200-path potential's horizon-heuristic warning lands in the
    details instead of being dropped, on every call."""
    table = L.estimate_overshoot_cdf(ts_model, [2, 3, 4, 6, 8, 12], paths=300, seed=5)
    trap = L.build_transient_trap(table, n_max=4, safety=2.0)
    for _ in range(2):
        v = L.verify_counterexample(ts_model, trap, paths=50, seed=6, horizon=40.0,
                                    small_jump_cutoff=1e-3)
        assert len(v.details["warnings"]) == 1
        assert v.details["warnings"][0].startswith("UserWarning: horizon 40 is below")


def test_trap_verification_reads_the_ladder_and_the_visits_of_each_path(ts_model):
    """The verification's visit count is the number of paths whose last
    visit to the trap set is finite, and its medians and means are those of
    the paths' running integrals at the rungs, each path drawn alone from its
    own stream (1e-6 cutoff: one path per block) and read whole.  With
    safety 1 the first bump is wide, so most paths meet it and the medians
    move between the rungs."""
    trap = L.build_transient_trap(_limit_law_table(), n_max=4, safety=1.0)
    paths, seed, horizon, cutoff = 200, 71, 16.0, 1e-6
    v = L.verify_counterexample(ts_model, trap, paths=paths, seed=seed, horizon=horizon,
                                small_jump_cutoff=cutoff)
    rungs = np.array(v.details["rungs"])
    met, rows = 0, []
    for i in range(paths):
        p = L.simulate_path(ts_model, horizon, rng=L.derive_rng(seed, L.rng.STREAM_PATH, i),
                            small_jump_cutoff=cutoff)
        met += trap.trap_set.last_visit(p) > -math.inf
        rows.append(L.integral_at_times(trap.f, p, 0.0, rungs))
    rows = np.array(rows)
    assert 0.5 < met / paths < 0.7
    assert v.visit_fraction == met / paths
    assert v.details["medians"] == np.median(rows, axis=0).tolist()
    assert v.details["means"] == rows.mean(axis=0).tolist()
    assert len(set(v.details["medians"])) > 1
    # without a region the ladder reader flags no path
    flags = _ladder_samples(trap.f, ts_model, 0.0, rungs, 20, seed, None, 1,
                            small_jump_cutoff=1e-3)[3]
    assert flags.shape == (20,) and not flags.any()


def test_trap_verification_median_plateau(trap_verification):
    meds = trap_verification.details["medians"]
    assert meds[-1] == 0.0          # most paths never touch a bump
    assert trap_verification.details["censored_fraction_last"] < 0.05
