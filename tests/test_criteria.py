import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import levyint as L
from levyint.criteria import RegionCoverageError, classify_ladder

import oracles


# -- ladder classifier ------------------------------------------------------

def test_ladder_geometric_decay_finite():
    v = np.cumsum(0.5 ** np.arange(10))
    verdict, diag = classify_ladder(v)
    assert verdict == "finite"


def test_ladder_zero_finite():
    verdict, _ = classify_ladder(np.zeros(6))
    assert verdict == "finite"


def test_ladder_linear_growth_infinite():
    verdict, diag = classify_ladder(np.arange(1.0, 11.0))
    assert verdict == "infinite"


def test_ladder_log_growth_infinite():
    # doubling windows of 1/(1+y): increments constant at log 2
    verdict, _ = classify_ladder(np.log(2.0 ** np.arange(1, 12)))
    assert verdict == "infinite"


def test_ladder_decreasing_rejected():
    with pytest.raises(ValueError):
        classify_ladder(np.array([1.0, 2.0, 1.5, 3.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ladder_that_is_not_finite_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        classify_ladder([bad] * 5)
    with pytest.raises(ValueError, match="finite"):
        classify_ladder([1.0, 2.0, 3.0, bad])


# -- tail integral test -----------------------------------------------------

def test_dk_corpus_verdicts(corpus_functions):
    want = ["finite", "finite", "infinite", "finite"]
    got = [L.dk_test(f, 0.0).verdict for f in corpus_functions]
    assert got == want


def test_dk_exact_values():
    assert L.dk_test(L.exp_decay(), 0.0).value == pytest.approx(1.0, rel=1e-6)
    assert L.dk_test(L.indicator(0.0, 1.0), 0.0).value == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("cut", [math.nan, math.inf, -math.inf])
def test_lower_cutoff_that_is_not_finite_is_refused(lattice_pm, cut):
    with pytest.raises(ValueError, match="finite"):
        L.dk_test(L.exp_decay(), cut)
    with pytest.raises(ValueError, match="finite"):
        L.erickson_maller_test(L.exp_decay(), lattice_pm, cut)


def test_dk_lattice_sine_infinite():
    rep = L.dk_test(L.lattice_sine(1.0), 0.0)
    assert rep.verdict == "infinite" and math.isinf(rep.value)
    assert rep.details["partial_value"] > 100.0


def test_dk_bump_train_uses_declared_windows():
    """Needle bumps carry unit mass at widely separated spots; the declared
    windows see each bump, where blind doubling windows plus sampling-based
    quadrature would integrate past them."""
    starts = np.cumsum(3.0 + np.arange(8))
    f = L.triangle_train(starts, np.full(8, 1e-7))
    rep = L.dk_test(f, 0.0)
    assert rep.verdict == "infinite"
    assert rep.details["ladder"] == pytest.approx(np.arange(1.0, 9.0), rel=1e-9)


# -- potential integral -----------------------------------------------------

def test_potential_integral_exponential_lattice(lattice_pm_fine):
    rep = L.potential_integral(L.exp_decay(), lattice_pm_fine, L.half_line(0.0))
    assert rep.verdict == "finite"
    assert rep.value == pytest.approx(oracles.GEOMETRIC_POTENTIAL_VALUE, rel=0.02)


def test_potential_integral_site_closure_convention(lattice_pm):
    """(0, inf) includes the boundary site 0: atoms on the edge count."""
    rep = L.potential_integral(L.indicator(0.0, 1.0), lattice_pm, L.half_line(0.0), x=0.5)
    # only site 0 lands inside (0,1) after the x shift
    assert rep.value == pytest.approx(float(lattice_pm.masses[0]))


def test_potential_integral_region_restriction(lattice_pm):
    """Restricting to even sites halves the constant-function mass."""
    even = L.RegionSpec(intervals=[(2 * k - 0.25, 2 * k + 0.25) for k in range(26)],
                        name="even_sites")
    f = L.step_function([(1.0, -0.5, 50.5)])
    rep_even = L.potential_integral(f, lattice_pm, even)
    total = float(lattice_pm.masses.sum())
    assert rep_even.details["partial_value"] == pytest.approx(
        float(lattice_pm.masses[::2].sum()))
    assert rep_even.details["partial_value"] < total


def test_potential_integral_additive_over_disjoint_regions(lattice_pm):
    f = L.exp_decay()
    r1 = L.RegionSpec(intervals=[(-0.25, 10.25)], name="low")
    r2 = L.RegionSpec(intervals=[(10.75, 50.25)], name="high")
    both = L.RegionSpec(intervals=[(-0.25, 10.25), (10.75, 50.25)], name="both")
    v1 = L.potential_integral(f, lattice_pm, r1).details["partial_value"]
    v2 = L.potential_integral(f, lattice_pm, r2).details["partial_value"]
    v = L.potential_integral(f, lattice_pm, both).details["partial_value"]
    assert v == pytest.approx(v1 + v2, abs=1e-12)


def test_potential_integral_scaling_exact_for_steps(bm_pm):
    f1 = L.step_function([(1.0, 0.0, 5.0)])
    f3 = L.step_function([(3.0, 0.0, 5.0)])
    v1 = L.potential_integral(f1, bm_pm, L.full_line()).details["partial_value"]
    v3 = L.potential_integral(f3, bm_pm, L.full_line()).details["partial_value"]
    assert v3 == pytest.approx(3.0 * v1, rel=1e-12)


def test_potential_integral_divergent_on_bm(bm_pm):
    rep = L.potential_integral(L.inverse_power(1.0), bm_pm, L.half_line(0.0))
    assert rep.verdict == "infinite" and math.isinf(rep.value)


def test_support_past_grid_raises(lattice_pm):
    f = L.step_function([(1.0, 100.0, 200.0)])  # support beyond site 50
    with pytest.raises(RegionCoverageError):
        L.potential_integral(f, lattice_pm, L.half_line(0.0))


def _site_measure(sites=64):
    """A lattice potential with mass 0.5 on each site 0..sites-1."""
    return L.PotentialMeasure(edges=np.arange(sites + 1) - 0.5, masses=np.full(sites, 0.5),
                              stderr=np.zeros(sites), lattice_span=1.0)


def test_dead_pieces_past_grid_do_not_raise():
    """f is 0 beyond 1: a zero-coefficient piece out at (100, 200) does not
    reach past the grid, and f reads as the indicator it equals."""
    pm = _site_measure()
    f = L.step_function([(1.0, 0.0, 1.0), (0.0, 100.0, 200.0)])
    got = L.potential_integral(f, pm, L.half_line(0.0), x=0.5)
    want = L.potential_integral(L.indicator(0.0, 1.0), pm, L.half_line(0.0), x=0.5)
    assert got.details["partial_value"] == want.details["partial_value"] == 0.5


def test_grid_coverage_follows_the_shifted_support():
    """f(x + y) lives at y < sup f - x: x = -63.6 puts 1_(0,1) at y in
    (63.6, 64.6), past the top 63.5 of 64 sites, and x = 64 puts it below
    the grid, which is no coverage defect."""
    pm = _site_measure()
    f = L.indicator(0.0, 1.0)
    with pytest.raises(RegionCoverageError, match="x=-63.6"):
        L.potential_integral(f, pm, L.full_line(), x=-63.6)
    with pytest.raises(RegionCoverageError, match="x=-63.6"):
        L.khasminskii_J(f, pm, [0.0, 64.0, -63.6])
    rep = L.potential_integral(f, pm, L.full_line(), x=64.0)
    assert rep.verdict == "finite" and rep.value == 0.0
    # the site 63 is the last one x = -62.5 reaches, and it counts
    assert L.potential_integral(f, pm, L.full_line(), x=-62.5).value == 0.5


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_start_point_that_is_not_finite_is_refused(x):
    pm = _site_measure()
    with pytest.raises(ValueError, match="finite"):
        L.potential_integral(L.lattice_sine(1.0), pm, L.full_line(), x=x)
    with pytest.raises(ValueError, match="finite"):
        L.khasminskii_J(L.indicator(0.0, 1.0), pm, [x, 0.0])


# -- regions ----------------------------------------------------------------

def _clip_lists(region, edges):
    """region.clip over the windows of ``edges``, as one list of (a, b) per window."""
    edges = np.asarray(edges, float)
    w, a, b = region.clip(edges[:-1], edges[1:])
    out = [[] for _ in edges[:-1]]
    for i, lo, hi in zip(w, a, b):
        out[i].append((lo, hi))
    return out


def test_region_complement_pieces():
    r = L.RegionSpec(intervals=[(1.0, 2.0), (4.0, 5.0)], describes_complement=True)
    assert _clip_lists(r, [0.0, 6.0]) == [[(0.0, 1.0), (2.0, 4.0), (5.0, 6.0)]]
    assert r.contains(3.0) and not r.contains(1.5)
    assert r.contains(1.0)            # closure convention at the boundary


def test_region_overlapping_rejected():
    with pytest.raises(ValueError):
        L.RegionSpec(intervals=[(0.0, 2.0), (1.0, 3.0)])


@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0.01, 5.0)),
                min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_region_pieces_are_disjoint_and_inside(raw):
    starts = sorted(a for a, _ in raw)
    ivals = []
    cursor = -1.0
    for (a, w) in zip(starts, (w for _, w in raw)):
        lo = max(a, cursor + 0.01)
        ivals.append((lo, lo + w))
        cursor = lo + w
    r = L.RegionSpec(intervals=ivals)
    [pieces] = _clip_lists(r, [0.0, 120.0])
    for (a0, b0), (a1, b1) in zip(pieces[:-1], pieces[1:]):
        assert b0 <= a1
    for a, b in pieces:
        assert 0.0 <= a < b <= 120.0


# ends on a coarse grid, so intervals touch and windows share their ends
_ENDS = st.integers(-8, 40).map(lambda k: k / 4.0)


@st.composite
def _region_and_edges(draw):
    ends = sorted(draw(st.lists(_ENDS, min_size=0, max_size=12)))
    ivals = [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a < b]
    if ivals and draw(st.booleans()):      # an interval touching the last one
        ivals.append((ivals[-1][1], ivals[-1][1] + draw(st.integers(1, 8)) / 4.0))
    if ivals and draw(st.booleans()):
        ivals[0] = (-math.inf, ivals[0][1])
    if ivals and draw(st.booleans()):
        ivals[-1] = (ivals[-1][0], math.inf)
    picks = draw(st.lists(st.one_of(_ENDS, st.floats(-3.0, 12.0)), min_size=2, max_size=24))
    on_ends = [e for iv in ivals for e in iv if math.isfinite(e)]
    edges = sorted(set(picks + on_ends[:draw(st.integers(0, len(on_ends)))]))
    return ivals, draw(st.booleans()), edges


@given(_region_and_edges())
@settings(max_examples=300, deadline=None)
def test_region_clip_matches_walk_oracle(case):
    """The vectorised clip gives the interval walk's pieces, float for float
    and in order, window by window, for regions and complements alike."""
    ivals, complement, edges = case
    assume(len(edges) >= 2)
    r = L.RegionSpec(intervals=ivals, describes_complement=complement)
    got = _clip_lists(r, edges)
    want = [oracles.region_pieces(r.intervals.tolist(), complement, lo, hi)
            for lo, hi in zip(edges[:-1], edges[1:])]
    assert got == want
    # and membership, vectorised and scalar, is the interval-by-interval rule
    ys = np.array(edges + [e + d for e in edges for d in (-1e-12, -5e-13, 5e-13, 1e-12)])
    for atol in (1e-12, 0.0):
        want_in = [oracles.region_contains(r.intervals.tolist(), complement, y, atol) for y in ys]
        assert r.contains(ys, atol=atol).tolist() == want_in
        assert [bool(r.contains(y, atol=atol)) for y in ys] == want_in


# -- nonincreasing-f consistency -------------------------------------------

def test_erickson_maller_verdicts(lattice_pm, corpus_functions):
    want = ["finite", "finite", "infinite", "finite"]
    for f, expect in zip(corpus_functions, want):
        rep = L.erickson_maller_test(f, lattice_pm, 1.0)
        assert rep.verdict == expect, f.name


def test_erickson_maller_rejects_increasing(lattice_pm):
    rising = L.from_callable(lambda y: np.clip(y, 0.0, 10.0), name="rising")
    with pytest.raises(ValueError):
        L.erickson_maller_test(rising, lattice_pm, 1.0)


_STAIRS = [(1.0, 0.0, 2.0), (0.5, 2.0, 6.0), (0.25, 6.0, 9.0)]


def test_erickson_maller_reads_a_staircase_between_its_steps(lattice_model, lattice_pm):
    """The pieces are open, so f reads 0 at y = 2 and 6, where they meet;
    read between evaluation points, the staircase is nonincreasing.  Its
    value is the Stieltjes sum of U([0, y)) over the drops at 2, 6 and 9:
    0.5 * 1 + 0.25 * 3 + 0.25 * 4.5 = 2.375 for site masses 1/2."""
    f = L.step_function(_STAIRS, name="stairs")
    exact = L.analytic_potential(lattice_model, lattice_pm.edges)
    for pm in (exact, lattice_pm):
        rep = L.erickson_maller_test(f, pm, 1.0)
        want = oracles.step_stieltjes_sum(_STAIRS, pm.sites, pm.masses, 1.0)
        assert rep.verdict == "finite"
        assert rep.value == pytest.approx(want, rel=1e-12)
    assert L.erickson_maller_test(f, exact, 1.0).value == pytest.approx(2.375, rel=1e-12)


def test_erickson_maller_sees_a_bump_between_evaluation_points(lattice_pm):
    """1_(1.5, 2.5) rises past the cutoff 1, though it reads 0 at every
    evaluation point (sites' bin edges and its own ends)."""
    with pytest.raises(ValueError, match="not nonincreasing"):
        L.erickson_maller_test(L.step_function([(1.0, 1.5, 2.5)]), lattice_pm, 1.0)


def test_blackwell_equivalence_on_corpus(lattice_pm, corpus_functions):
    for f in corpus_functions:
        out = L.blackwell_equivalence_check(f, lattice_pm, 1.0)
        assert out["verdicts_agree"], f.name


def test_blackwell_disagreement_on_lattice_sine(lattice_pm):
    """The designed failure: tail test infinite, potential route zero."""
    out = L.blackwell_equivalence_check(L.lattice_sine(1.0), lattice_pm, 1.0)
    assert out["lebesgue"].verdict == "infinite"
    assert out["potential"].verdict == "finite"
    assert out["potential"].details["partial_value"] == 0.0
    assert not out["verdicts_agree"]


# -- uniform potential bound ------------------------------------------------

def test_khasminskii_J_indicator(lattice_pm):
    out = L.khasminskii_J(L.indicator(0.0, 1.0), lattice_pm,
                          np.linspace(-2.0, 2.0, 41))
    assert out["J"] == pytest.approx(0.5, rel=0.1)
    assert out["theta_max"] == pytest.approx(1.0 / out["J"], rel=1e-12)


def test_khasminskii_J_zero_on_lattice(lattice_pm):
    """A function vanishing at every occupied site gives J = 0, theta_max = inf."""
    out = L.khasminskii_J(L.lattice_sine(1.0), lattice_pm, np.array([0.0]))
    assert out["J"] == 0.0 and math.isinf(out["theta_max"])


def test_khasminskii_J_divergent_raises(bm_pm):
    with pytest.raises(ValueError):
        L.khasminskii_J(L.inverse_power(1.0), bm_pm, np.array([0.0]))


def test_khasminskii_J_rows_equal_potential_integral(bm_pm):
    """The x-grid is read in one pass; each row's ladder and total are the
    bits a single potential_integral gives at that x."""
    from levyint import criteria
    f, xs = L.indicator(0.0, 1.0), np.linspace(-2.0, 2.0, 9)
    for pm in (_site_measure(), bm_pm):
        ladders, totals = criteria._ladders(*criteria._potential_terms(f, pm, L.full_line(), xs))
        reps = [L.potential_integral(f, pm, L.full_line(), x=float(x)) for x in xs]
        assert totals.tolist() == [r.details["partial_value"] for r in reps]
        assert ladders.tolist() == [r.details["ladder"] for r in reps]
        out = L.khasminskii_J(f, pm, xs)
        assert out["J"] == max(totals.tolist())
        assert out["argmax_x"] == xs[int(np.argmax(totals))]


def test_khasminskii_J_clips_once(bm_pm, monkeypatch):
    """The region restricts y, not x + y: one clip serves the whole x-grid."""
    calls = []
    clip = L.RegionSpec.clip

    def counted(self, lo, hi):
        calls.append(len(lo))
        return clip(self, lo, hi)
    monkeypatch.setattr(L.RegionSpec, "clip", counted)
    L.khasminskii_J(L.indicator(0.0, 1.0), bm_pm, np.linspace(-2.0, 2.0, 41))
    assert len(calls) == 1


def _oracle_contrib(f, pm, intervals, complement, x):
    """Each site's or bin's term, by the interval-by-interval region rules."""
    def at(y):
        return float(f(np.array([x + y]))[0])
    if pm.lattice_span is not None:
        sites = np.round(pm.centers / pm.lattice_span) * pm.lattice_span
        return sites, [at(s) * m if oracles.region_contains(intervals, complement, s) else 0.0
                       for s, m in zip(sites, pm.masses)]
    contrib = []
    for lo, hi, m in zip(pm.edges[:-1], pm.edges[1:], pm.masses):
        pieces = oracles.region_pieces(intervals, complement, lo, hi)
        contrib.append(sum(at(0.5 * (a + b)) * m * (b - a) / (hi - lo) for a, b in pieces))
    return pm.centers, contrib


@pytest.mark.parametrize("intervals, complement", [
    ([(-math.inf, math.inf)], False),
    ([(0.7, 3.2), (5.0, 17.5), (40.25, 90.0)], False),
    ([(0.7, 3.2), (5.0, 17.5), (40.25, 90.0)], True),
], ids=["full", "intervals", "complement"])
@pytest.mark.parametrize("x", [0.0, -1.3, 2.6])
def test_potential_ladder_matches_partial_sum_oracle(lattice_pm, bm_pm, intervals, complement, x):
    """Every rung is the sum of the terms at positions at or below its top."""
    region = L.RegionSpec(intervals=intervals, describes_complement=complement)
    for f in (L.exp_decay(), L.inverse_power(2.0), L.indicator(0.0, 1.0)):
        for pm in (lattice_pm, bm_pm):
            rep = L.potential_integral(f, pm, region, x=x)
            positions, contrib = _oracle_contrib(f, pm, region.intervals.tolist(), complement, x)
            want = oracles.ladder_partial_sums(positions, contrib, rep.details["window_tops"])
            assert rep.details["ladder"] == pytest.approx(want, rel=1e-12, abs=1e-300)
            assert rep.details["partial_value"] == pytest.approx(sum(contrib), rel=1e-12, abs=1e-300)


# -- visit rule -------------------------------------------------------------

def _brute_last_visit(intervals, times, values, rate, x):
    """Latest time any segment's closed sweep meets any closed interval."""
    best = -math.inf
    for k in range(len(times) - 1):
        t, dt, v = times[k], times[k + 1] - times[k], x + values[k]
        end = v + rate * dt
        for a, b in intervals:
            if min(v, end) > b or max(v, end) < a:
                continue
            if rate > 0:
                frac = (min(b, end) - v) / (rate * dt)
            elif rate < 0:
                frac = (max(a, end) - v) / (rate * dt)
            else:
                frac = 1.0
            best = max(best, t + min(max(frac, 0.0), 1.0) * dt)
    return best


_quarters = st.integers(-16, 32).map(lambda n: 0.25 * n)


@given(kind=st.sampled_from(["up", "flat", "down", "grid"]),
       steps=st.lists(st.tuples(st.integers(1, 8).map(lambda n: 0.25 * n), _quarters),
                      min_size=1, max_size=8),
       cuts=st.lists(_quarters, min_size=2, max_size=8, unique=True),
       x=st.sampled_from([0.0, 0.5, -1.25]))
@settings(max_examples=200, deadline=None)
def test_last_visit_matches_brute_force(kind, steps, cuts, x):
    """Hand-built paths (r > 0, r = 0, r < 0, grid) against a loop over every
    (segment, interval) pair; dyadic values make boundary touches exact."""
    rate = {"up": 0.5, "flat": 0.0, "down": -2.0, "grid": 0.0}[kind]
    times, values = [0.0], [0.0]
    for dt, jump in steps:
        times.append(times[-1] + dt)
        values.append(values[-1] + rate * dt + jump)
    path = L.PathSample(np.array(times), np.array(values), exact=kind != "grid",
                        horizon=times[-1], linear_rate=rate)
    edges = sorted(cuts)
    intervals = list(zip(edges[0::2], edges[1::2]))
    region = L.RegionSpec(intervals=intervals)
    expected = _brute_last_visit(intervals, times, values, rate, x)
    got = region.last_visit(path, x)
    if math.isinf(expected):
        assert got == -math.inf
    else:
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_touching_sweeps_meet_closed_intervals():
    """A segment whose sweep only touches an end of an interval meets it: the
    segment index behind the visit rule and the running integral uses closed
    intervals and closed sweep ranges."""
    region = L.RegionSpec(intervals=[(1.0, 1.5)])
    # up to 1.0 at t = 2, then a jump over the interval
    up = L.PathSample(np.array([0.0, 2.0, 4.0]), np.array([0.0, 1.75, 2.75]),
                      exact=True, horizon=4.0, linear_rate=0.5)
    assert region.last_visit(up) == 2.0
    # a jump to 2.0, then down to 1.5 at t = 2
    down = L.PathSample(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 1.5]),
                        exact=True, horizon=2.0, linear_rate=-0.5)
    assert region.last_visit(down) == 2.0
    # a flat path held at 0, shifted onto the lower end
    flat = L.PathSample(np.array([0.0, 3.0]), np.array([0.0, 0.0]),
                        exact=True, horizon=3.0, linear_rate=0.0)
    assert region.last_visit(flat, x=1.0) == 3.0
    # grid cells hold their left value: the cell held at 1.0 meets, the one
    # ending there does not, nor does a cell that steps across the interval
    grid = L.PathSample(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 3.0, 3.0]),
                        exact=False, horizon=3.0)
    assert region.last_visit(grid) == 2.0
    across = L.PathSample(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 3.0]),
                          exact=False, horizon=2.0)
    assert region.last_visit(across) == -math.inf


def test_last_visit_follows_shift():
    """The start x shifts the path against the region: a path held at 0 meets
    the sites' intervals from x = 20, and misses them from x = 20.5."""
    path = L.PathSample(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 0.0]),
                        exact=True, horizon=2.0, linear_rate=0.0)
    sites = L.RegionSpec(intervals=[(n - 0.25, n + 0.25) for n in range(100)])
    assert sites.last_visit(path, x=20.0) == 2.0
    assert sites.last_visit(path, x=20.5) == -math.inf


def test_last_visit_refuses_complement_region():
    path = L.PathSample(np.array([0.0, 1.0]), np.array([0.0, 1.0]), exact=True,
                        horizon=1.0, linear_rate=1.0)
    off = L.RegionSpec(intervals=[(0.2, 0.3)], describes_complement=True)
    with pytest.raises(ValueError):
        off.last_visit(path)
