import math

import numpy as np
import pytest

import levyint as L
from levyint import models
from levyint.models import PathSample

import oracles


def _flat_path(times, values, horizon):
    return PathSample(np.asarray(times, float), np.asarray(values, float),
                      exact=True, horizon=horizon, linear_rate=0.0)


# -- path integrals ---------------------------------------------------------

def test_integral_along_flat_path_exact():
    # holds at 0 for 2 time units, then at 1 for 3
    p = _flat_path([0.0, 2.0, 5.0], [0.0, 1.0, 1.0], 5.0)
    f = L.exp_decay()
    want = 2.0 * 1.0 + 3.0 * math.exp(-1.0)
    assert L.integral_along_path(f, p) == pytest.approx(want, rel=1e-12)
    # with a start shift
    want_shift = (2.0 + 3.0 * math.exp(-1.0)) * math.exp(-1.0)
    assert L.integral_along_path(f, p, x=1.0) == pytest.approx(want_shift, rel=1e-12)


def test_integral_along_sloped_path_uses_primitive():
    p = PathSample(np.array([0.0, 4.0]), np.array([0.0, 8.0]), exact=True,
                   horizon=4.0, linear_rate=2.0)
    f = L.exp_decay()
    # integral of e^{-2t} over [0,4] = (1 - e^{-8}) / 2
    assert L.integral_along_path(f, p) == pytest.approx((1 - math.exp(-8.0)) / 2.0, rel=1e-12)


def test_integral_at_times_monotone_and_consistent(ts_model):
    f = L.exp_decay()
    p = L.simulate_path(ts_model, 30.0, seed=8)
    at = np.array([1.0, 5.0, 10.0, 30.0])
    vals = L.integral_at_times(f, p, 0.0, at)
    assert np.all(np.diff(vals) >= 0)
    assert vals[-1] == pytest.approx(L.integral_along_path(f, p), rel=1e-10)


def test_integral_at_times_out_of_range(ts_model):
    p = L.simulate_path(ts_model, 5.0, seed=1)
    with pytest.raises(ValueError):
        L.integral_at_times(L.exp_decay(), p, 0.0, np.array([6.0]))


def test_integral_at_times_refuses_times_that_are_not_finite(ts_model):
    p = L.simulate_path(ts_model, 5.0, seed=1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            L.integral_at_times(L.exp_decay(), p, 0.0, np.array([1.0, bad]))


def _dense_integral_at_times(f, path, x, at):
    """Reference running integral: every segment's term, one sequential
    cumsum, plus the share of the segment each time falls in."""
    t, v = path.times, path.values
    t0, dt, v0 = t[:-1], np.diff(t), x + v[:-1]
    r = path.linear_rate
    if not path.exact:
        w = f(v0) if f.kind == "step" else 0.5 * (f(v0) + f(x + v[1:]))
        terms = w * dt
    elif r == 0.0:
        terms = f(v0) * dt
    else:
        terms = (f.primitive(v0 + r * dt) - f.primitive(v0)) / r
    cum = np.concatenate([[0.0], np.cumsum(terms)])
    k = np.clip(np.searchsorted(t, at, side="right") - 1, 0, len(dt) - 1)
    tau = np.clip(at - t0[k], 0.0, dt[k])
    if not path.exact:
        part = terms[k] * tau / dt[k]
    elif r == 0.0:
        part = f(v0[k]) * tau
    else:
        part = (f.primitive(v0[k] + r * tau) - f.primitive(v0[k])) / r
    return cum[k] + part


_SPARSE_FUNCTIONS = [
    L.triangle_train([1.0, 2.0, 4.5, 9.25], [0.5, 1.0, 1.0, 0.125]),
    L.indicator(3.0, 5.0),
    L.step_function([(2.0, 1.0, 2.5), (0.5, 6.0, 8.0)]),
    L.exp_decay(),
]


@pytest.mark.parametrize("which", ["lattice", "tstable", "cpp_down", "bm_grid"])
@pytest.mark.parametrize("f", _SPARSE_FUNCTIONS, ids=lambda f: f.name)
@pytest.mark.parametrize("x", [0.0, -0.75])
def test_integral_at_times_equals_dense_cumsum(which, f, x, lattice_model, ts_model, bm_model):
    """Integrating only the segments that meet f's live intervals gives the
    dense cumsum bit for bit (signed zeros included), for r = 0, r > 0,
    r < 0 and grid paths, at jump times, inside segments and at the horizon."""
    cpp_down = L.build_model(drift=-0.5,
                             jumps=L.CompoundPoisson(rate=1.0, law=("uniform", 0.5, 2.5)))
    model, horizon, step = {"lattice": (lattice_model, 8.0, None),
                            "tstable": (ts_model, 6.0, None),
                            "cpp_down": (cpp_down, 12.0, None),
                            "bm_grid": (bm_model, 10.0, 0.05)}[which]
    for i in range(5):
        path = L.simulate_path(model, horizon, step=step, rng=L.derive_rng(41, i))
        jumps = path.times[1:-1:max(1, (len(path.times) - 2) // 5)]
        at = np.sort(np.concatenate([[0.0, 0.37 * horizon, horizon], path.times[1:3], jumps]))
        got = L.integral_at_times(f, path, x, at)
        want = _dense_integral_at_times(f, path, x, at)
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("which", ["lattice", "tstable", "cpp_down", "bm_grid"])
@pytest.mark.parametrize("f", [("exp",), ("indicator", 1.0, 3.5)], ids=lambda f: f[0])
@pytest.mark.parametrize("x", [0.0, -0.75])
def test_integral_at_times_matches_running_integral_oracle(which, f, x, lattice_model,
                                                           bm_model):
    """The running integral, partial segments included, against a plain
    per-segment loop with closed-form integrals, to 1e-12 relative: r = 0,
    r > 0, r < 0 and grid paths, at 0, at jump times, inside segments and at
    the horizon.  The truncated stable path keeps jumps above 0.05: at the
    default cutoff the primitive difference of e^{-y} over a sweep of r * dt
    about 1e-4 keeps only about 12 digits."""
    ts = L.build_model(jumps=L.TruncatedStable(activity=1.0, index=0.5, cutoff=1.0))
    cpp_down = L.build_model(drift=-0.5,
                             jumps=L.CompoundPoisson(rate=1.0, law=("uniform", 0.5, 2.5)))
    model, horizon, step, cutoff = {"lattice": (lattice_model, 8.0, None, None),
                                    "tstable": (ts, 6.0, None, 0.05),
                                    "cpp_down": (cpp_down, 12.0, None, None),
                                    "bm_grid": (bm_model, 10.0, 0.05, None)}[which]
    fn = L.exp_decay() if f[0] == "exp" else L.indicator(f[1], f[2])
    for i in range(5):
        path = L.simulate_path(model, horizon, step=step, rng=L.derive_rng(43, i),
                               small_jump_cutoff=cutoff)
        t = path.times
        jumps = t[1:-1:max(1, (len(t) - 2) // 4)]
        inside = (0.5 * (t[:-1] + t[1:]))[::max(1, (len(t) - 1) // 4)]
        at = np.sort(np.concatenate([[0.0, 0.37 * horizon, horizon], jumps, inside]))
        got = L.integral_at_times(fn, path, x, at)
        want = oracles.running_integral(t, path.values, path.linear_rate, path.exact, f, x, at)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_lattice_sine_path_integral_exactly_zero(lattice_model):
    f = L.lattice_sine(1.0)
    for i in range(20):
        p = L.simulate_path(lattice_model, 50.0, rng=L.derive_rng(3, 1, i))
        assert L.integral_along_path(f, p) == 0.0


# -- I distribution ---------------------------------------------------------

def test_I_distribution_exponential_holding(lattice_model):
    """I^x for x = 0.5 is the first holding time: Exp(2)."""
    f = L.indicator(0.0, 1.0)
    dist = L.estimate_I_distribution(f, lattice_model, x=0.5, horizon=40.0,
                                     paths=3000, seed=17)
    assert dist.samples.mean() == pytest.approx(0.5, rel=0.1)
    # G_a = P(I > a) = e^{-2a}
    assert (dist.samples > 0.5).mean() == pytest.approx(math.exp(-1.0), abs=0.03)
    assert (dist.samples > 1.0).mean() == pytest.approx(math.exp(-2.0), abs=0.03)
    assert dist.censored.mean() < 0.01


def test_tails_nonincreasing_in_a(lattice_model):
    f = L.exp_decay()
    dist = L.estimate_I_distribution(f, lattice_model, x=0.0, horizon=40.0,
                                     paths=500, seed=23)
    gs = [(dist.samples > a).mean() for a in (0.2, 0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(gs[:-1], gs[1:]))


# -- plateau diagnosis ------------------------------------------------------

def test_diagnosis_finite_exponential(lattice_model):
    v = L.finiteness_diagnosis(L.exp_decay(), lattice_model, x=0.0,
                               rungs=[10.0, 20.0, 40.0, 80.0], paths=1000, seed=29)
    assert v.outcome == "finite"
    assert v.evidence["censored_fraction"][-1] < 0.01


def test_diagnosis_infinite_slow_decay(lattice_model):
    v = L.finiteness_diagnosis(L.inverse_power(1.0), lattice_model, x=0.0,
                               rungs=[10.0, 20.0, 40.0, 80.0], paths=400, seed=31)
    assert v.outcome == "infinite"
    assert v.evidence["log_slope_tstat"] > 5.0


def test_diagnosis_needs_three_rungs(lattice_model):
    with pytest.raises(ValueError):
        L.finiteness_diagnosis(L.exp_decay(), lattice_model, 0.0, [10.0, 20.0],
                               paths=10, seed=0)


def test_diagnosis_verdict_carries_zero_one_note(lattice_model):
    v = L.finiteness_diagnosis(L.exp_decay(), lattice_model, x=0.0,
                               rungs=[5.0, 10.0, 20.0], paths=200, seed=37)
    assert "0 or 1" in v.note


# -- I^x over start points ---------------------------------------------------

_SAMPLER_CASES = {
    # (model, horizon, step, paths): every case spans two chunks of paths
    "lattice": (L.build_model(jumps=L.CompoundPoisson(rate=2.0, atoms=((1.0, 1.0),)),
                              lattice_span=1.0), 3.0, None, 300),
    "lattice_1_2": (L.build_model(jumps=L.CompoundPoisson(rate=2.0, atoms=((1.0, 0.5), (2.0, 0.5))),
                                  lattice_span=1.0), 3.0, None, 300),
    "lattice_pm1": (L.build_model(jumps=L.CompoundPoisson(rate=2.0, atoms=((1.0, 0.7), (-1.0, 0.3))),
                                  lattice_span=1.0), 20.0, None, 300),
    "tstable_k1": (L.build_model(jumps=L.TruncatedStable(activity=1.0, index=0.5, cutoff=1.0)),
                   100.0, None, 258),
    "bm_grid": (L.build_model(drift=1.0, gaussian_var=1.0), 3.0, 0.05, 300),
}
# A lattice block's I^x is the row sum of occupation(s) * f(x + s) over its
# sites s: the terms are grouped by site, not by segment, so it matches the
# per-segment sums within this relative band, not bit for bit.
LATTICE_BAND = 1e-13


@pytest.mark.parametrize("which", sorted(_SAMPLER_CASES))
@pytest.mark.parametrize("f", [L.exp_decay(), L.indicator(0.5, 2.5)], ids=lambda f: f.name)
@pytest.mark.parametrize("threads", [1, 2])
def test_integral_samples_match_per_piece_oracle(which, f, threads):
    """The sampler's (paths, len(xs)) matrix is a plain loop over every piece
    of every block and every x of ``integral_along_path``: bit for bit, and
    within ``LATTICE_BAND`` for lattice models, whose sums are also checked
    against an exactly rounded per-segment sum."""
    model, horizon, step, paths = _SAMPLER_CASES[which]
    xs = [-0.75, 0.0, 0.5]
    k = models._block_paths(model, horizon, None, step)
    assert (k == 1) == (which == "tstable_k1")
    blocks = [b for part in models.reduce_paths(model, horizon, paths, 29, list, step=step)
              for b in part]
    pieces = [p for b in blocks for p in b.pieces()]
    want = np.array([[L.integral_along_path(f, p, x) for x in xs] for p in pieces])
    got = L.perpetual._integral_samples(f, model, xs, horizon, paths, 29, step=step,
                                        threads=threads)
    assert got.shape == (paths, len(xs))
    if model.lattice_span is None:
        assert got.tobytes() == want.tobytes()
        return
    np.testing.assert_allclose(got, want, rtol=LATTICE_BAND, atol=0.0)
    spec = ("exp",) if f.name == "exp_decay" else ("indicator", 0.5, 2.5)
    exact = [[oracles.running_integral(p.times, p.values, 0.0, True, spec, x, [horizon])[0]
              for x in xs] for p in pieces]
    np.testing.assert_allclose(got, exact, rtol=LATTICE_BAND, atol=0.0)


def _per_x_loop(f, model, xs, horizon, paths, seed):
    """I^x of every piece of every whole path, one ``integral_along_path`` call per x."""
    blocks = [b for part in models.reduce_paths(model, horizon, paths, seed, list) for b in part]
    return np.concatenate([np.column_stack([L.integral_along_path(f, b, x) for x in xs])
                           for b in blocks])


def test_lattice_sampler_reads_zeros_where_no_site_meets_f(lattice_model, monkeypatch):
    """No x + site meets the support of f: the lattice reader bins nothing
    and returns the per-x loop's zeros, bit for bit."""
    def no_binning(*args):
        raise AssertionError("occupation was binned")
    monkeypatch.setattr(L.perpetual, "occupation_histogram", no_binning)
    f, xs = L.indicator(50.0, 60.0), [-0.5, 0.0, 1.0]
    got = L.perpetual._integral_samples(f, lattice_model, xs, 3.0, 300, 29)
    want = _per_x_loop(f, lattice_model, xs, 3.0, 300, 29)
    assert got.tobytes() == want.tobytes() and not got.any()


def test_lattice_sampler_falls_back_where_f_is_not_finite_at_a_missed_site(lattice_model):
    """f is +inf at 2 alone.  A piece that never sits at x + site = 2 has a
    finite I^x, where occupation 0 times inf would read NaN; such a block is
    integrated by the per-x loop, and both kinds of piece come out as there,
    bit for bit."""
    f = L.functions.TestFunction(
        name="pole_at_2", kind="closed_form",
        evaluator=lambda y: np.where(y == 2.0, math.inf, np.exp(-np.abs(y))))
    xs = [0.0, 1.0, 0.5]
    got = L.perpetual._integral_samples(f, lattice_model, xs, 3.0, 300, 29)
    want = _per_x_loop(f, lattice_model, xs, 3.0, 300, 29)
    assert got.tobytes() == want.tobytes()
    assert np.isinf(got[:, 0]).any() and np.isfinite(got[:, 0]).any()
    assert np.isfinite(got[:, 2]).all()


def test_function_with_no_live_piece_integrates_to_zero(lattice_model, ts_model):
    """A step function whose coefficients are all 0 has no live interval and
    reads 0.0 along every path, from every start point."""
    f = L.step_function([(0.0, 0.5, 2.5)])
    assert f.live_intervals.shape == (0, 2)
    for model in (lattice_model, ts_model):
        dist = L.estimate_I_distribution(f, model, x=0.25, horizon=10.0, paths=20, seed=3)
        assert dist.samples.tolist() == [0.0] * 20
        lset = L.estimate_L_set(f, model, a=0.0, q=0.5, x_grid=[-1.0, 0.0, 2.0], horizon=10.0,
                                paths=20, seed=3)
        assert lset.g_hat.tolist() == [0.0] * 3


def test_batty_reads_two_path_passes(lattice_model, monkeypatch):
    """The inner estimate reads one pass shared by every probe, the outer
    estimate one more: two ``reduce_paths`` calls in all."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("key"))
        return models.reduce_paths(*args, **kwargs)
    monkeypatch.setattr(L.perpetual, "reduce_paths", counted)
    L.batty_inequality_check(L.indicator(0.0, 1.0), lattice_model, x=0.0, a=1.0, t=5.0,
                             n_outer=64, seed=5)
    assert len(calls) == 2


@pytest.mark.parametrize("call", [
    lambda m: L.estimate_L_set(L.exp_decay(), m, a=1.0, q=0.5, x_grid=[0.0, math.nan],
                               horizon=10.0, paths=10, seed=0),
    lambda m: L.estimate_L_set(L.exp_decay(), m, a=1.0, q=0.5, x_grid=[],
                               horizon=10.0, paths=10, seed=0),
    lambda m: L.estimate_I_distribution(L.exp_decay(), m, x=math.inf, horizon=10.0,
                                        paths=10, seed=0),
    lambda m: L.finiteness_diagnosis(L.lattice_sine(1.0), m, x=math.nan,
                                     rungs=[5.0, 10.0, 20.0], paths=10, seed=0),
    lambda m: L.batty_inequality_check(L.indicator(0.0, 1.0), m, x=math.nan, a=1.0, t=5.0,
                                       n_outer=16, seed=0),
], ids=["L_set_nan", "L_set_empty", "I_distribution_inf", "diagnosis_nan", "batty_nan"])
def test_start_points_that_are_not_finite_are_refused_before_any_draw(lattice_model,
                                                                      monkeypatch, call):
    def no_draws(*args, **kwargs):
        raise AssertionError("paths were drawn")
    monkeypatch.setattr(L.perpetual, "reduce_paths", no_draws)
    with pytest.raises(ValueError, match="finite"):
        call(lattice_model)


@pytest.mark.parametrize("call", [
    lambda m: L.estimate_L_set(L.exp_decay(), m, a=math.nan, q=0.5, x_grid=[0.0],
                               horizon=10.0, paths=10, seed=0),
    lambda m: L.khasminskii_exponential_check(L.exp_decay(), m, x=0.0, theta=math.nan,
                                              horizon=10.0, paths=10, seed=0),
    lambda m: L.batty_inequality_check(L.indicator(0.0, 1.0), m, x=0.5, a=math.nan, t=5.0,
                                       n_outer=16, seed=0),
], ids=["L_set_a_nan", "mgf_theta_nan", "batty_a_nan"])
def test_levels_that_are_not_finite_are_refused_before_any_draw(lattice_model, monkeypatch,
                                                                call):
    """A NaN level or exponent would mark every x a member, give a NaN MGF or
    a failed inequality; each is refused by name instead."""
    def no_draws(*args, **kwargs):
        raise AssertionError("paths were drawn")
    monkeypatch.setattr(L.perpetual, "reduce_paths", no_draws)
    monkeypatch.setattr(L.perpetual, "estimate_I_distribution", no_draws)
    with pytest.raises(ValueError, match="finite"):
        call(lattice_model)


@pytest.mark.parametrize("rungs", [[math.nan, 10.0, 20.0], [0.0, 10.0, 20.0, 40.0],
                                   [-5.0, 10.0, 20.0], [5.0, 10.0, math.inf]],
                         ids=["nan", "zero", "negative", "inf"])
def test_ladder_horizons_that_are_not_finite_and_positive_are_refused_before_any_draw(
        lattice_model, monkeypatch, rungs):
    """A NaN rung used to fail on an index, rung 0 in a least-squares fit
    after every path was drawn, a negative rung after the first block."""
    def no_draws(*args, **kwargs):
        raise AssertionError("paths were drawn")
    monkeypatch.setattr(L.perpetual, "reduce_paths", no_draws)
    with pytest.raises(ValueError, match="ladder horizons must be finite and > 0"):
        L.finiteness_diagnosis(L.constant(1.0), lattice_model, 0.0, rungs, paths=10, seed=0)


def test_mgf_refuses_a_bound_that_is_nan_before_any_draw(lattice_model, monkeypatch):
    """A NaN J used to mean "no bound"; None says that."""
    def no_draws(*args, **kwargs):
        raise AssertionError("paths were drawn")
    monkeypatch.setattr(L.perpetual, "estimate_I_distribution", no_draws)
    with pytest.raises(ValueError, match="j_value"):
        L.khasminskii_exponential_check(L.exp_decay(), lattice_model, x=0.0, theta=0.1,
                                        horizon=10.0, paths=10, seed=0, j_value=math.nan)


# -- sublevel set -----------------------------------------------------------

def test_L_set_upper_half_line(lattice_model):
    """For nonincreasing f the member set grows with x (shared paths)."""
    approx = L.estimate_L_set(L.exp_decay(), lattice_model, a=0.25, q=0.5,
                              x_grid=np.linspace(-2.0, 6.0, 17), horizon=40.0,
                              paths=600, seed=47)
    m = approx.member.astype(int)
    assert np.all(np.diff(m) >= 0)        # once in, stays in
    assert m[-1] == 1


def test_L_set_q_validation(lattice_model):
    with pytest.raises(ValueError):
        L.estimate_L_set(L.exp_decay(), lattice_model, a=1.0, q=1.5,
                         x_grid=[0.0], horizon=10.0, paths=10, seed=0)


# -- truncated-moment inequality -------------------------------------------

def test_batty_inequality_lattice(lattice_model):
    rep = L.batty_inequality_check(L.indicator(0.0, 1.0), lattice_model, x=0.5,
                                   a=1.0, t=10.0, n_outer=400, seed=53)
    assert rep.holds
    assert rep.lhs <= rep.rhs + 3.0 * rep.stderr_lhs
    assert rep.rhs == 1.0


def test_batty_beta_conservative_caveat(lattice_model):
    rep = L.batty_inequality_check(L.exp_decay(), lattice_model, x=0.0,
                                   a=0.5, t=5.0, n_outer=200, seed=59)
    assert any("biased low" in c for c in rep.caveats)
    assert any("truncated" in c for c in rep.caveats)   # unbounded support window


# -- exponential moment -----------------------------------------------------

def test_mgf_exponential_oracle(lattice_model):
    """E[e^I] = 2 for I ~ Exp(2): the classical exponential MGF."""
    rep = L.khasminskii_exponential_check(L.indicator(0.0, 1.0), lattice_model,
                                          x=0.5, theta=1.0, horizon=60.0,
                                          paths=20_000, seed=61, j_value=0.5)
    assert rep.empirical_mgf == pytest.approx(oracles.exp_mgf(2.0, 1.0), rel=0.05)
    assert rep.stable
    assert rep.warning is None


@pytest.mark.parametrize("paths", [1, 0])
def test_mgf_refuses_fewer_than_two_paths_before_any_draw(lattice_model, monkeypatch, paths):
    """The trimmed-sample screen drops the top path, so one path leaves
    nothing to screen: refused by name before any path is drawn."""
    def no_draws(*args, **kwargs):
        raise AssertionError("paths were drawn")
    monkeypatch.setattr(L.perpetual, "estimate_I_distribution", no_draws)
    with pytest.raises(ValueError, match="paths"):
        L.khasminskii_exponential_check(L.exp_decay(), lattice_model, x=0.0, theta=0.5,
                                        horizon=20.0, paths=paths, seed=3)


def test_mgf_refuses_theta_beyond_threshold(lattice_model):
    with pytest.raises(ValueError):
        L.khasminskii_exponential_check(L.indicator(0.0, 1.0), lattice_model,
                                        x=0.5, theta=3.0, horizon=10.0, paths=100,
                                        seed=0, j_value=0.5)
    rep = L.khasminskii_exponential_check(L.indicator(0.0, 1.0), lattice_model,
                                          x=0.5, theta=3.0, horizon=10.0, paths=100,
                                          seed=0, j_value=0.5, override=True)
    assert rep.warning is not None
