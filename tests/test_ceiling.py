"""Paths stopped at a ceiling give every reducer the unstopped answer, bit for bit.

A subordinator never comes back down, so once its path is above the top of
what a reducer reads, nothing it does later changes the answer.
Every jump path draws its stream in stages of arrival gaps, each followed
by the jump sizes of its arrivals, and ``simulate_path(..., ceiling=y)``
reads no stage past the one that holds its first sample above y, so the
samples it keeps are drawn from the same numbers as the unstopped path's.
A block of k paths is the k rows of one stream: every row is drawn in
every stage, and the block stops once every row is past its first sample
above y or its horizon.
These tests pin that a stopped path, or row, is the unstopped one up to its
first sample above y, then one linear segment to the horizon, and that each
jump law fills a draw in stream order, so n sizes drawn in several calls are
those of one call.  Every caller that passes a ceiling is then compared with
the same call on unstopped paths.
"""

import math

import numpy as np
import pytest

import levyint as L
from levyint import models, perpetual, potential
from levyint.perpetual import _ladder_samples

_TS = L.TruncatedStable(activity=1.0, index=0.5, cutoff=1.0)
_DEFAULT_EPS = models.SMALL_JUMP_FRACTION * _TS.cutoff

_LAWS = {
    "tstable_default": lambda rng, n: _TS.sample_jumps(rng, n, _DEFAULT_EPS),
    "tstable_1e-6": lambda rng, n: _TS.sample_jumps(rng, n, 1e-6),
    "atoms": L.CompoundPoisson(rate=1.0, atoms=((0.5, 0.2), (1.0, 0.5), (3.0, 0.3))).sample,
    "exponential": L.CompoundPoisson(rate=1.0, law=("exponential", 0.7)).sample,
    "uniform": L.CompoundPoisson(rate=1.0, law=("uniform", 0.0, 1.0)).sample,
    "pareto": L.CompoundPoisson(rate=1.0, law=("pareto", 1.0, 1.5)).sample,
}


@pytest.mark.parametrize("law", sorted(_LAWS))
def test_jump_draws_in_blocks_equal_one_draw(law):
    """n jump sizes drawn in several calls are the bytes of one call of n."""
    draw, block = _LAWS[law], models.JUMP_BLOCK
    n = 3 * block + 17
    cuts = [0, 1, 2, 1000, block + 1, 2 * block, 3 * block, n]
    rng = L.derive_rng(7, 3, 1)
    parts = [draw(rng, b - a) for a, b in zip(cuts[:-1], cuts[1:])]
    assert np.concatenate(parts).tobytes() == draw(L.derive_rng(7, 3, 1), n).tobytes()


class _OnTheIntegers:
    """A generator whose exponential spacings are all 1.0, so arrivals land
    on 1, 2, 3, ... and one lands on an integer horizon; uniforms are real."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def exponential(self, scale, size):
        return np.ones(size)

    def random(self, size):
        return self._rng.random(size)

    def uniform(self, lo, hi, size):
        return self._rng.uniform(lo, hi, size)


def _stopped_by_hand(full, ceiling):
    """The unstopped path up to its first jump sample above the ceiling,
    then the slope to the horizon (the whole path if it stops on the horizon
    or never)."""
    t, v, r = full.times, full.values, full.linear_rate
    above = np.flatnonzero(v[1:] > ceiling)
    if not len(above) or t[above[0] + 1] == full.horizon:
        return t, v
    m = above[0] + 1
    return np.append(t[:m + 1], full.horizon), np.append(v[:m + 1], v[m] + r * (full.horizon - t[m]))


_PATHS = {
    # model, horizon, cutoff, ceilings, generator for path i
    "tstable_default": (L.build_model(jumps=_TS), 20.0, None, [-1.0, 0.0, 0.5, 3.0, 1e9],
                        lambda i: L.derive_rng(3, i)),
    "tstable_1e-6": (L.build_model(jumps=_TS), 5.0, 1e-6, [1.0, 4.0, 7.0],
                     lambda i: L.derive_rng(4, i)),
    # integer values: a path sits exactly on the ceiling before it passes it
    "lattice": (L.build_model(jumps=L.CompoundPoisson(rate=3.0, atoms=((1.0, 1.0),)),
                              lattice_span=1.0), 10.0, None, [0.0, 5.0, 12.0],
                lambda i: L.derive_rng(5, i)),
    # steep drift, small jumps: the drift carries most paths over the ceiling
    "drift_cpp": (L.build_model(drift=5.0, jumps=L.CompoundPoisson(rate=2.0, law=("uniform", 0.0, 0.5))),
                  10.0, None, [2.0, 17.5, 49.0], lambda i: L.derive_rng(6, i)),
    # a jump lands on the horizon
    "on_horizon": (L.build_model(jumps=L.CompoundPoisson(rate=1.0, law=("uniform", 0.0, 1.0))),
                   8.0, None, [0.2, 2.0, 4.0], _OnTheIntegers),
}


@pytest.mark.parametrize("which", sorted(_PATHS))
def test_stopped_path_is_the_prefix_up_to_the_first_sample_above(which):
    model, horizon, cutoff, ceilings, rng = _PATHS[which]
    seen = {"drift_crossing": 0, "jump_on_horizon": 0}
    for i in range(40):
        full = L.simulate_path(model, horizon, rng=rng(i), small_jump_cutoff=cutoff)
        for ceiling in ceilings:
            got = L.simulate_path(model, horizon, rng=rng(i), small_jump_cutoff=cutoff,
                                  ceiling=ceiling)
            times, values = _stopped_by_hand(full, ceiling)
            assert got.times.tobytes() == times.tobytes()
            assert got.values.tobytes() == values.tobytes()
            assert got.linear_rate == full.linear_rate
            m = np.flatnonzero(values > ceiling)
            if len(m) and m[0] > 0:   # the segment into the first sample above
                t0, t1, v0 = times[m[0] - 1], times[m[0]], values[m[0] - 1]
                seen["drift_crossing"] += v0 + full.linear_rate * (t1 - t0) > ceiling
                seen["jump_on_horizon"] += t1 == horizon
    if which == "drift_cpp":
        assert seen["drift_crossing"] > 0
    if which == "on_horizon":
        assert seen["jump_on_horizon"] > 0


@pytest.mark.parametrize("k", [3, 40])
@pytest.mark.parametrize("which", sorted(_PATHS))
def test_stopped_rows_are_the_prefix_up_to_the_first_sample_above(which, k):
    """The same for the k rows of a block, each against its own unstopped
    row; a stopped block keeps fewer segments, or the same when no row
    passes the ceiling before its horizon."""
    model, horizon, cutoff, ceilings, rng = _PATHS[which]
    stopped = 0
    for i in range(3):
        full = models._jump_paths(model, horizon, rng(i), k, cutoff)
        if which == "on_horizon":   # each row's eighth jump lands on H = 8 and ends it
            assert (np.diff(full.starts) == 8).all()
            assert (full.end > full.v0[full.starts[1:] - 1]).all()
        for ceiling in ceilings:
            got = models._jump_paths(model, horizon, rng(i), k, cutoff, ceiling)
            assert len(got) == k and len(got.t0) <= len(full.t0)
            stopped += len(got.t0) < len(full.t0)
            for a, b in zip(got.pieces(), full.pieces()):
                times, values = _stopped_by_hand(b, ceiling)
                assert a.times.tobytes() == times.tobytes()
                assert a.values.tobytes() == values.tobytes()
    assert stopped > 0


def test_ceiling_needs_a_subordinator(bm_model, ts_model):
    with pytest.raises(ValueError, match="ceiling"):
        L.simulate_path(bm_model, 5.0, step=0.1, seed=1, ceiling=1.0)
    with pytest.raises(ValueError, match="ceiling"):
        L.simulate_path(L.build_model(drift=1.0, jumps=L.CompoundPoisson(
            rate=1.0, law=("uniform", -1.0, 1.0))), 5.0, seed=1, ceiling=1.0)
    with pytest.raises(ValueError, match="ceiling"):
        L.simulate_path(ts_model, 5.0, seed=1, ceiling=math.nan)


def _stopped_and_whole(monkeypatch, call):
    """``call()`` on the engine's paths and on unstopped ones (the ceiling
    ``reduce_paths`` passes dropped), each with the segments it drew."""
    real = models.simulate_path
    out = []
    for stop in (True, False):
        segments = []

        def counted(*args, ceiling=None, **kw):
            path = real(*args, ceiling=ceiling if stop else None, **kw)
            segments.append(len(path.times) - 1)
            return path

        monkeypatch.setattr(models, "simulate_path", counted)
        out.append((call(), sum(segments)))
    monkeypatch.setattr(models, "simulate_path", real)
    return out


# dense enough that reduce_paths draws them one path per stream (k = 1)
_TS_MODEL = L.build_model(jumps=_TS)
_CPP_MODEL = L.build_model(drift=0.5, jumps=L.CompoundPoisson(rate=200.0, law=("exponential", 0.5)))


@pytest.mark.filterwarnings("ignore:horizon")
@pytest.mark.parametrize("model, edges, stops", [
    (_TS_MODEL, np.linspace(0.0, 20.0, 81), True),
    (_TS_MODEL, np.linspace(-3.0, 1e4, 17), False),     # never reached
    (_CPP_MODEL, np.linspace(-1.0, 500.0, 168), True),
], ids=["tstable", "tstable_unreached", "cpp"])
def test_potential_is_unchanged_by_the_ceiling(monkeypatch, model, edges, stops):
    assert models._block_paths(model, 100.0, None) == 1
    (got, n_got), (want, n_want) = _stopped_and_whole(
        monkeypatch, lambda: L.estimate_potential(model, edges, paths=30, seed=8, horizon=100.0))
    assert (n_got < n_want) == stops and n_got <= n_want
    assert got.masses.tobytes() == want.masses.tobytes()
    assert got.stderr.tobytes() == want.stderr.tobytes()


_FUNCTIONS = {
    "indicator": L.indicator(1.0, 3.5),
    "train": L.triangle_train([0.5, 2.0, 6.25], [0.25, 1e-3, 0.5]),
}


@pytest.mark.parametrize("model", [_TS_MODEL, _CPP_MODEL], ids=["tstable", "cpp"])
@pytest.mark.parametrize("f", sorted(_FUNCTIONS))
@pytest.mark.parametrize("x", [0.0, 1.7, -2.5, 10.0])   # 10: the ceiling is below 0
def test_ladder_rows_are_unchanged_by_the_ceiling(monkeypatch, model, f, x):
    f = _FUNCTIONS[f]
    rungs = [25.0, 50.0, 100.0]
    (got, n_got), (want, n_want) = _stopped_and_whole(
        monkeypatch, lambda: _ladder_samples(f, model, x, rungs, 20, 9, None, 1))
    assert n_got < n_want
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    verdicts = _stopped_and_whole(
        monkeypatch, lambda: L.finiteness_diagnosis(f, model, x, rungs, paths=20, seed=9))
    assert repr(verdicts[0][0]) == repr(verdicts[1][0])


def _rows_stopped_and_whole(monkeypatch, module, call):
    """``call()`` with the ceiling ``module.reduce_paths`` passes kept, then
    dropped, each with the segments of the jump blocks it drew."""
    real_reduce, real_rows = module.reduce_paths, models._jump_paths
    out = []
    for stop in (True, False):
        segments = []

        def rows(*args, **kw):
            path = real_rows(*args, **kw)
            segments.append(len(models._as_block(path).t0))
            return path

        def reduce(*args, ceiling=None, **kw):
            return real_reduce(*args, ceiling=ceiling if stop else None, **kw)

        monkeypatch.setattr(models, "_jump_paths", rows)
        monkeypatch.setattr(module, "reduce_paths", reduce)
        out.append((call(), sum(segments)))
    return out


@pytest.mark.filterwarnings("ignore:horizon")
def test_lattice_potential_is_unchanged_by_the_ceiling(monkeypatch, lattice_model):
    """Lattice paths come in blocks of k > 1 rows; each stops past the top edge."""
    assert models._block_paths(lattice_model, 60.0, None) > 1
    (got, n_got), (want, n_want) = _rows_stopped_and_whole(
        monkeypatch, potential, lambda: L.estimate_potential(
            lattice_model, np.arange(20.0) - 0.5, paths=300, seed=8, horizon=60.0))
    assert n_got < n_want
    assert got.masses.tobytes() == want.masses.tobytes()
    assert got.stderr.tobytes() == want.stderr.tobytes()


@pytest.mark.parametrize("f, x", [(L.indicator(0.0, 1.0), 0.25), (_FUNCTIONS["train"], -2.5)],
                         ids=["indicator", "train"])
def test_lattice_I_distribution_is_unchanged_by_the_ceiling(monkeypatch, lattice_model, f, x):
    assert models._block_paths(lattice_model, 60.0, None) > 1
    (got, n_got), (want, n_want) = _rows_stopped_and_whole(
        monkeypatch, perpetual, lambda: L.estimate_I_distribution(
            f, lattice_model, x=x, horizon=60.0, paths=300, seed=9))
    assert n_got < n_want
    assert got.samples.tobytes() == want.samples.tobytes()
    assert got.censored.tobytes() == want.censored.tobytes()


@pytest.fixture(scope="module")
def trap(ts_model):
    table = L.estimate_overshoot_cdf(ts_model, [2, 3, 4, 6, 8, 12], paths=300, seed=5)
    return L.build_transient_trap(table, n_max=4, safety=2.0)


@pytest.mark.parametrize("cutoff", [None, 1e-6])
def test_trap_verification_is_unchanged_by_the_ceiling(monkeypatch, ts_model, trap, cutoff):
    (got, n_got), (want, n_want) = _stopped_and_whole(
        monkeypatch, lambda: L.verify_counterexample(ts_model, trap, paths=24, seed=6,
                                                     horizon=90.0, small_jump_cutoff=cutoff))
    assert n_got < n_want
    assert repr(got.to_dict()) == repr(want.to_dict())
