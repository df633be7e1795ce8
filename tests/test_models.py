import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import levyint as L
from levyint import models
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


@pytest.mark.parametrize("law, name", [
    (("exponential", math.nan), "exponential scale"),
    (("exponential", math.inf), "exponential scale"),
    (("uniform", 0.0, math.inf), "uniform hi"),
    (("uniform", math.nan, 1.0), "uniform lo"),
    (("pareto", math.inf, 2.0), "pareto xm"),
    (("pareto", 1.0, math.nan), "pareto tail index"),
    (("pareto", 1.0, math.inf), "pareto tail index"),
], ids=["exp_nan", "exp_inf", "uniform_hi_inf", "uniform_lo_nan", "pareto_xm_inf",
        "pareto_index_nan", "pareto_index_inf"])
def test_law_parameters_that_are_not_finite_are_refused_by_name(law, name):
    """A NaN or infinite law parameter would give a jump mean of NaN or inf,
    and paths that read NaN; each is refused, naming the parameter."""
    with pytest.raises(ModelRejectionError, match=name):
        L.CompoundPoisson(1.0, law=law)


def test_atom_probability_that_is_nan_is_refused():
    with pytest.raises(ModelRejectionError, match="atom probabilities"):
        L.CompoundPoisson(1.0, atoms=((1.0, math.nan),))


@pytest.mark.parametrize("span", [math.inf, math.nan, 0.0])
def test_lattice_span_that_is_not_finite_and_positive_is_refused_by_name(span):
    jumps = L.CompoundPoisson(rate=2.0, atoms=((1.0, 1.0),))
    with pytest.raises(ModelRejectionError, match="lattice span must be finite and > 0"):
        L.build_model(jumps=jumps, lattice_span=span)


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


def _reference_sizes(jumps, rng, n, eps):
    """n jump sizes in plain numpy; a law with one atom draws nothing."""
    if isinstance(jumps, L.TruncatedStable):   # inverse transform on (eps, r]
        a, b = eps ** -jumps.index, jumps.cutoff ** -jumps.index
        return (a - rng.random(n) * (a - b)) ** (-1.0 / jumps.index)
    if jumps.atoms is not None:
        values = [v for v, _ in jumps.atoms]
        if len(values) == 1:
            return np.full(n, values[0])
        return rng.choice(values, size=n, p=[p for _, p in jumps.atoms])
    name, *args = jumps.law
    assert name == "uniform"
    return rng.uniform(*args, size=n)


def _concatenated_path(model, horizon, rng, small_jump_cutoff=None, ceiling=None):
    """A jump path drawn from ``rng`` as simulate_path draws it, with
    temporaries throughout and assembled by concatenation.

    Blocks of ``models.JUMP_BLOCK`` exponential spacings, each followed by
    the sizes of its arrivals within the horizon, until a block passes the
    horizon or, with a ceiling, holds a value above it.  The path is (0, 0),
    the arrivals with values rate * t + S (S: the summed jumps) up to the
    first above the ceiling, and the horizon appended, extending the last
    piece, unless a jump landed on it."""
    jumps, block = model.jumps, models.JUMP_BLOCK
    eps = None
    if isinstance(jumps, L.CompoundPoisson):
        arrival_rate, rate = jumps.rate, model.drift
    else:
        eps = small_jump_cutoff or models.SMALL_JUMP_FRACTION * jumps.cutoff
        arrival_rate, rate = jumps.tail_mass(eps), model.drift + jumps.small_jump_drift(eps)
    gaps, sizes = np.empty(0), np.empty(0)
    while True:
        gaps = np.concatenate([gaps, rng.exponential(1.0 / arrival_rate, size=block)])
        n = np.count_nonzero(np.cumsum(gaps) <= horizon) - len(sizes)
        sizes = np.concatenate([sizes, _reference_sizes(jumps, rng, n, eps)])
        values = rate * np.cumsum(gaps)[:len(sizes)] + np.cumsum(sizes)
        if n < block or (ceiling is not None and (values > ceiling).any()):
            break
    times = np.cumsum(gaps)[:len(sizes)]
    if ceiling is not None and (values > ceiling).any():
        m = np.argmax(values > ceiling) + 1
        times, values = times[:m], values[:m]
    times = np.concatenate([[0.0], times])
    values = np.concatenate([[0.0], values])
    if times[-1] < horizon:
        values = np.append(values, values[-1] + rate * (horizon - times[-1]))
        times = np.append(times, horizon)
    return times, values, rate


def _reference_grid_path(model, horizon, step, rng):
    """A grid skeleton drawn from ``rng`` as simulate_path draws it, in plain
    numpy, as (times, values).

    First the jumps, if any: blocks of ``models.JUMP_BLOCK`` exponential
    spacings, each followed by the sizes of its arrivals within the horizon,
    until a block passes the horizon.  Then the cells, between consecutive
    points of the grid and the arrivals; one normal per cell, times
    sqrt(gaussian_var * dt), plus drift * dt; each jump added at the end of
    its cell; the values the running sum from 0."""
    grid = np.linspace(0.0, horizon, max(1, int(round(horizon / step))) + 1)
    gaps, sizes = np.empty(0), np.empty(0)
    while model.jumps is not None:
        gaps = np.concatenate([gaps, rng.exponential(1.0 / model.jumps.rate,
                                                     size=models.JUMP_BLOCK)])
        n = np.count_nonzero(np.cumsum(gaps) <= horizon) - len(sizes)
        sizes = np.concatenate([sizes, _reference_sizes(model.jumps, rng, n, None)])
        if n < models.JUMP_BLOCK:
            break
    arrivals = np.cumsum(gaps)[:len(sizes)]
    times = np.unique(np.concatenate([grid, arrivals]))
    dt = np.diff(times)
    incr = rng.standard_normal(len(dt)) * (math.sqrt(model.gaussian_var) * np.sqrt(dt))
    incr += model.drift * dt
    incr[np.isin(times[1:], arrivals)] += sizes
    return times, np.concatenate([[0.0], np.cumsum(incr)])


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("which", ["bm", "bm_cpp", "bm_atoms"])
def test_grid_path_matches_plain_reference(monkeypatch, which, block, bm_model):
    """simulate_path's grid skeleton equals the plain-numpy reference to the
    bit, and both leave the generator in the same state (with blocks of 3
    spacings the jumps span many blocks)."""
    if block is not None:
        monkeypatch.setattr(models, "JUMP_BLOCK", block)
    model = {
        "bm": bm_model,
        "bm_cpp": L.build_model(drift=1.0, gaussian_var=1.0, jumps=L.CompoundPoisson(
            rate=2.0, law=("uniform", -1.0, 0.5))),
        "bm_atoms": L.build_model(drift=0.5, gaussian_var=2.0, jumps=L.CompoundPoisson(
            rate=1.5, atoms=((-0.5, 0.4), (1.0, 0.6)))),
    }[which]
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        p = L.simulate_path(model, 10.0, step=0.05, rng=rng)
        times, values = _reference_grid_path(model, 10.0, 0.05, ref_rng)
        assert p.times.tobytes() == times.tobytes()
        assert p.values.tobytes() == values.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _reference_rows(model, horizon, k, rng, small_jump_cutoff=None, ceiling=None):
    """k jump paths drawn from ``rng`` as the rows of one block, with
    temporaries throughout, as a list of (times, values).

    Stages of m = ``JUMP_BLOCK // k`` exponential spacings for every row,
    drawn as one row-major (k, m) array, each followed by the sizes of the
    stage's arrivals within the horizon, row-major, up to the last of them
    (the sizes of a row's later arrivals are drawn and dropped).  Stages go
    on until every row has passed the horizon or, with a ceiling, holds a
    value above it.  Row r is (0, 0), its arrivals with values rate * t + S
    up to its first above the ceiling, and the horizon appended, extending
    the last piece, unless a jump landed on it; each row comes with the
    rate."""
    jumps, m = model.jumps, max(1, models.JUMP_BLOCK // k)
    eps = None
    if isinstance(jumps, L.CompoundPoisson):
        arrival_rate, rate = jumps.rate, model.drift
    else:
        eps = small_jump_cutoff or models.SMALL_JUMP_FRACTION * jumps.cutoff
        arrival_rate, rate = jumps.tail_mass(eps), model.drift + jumps.small_jump_drift(eps)
    gaps, sizes = np.empty((k, 0)), [np.empty(0)] * k
    while True:
        gaps = np.concatenate([gaps, rng.exponential(1.0 / arrival_rate, size=(k, m))], axis=1)
        arrivals = np.cumsum(gaps, axis=1)
        n = [np.count_nonzero(row[-m:] <= horizon) for row in arrivals]
        wanted = max([r * m + c for r, c in enumerate(n) if c], default=0)
        drawn = _reference_sizes(jumps, rng, wanted, eps)
        sizes = [np.concatenate([sizes[r], drawn[r * m:r * m + n[r]]]) for r in range(k)]
        values = [rate * arrivals[r, :len(sizes[r])] + np.cumsum(sizes[r]) for r in range(k)]
        if all(arrivals[r, -1] > horizon or (ceiling is not None and (values[r] > ceiling).any())
               for r in range(k)):
            break
    rows = []
    for r in range(k):
        times, row = arrivals[r, :len(sizes[r])], values[r]
        if ceiling is not None and (row > ceiling).any():
            j = np.argmax(row > ceiling) + 1
            times, row = times[:j], row[:j]
        times, row = np.concatenate([[0.0], times]), np.concatenate([[0.0], row])
        if times[-1] < horizon:
            row = np.append(row, row[-1] + rate * (horizon - times[-1]))
            times = np.append(times, horizon)
        rows.append((times, row, rate))
    return rows


@pytest.mark.parametrize("which, horizon, cutoff", [
    ("lattice", 50.0, None),
    ("uniform", 40.0, None),
    ("uniform_down", 40.0, None),
    ("tstable", 20.0, None),
    ("tstable", 5.0, 1e-6),
    ("no_jump", 1.0, None),
])
def test_jump_path_assembly_matches_concatenation(which, horizon, cutoff, lattice_model, ts_model):
    """simulate_path fills its arrays block by block; they equal the
    concatenated assembly from the same generator, to the bit, and both
    leave the generator in the same state."""
    model = {
        "lattice": lattice_model,
        "uniform": L.build_model(jumps=L.CompoundPoisson(rate=3.0, law=("uniform", 0.0, 1.0))),
        "uniform_down": L.build_model(drift=-0.3, jumps=L.CompoundPoisson(rate=3.0,
                                                                           law=("uniform", 0.0, 1.0))),
        "tstable": ts_model,
        "no_jump": L.build_model(drift=0.7, jumps=L.CompoundPoisson(rate=1e-6,
                                                                     law=("uniform", 0.0, 1.0))),
    }[which]
    for seed in range(4):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        p = L.simulate_path(model, horizon, rng=rng, small_jump_cutoff=cutoff)
        times, values, rate = _concatenated_path(model, horizon, ref_rng, cutoff)
        if which == "no_jump":
            assert len(times) == 2
        assert p.linear_rate == rate
        assert p.times.tobytes() == times.tobytes()
        assert p.values.tobytes() == values.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


_SMALL_BLOCK_MODELS = {
    # model, horizon, cutoff, ceilings; each horizon leaves some paths no arrival
    "atoms": (L.build_model(drift=0.2, jumps=L.CompoundPoisson(rate=1.0, atoms=((0.5, 0.3), (1.0, 0.7)))),
              3.0, None, [0.4, 1.2, 2.0, 3.5]),
    "lattice": (L.build_model(jumps=L.CompoundPoisson(rate=2.0, atoms=((1.0, 1.0),)), lattice_span=1.0),
                1.5, None, [0.0, 1.0, 2.5, 4.0]),
    "tstable": (L.build_model(jumps=L.TruncatedStable(activity=1.0, index=0.5, cutoff=1.0)),
                0.5, 0.05, [0.1, 0.4, 0.9, 1.5]),
}


@pytest.mark.parametrize("which", sorted(_SMALL_BLOCK_MODELS))
def test_paths_in_blocks_of_three(monkeypatch, which):
    """With three arrivals a block, over 200 seeds: every path, stopped or
    not, is the reference to the bit and leaves the generator where the
    reference does, and a stopped path is the unstopped one up to its first
    sample above the ceiling.  The seeds meet a ceiling on the first and on
    the last draw of a block, arrivals that exactly fill their blocks, and
    paths with no arrival in (0, H]."""
    monkeypatch.setattr(models, "JUMP_BLOCK", 3)
    model, horizon, cutoff, ceilings = _SMALL_BLOCK_MODELS[which]
    seen = {"first_of_block": 0, "last_of_block": 0, "full_blocks": 0, "no_arrival": 0}
    for seed in range(200):
        for ceiling in [None, *ceilings]:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            p = L.simulate_path(model, horizon, rng=rng, small_jump_cutoff=cutoff, ceiling=ceiling)
            times, values, rate = _concatenated_path(model, horizon, ref_rng, cutoff, ceiling)
            assert p.linear_rate == rate
            assert p.times.tobytes() == times.tobytes()
            assert p.values.tobytes() == values.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if ceiling is None:   # no spacing lands a jump on the horizon here
                full, arrivals = p, len(p.times) - 2
                seen["no_arrival"] += arrivals == 0
                seen["full_blocks"] += arrivals > 0 and arrivals % 3 == 0
                continue
            kept = len(p.times) - 1   # all but the horizon sample
            assert p.times[:kept].tobytes() == full.times[:kept].tobytes()
            assert p.values[:kept].tobytes() == full.values[:kept].tobytes()
            above = np.flatnonzero(full.values[1:] > ceiling)
            if len(above) and full.times[above[0] + 1] < horizon:
                j = above[0] + 1           # the arrival that stops the path, counted from 1
                assert len(p.times) == j + 2 and p.values[j] > ceiling >= p.values[j - 1]
                seen["first_of_block"] += j % 3 == 1
                seen["last_of_block"] += j % 3 == 0
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("which", sorted(_SMALL_BLOCK_MODELS))
def test_rows_in_small_stages(monkeypatch, which, k):
    """With six arrivals a stage (three or two a row; two for one row), over
    100 seeds: every block of k rows, stopped at a ceiling or not, is the
    reference to the bit, and leaves the generator where the reference does.
    A one-row block is the path simulate_path draws in scalar steps."""
    monkeypatch.setattr(models, "JUMP_BLOCK", 6 if k > 1 else 2)
    model, horizon, cutoff, ceilings = _SMALL_BLOCK_MODELS[which]
    stages = set()
    for seed in range(100):
        for ceiling in [None, *ceilings]:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            block = models._jump_paths(model, horizon, rng, k, cutoff, ceiling)
            want = _reference_rows(model, horizon, k, ref_rng, cutoff, ceiling)
            assert len(block) == k
            for p, (times, values, rate) in zip(block.pieces(), want):
                assert p.linear_rate == rate
                assert p.times.tobytes() == times.tobytes()
                assert p.values.tobytes() == values.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if k == 1:
                path_rng = np.random.default_rng(seed)
                p = L.simulate_path(model, horizon, rng=path_rng, small_jump_cutoff=cutoff,
                                    ceiling=ceiling)
                assert p.linear_rate == rate
                assert p.times.tobytes() == times.tobytes()
                assert p.values.tobytes() == values.tobytes()
                assert path_rng.bit_generator.state == rng.bit_generator.state
            stages.add(max(len(t) - 2 for t, _, _ in want) // (models.JUMP_BLOCK // k))
    assert len(stages) > 2, stages


def test_one_atom_law_draws_nothing():
    """Every jump of a one-atom law is its value; the generator is not touched."""
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    sizes = L.CompoundPoisson(rate=2.0, atoms=((1.5, 1.0),)).sample(rng, 7)
    assert sizes.tobytes() == np.full(7, 1.5).tobytes()
    assert rng.bit_generator.state == state


def test_path_needs_a_seed_or_an_rng(lattice_model, bm_model):
    """No path is drawn from fresh entropy; with a seed, a grid model still
    needs its step."""
    for model in (lattice_model, bm_model):
        with pytest.raises(ValueError, match="seed or an rng"):
            L.simulate_path(model, 10.0, step=0.1)
    with pytest.raises(ValueError, match="step"):
        L.simulate_path(bm_model, 10.0, seed=3)
    assert L.simulate_path(lattice_model, 10.0, seed=3).values.tobytes() == \
        L.simulate_path(lattice_model, 10.0, rng=np.random.default_rng(3)).values.tobytes()


def test_gaussian_needs_step(bm_model):
    with pytest.raises(ValueError):
        L.simulate_path(bm_model, 10.0)
    p = L.simulate_path(bm_model, 10.0, step=0.1, seed=3)
    assert not p.exact and p.linear_rate == 0.0


@pytest.mark.filterwarnings("ignore:horizon")
@pytest.mark.parametrize("step", [math.inf, math.nan])
def test_grid_step_that_is_not_finite_is_refused_before_any_draw(monkeypatch, bm_model, step):
    """A Gaussian model's step is refused by name before any stream is
    derived or read: ``step=inf`` used to draw one-cell paths, and
    ``step=nan`` died converting NaN to an integer."""
    def no_streams(*args, **kwargs):
        raise AssertionError("a path stream was derived")
    monkeypatch.setattr(models, "derive_rng", no_streams)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    for call in (lambda: L.simulate_path(bm_model, 20.0, step=step, rng=rng),
                 lambda: L.estimate_potential(bm_model, np.linspace(0.0, 8.0, 9), paths=20,
                                              seed=1, horizon=20.0, step=step),
                 lambda: L.estimate_I_distribution(L.exp_decay(), bm_model, x=0.0, horizon=20.0,
                                                   paths=20, seed=1, step=step)):
        with pytest.raises(ValueError, match="step"):
            call()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("knob", ["step", "small_jump_cutoff"])
@pytest.mark.parametrize("name", ["lattice_model", "bm_model", "ts_model"])
def test_knob_that_is_not_finite_is_refused_on_every_model(request, monkeypatch, name, knob,
                                                          value):
    """A ``step`` or ``small_jump_cutoff`` that is not finite is refused by
    name before any stream is derived or read, also on a model that does not
    use it: a lattice model used to draw a path with ``step=nan``, and its
    potential with ``step=inf``.  ``estimate_potential`` has no cutoff."""
    model = request.getfixturevalue(name)
    def no_streams(*args, **kwargs):
        raise AssertionError("a path stream was derived")
    monkeypatch.setattr(models, "derive_rng", no_streams)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    knobs = {"step": 0.1, knob: value}     # a Gaussian model gets a usable step otherwise
    calls = [lambda: L.simulate_path(model, 20.0, rng=rng, **knobs),
             lambda: reduce_paths(model, 20.0, 20, 1, list, **knobs)]
    if knob == "step":      # the potential takes no cutoff
        calls.append(lambda: L.estimate_potential(model, np.arange(9.0) - 0.5, paths=20, seed=1,
                                                  horizon=20.0, step=value))
    for call in calls:
        with pytest.raises(ValueError, match=f"{knob} must be finite"):
            call()
    assert rng.bit_generator.state == state


def test_finite_knob_a_model_does_not_use_is_ignored(lattice_model, bm_model):
    """A finite ``step`` or ``small_jump_cutoff`` that the model does not use
    leaves its path as it was, bit for bit, even where it would be refused
    on a model that uses it."""
    for model, knobs in ((lattice_model, {"step": -1.0, "small_jump_cutoff": 5.0}),
                         (bm_model, {"step": 0.1, "small_jump_cutoff": -2.0})):
        plain = L.simulate_path(model, 20.0, seed=3, step=knobs["step"])
        path = L.simulate_path(model, 20.0, seed=3, **knobs)
        assert path.times.tobytes() == plain.times.tobytes()
        assert path.values.tobytes() == plain.values.tobytes()


_JUMP_SPECS = st.one_of(
    st.none(),
    st.builds(lambda rate, values: L.CompoundPoisson(
        rate, atoms=tuple((v, 1.0 / len(values)) for v in values)),
        st.floats(0.1, 5.0), st.lists(st.sampled_from([-2.0, -1.0, 1.0, 2.0, 3.0]),
                                      min_size=1, max_size=3, unique=True)),
    st.builds(lambda rate, law: L.CompoundPoisson(rate, law=law), st.floats(0.1, 5.0),
              st.sampled_from([("exponential", 1.0), ("uniform", -1.0, 2.0), ("pareto", 1.0, 0.8)])),
    st.builds(L.TruncatedStable, st.floats(0.1, 3.0), st.floats(0.05, 0.95), st.floats(0.1, 1.0)),
)


@settings(max_examples=80, deadline=None)
@given(drift=st.sampled_from([-1.0, 0.0, 0.5]), gaussian_var=st.sampled_from([0.0, 1.0]),
       jumps=_JUMP_SPECS, lattice=st.booleans())
@example(drift=0.5, gaussian_var=1.0, jumps=L.TruncatedStable(1.0, 0.5, 1.0), lattice=False)
def test_every_accepted_model_draws_a_path(drift, gaussian_var, jumps, lattice):
    """What ``build_model`` accepts, the engine draws: one path through
    ``reduce_paths``, on a grid when the model has a Gaussian part.  A
    Gaussian part with truncated stable jumps used to be accepted and then
    refused by every draw."""
    try:
        model = L.build_model(drift, gaussian_var, jumps, 1.0 if lattice else None)
    except ModelRejectionError:
        return
    step = 0.1 if gaussian_var > 0 else None
    [[block]] = reduce_paths(model, 2.0, 1, 7, list, step=step)
    assert len(block) == 1 and block.horizon == 2.0


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

def _pieces(chunk):
    """A reducer that collects whole paths: every piece of every block."""
    return [path for block in chunk for path in block.pieces()]


@pytest.mark.parametrize("which", ["lattice", "tstable"])
def test_reduce_paths_matches_seeded_paths(which, lattice_model, ts_model):
    """Three chunks, a non-default key: the block of k paths starting at index
    s is the k rows derive_rng(seed, *key, s) gives, drawn by the plain-numpy
    reference; blocks tile each chunk, whatever the thread count."""
    m, block = (lattice_model, 256) if which == "lattice" else (ts_model, 27)
    key = (L.rng.STREAM_INNER, 4)
    assert models._block_paths(m, 3.0, None) == block
    expected = []
    for a, b in [(0, 256), (256, 512), (512, 600)]:
        for s in range(a, b, block):
            expected += _reference_rows(m, 3.0, min(block, b - s), L.derive_rng(17, *key, s))
    for threads in (1, 2):
        parts = reduce_paths(m, 3.0, 600, 17, _pieces, key=key, threads=threads)
        assert [len(part) for part in parts] == [256, 256, 88]
        got = [path for part in parts for path in part]
        assert len(got) == len(expected)
        for a, (times, values, rate) in zip(got, expected):
            assert a.times.tobytes() == times.tobytes() and a.values.tobytes() == values.tobytes()
            assert a.linear_rate == rate and a.horizon == 3.0


def test_reduce_paths_single_path_blocks_are_uncut(bm_model, ts_model):
    """k = 1 (dense truncated-stable paths) is path i from
    derive_rng(seed, STREAM_PATH, i), uncut.  Grid skeletons come in blocks
    of k > 1 paths drawn side by side, not cut: piece i of the block is
    still the lone path from that stream, bit for bit."""
    bm_cpp = L.build_model(drift=1.0, gaussian_var=1.0, jumps=L.CompoundPoisson(
        rate=2.0, law=("uniform", -1.0, 0.5)))
    for m, kw in ((bm_model, {"step": 0.05}), (bm_cpp, {"step": 0.05}),
                  (ts_model, {"small_jump_cutoff": 1e-6})):
        k = models._block_paths(m, 10.0, kw.get("small_jump_cutoff"), kw.get("step"))
        assert (k > 1) == (m is not ts_model)
        got = reduce_paths(m, 10.0, 5, 3, _pieces, **kw)[0]
        assert len(got) == 5
        for i, path in enumerate(got):
            ref = L.simulate_path(m, 10.0, rng=L.derive_rng(3, L.rng.STREAM_PATH, i), **kw)
            assert path.times.tobytes() == ref.times.tobytes()
            assert path.values.tobytes() == ref.values.tobytes()


def test_reduce_paths_threads_only_single_path_blocks(lattice_model, bm_model, ts_model):
    """Every jump path runs on the calling thread, whatever ``threads`` asks:
    blocks of light paths (lattice) and k = 1 paths (truncated stable at
    H = 50) alike.  Only grid blocks with several chunks go to the pool."""
    assert models._block_paths(ts_model, 50.0, None) == 1
    for m, h, kw, pooled in ((lattice_model, 3.0, {}, False), (bm_model, 3.0, {"step": 0.5}, True),
                             (ts_model, 50.0, {}, False)):
        ran_on = reduce_paths(m, h, 600, 5, lambda chunk: (list(chunk), threading.get_ident())[1],
                              threads=2, **kw)
        assert len(ran_on) == 3
        assert (set(ran_on) != {threading.get_ident()}) == pooled


def test_cut_keeps_lattice_values_integer(lattice_model):
    paths = reduce_paths(lattice_model, 7.5, 256, 2, _pieces)[0]
    assert models._block_paths(lattice_model, 7.5, None) > 1
    for p in paths:
        assert np.array_equal(p.values, np.round(p.values))
        assert p.values[-1] == p.values[-2]   # no drift: the end holds the last value


_LAW_MODELS = {
    "lattice": (lambda: L.build_model(jumps=L.CompoundPoisson(rate=2.0, atoms=((1.0, 1.0),)),
                                      lattice_span=1.0), 3.0),
    "tstable": (lambda: L.build_model(jumps=L.TruncatedStable(activity=1.0, index=0.5,
                                                              cutoff=1.0)), 3.0),
    "drifted_cpp": (lambda: L.build_model(drift=1.0, jumps=L.CompoundPoisson(
        rate=3.0, law=("uniform", -1.0, 0.5))), 2.5),
}


@pytest.mark.parametrize("which", sorted(_LAW_MODELS))
def test_block_rows_have_the_per_path_law(which):
    """Two-sample check of the rows of a block against one stream per path:
    xi_H and the jump count agree within the two-sample DKW band at
    alpha = 1e-3 (each sample's band at 1 - 5e-4), and consecutive rows of
    one block are uncorrelated."""
    build, horizon = _LAW_MODELS[which]
    m, n = build(), 4000
    assert models._block_paths(m, horizon, None) > 1
    rows = [p for part in reduce_paths(m, horizon, n, 11, _pieces) for p in part]
    ref = [L.simulate_path(m, horizon, rng=L.derive_rng(12, L.rng.STREAM_PATH, i))
           for i in range(n)]
    band = 2.0 * oracles.dkw_band(n, confidence=1.0 - 5e-4)
    for stat in (lambda p: p.values[-1], lambda p: len(p.times) - 2):
        a = np.sort([stat(p) for p in rows])
        b = np.sort([stat(p) for p in ref])
        grid = np.union1d(a, b)
        gap = np.abs(np.searchsorted(a, grid, side="right")
                     - np.searchsorted(b, grid, side="right")).max() / n
        assert gap <= band, (which, gap, band)
    ends = np.array([p.values[-1] for p in rows])
    assert abs(np.corrcoef(ends[:-1], ends[1:])[0, 1]) < 4.0 / math.sqrt(n)


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
    "estimate_overshoot_cdf": lambda m: L.estimate_overshoot_cdf(
        L.build_model(jumps=L.TruncatedStable(activity=1.0, index=0.5, cutoff=1.0)),
        [2.0], paths=0, seed=1),
}


@pytest.mark.parametrize("routine", sorted(_ZERO_BUDGET))
def test_zero_path_budget_refused(routine, lattice_model):
    """No routine returns an estimate, or a pass, from zero paths."""
    with pytest.raises(ValueError, match="paths must be >= 1"):
        _ZERO_BUDGET[routine](lattice_model)


# each routine with one integer input set to ``bad``, given the lattice and
# the truncated-stable model; the lattice potential at horizon 20 is below
# its heuristic, so it would warn if it got that far
_INTEGER_INPUTS = {
    "estimate_potential.paths": ("paths", lambda m, ts, bad: L.estimate_potential(
        m, np.arange(11.0) - 0.5, paths=bad, seed=1, horizon=20.0)),
    "estimate_potential.seed": ("seed", lambda m, ts, bad: L.estimate_potential(
        m, np.arange(11.0) - 0.5, paths=50, seed=bad, horizon=20.0)),
    "reduce_paths.seed": ("seed", lambda m, ts, bad: reduce_paths(m, 5.0, 10, bad, list)),
    "simulate_path.seed": ("seed", lambda m, ts, bad: L.simulate_path(m, 5.0, seed=bad)),
    "estimate_overshoot_cdf.paths": ("paths", lambda m, ts, bad: L.estimate_overshoot_cdf(
        ts, [2.0], paths=bad, seed=1)),
    "estimate_overshoot_cdf.seed": ("seed", lambda m, ts, bad: L.estimate_overshoot_cdf(
        ts, [2.0], paths=10, seed=bad)),
    "batty_inequality_check.n_outer": ("n_outer", lambda m, ts, bad: L.batty_inequality_check(
        L.indicator(0.0, 1.0), m, 0.0, a=1.0, t=5.0, n_outer=bad, seed=1)),
    "khasminskii_exponential_check.paths": ("paths", lambda m, ts, bad: L.khasminskii_exponential_check(
        L.exp_decay(), m, x=0.0, theta=0.5, horizon=20.0, paths=bad, seed=3)),
    "estimate_I_distribution.seed": ("seed", lambda m, ts, bad: L.estimate_I_distribution(
        L.exp_decay(), m, x=0.0, horizon=20.0, paths=20, seed=bad)),
}


@pytest.mark.parametrize("bad", [2.5, 1.9, math.nan, True, -1], ids=["2.5", "1.9", "nan", "True", "-1"])
@pytest.mark.parametrize("routine", sorted(_INTEGER_INPUTS))
def test_integer_inputs_refused_by_name_before_any_stream_or_warning(routine, bad, lattice_model,
                                                                   ts_model, monkeypatch):
    """A path budget, depth or seed that is not an integer at or above its
    least value is refused by name, before any stream is derived and before
    the horizon warning: seed 1.9 or True used to draw seed 1's paths, and
    ``paths=nan`` died in ``range`` after the warning."""
    def no_streams(*args, **kwargs):
        raise AssertionError("a stream was derived")
    monkeypatch.setattr(models, "derive_rng", no_streams)
    monkeypatch.setattr(L.rng, "derive_rng", no_streams)
    name, call = _INTEGER_INPUTS[routine]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"{name}\b.* must be >= \d and an integer"):
            call(lattice_model, ts_model, bad)


@pytest.mark.filterwarnings("ignore:horizon")
@pytest.mark.parametrize("horizon", [math.nan, 0.0, -1.0, math.inf])
def test_bad_horizon_refused_for_every_block(horizon, lattice_model):
    """A horizon that is not finite and > 0 is refused, not drawn: by
    reduce_paths and estimate_potential on the lattice model (blocks of
    k > 1 rows, which a NaN horizon would never end) and on pure drift
    (blocks of rows with no arrival)."""
    drift = L.build_model(drift=1.5)
    edges = np.arange(11.0) - 0.5
    for call in (lambda m: reduce_paths(m, horizon, 300, 1, list),
                 lambda m: L.estimate_potential(m, edges, paths=300, seed=1, horizon=horizon)):
        for m in (lattice_model, drift):
            with pytest.raises(ValueError, match="horizon must be finite and > 0"):
                call(m)


def test_truncated_stable_jump_bounds(ts_model):
    j = ts_model.jumps
    g = np.random.default_rng(0)
    s = j.sample_jumps(g, 10_000, 1e-3)
    assert s.min() >= 1e-3 and s.max() <= 1.0


def test_truncated_stable_tail_mass_matches_quad(ts_model):
    j = ts_model.jumps
    for eps in (1e-4, 1e-2, 0.5):
        assert j.tail_mass(eps) == pytest.approx(oracles.ts_levy_tail(eps), rel=1e-8)
