"""Block rows equal the per-path answers, bit for bit.

``reduce_paths`` hands reducers blocks of k pieces, cut from one long path
or (grid skeletons) drawn side by side, and each layer function answers for
every piece in one pass.  Here every layer's block rows are checked against
the same function on each piece's ``PathSample`` view
(``PathBlock.pieces()``), with equal bytes, on paths with r = 0, r > 0
(crossing sweeps), r < 0, truncated-stable pieces and Brownian grid
skeletons with and without jumps.  The views' totals are also checked
against a pairwise ``.sum()`` written here, so a total that adds a piece up
in another order fails too.
"""

import numpy as np
import pytest

import levyint as L
from levyint import models
from levyint.criteria import RegionSpec, half_line
from levyint.potential import occupation_histogram

import oracles

_MODELS = {
    "lattice": (lambda: L.build_model(jumps=L.CompoundPoisson(rate=2.0, atoms=((1.0, 1.0),)),
                                      lattice_span=1.0), 3.0),
    "drifted_cpp": (lambda: L.build_model(drift=1.0, jumps=L.CompoundPoisson(
        rate=3.0, law=("uniform", -1.0, 0.5))), 2.5),
    "cpp_down": (lambda: L.build_model(drift=-0.5, jumps=L.CompoundPoisson(
        rate=1.0, law=("uniform", 0.5, 2.5))), 12.0),
    "tstable": (lambda: L.build_model(jumps=L.TruncatedStable(activity=1.0, index=0.5,
                                                              cutoff=1.0)), 3.0),
    "bm": (lambda: L.build_model(drift=1.0, gaussian_var=1.0), 3.0),
    "bm_cpp": (lambda: L.build_model(drift=1.0, gaussian_var=1.0, jumps=L.CompoundPoisson(
        rate=2.0, law=("uniform", -1.0, 0.5))), 3.0),
}
# grid skeletons need a time step
_STEP = {"bm": 0.05, "bm_cpp": 0.05}

_FUNCTIONS = [
    L.exp_decay(),
    L.indicator(0.5, 2.5),
    L.triangle_train([0.25, 1.5, 3.0], [0.5, 0.75, 0.5]),
]


def _blocks(model, horizon, paths=300, step=None):
    return [b for part in models.reduce_paths(model, horizon, paths, 23, list, step=step)
            for b in part]


def _eval_times(block, horizon):
    """0, the horizon, a time inside segments, and the jump times of the
    first two pieces (on a jump time for those, anywhere for the rest)."""
    jumps = [block.t0[a + 1:b] for a, b in zip(block.starts[:2], block.starts[1:3])]
    return np.unique(np.concatenate([[0.0, 0.37 * horizon, horizon], *jumps]))


def _same(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("which", sorted(_MODELS))
@pytest.mark.parametrize("f", _FUNCTIONS, ids=lambda f: f.name)
@pytest.mark.parametrize("x", [0.0, -0.75])
def test_block_rows_equal_piece_views(which, f, x):
    build, horizon = _MODELS[which]
    model, step = build(), _STEP.get(which)
    if which == "tstable":
        assert models._block_paths(model, horizon, None) == 27
    if step is not None:
        assert models._block_paths(model, horizon, None, step) > 1
    live = f.live_intervals
    region = half_line(1.0) if np.isinf(live).any() else RegionSpec(intervals=live)
    edges = np.linspace(-2.0, 6.0, 33)
    blocks = _blocks(model, horizon, step=step)
    assert all(len(b) > 1 for b in blocks)
    for block in blocks:
        views = block.pieces()
        at = _eval_times(block, horizon)
        _same(L.integral_at_times(f, block, x, at),
              [L.integral_at_times(f, p, x, at) for p in views])
        totals = L.integral_along_path(f, block, x)
        _same(totals, [L.integral_along_path(f, p, x) for p in views])
        # each total is the pairwise .sum() of its piece's segment integrals
        v = x + block.v0
        r = block.linear_rate
        dt = block.t1 - block.t0
        if not block.exact and f.kind != "step":     # grid cells: trapezoid
            terms = 0.5 * (f(v) + f(x + block.v1)) * dt
        else:
            terms = f(v) * dt if r == 0.0 else f.integral_on(v, v + r * dt) / r
        _same(totals, [terms[a:b].sum() for a, b in zip(block.starts[:-1], block.starts[1:])])
        _same(region.last_visit(block, x), [region.last_visit(p, x) for p in views])
        rows = np.zeros((len(block), len(edges) - 1))
        occupation_histogram(block, edges, rows)
        want = np.zeros_like(rows)
        for p, row in zip(views, want):
            occupation_histogram(p, edges, row)
        _same(rows, want)


@pytest.mark.parametrize("which", sorted(_MODELS))
@pytest.mark.parametrize("f", _FUNCTIONS, ids=lambda f: f.name)
def test_running_integral_reads_times_in_any_order(which, f):
    """Times are searched one by one: shuffled times, repeats among them,
    give the sorted call's columns in the same shuffle, bit for bit."""
    build, horizon = _MODELS[which]
    rng = np.random.default_rng(3)
    for block in _blocks(build(), horizon, step=_STEP.get(which)):
        at = _eval_times(block, horizon)
        at = np.sort(np.concatenate([at, at[:2], rng.uniform(0.0, horizon, 5)]))
        shuffle = rng.permutation(len(at))
        _same(L.integral_at_times(f, block, -0.75, at[shuffle]),
              L.integral_at_times(f, block, -0.75, at)[:, shuffle])


_LATTICE_ATOMS = {"unit": ((1.0, 1.0),), "atoms_1_2": ((1.0, 0.5), (2.0, 0.5)),
                  "pm1": ((1.0, 0.7), (-1.0, 0.3))}


def _binned_by_hand(block, edges):
    """Each piece's row: 0.0, plus the duration of each of its segments in
    the bin of its start value, in segment order (values outside dropped)."""
    rows = np.zeros((len(block), len(edges) - 1))
    for c, (a, b) in enumerate(zip(block.starts[:-1], block.starts[1:])):
        for s in range(a, b):
            i = np.searchsorted(edges, block.v0[s], side="right") - 1
            if 0 <= i < len(edges) - 1:
                rows[c, i] += block.t1[s] - block.t0[s]
    return rows


@pytest.mark.parametrize("atoms, ceiling", [("unit", None), ("unit", 4.0), ("atoms_1_2", None),
                                            ("atoms_1_2", 4.0), ("pm1", None)])
def test_lattice_rows_are_binned_by_left_endpoints(atoms, ceiling):
    """Every r = 0 block, lattice paths included, is binned by its segments'
    start values in one ``bincount``.  On a nondecreasing lattice block each
    site holds at most one segment of a piece, so its rows are bit for bit
    the passage-time differences they were once computed as; a ±1 walk keeps
    its rows.  Grids reach below 0 and past the top of every path."""
    model = L.build_model(jumps=L.CompoundPoisson(rate=2.0, atoms=_LATTICE_ATOMS[atoms]),
                          lattice_span=1.0)
    assert model.is_subordinator == (atoms != "pm1")
    blocks = [models._jump_paths(model, 6.0, L.derive_rng(17, i), 40, None, ceiling)
              for i in range(3)]
    blocks.append(L.simulate_path(model, 6.0, seed=17, ceiling=ceiling)._block)
    for block in blocks:
        top = np.abs(block.v0).max()
        for edges in (np.arange(-3.0, top + 3.0) - 0.5, np.arange(-1.0, 3.0) - 0.5):
            rows = np.zeros((len(block), len(edges) - 1))
            occupation_histogram(block, edges, rows)
            _same(rows, _binned_by_hand(block, edges))
            if block.nondecreasing:
                _same(rows, np.diff(block._passage_times(edges), axis=1))


def test_segment_search_survives_rounding_ties():
    """Piece 199's keys sit near 199 * 8 = 1592, where adding t0 rounds to
    2.3e-13: a segment starting 1e-13 after the query time ties with it and
    must not be taken as the segment the time falls in."""
    k, horizon = 200, 3.0
    starts = np.concatenate([np.arange(k), [k + 2]])
    t0 = np.concatenate([np.zeros(k), [1.0, 1.0 + 1e-13]])
    t1 = np.concatenate([np.full(k - 1, horizon), [1.0, 1.0 + 1e-13, horizon]])
    block = models.PathBlock(starts, t0, t1, np.zeros(k + 2), np.zeros(k), exact=True,
                             horizon=horizon)
    assert 1592.0 + t0[-1] == 1592.0 + 1.0          # the tie
    idx = block._segments_at(np.array([0.5, 1.0 + 5e-14, horizon]))
    assert idx[-1].tolist() == [k - 1, k, k + 1]
    assert idx[:-1].tolist() == [[c] * 3 for c in range(k - 1)]


def _search_block(times, values, horizon, rate=0.0):
    """A nondecreasing block from each piece's segment start times and values."""
    starts = np.cumsum([0] + [len(t) for t in times])
    t0, v0 = np.concatenate(times), np.concatenate(values)
    t1 = np.append(t0[1:], horizon)
    t1[starts[1:] - 1] = horizon
    end = v0[starts[1:] - 1] + rate * (horizon - t0[starts[1:] - 1])
    return models.PathBlock(starts, t0, t1, v0, end, exact=True, horizon=horizon,
                            linear_rate=rate, nondecreasing=True)


def _random_search_block(seed, rate):
    """Up to 40 pieces of 1-30 segments; jumps of 0 repeat values."""
    rng, horizon = np.random.default_rng(seed), 5.0
    times, values = [], []
    for n in rng.integers(1, 31, rng.integers(2, 41)):
        gaps = rng.exponential(size=n)
        t = np.concatenate([[0.0], np.cumsum(gaps)[:-1]]) * (horizon / gaps.sum())
        jumps = rng.choice([0.0, 0.5, 1.0, 1.5], n - 1) + rate * np.diff(t)
        times.append(t)
        values.append(np.concatenate([[0.0], np.cumsum(jumps)]))
    block = _search_block(times, values, horizon, rate)
    at = np.sort(np.concatenate([rng.uniform(0.0, horizon, 20), block.t0[::3], [horizon]]))
    levels = np.sort(np.concatenate([rng.uniform(-1.0, 25.0, 20), block.v0[::3]]))
    return block, at, levels


def _tied_search_block():
    """256 pieces whose keys, near 1e6, equal their queries, repeat, or lie an
    ulp from them, with 0.5 among the queries.  Shifted by c * W for piece c,
    with W a power of two above the spread (2^22 for times up to 2e6, 2^23
    for levels from 0.5), keys an ulp apart round onto one float."""
    b, k, horizon = 1e6, 256, 2e6
    near = [np.nextafter(b, 0.0), b, np.nextafter(b, np.inf), b + 1e-7]
    times = [np.array([0.0, near[0], b, near[2], b + 1e-7, 1.5e6])] * k
    values = [np.array([0.0, near[0], b, b, near[2], b + 1e-7])] * k
    block = _search_block(times, values, horizon)
    assert len(np.unique(np.array(near) + (k - 1) * 2.0 ** 22)) < len(near)   # the ties
    return block, np.array([0.5, *near, 1.5e6, horizon]), np.array([0.5, *near])


_SEARCH_BLOCKS = {f"random{seed}_r{rate}": (lambda s=seed, r=rate: _random_search_block(s, r))
                  for seed in (1, 2, 3) for rate in (0.0, 0.25)}
_SEARCH_BLOCKS["tied"] = _tied_search_block


@pytest.mark.parametrize("which", sorted(_SEARCH_BLOCKS))
def test_piece_search_matches_per_piece_oracle(which):
    """``_search_pieces`` is each piece's own ``searchsorted``, for both
    sides; ``_segments_at`` and ``_passage_times`` read it exactly."""
    block, at, levels = _SEARCH_BLOCKS[which]()
    for keys, queries in ((block.t0, at), (block.v0, levels)):
        for side in ("left", "right"):
            want = oracles.search_each_piece(block.starts, keys, queries, side)
            _same(block._search_pieces(keys, queries, side), want)
    idx = oracles.search_each_piece(block.starts, block.t0, at, "right") - 1
    _same(block._segments_at(at), idx)
    j = oracles.search_each_piece(block.starts, block.v0, levels, "left")
    first, r = block.starts[:-1, None], block.linear_rate
    if r == 0.0:
        want = np.where(j > first, block.t1[j - 1], 0.0)
    else:
        p = np.maximum(j - 1, first)
        want = np.minimum(np.maximum(levels - block.v0[p], 0.0) / r + block.t0[p], block.t1[p])
    _same(block._passage_times(levels), want)


def test_block_checks_every_piece():
    """A block runs the path checks, vectorised: a piece that starts off
    (0, 0), times that do not increase, or an end off the horizon are refused."""
    block = _blocks(_MODELS["lattice"][0](), 3.0, paths=8)[0]
    args = dict(exact=True, horizon=3.0, linear_rate=0.0)
    parts = (block.starts, block.t0, block.t1, block.v0, block.end)
    models.PathBlock(*parts, **args)
    for i, what in ((3, "start at"), (2, "strictly increasing")):
        bad = [a.copy() for a in parts]
        bad[i][block.starts[2] + (i == 2)] = 0.5 if i == 3 else -1.0
        with pytest.raises(ValueError, match=what):
            models.PathBlock(*bad, **args)
    bad = [a.copy() for a in parts]
    bad[2][block.starts[5] - 1] += 0.5
    with pytest.raises(ValueError, match="horizon"):
        models.PathBlock(*bad, **args)
