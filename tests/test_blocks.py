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
