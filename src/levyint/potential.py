"""Expected occupation (potential) measure estimation and closed forms.

The potential measure U assigns to a set the expected total time the process
spends there.  It is estimated by averaging per-path occupation times over a
spatial grid; closed forms exist for pure drift, lattice compound Poisson
and drifted Brownian motion and are used to cross-validate the estimator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .models import (LevyModel, CompoundPoisson, PathBlock, PathSample, _as_block, _path_plan,
                     describe, reduce_paths)

__all__ = [
    "PotentialMeasure",
    "estimate_potential",
    "analytic_potential",
    "horizon_heuristic",
    "occupation_histogram",
]

# Horizon heuristic: T = safety * grid_range / mean speed.  Chosen so the
# process has comfortably crossed the grid by the horizon.
DEFAULT_HORIZON_SAFETY = 8.0


@dataclass
class PotentialMeasure:
    """Binned expected occupation times with Monte Carlo standard errors.

    For lattice models every bin is centred on one lattice site and the mass
    is a point mass at that site; otherwise ``masses[i] / width`` is a proxy
    for the potential density on bin i.
    """

    edges: np.ndarray
    masses: np.ndarray
    stderr: np.ndarray
    lattice_span: Optional[float] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        e = _checked_edges(self.edges)
        m = np.asarray(self.masses, float)
        s = np.asarray(self.stderr, float)
        if m.shape != (len(e) - 1,) or s.shape != m.shape:
            raise ValueError("masses/stderr must have one entry per bin")
        if m.min() < 0 or s.min() < 0:
            raise ValueError("masses and standard errors must be nonnegative")
        self.edges, self.masses, self.stderr = e, m, s

    # -- geometry ----------------------------------------------------------
    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def sites(self) -> np.ndarray:
        """Lattice site of each bin (lattice measures only)."""
        if self.lattice_span is None:
            raise ValueError("not a lattice measure")
        return np.round(self.centers / self.lattice_span) * self.lattice_span

    def mass_between(self, lo, hi) -> float | np.ndarray:
        """Mass of [lo, hi] (0 if hi <= lo), vectorised, from one cumulative mass:
        linear inside a bin; a lattice site counts when inside within 1e-9."""
        cum = np.append(0.0, np.cumsum(self.masses))
        if self.lattice_span is not None:
            m = (cum[np.searchsorted(self.sites, np.add(hi, 1e-9), side="right")]
                 - cum[np.searchsorted(self.sites, np.subtract(lo, 1e-9))])
        else:
            m = np.interp(hi, self.edges, cum) - np.interp(lo, self.edges, cum)
        return np.where(np.less(lo, hi), np.maximum(m, 0.0), 0.0)[()]

    # -- serialization -----------------------------------------------------
    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            for k in sorted(self.meta):
                fh.write(f"# {k}: {self.meta[k]}\n")
            if self.lattice_span is not None:
                fh.write(f"# lattice_span: {float(self.lattice_span)!r}\n")
            fh.write("bin_lo,bin_hi,mass,stderr\n")
            for lo, hi, m, s in zip(self.edges[:-1], self.edges[1:], self.masses, self.stderr):
                fh.write(f"{float(lo)!r},{float(hi)!r},{float(m)!r},{float(s)!r}\n")


def _checked_edges(edges) -> np.ndarray:
    """``edges`` as a float array, refused unless 1-d, finite and strictly
    increasing with at least 2 entries (a NaN passes a ``diff <= 0`` test)."""
    e = np.asarray(edges, float)
    if e.ndim != 1 or len(e) < 2 or not np.all(np.isfinite(e)) or not np.all(np.diff(e) > 0):
        raise ValueError("edges must be finite and strictly increasing with >= 2 entries")
    return e


def horizon_heuristic(model: LevyModel, grid_lo: float, grid_hi: float) -> float:
    if not math.isfinite(model.mean) or model.mean <= 0:
        raise ValueError("horizon heuristic needs a finite positive mean; pass a horizon explicitly")
    return DEFAULT_HORIZON_SAFETY * (grid_hi - grid_lo) / model.mean


def occupation_histogram(path: PathSample | PathBlock, edges: np.ndarray,
                         out: np.ndarray) -> None:
    """Add the occupation time (per bin) of each piece of a path block into
    its row of ``out``, a (k, bins) array; a :class:`PathSample` is one
    piece and takes a (bins,) ``out``.  Time spent outside the grid is
    dropped, and a value on an edge counts in the bin above it (cadlag
    convention).

    Exact paths with r = 0 (every lattice path) and grid skeletons attribute
    each segment to the bin of its left endpoint, in segment order, in one
    ``bincount``; segments outside the grid are dropped before the bin
    search.  A nondecreasing path with r > 0 (a truncated stable
    subordinator's) spends min(tau_b, H) - min(tau_a, H) in [a, b), with
    tau_y its first time at or above y: its row is the difference of its
    passage times over the edges (``PathBlock._passage_times``), one search
    per edge.  A bin one lattice site wide holds at most one segment of a
    nondecreasing lattice piece, so its ``bincount`` weight 0.0 + (t1 - t0)
    is the passage-time difference, the same float.  Other exact
    piecewise-linear paths split linear sweeps across bin edges exactly,
    summed from 0.0 in segment order, the sweeps that stay in one bin first,
    then the crossing sweeps.
    """
    block = _as_block(path)
    k, nbins = len(block), len(edges) - 1
    r = block.linear_rate
    if block.nondecreasing and r != 0.0:
        out += np.diff(block._passage_times(edges), axis=1).reshape(out.shape)
        return
    v0, crossing = block.v0, ()
    if block.exact and r != 0.0:
        dt = block.t1 - block.t0
        u0 = v0 if r > 0 else v0 + r * dt
        u1 = v0 + r * dt if r > 0 else v0
        i0 = np.searchsorted(edges, u0, side="right") - 1
        i1 = np.searchsorted(edges, u1, side="right") - 1
        same = i0 == i1
        ok = same & (i0 >= 0) & (i0 < nbins)
        crossing = np.nonzero(~same)[0]
        held, weights = i0[ok], dt[ok]
    else:
        ok = np.nonzero((v0 >= edges[0]) & (v0 < edges[-1]))[0]
        held = np.searchsorted(edges, v0[ok], side="right") - 1
        weights = block.t1[ok] - block.t0[ok]
    bins = held if k == 1 else block.piece[ok] * nbins + held
    rows = np.bincount(bins, weights=weights, minlength=k * nbins)
    rows = rows.astype(float, copy=False).reshape(k, nbins)   # int when nothing is binned
    if len(crossing):
        piece = np.searchsorted(block.starts, crossing, side="right") - 1
        for s, c in zip(crossing, piece):    # sweeps crossing bin edges: exact split
            a, b, row = u0[s], u1[s], rows[c]
            for i in range(max(i0[s], 0), min(i1[s], nbins - 1) + 1):
                overlap = min(b, edges[i + 1]) - max(a, edges[i])
                if overlap > 0:
                    row[i] += overlap / abs(r)
    out += rows.reshape(out.shape)


def estimate_potential(
    model: LevyModel,
    edges: np.ndarray,
    paths: int,
    seed: int,
    horizon: Optional[float] = None,
    step: Optional[float] = None,
    threads: int = 1,
) -> PotentialMeasure:
    """Monte Carlo estimate of the potential measure on a spatial grid.

    Parameters
    ----------
    edges : array
        Bin edges, finite and strictly increasing; others are refused
        before any path is drawn.  For lattice models they must align so
        that each bin contains exactly one lattice site.
    horizon : float, optional
        Truncation horizon; defaults to :func:`horizon_heuristic`.  A warning
        (not a failure) is issued when an explicit horizon undercuts the
        heuristic, since far-field bins are then biased low; it comes after
        every input is checked, so a refused call does not warn.
    """
    edges = _checked_edges(edges)
    heuristic = None
    try:
        heuristic = horizon_heuristic(model, edges[0], edges[-1])
    except ValueError:
        pass
    if horizon is None:
        if heuristic is None:
            raise ValueError("model mean is not finite/positive; pass horizon explicitly")
        horizon = heuristic
    if model.lattice_span is not None:
        alpha = model.lattice_span
        sites = np.round(0.5 * (edges[:-1] + edges[1:]) / alpha)
        if len(np.unique(sites)) != len(sites) or np.any(np.diff(edges) > alpha + 1e-9):
            raise ValueError("lattice grids need exactly one site per bin (width <= span)")
    _path_plan(model, horizon, paths, seed, threads, step)     # a refused call warns of nothing
    if heuristic is not None and horizon < heuristic:
        warnings.warn(
            f"horizon {horizon:g} is below the heuristic {heuristic:g}; "
            "occupation of far bins will be truncation-biased", stacklevel=2)

    nbins = len(edges) - 1

    def reducer(chunk):
        rows = [np.zeros((1, nbins))]
        for block in chunk:
            rows.append(np.zeros((len(block), nbins)))
            occupation_histogram(block, edges, rows[-1])
        # 0.0 plus each path's row in index order: an axis-0 cumsum is
        # sequential (an axis-0 add.reduce sums a one-bin grid pairwise)
        rows = np.concatenate(rows)
        total = np.cumsum(rows, axis=0)[-1]
        rows = rows[1:] - total / (len(rows) - 1)     # deviations from the chunk mean
        return total, np.cumsum(rows * rows, axis=0)[-1], len(rows)

    # time above the top edge is dropped, so paths may stop once past it
    parts = reduce_paths(model, horizon, paths, seed, reducer, threads=threads, step=step,
                         ceiling=float(edges[-1]))
    total, m2, n = parts[0]
    for total_b, m2_b, n_b in parts[1:]:     # chunk order (Chan et al.'s pairwise update)
        delta = total_b / n_b - total / n
        m2 = m2 + m2_b + delta * delta * (n * n_b / (n + n_b))
        total, n = total + total_b, n + n_b
    masses = total / paths
    stderr = np.sqrt(m2 / paths / paths)
    meta = {
        "model": describe(model),
        "paths": paths,
        "horizon": repr(float(horizon)),
        "master_seed": seed,
        "estimator": "mc_occupation",
    }
    return PotentialMeasure(edges=edges, masses=masses, stderr=stderr,
                            lattice_span=model.lattice_span, meta=meta)


def analytic_potential(model: LevyModel, edges: np.ndarray) -> Optional[PotentialMeasure]:
    """Closed-form potential measure on a grid, or None when unavailable.

    Implemented cases: pure drift (density 1/b on [0, inf)), lattice compound
    Poisson with a single positive atom (point mass 1/rate per site), drifted
    Brownian motion (density (1/mu) e^{2 mu y / sigma^2} for y < 0, 1/mu for
    y >= 0).
    """
    edges = np.asarray(edges, float)
    lo, hi = edges[:-1], edges[1:]

    if model.jumps is None and model.gaussian_var == 0.0 and model.drift > 0:
        b = model.drift
        masses = np.clip(hi, 0.0, None) / b - np.clip(lo, 0.0, None) / b
        return PotentialMeasure(edges, masses, np.zeros_like(masses),
                                meta={"model": describe(model), "estimator": "analytic_pure_drift"})

    if model.lattice_span is not None and isinstance(model.jumps, CompoundPoisson):
        atoms = model.jumps.atoms
        if len(atoms) == 1 and atoms[0][0] > 0:
            alpha = model.lattice_span
            centers = 0.5 * (lo + hi)
            sites = np.round(centers / alpha) * alpha
            span_atom = atoms[0][0]
            on_chain = np.isclose(np.mod(sites / span_atom, 1.0), 0.0) | np.isclose(np.mod(sites / span_atom, 1.0), 1.0)
            masses = np.where((sites >= -1e-9) & on_chain, 1.0 / model.jumps.rate, 0.0)
            return PotentialMeasure(edges, masses, np.zeros_like(masses), lattice_span=alpha,
                                    meta={"model": describe(model), "estimator": "analytic_lattice_cpp"})
        return None

    if model.gaussian_var > 0 and model.jumps is None and model.drift > 0:
        mu, s2 = model.drift, model.gaussian_var
        k = 2.0 * mu / s2

        def cum(y):  # integral of the density from -inf to y
            y = np.asarray(y, float)
            neg = np.exp(k * np.minimum(y, 0.0)) / (mu * k)
            return neg + np.clip(y, 0.0, None) / mu

        masses = cum(hi) - cum(lo)
        return PotentialMeasure(edges, masses, np.zeros_like(masses),
                                meta={"model": describe(model), "estimator": "analytic_drifted_bm"})

    return None
