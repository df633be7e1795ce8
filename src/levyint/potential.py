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

from .models import (LevyModel, CompoundPoisson, PathBlock, PathSample, _as_block, describe,
                     reduce_paths)

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
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def sites(self) -> np.ndarray:
        """Lattice site of each bin (lattice measures only)."""
        if self.lattice_span is None:
            raise ValueError("not a lattice measure")
        return np.round(self.centers / self.lattice_span) * self.lattice_span

    def mass_between(self, lo: float, hi: float) -> float:
        """Mass of [lo, hi], interpolating linearly inside boundary bins
        (lattice sites count when inside within a small tolerance)."""
        if hi <= lo:
            return 0.0
        if self.lattice_span is not None:
            s = self.sites
            sel = (s >= lo - 1e-9) & (s <= hi + 1e-9)
            return float(self.masses[sel].sum())
        lo_c = np.clip(lo, self.edges[0], self.edges[-1])
        hi_c = np.clip(hi, self.edges[0], self.edges[-1])
        frac = np.clip((np.minimum(hi_c, self.edges[1:]) - np.maximum(lo_c, self.edges[:-1])) / self.widths, 0.0, 1.0)
        return float((self.masses * frac).sum())

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
    piece and takes a (bins,) ``out``.

    Exact piecewise-linear paths split linear sweeps across bin edges
    exactly; grid skeletons attribute each cell to the bin of its left
    endpoint (cadlag convention).  Time spent outside the grid is dropped.
    Each piece's row is summed from 0.0 in segment order, the sweeps that
    stay in one bin first, then the crossing sweeps, and added to ``out``.
    """
    block = _as_block(path)
    k, nbins = len(block), len(edges) - 1
    dt, v0, r = block.t1 - block.t0, block.v0, block.linear_rate
    crossing = ()
    if block.exact and r != 0.0:
        u0 = v0 if r > 0 else v0 + r * dt
        u1 = v0 + r * dt if r > 0 else v0
        i0 = np.searchsorted(edges, u0, side="right") - 1
        i1 = np.searchsorted(edges, u1, side="right") - 1
        same = i0 == i1
        ok = same & (i0 >= 0) & (i0 < nbins)
        crossing = np.nonzero(~same)[0]
    else:
        i0 = np.searchsorted(edges, v0, side="right") - 1
        ok = (i0 >= 0) & (i0 < nbins)
    bins = i0[ok] if k == 1 else block.piece[ok] * nbins + i0[ok]
    rows = np.bincount(bins, weights=dt[ok], minlength=k * nbins)
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
        heuristic, since far-field bins are then biased low.
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
    elif heuristic is not None and horizon < heuristic:
        warnings.warn(
            f"horizon {horizon:g} is below the heuristic {heuristic:g}; "
            "occupation of far bins will be truncation-biased", stacklevel=2)

    if model.lattice_span is not None:
        alpha = model.lattice_span
        sites = np.round(0.5 * (edges[:-1] + edges[1:]) / alpha)
        if len(np.unique(sites)) != len(sites) or np.any(np.diff(edges) > alpha + 1e-9):
            raise ValueError("lattice grids need exactly one site per bin (width <= span)")

    nbins = len(edges) - 1

    def reducer(chunk):
        rows = [np.zeros((1, nbins))]
        for block in chunk:
            rows.append(np.zeros((len(block), nbins)))
            occupation_histogram(block, edges, rows[-1])
        # 0.0 plus each path's row in index order: an axis-0 cumsum is
        # sequential (an axis-0 add.reduce sums a one-bin grid pairwise)
        rows = np.concatenate(rows)
        return np.cumsum(rows, axis=0)[-1], np.cumsum(rows * rows, axis=0)[-1]

    # time above the top edge is dropped, so paths may stop once past it
    parts = reduce_paths(model, horizon, paths, seed, reducer, threads=threads, step=step,
                         ceiling=float(edges[-1]))
    total = sum(acc for acc, _ in parts)        # chunk order: fixed reduction order
    total2 = sum(acc2 for _, acc2 in parts)
    masses = total / paths
    var = np.maximum(total2 / paths - masses * masses, 0.0)
    stderr = np.sqrt(var / paths)
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
