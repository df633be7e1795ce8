"""Integral criteria deciding finiteness of perpetual integrals.

All tests reduce to partial integrals over a nested ladder of windows and a
shared extrapolation rule (:func:`classify_ladder`): sustained geometric
decay of window increments means the full integral converges, sustained
linear growth of the partial sums means it diverges, anything else is
reported as inconclusive rather than guessed.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .functions import TestFunction
from .models import PathBlock, PathSample, _as_block
from .potential import PotentialMeasure

__all__ = [
    "RegionSpec",
    "RegionCoverageError",
    "CriterionReport",
    "classify_ladder",
    "potential_integral",
    "dk_test",
    "erickson_maller_test",
    "blackwell_equivalence_check",
    "khasminskii_J",
]

FINITE, INFINITE, INCONCLUSIVE = "finite", "infinite", "inconclusive"

# Ladder classifier thresholds.  The geometric-decay gate accepts sustained
# increment ratios up to RATIO_CAP (doubling windows turn an integrable
# power tail y^{-p} into ratios 2^{1-p}, which approach 1/2 from above for
# p -> 2, so a cap at exactly 1/2 would misread them); the extrapolated
# geometric tail must stay below TAIL_FRACTION of the running value.  Growth
# is declared when the fitted per-rung slope of the partial sums is at least
# GROWTH_FRACTION of the mean rung value.
RATIO_CAP = 0.75
TAIL_FRACTION = 0.05
GROWTH_FRACTION = 0.2
_ATOL = 1e-12
# Rungs of a doubling window ladder (fewer when the grid top closes it).
LADDER_RUNGS = 10


class RegionCoverageError(ValueError):
    """A region or function support extends past what the grid can resolve."""


@dataclass
class RegionSpec:
    """Union of disjoint open intervals, kept sorted as an (n, 2) array.

    ``describes_complement=True`` tags the region as listing the complement of
    the region of interest, which is how sparse trap-style sets are written
    down.  Both kinds are searched as sorted spans (``_spans``).
    """

    intervals: Sequence[tuple[float, float]]
    describes_complement: bool = False
    name: str = "region"

    def __post_init__(self):
        ivals = sorted((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivals:
            if not a < b:
                raise ValueError(f"degenerate interval ({a}, {b})")
        for (_, b0), (a1, _) in zip(ivals[:-1], ivals[1:]):
            if a1 < b0:
                raise ValueError("intervals must be disjoint")
        self.intervals = np.array(ivals, float).reshape(-1, 2)

    def _spans(self, atol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (lo, hi) ends of the spans the region is made of, widened
        by ``atol``: the intervals, or for a complement the gaps between them
        (where two intervals touch, a one-point gap)."""
        lo, hi = self.intervals[:, 0], self.intervals[:, 1]
        if not self.describes_complement:
            return lo - atol, hi + atol
        return np.append(-math.inf, hi - atol), np.append(lo + atol, math.inf)

    def clip(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Connected components of (region intersect (lo[w], hi[w])) for every
        window w, as arrays (w, a, b) in window-then-span order; a span
        clipped to nothing (a one-point gap among them) is dropped."""
        a, b = self._spans()
        first = np.searchsorted(b, lo, side="right")
        count = np.maximum(np.searchsorted(a, hi, side="left") - first, 0)
        w = np.repeat(np.arange(len(lo)), count)
        span = np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)
        a, b = np.maximum(a[span], lo[w]), np.minimum(b[span], hi[w])
        keep = b > a
        return w[keep], a[keep], b[keep]

    def last_visit(self, path: PathSample | PathBlock, x: float = 0.0) -> float | np.ndarray:
        """Last time ``x + path`` meets the closure of the intervals, -inf if
        never: one value per piece of a path block (a float for a
        :class:`PathSample`).

        The package's one visit rule, built on the segment index that
        ``integral_at_times`` also uses (``PathBlock._sweep_index``): segment
        s sweeps the closed range between v_s and v_s + r * dt_s (r =
        ``linear_rate``), so jump landings count as the start of the next
        sweep.  A grid cell (r = 0) holds v_s over the whole cell, the
        cadlag convention of ``occupation_histogram``, so of the cells the
        index finds (it spans v_s to v1_s) only those whose held value meets
        an interval count (:meth:`contains` with ``atol=0``).
        """
        if self.describes_complement:
            raise ValueError(f"{self.name}: last_visit needs the intervals themselves, "
                             "not a complement description")
        block = _as_block(path)
        lo, hi = self.intervals[:, 0], self.intervals[:, 1]
        met = block._sweep_index(x, self.intervals)
        if not block.exact:
            met = met[self.contains(x + block.v0[met], atol=0.0)]
        # the last segment met in each piece, if the piece meets any
        j = np.searchsorted(met, block.starts[1:]) - 1
        has = j >= 0
        has[has] = met[j[has]] >= block.starts[:-1][has]
        out = np.full(len(block), -math.inf)
        s = met[j[has]]
        t0 = block.t0[s]
        dt = block.t1[s] - t0
        r = block.linear_rate
        if r == 0.0:
            out[has] = t0 + dt
        else:
            v = x + block.v0[s]
            end = v + r * dt
            # leave the highest interval met going up, the lowest going down
            if r > 0:
                leave = np.minimum(hi[np.searchsorted(lo, end, side="right") - 1], end)
            else:
                leave = np.maximum(lo[np.searchsorted(hi, end, side="left")], end)
            out[has] = t0 + np.clip((leave - v) / (r * dt), 0.0, 1.0) * dt
        return float(out[0]) if block is not path else out

    def contains(self, y, atol: float = 1e-12):
        """Closure membership, vectorised over y (a scalar gives a numpy bool):
        within ``atol`` of a span, so an interval end is inside a region and
        its complement alike, and so is the point where two intervals touch."""
        lo, hi = self._spans(atol)
        return np.searchsorted(lo, y, side="right") > np.searchsorted(hi, y, side="left")


def half_line(lo: float) -> RegionSpec:
    return RegionSpec(intervals=[(lo, math.inf)], name=f"({lo:g},inf)")


def full_line() -> RegionSpec:
    return RegionSpec(intervals=[(-math.inf, math.inf)], name="R")


@dataclass
class CriterionReport:
    """Outcome of one finiteness test.

    ``value`` is the +inf sentinel when the verdict is infinite; the computed
    partial value is kept under ``details['partial_value']`` so the report
    stays self-consistent.
    """

    test: str
    value: float
    verdict: str
    inputs: dict
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in (FINITE, INFINITE, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == INFINITE and not math.isinf(self.value):
            raise ValueError("infinite verdict must carry the +inf sentinel value")

    def to_dict(self) -> dict:
        return asdict(self)


def _digest(*parts) -> str:
    h = hashlib.sha256("|".join(str(p) for p in parts).encode())
    return h.hexdigest()[:12]


def classify_ladder(values: Sequence[float]) -> tuple[str, dict]:
    """Extrapolate a nondecreasing sequence of partial integrals.

    Returns (verdict, diagnostics).  Finite: the value is already zero, or
    the last three window increments decay with ratio < RATIO_CAP and the
    extrapolated geometric tail is below TAIL_FRACTION of the running value.
    Infinite: the fitted per-rung slope over the trailing half of the ladder
    is at least GROWTH_FRACTION of the mean rung value.  Otherwise
    inconclusive.
    """
    v = np.asarray(values, float)
    if v.ndim != 1 or len(v) < 4:
        raise ValueError("ladder needs at least 4 rungs")
    if np.any(np.diff(v) < -1e-9 * max(1.0, abs(v[-1]))):
        raise ValueError("partial integrals must be nondecreasing")
    d = np.diff(v, prepend=0.0)
    diag: dict = {"rungs": len(v), "value_last": float(v[-1])}
    if v[-1] <= _ATOL:
        return FINITE, {**diag, "reason": "value_zero"}

    tail_d = d[-3:]
    ratios = tail_d[1:] / np.where(tail_d[:-1] > _ATOL, tail_d[:-1], np.inf)
    diag["increment_ratios"] = [float(r) for r in ratios]
    if np.all(ratios < RATIO_CAP):
        r = float(max(ratios.max(), 0.0))
        tail_est = d[-1] * r / (1.0 - r) if r < 1.0 else math.inf
        diag["tail_estimate"] = float(tail_est)
        if tail_est <= TAIL_FRACTION * v[-1]:
            return FINITE, {**diag, "reason": "geometric_decay"}

    k = np.arange(len(v), dtype=float)
    half = len(v) // 2
    kk, vv = k[half:], v[half:]
    slope = float(np.polyfit(kk, vv, 1)[0])
    norm = slope / (v[-1] / len(v))
    diag["normalized_slope"] = float(norm)
    if norm >= GROWTH_FRACTION and slope > 0:
        return INFINITE, {**diag, "reason": "sustained_growth"}
    return INCONCLUSIVE, diag


def _window_edges(base: float, top: float, rungs: int) -> np.ndarray:
    """Doubling ladder base, 2*base, ... clipped and closed at ``top``."""
    edges = [base * 2.0 ** k for k in range(rungs) if base * 2.0 ** k < top * (1.0 - 1e-12)]
    edges.append(top)
    return np.asarray(edges)


def _ladder_report(test: str, ladder, tops, total: float, inputs: dict) -> CriterionReport:
    """Classify a finished ladder of partial integrals and wrap it as a report."""
    verdict, diag = classify_ladder(ladder)
    return CriterionReport(
        test=test, value=math.inf if verdict == INFINITE else total, verdict=verdict,
        inputs=inputs, details={"partial_value": total, "window_tops": [float(t) for t in tops],
                                "ladder": [float(u) for u in ladder], **diag})


def potential_integral(
    f: TestFunction,
    pm: PotentialMeasure,
    region: RegionSpec,
    x: float = 0.0,
) -> CriterionReport:
    """Integral of f(x + y) against the potential measure, restricted to a region.

    Every bin is clipped against the region at once (:meth:`RegionSpec.clip`);
    each connected piece contributes f at its midpoint weighted by the
    proportional bin mass, and a bin sums its pieces in order.  Lattice point
    masses are handled exactly: a site contributes its full mass iff it lies
    in the closure of the region (:meth:`RegionSpec.contains`).  Divergence
    is decided by :func:`classify_ladder` on partial sums over windows
    doubling from 1 to the top of the grid.  A start point x that is not
    finite is refused.
    """
    if not math.isfinite(x):
        raise ValueError(f"start point x must be finite, got {x!r}")
    edges = pm.edges
    sup_lo, sup_hi = f.support
    if math.isfinite(sup_hi) and sup_hi + x > edges[-1] + 1e-9:
        raise RegionCoverageError(
            f"support of {f.name} (shifted by x={x:g}) extends past the grid top {edges[-1]:g}")

    if pm.lattice_span is not None:
        positions = pm.sites
        contrib = np.where(region.contains(positions), f(x + positions) * pm.masses, 0.0)
    else:
        positions = pm.centers
        w, a, b = region.clip(edges[:-1], edges[1:])
        terms = f(x + 0.5 * (a + b)) * pm.masses[w] * (b - a) / (edges[w + 1] - edges[w])
        # a bin's terms summed in piece order from 0.0
        contrib = np.bincount(w, weights=terms, minlength=len(pm.masses))

    tops = _window_edges(1.0, edges[-1], LADDER_RUNGS)
    ladder = [float(contrib[positions <= top].sum()) for top in tops]
    return _ladder_report(
        "potential_integral", ladder, tops, float(contrib.sum()),
        {"f": f.name, "region": region.name, "x": x, "pm": pm.meta.get("model", "?"),
         "digest": _digest("potential_integral", f.name, region.name, x, pm.meta)})


def dk_test(f: TestFunction, lower_cutoff: float = 0.0) -> CriterionReport:
    """Tail-integral test: does the Lebesgue integral of f over (lower, inf) converge?

    Partial integrals are taken over a doubling ladder (or over the
    function's own declared windows, e.g. bump right-edges for needle
    trains, which blind window placement would miss) and extrapolated by
    :func:`classify_ladder`.
    """
    l = float(lower_cutoff)
    if f.ladder_windows is not None:
        tops = np.asarray([t for t in f.ladder_windows if t > l], float)
        if len(tops) < 4:
            raise ValueError("declared ladder has fewer than 4 usable windows")
    else:
        base = max(l, 1.0) * 2.0
        tops = np.array([base * 2.0 ** k for k in range(LADDER_RUNGS)])
    starts = np.concatenate([[l], tops[:-1]])
    increments = np.array([float(f.integral_on(a, b)) for a, b in zip(starts, tops)])
    ladder = np.cumsum(increments)
    return _ladder_report("dk_test", ladder, tops, float(ladder[-1]),
                          {"f": f.name, "lower": l, "digest": _digest("dk", f.name, l, LADDER_RUNGS)})


def erickson_maller_test(
    f: TestFunction,
    pm: PotentialMeasure,
    lower_cutoff: float = 1.0,
) -> CriterionReport:
    """Stieltjes test integrating the renewal function U([0, y]) against -df.

    Requires f nonincreasing and vanishing at infinity on [lower, grid top];
    both are checked on the evaluation grid.  Partial sums over a doubling
    ladder feed the shared extrapolation rule.
    """
    l = float(lower_cutoff)
    top = float(pm.edges[-1])
    if top <= l:
        raise RegionCoverageError("grid top must exceed the lower cutoff")
    ys = np.unique(np.concatenate([
        pm.edges[(pm.edges >= l) & (pm.edges <= top)],
        f.breakpoints[(f.breakpoints >= l) & (f.breakpoints <= top)] if len(f.breakpoints) else np.empty(0),
        [l, top],
    ]))
    fy = f(ys)
    if np.any(np.diff(fy) > 1e-9 * max(1.0, fy.max())):
        raise ValueError(f"{f.name} is not nonincreasing on [{l:g}, {top:g}]")
    if fy[-1] > 0.1 * fy[0] + _ATOL:
        warnings.warn(f"{f.name} has not decayed to ~0 by the grid top; "
                      "the Stieltjes tail is under-resolved", stacklevel=2)
    increments = pm.mass_between(0.0, ys[:-1]) * (fy[:-1] - fy[1:])   # U([0,y]) * (-df), all y
    tops = _window_edges(max(l, 1.0) * 2.0, top, LADDER_RUNGS)
    cum = np.concatenate([[0.0], np.cumsum(increments)])
    ladder = [float(cum[np.searchsorted(ys, t, side="right") - 1]) for t in tops]
    return _ladder_report(
        "erickson_maller", ladder, tops, float(cum[-1]),
        {"f": f.name, "lower": l, "pm": pm.meta.get("model", "?"),
         "digest": _digest("em", f.name, l, pm.meta)})


def blackwell_equivalence_check(
    f: TestFunction,
    pm: PotentialMeasure,
    lower_cutoff: float = 0.0,
    x: float = 0.0,
) -> dict:
    """Cross-check: tail Lebesgue test vs potential-measure test.

    For finite-mean models the renewal mass of [0, L] grows like L / mean, so
    the two tests must agree.  Disagreement is reported, not raised: it is a
    finding about resolution, and the caller decides what to do with it.
    """
    lebesgue = dk_test(f, lower_cutoff)
    potential = potential_integral(f, pm, half_line(lower_cutoff), x=x)
    agree = lebesgue.verdict == potential.verdict and INCONCLUSIVE not in (lebesgue.verdict, potential.verdict)
    return {
        "lebesgue": lebesgue,
        "potential": potential,
        "verdicts_agree": bool(agree),
        "inputs": {"f": f.name, "lower": lower_cutoff, "x": x},
    }


def khasminskii_J(
    f: TestFunction,
    pm: PotentialMeasure,
    x_grid: Sequence[float],
) -> dict:
    """Uniform potential bound J = sup_x integral of f(x + y) U(dy), on a grid.

    J < inf yields the exponential-moment threshold theta < 1/J.  Any x with
    a divergent integral is a hard error: the bound does not exist.  The
    supremum over a finite grid is a lower proxy; the caveat is recorded.
    """
    x_grid = np.asarray(x_grid, float)
    if x_grid.ndim != 1 or len(x_grid) == 0:
        raise ValueError("x_grid must be a nonempty 1-d sequence")
    values = []
    for x in x_grid:
        rep = potential_integral(f, pm, full_line(), x=float(x))
        if rep.verdict == INFINITE:
            raise ValueError(f"potential integral diverges at x={x:g}; no uniform bound exists")
        values.append(rep.details["partial_value"])
    j = float(max(values))
    return {
        "J": j,
        "theta_max": math.inf if j == 0.0 else 1.0 / j,
        "x_grid": [float(x) for x in x_grid],
        "argmax_x": float(x_grid[int(np.argmax(values))]),
        "caveat": "supremum over a finite x-grid (lower proxy)",
    }
