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
    if not np.all(np.isfinite(v)):
        raise ValueError("partial integrals must be finite")
    if np.any(np.diff(v) < -1e-9 * max(1.0, abs(v[-1]))):
        raise ValueError("partial integrals must be nondecreasing")
    d = np.diff(v, prepend=0.0)
    diag: dict = {"rungs": len(v), "value_last": float(v[-1])}
    if v[-1] <= _ATOL:
        return FINITE, {**diag, "reason": "value_zero"}

    tail_d = d[-3:]
    ratios = tail_d[1:] / np.where(tail_d[:-1] > _ATOL, tail_d[:-1], np.inf)
    diag["increment_ratios"] = ratios.tolist()
    if np.all(ratios < RATIO_CAP):
        r = float(max(ratios.max(), 0.0))
        tail_est = d[-1] * r / (1.0 - r) if r < 1.0 else math.inf
        diag["tail_estimate"] = float(tail_est)
        if tail_est <= TAIL_FRACTION * v[-1]:
            return FINITE, {**diag, "reason": "geometric_decay"}

    half = len(v) // 2
    slope = float(np.polyfit(np.arange(half, len(v), dtype=float), v[half:], 1)[0])
    diag["normalized_slope"] = norm = float(slope / (v[-1] / len(v)))
    if norm >= GROWTH_FRACTION and slope > 0:
        return INFINITE, {**diag, "reason": "sustained_growth"}
    return INCONCLUSIVE, diag


def _window_edges(base: float, top: float, rungs: int) -> np.ndarray:
    """Doubling ladder base, 2*base, ... clipped and closed at ``top``; a top
    of +inf closes nothing."""
    edges = base * 2.0 ** np.arange(rungs)
    edges = edges[edges < top * (1.0 - 1e-12)]
    return np.append(edges, top) if math.isfinite(top) else edges


def _ladders(positions: np.ndarray, terms: np.ndarray, tops: np.ndarray):
    """The one ladder rule: the running sum of ``terms`` (last axis) at sorted
    ``positions``, read at each top t as the sum of the terms at positions
    <= t; and the totals, the last running values."""
    run = np.zeros(terms.shape[:-1] + (terms.shape[-1] + 1,))
    np.cumsum(terms, axis=-1, out=run[..., 1:])
    return run[..., np.searchsorted(positions, tops, side="right")], run[..., -1]


def _ladder_report(test: str, positions, terms, tops, inputs: dict) -> CriterionReport:
    """Classify the ladder of ``terms`` over ``tops`` and wrap it as a report."""
    ladder, total = _ladders(positions, terms, tops)
    verdict, diag = classify_ladder(ladder)
    total = float(total)
    return CriterionReport(
        test=test, value=math.inf if verdict == INFINITE else total, verdict=verdict,
        inputs=inputs, details={"partial_value": total, "window_tops": tops.tolist(),
                                "ladder": ladder.tolist(), **diag})


def _potential_terms(f: TestFunction, pm: PotentialMeasure, region: RegionSpec, xs: np.ndarray):
    """Sorted positions, one row of terms per start point x and the window
    tops of :func:`potential_integral`, for every x in one pass."""
    bad = xs[~np.isfinite(xs)]
    if len(bad):
        raise ValueError(f"start point x must be finite, got {float(bad[0])!r}")
    edges, sup, x = pm.edges, f.support[1], xs.min()
    if math.isfinite(sup) and sup - x > edges[-1] + 1e-9:   # f(x + y) lives at y < sup f - x
        raise RegionCoverageError(f"support of {f.name} shifted by x={x:g} reaches y={sup - x:g}, "
                                  f"past the grid top {edges[-1]:g}")
    if pm.lattice_span is not None:
        positions = pm.sites
        w = np.flatnonzero(region.contains(positions))
        y, span, width = positions[w], 1.0, 1.0
    else:
        positions = pm.centers
        w, a, b = region.clip(edges[:-1], edges[1:])
        y, span, width = 0.5 * (a + b), b - a, edges[w + 1] - edges[w]
    n = len(positions)
    terms = f((xs[:, None] + y).ravel()).reshape(len(xs), len(y)) * pm.masses[w] * span / width
    rows = (np.arange(len(xs))[:, None] * n + w).ravel()
    contrib = np.bincount(rows, weights=terms.ravel(), minlength=len(xs) * n).reshape(len(xs), n)
    return positions, contrib, _window_edges(1.0, edges[-1], LADDER_RUNGS)


def potential_integral(
    f: TestFunction,
    pm: PotentialMeasure,
    region: RegionSpec,
    x: float = 0.0,
) -> CriterionReport:
    """Integral of f(x + y) against the potential measure, restricted to a region.

    The region restricts y, so one :meth:`RegionSpec.clip` of every bin (or
    one :meth:`RegionSpec.contains` of every lattice site) serves any x.  A
    bin's piece contributes f at its midpoint weighted by the proportional
    bin mass, and a bin adds its pieces in order from 0.0; a site contributes
    its full mass iff it lies in the closure of the region.  Divergence is
    decided by :func:`classify_ladder` on partial sums over windows doubling
    from 1 to the top of the grid.  A start point x that is not finite is
    refused, and so is a shift that puts f's support past the grid top.
    """
    positions, terms, tops = _potential_terms(f, pm, region, np.array([x], float))
    return _ladder_report(
        "potential_integral", positions, terms[0], tops,
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
    if not math.isfinite(l):
        raise ValueError(f"lower cutoff must be finite, got {l!r}")
    tops = np.asarray(_window_edges(max(l, 1.0) * 2.0, math.inf, LADDER_RUNGS)
                      if f.ladder_windows is None else f.ladder_windows, float)
    tops = tops[tops > l]   # every doubling top is above l
    if len(tops) < 4:
        raise ValueError("declared ladder has fewer than 4 usable windows")
    increments = np.asarray(f.integral_on(np.append(l, tops[:-1]), tops), float)
    return _ladder_report("dk_test", tops, increments, tops,
                          {"f": f.name, "lower": l, "digest": _digest("dk", f.name, l, LADDER_RUNGS)})


def erickson_maller_test(
    f: TestFunction,
    pm: PotentialMeasure,
    lower_cutoff: float = 1.0,
) -> CriterionReport:
    """Stieltjes test integrating the renewal function U([0, y]) against -df.

    Requires f nonincreasing and vanishing at infinity on [lower, grid top];
    both are checked on the evaluation grid ``ys``.  Every breakpoint is in
    ``ys``, so a step f, whose pieces are open intervals, is constant on each
    gap between consecutive points: it is read at the gaps' midpoints and at
    the top, never on its own jumps.  Partial sums over a doubling ladder
    feed the shared extrapolation rule.
    """
    l = float(lower_cutoff)
    if not math.isfinite(l):
        raise ValueError(f"lower cutoff must be finite, got {l!r}")
    top = float(pm.edges[-1])
    if top <= l:
        raise RegionCoverageError("grid top must exceed the lower cutoff")
    ys = np.unique(np.concatenate([pm.edges, f.breakpoints, [l, top]]))
    ys = ys[(ys >= l) & (ys <= top)]
    fy = f(np.append(0.5 * (ys[:-1] + ys[1:]), top)) if f.kind == "step" else f(ys)
    if np.any(np.diff(fy) > 1e-9 * max(1.0, fy.max())):
        raise ValueError(f"{f.name} is not nonincreasing on [{l:g}, {top:g}]")
    if fy[-1] > 0.1 * fy[0] + _ATOL:
        warnings.warn(f"{f.name} has not decayed to ~0 by the grid top; "
                      "the Stieltjes tail is under-resolved", stacklevel=2)
    increments = pm.mass_between(0.0, ys[:-1]) * (fy[:-1] - fy[1:])   # U([0,y]) * (-df), all y
    return _ladder_report(
        "erickson_maller", ys[1:], increments, _window_edges(max(l, 1.0) * 2.0, top, LADDER_RUNGS),
        {"f": f.name, "lower": l, "pm": pm.meta.get("model", "?"),
         "digest": _digest("em", f.name, l, pm.meta)})


def blackwell_equivalence_check(
    f: TestFunction,
    pm: PotentialMeasure,
    lower_cutoff: float = 0.0,
) -> dict:
    """Cross-check: tail Lebesgue test vs potential-measure test.

    For finite-mean models the renewal mass of [0, L] grows like L / mean, so
    the two tests must agree.  Disagreement is reported, not raised: it is a
    finding about resolution, and the caller decides what to do with it.
    The potential side starts at x = 0.
    """
    lebesgue = dk_test(f, lower_cutoff)
    potential = potential_integral(f, pm, half_line(lower_cutoff))
    agree = lebesgue.verdict == potential.verdict and INCONCLUSIVE not in (lebesgue.verdict, potential.verdict)
    return {
        "lebesgue": lebesgue,
        "potential": potential,
        "verdicts_agree": bool(agree),
        "inputs": {"f": f.name, "lower": lower_cutoff, "x": 0.0},
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
    ladders, values = _ladders(*_potential_terms(f, pm, full_line(), x_grid))
    for x, ladder in zip(x_grid, ladders):
        if classify_ladder(ladder)[0] == INFINITE:
            raise ValueError(f"potential integral diverges at x={x:g}; no uniform bound exists")
    j = float(values.max())
    return {"J": j, "theta_max": math.inf if j == 0.0 else 1.0 / j, "x_grid": x_grid.tolist(),
            "argmax_x": float(x_grid[int(np.argmax(values))]),
            "caveat": "supremum over a finite x-grid (lower proxy)"}
