"""Monte Carlo study of perpetual integrals I^x = integral of f(x + xi_s) ds.

Truncated integrals I^x_T are computed exactly on piecewise-linear path
skeletons (constant pieces contribute f * duration; linear sweeps integrate
f over the swept value window through its primitive) and by the trapezoid
rule on diffusion grids (left-endpoint rule for step functions, matching
cadlag paths).  Almost-sure finiteness is a zero-one event; the horizon
ladder diagnosis extrapolates finite-T samples toward it and says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng as _rng
from .functions import TestFunction
from .models import (LevyModel, PathBlock, PathSample, _as_block, binomial_stderr, describe,
                     reduce_paths)
from .potential import occupation_histogram

__all__ = [
    "IDistribution",
    "Verdict",
    "LSetApprox",
    "BattyReport",
    "MgfReport",
    "integral_along_path",
    "integral_at_times",
    "estimate_I_distribution",
    "finiteness_diagnosis",
    "estimate_L_set",
    "batty_inequality_check",
    "khasminskii_exponential_check",
]

# A path is "censored" at horizon T when the final 10% window still accrues
# more than this fraction of the running integral: the integral has visibly
# not settled.  (A literal "f(x + xi_T) > 0" reading would flag every path
# for strictly positive f like exp(-y), which is useless.)
CENSOR_WINDOW = 0.1
CENSOR_REL_ACCRUAL = 1e-3

PLATEAU_GROWTH = 0.02       # relative median growth between the last two rungs
PLATEAU_CENSORED = 0.05     # max censored fraction for a finite verdict
GROWTH_TSTAT = 5.0          # t-statistic of the log-horizon slope for infinite

BATTY_PROBES = 64           # probe points for beta_hat across the support of f


def _segment_contributions(f: TestFunction, block: PathBlock, x: float,
                           seg=slice(None), at=None) -> np.ndarray:
    """Integral of f(x + path) over each segment ``seg`` selects (a slice or
    indices; every segment by default): whole, or from its start up to the
    time ``at`` (one per selected segment, clipped to the segment).  A grid
    cell gives the linear share ``cell * tau / dt`` of its whole integral."""
    dt, v0 = block.t1[seg] - block.t0[seg], block.v0[seg]
    tau = dt if at is None else np.clip(at - block.t0[seg], 0.0, dt)
    if block.exact:
        r = block.linear_rate
        if r == 0.0:
            return f(x + v0) * tau
        return f.integral_on(x + v0, x + v0 + r * tau) / r
    cell = (f(x + v0) if f.kind == "step" else 0.5 * (f(x + v0) + f(x + block.v1[seg]))) * dt
    return cell if at is None else cell * tau / dt


def integral_along_path(f: TestFunction, path: PathSample | PathBlock,
                        x: float = 0.0) -> float | np.ndarray:
    """Truncated perpetual integral of f(x + xi) over each whole piece of a
    path block, one value per piece (a float for a :class:`PathSample`).
    Each is the ``.sum()`` of that piece's segment integrals."""
    block = _as_block(path)
    totals = block._piece_sums(_segment_contributions(f, block, x))
    return float(totals[0]) if block is not path else totals


def integral_at_times(f: TestFunction, path: PathSample | PathBlock, x: float,
                      at: np.ndarray) -> np.ndarray:
    """Running integral of each piece of a path block at times within [0,
    horizon]: a (k, len(at)) array, or one row for a :class:`PathSample`.

    Only the segments whose closed sweep range meets ``f.live_intervals``
    are integrated (``PathBlock._sweep_index``, the index the visit rule
    uses); a whole-line f takes every segment.  The running integral at a
    time is the cumsum of those segments of its piece before it, plus the
    partial segment it falls in.  The cumsums run along the rows of a
    (k, w) array holding each piece's live terms after a leading -0.0 (the
    exact identity of addition), so each restarts at its piece.  This
    equals the cumsum over every segment of the piece bit for bit: every
    skipped term is an exact zero (f vanishes on its sweep range and the
    primitive is constant there), and a sequential sum that adds an exact
    zero returns its running value unchanged, up to the sign of a zero sum.
    That sign is kept too: a run of skipped terms sums to 0.0 / r, which is
    -0.0 on a path that falls between jumps.
    """
    block = _as_block(path)
    at = np.asarray(at, float)
    if not np.all((at >= 0) & (at <= block.horizon * (1 + 1e-12))):   # NaN too
        raise ValueError("evaluation times must be finite and lie within the path horizon")
    k, starts = len(block), block.starts
    idx = block._segments_at(at)
    if f.live_intervals.tolist() == [[-math.inf, math.inf]]:
        live, offsets = slice(None), starts
        before = idx - starts[:-1, None]
    else:
        live = block._sweep_index(x, f.live_intervals)
        offsets = np.searchsorted(live, starts)       # live segments ahead of each piece
        before = np.searchsorted(live, idx) - offsets[:-1, None]
    terms = _segment_contributions(f, block, x, live)
    counts = np.diff(offsets)
    width = int(counts.max()) + 1
    sums = np.zeros((k, width))
    sums[:, 0] = -0.0
    # term p of the live list is piece c's term p - offsets[c], one column
    # after the leading -0.0: flat position p + c * width + 1 - offsets[c]
    shift = np.arange(k) * width + 1 - offsets[:-1]
    sums.ravel()[np.arange(len(terms)) + np.repeat(shift, counts)] = terms
    np.cumsum(sums, axis=1, out=sums)
    sums[:, 0] = 0.0
    cum = sums[np.arange(k)[:, None], before]
    if block.exact and block.linear_rate < 0:
        cum[(before == 0) & (idx > starts[:-1, None])] = -0.0
    # the partial segment each time falls in, elementwise over the (k, len(at)) times
    partial = _segment_contributions(f, block, x, idx.ravel(), np.broadcast_to(at, idx.shape).ravel())
    rows = cum + partial.reshape(cum.shape)
    return rows[0] if block is not path else rows


@dataclass
class IDistribution:
    """Summary of samples of the truncated integral I^x_T."""

    x: float
    horizon: float
    samples: np.ndarray
    censored: np.ndarray
    meta: dict


def _live_ceiling(f: TestFunction, x: float) -> float:
    """A level c such that ``x + v`` lies above every live interval of f for
    every path value v > c, rounding included: ``top - x``, stepped up until
    ``x + c`` itself is above the top (+inf for a whole-line f), with top the
    top of ``f.support``."""
    top = f.support[1]
    c = top - x
    while x + c <= top < math.inf:
        c += math.ulp(max(abs(x), abs(top), abs(c)))
    return c


def _lattice_integrals(f: TestFunction, block: PathBlock, xs: np.ndarray,
                       span: float) -> np.ndarray:
    """(k, len(xs)) integrals of f(x + path) over each piece of a block of
    lattice paths, for every x in ``xs``: sum over sites s of occupation(s) *
    f(x + s).

    The sites are s = span * j, j = rint(v0 / span) over the block's range.
    One ``occupation_histogram`` call, with edges at the half-sites, gives
    each piece's row of occupation times.  The columns are the sites where
    some x + s meets the closed hull of f's live intervals (f vanishes off
    it): a block stopped past the top of the hull, and the same block
    unstopped, keep the same columns.  Column x is each row's pairwise
    ``.sum()`` of occupation * f(x + s), never a BLAS product, whose order
    depends on the CPU.  Where f is not finite at a site some piece misses,
    0 * f is NaN, so such a block is integrated once per x instead.
    """
    j = np.rint(block.v0 / span)
    sites = np.arange(j.min(), j.max() + 1)
    y = xs[:, None] + span * sites
    lo, hi = f.support
    cols = np.nonzero(((y >= lo) & (y <= hi)).any(axis=0))[0]
    if not len(cols):
        return np.zeros((len(block), len(xs)))
    first, last = sites[cols[0]], sites[cols[-1]]
    occ = np.zeros((len(block), cols[-1] - cols[0] + 1))
    occupation_histogram(block, span * (np.arange(first, last + 2) - 0.5), occ)
    occ = np.take(occ, cols - cols[0], axis=1)
    values = f(np.take(y, cols, axis=1).ravel()).reshape(len(xs), len(cols))
    if not np.isfinite(values).all():
        return np.column_stack([integral_along_path(f, block, x) for x in xs])
    return np.column_stack([(occ * row).sum(axis=1) for row in values])


def _integral_samples(f: TestFunction, model: LevyModel, xs, horizon: float, paths: int,
                      seed: int, key: tuple = (_rng.STREAM_PATH,),
                      step: Optional[float] = None, threads: int = 1) -> np.ndarray:
    """I^x_T of every path from every start point x in ``xs``: a (paths,
    len(xs)) array, rows in path index order, from one ``reduce_paths`` pass.

    Every start point reads the same paths (starting at x only shifts them),
    so the columns are coupled: for nonincreasing f, I^x falls with x along
    every row.  A lattice model's block is read once for every x, through
    one occupation row per piece (:func:`_lattice_integrals`); its sums run
    over fixed site columns, so its paths stop past the top of f.  Every
    other block is integrated once per start point by
    :func:`integral_along_path`, on whole paths: its pairwise sums over
    segments round differently when trailing zero terms are cut.  Start
    points are checked before any draw.
    """
    xs = np.asarray(xs, float)
    if xs.ndim != 1 or len(xs) == 0 or not np.all(np.isfinite(xs)):
        raise ValueError(f"start points must be a nonempty sequence of finite numbers, got {xs}")
    span = model.lattice_span

    def reducer(chunk):
        return np.concatenate([
            _lattice_integrals(f, block, xs, span) if span is not None
            else np.column_stack([integral_along_path(f, block, x) for x in xs])
            for block in chunk])

    ceiling = None if span is None else _live_ceiling(f, float(xs.min()))
    return np.concatenate(reduce_paths(model, horizon, paths, seed, reducer, key=key,
                                       threads=threads, step=step, ceiling=ceiling))


def _ladder_samples(f, model, x, rungs, paths, seed, step, threads, *,
                    small_jump_cutoff=None, visits=None):
    """Per-path running integrals at each rung, censored flags, and whether
    each path meets the region ``visits`` (:meth:`RegionSpec.last_visit`;
    False for every path without one).

    One path per index serves every rung (the running integral is
    nondecreasing in the horizon along a fixed path), which couples the
    ladder and keeps the cost of k rungs equal to one long horizon.  The
    rows read only segments that meet f's live intervals, so paths may stop
    once past their top; ``visits`` must lie below it too.  A path is
    censored at a rung when the rung's final CENSOR_WINDOW share still
    accrues more than CENSOR_REL_ACCRUAL of the running integral.
    """
    if not math.isfinite(x):
        raise ValueError(f"start point x must be finite, got {x!r}")
    rungs = np.asarray(sorted(rungs), float)
    eval_times = np.concatenate([rungs, (1.0 - CENSOR_WINDOW) * rungs])
    order = np.argsort(eval_times)
    eval_sorted, inv = eval_times[order], np.argsort(order)

    def reducer(chunk):
        rows, met = [], []
        for block in chunk:
            # take keeps the rows C-ordered (``[..., inv]`` gives a Fortran-ordered
            # copy), so a mean over paths sums each column sequentially
            rows.append(np.take(integral_at_times(f, block, x, eval_sorted), inv, axis=-1))
            # right after the row, so the visit rule reads its segment index back
            met.append(np.zeros(len(block), bool) if visits is None
                       else visits.last_visit(block, x) > -math.inf)
        return np.concatenate(rows), np.concatenate(met)

    parts = reduce_paths(model, float(rungs[-1]), paths, seed, reducer, threads=threads, step=step,
                         small_jump_cutoff=small_jump_cutoff, ceiling=_live_ceiling(f, x))
    rows = np.concatenate([r for r, _ in parts])
    at_rungs, at_early = rows[:, :len(rungs)], rows[:, len(rungs):]
    censored = (at_rungs - at_early) > np.maximum(CENSOR_REL_ACCRUAL * at_rungs, 1e-12)
    return rungs, at_rungs, censored, np.concatenate([m for _, m in parts])


def estimate_I_distribution(
    f: TestFunction,
    model: LevyModel,
    x: float,
    horizon: float,
    paths: int,
    seed: int,
    step: Optional[float] = None,
    threads: int = 1,
) -> IDistribution:
    """Sample I^x_T over independent paths."""
    _, vals, censored, _ = _ladder_samples(f, model, x, [horizon], paths, seed, step, threads)
    return IDistribution(x=float(x), horizon=float(horizon), samples=vals[:, 0],
                         censored=censored[:, 0],
                         meta={"model": describe(model), "f": f.name, "paths": paths,
                               "horizon": float(horizon), "master_seed": seed})


@dataclass
class Verdict:
    """Finiteness verdict from the horizon-ladder plateau test.

    Almost-sure finiteness of the full integral is a zero-one event; this
    verdict extrapolates a finite-horizon ladder and records the evidence it
    extrapolated from.
    """

    outcome: str                       # finite | infinite | inconclusive
    evidence: dict
    note: str = ("P(I < inf) is 0 or 1 for these models; the ladder verdict "
                 "extrapolates finite-horizon medians toward that dichotomy")

    def __post_init__(self):
        if self.outcome not in ("finite", "infinite", "inconclusive"):
            raise ValueError(f"unknown outcome {self.outcome!r}")


def _classify_plateau(rungs, medians, censored_last):
    m_prev, m_last = medians[-2], medians[-1]
    if m_prev <= 0.0:
        growth = 0.0 if m_last <= 0.0 else math.inf
    else:
        growth = (m_last - m_prev) / m_prev
    if growth < PLATEAU_GROWTH and censored_last < PLATEAU_CENSORED:
        return "finite", growth, None
    logt = np.log(rungs)
    slope, intercept = np.polyfit(logt, medians, 1)
    resid = medians - (slope * logt + intercept)
    dof = max(len(rungs) - 2, 1)
    s2 = float(resid @ resid) / dof
    denom = float(((logt - logt.mean()) ** 2).sum())
    se = math.sqrt(s2 / denom) if denom > 0 else math.inf
    tstat = slope / se if se > 0 else math.inf * np.sign(slope)
    if slope > 0 and tstat > GROWTH_TSTAT:
        return "infinite", growth, float(tstat)
    return "inconclusive", growth, float(tstat) if math.isfinite(tstat) else None


def finiteness_diagnosis(
    f: TestFunction,
    model: LevyModel,
    x: float,
    rungs: Sequence[float],
    paths: int,
    seed: int,
    step: Optional[float] = None,
    threads: int = 1,
) -> Verdict:
    """Plateau test on a horizon ladder.

    Median I^x_T stable between the last two rungs with few censored paths
    reads as finite; a significantly positive trend of the median against
    log-horizon reads as infinite; otherwise inconclusive.  A horizon that
    is not finite and > 0 is refused before any draw.
    """
    rungs = [float(t) for t in rungs]
    if not all(0 < t < math.inf for t in rungs):
        raise ValueError(f"ladder horizons must be finite and > 0, got {rungs}")
    rungs = sorted(rungs)
    if len(rungs) < 3:
        raise ValueError("ladder needs at least 3 horizons")
    if any(b <= a for a, b in zip(rungs[:-1], rungs[1:])):
        raise ValueError("ladder horizons must be strictly increasing")
    rung_arr, vals, censored, _ = _ladder_samples(f, model, x, rungs, paths, seed, step, threads)
    medians = np.median(vals, axis=0)
    outcome, growth, tstat = _classify_plateau(rung_arr, medians, float(censored[:, -1].mean()))
    evidence = {
        "rungs": [float(t) for t in rung_arr],
        "medians": [float(m) for m in medians],
        "means": [float(m) for m in vals.mean(axis=0)],
        "censored_fraction": [float(c) for c in censored.mean(axis=0)],
        "median_growth_last": float(growth) if math.isfinite(growth) else "inf",
        "log_slope_tstat": tstat,
        "paths": paths,
        "model": describe(model),
        "f": f.name,
        "x": float(x),
        "master_seed": seed,
    }
    return Verdict(outcome=outcome, evidence=evidence)


@dataclass
class LSetApprox:
    """Empirical sublevel set of x -> G_a(x) = P(I^x > a)."""

    a: float
    q: float
    xs: np.ndarray
    g_hat: np.ndarray
    stderr: np.ndarray
    member: np.ndarray
    meta: dict

    def __post_init__(self):
        if np.any(self.g_hat < 0) or np.any(self.g_hat > 1):
            raise ValueError("g_hat must lie in [0, 1]")
        if self.member.shape != self.xs.shape:
            raise ValueError("member flags must align with the x grid")


def estimate_L_set(
    f: TestFunction,
    model: LevyModel,
    a: float,
    q: float,
    x_grid: Sequence[float],
    horizon: float,
    paths: int,
    seed: int,
    step: Optional[float] = None,
    threads: int = 1,
) -> LSetApprox:
    """Mark grid points x where the estimated tail G_a(x) is at most q.

    All starting points share the same simulated paths
    (:func:`_integral_samples`), so for nonincreasing f the estimated I^x
    are coupled monotonically in x and the member set inherits that
    stability.  An empty grid, one with a point that is not finite, and a
    level ``a`` that is not finite are refused.
    """
    xs = np.asarray(sorted(float(v) for v in x_grid))
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if not math.isfinite(a):
        raise ValueError(f"level a must be finite, got {a!r}")
    samples = _integral_samples(f, model, xs, horizon, paths, seed, step=step, threads=threads)
    g = np.count_nonzero(samples > a, axis=0) / paths
    return LSetApprox(a=float(a), q=float(q), xs=xs, g_hat=g, stderr=binomial_stderr(g, paths),
                      member=g <= q,
                      meta={"model": describe(model), "f": f.name, "paths": paths,
                            "horizon": float(horizon), "master_seed": seed})


@dataclass
class BattyReport:
    """Truncated-moment inequality check: beta * E[I^x_t] <= a."""

    a: float
    t: float
    x: float
    beta_hat: float
    beta_argmin: float
    mean_i: float
    lhs: float
    rhs: float
    stderr_lhs: float
    holds: bool
    caveats: list[str]


def batty_inequality_check(
    f: TestFunction,
    model: LevyModel,
    x: float,
    a: float,
    t: float,
    n_outer: int,
    seed: int,
    step: Optional[float] = None,
) -> BattyReport:
    """Check beta_hat * mean(I^x_t) <= a + 3 propagated standard errors.

    beta_hat is the minimum over BATTY_PROBES evenly spaced points on the
    support of f of the inner-estimated P(I^y_t <= a).  Every probe reads
    the same max(8, round(sqrt(n_outer))) inner paths (stream STREAM_INNER,
    one pass of :func:`_integral_samples`), so the probes are coupled as in
    the L-set scan.  An unbounded support is truncated to a window of
    length 20 starting at min(0, x).  The minimum of noisy estimates is
    biased low, which only makes the check conservative; that caveat and
    any window truncation are recorded.
    """
    if not math.isfinite(a):
        raise ValueError(f"level a must be finite, got {a!r}")
    outer = _integral_samples(f, model, [x], t, n_outer, seed, step=step)[:, 0]
    mean_i = float(outer.mean())
    se_mean = float(outer.std(ddof=1) / math.sqrt(n_outer)) if n_outer > 1 else 0.0

    caveats = ["beta_hat is a minimum of noisy estimates (biased low, conservative)"]
    lo, hi = f.support
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo = min(0.0, x)
        hi = lo + 20.0
        caveats.append(f"unbounded support truncated to probe window ({lo:g}, {hi:g})")
    n_inner = max(8, int(round(math.sqrt(n_outer))))
    probes = np.linspace(lo, hi, BATTY_PROBES)
    inner = _integral_samples(f, model, probes, t, n_inner, seed, key=(_rng.STREAM_INNER,),
                              step=step)
    p_hat = np.count_nonzero(inner <= a, axis=0) / n_inner
    j_min = int(np.argmin(p_hat))
    beta = float(p_hat[j_min])
    se_beta = float(binomial_stderr(beta, n_inner))

    lhs = beta * mean_i
    se_lhs = math.sqrt((beta * se_mean) ** 2 + (mean_i * se_beta) ** 2)
    # f locally bounded and t finite make I^x_t finite surely, so the
    # right-hand side probability is 1 and rhs reduces to a.
    rhs = float(a)
    return BattyReport(a=float(a), t=float(t), x=float(x), beta_hat=beta,
                       beta_argmin=float(probes[j_min]), mean_i=mean_i, lhs=float(lhs),
                       rhs=rhs, stderr_lhs=float(se_lhs),
                       holds=bool(lhs <= rhs + 3.0 * se_lhs), caveats=caveats)


@dataclass
class MgfReport:
    """Empirical exponential moment of the perpetual integral."""

    theta: float
    empirical_mgf: float
    log_mgf: float
    stable: bool
    half_sample_change: float
    trimmed_change: float
    warning: Optional[str]
    meta: dict


def khasminskii_exponential_check(
    f: TestFunction,
    model: LevyModel,
    x: float,
    theta: float,
    horizon: float,
    paths: int,
    seed: int,
    j_value: Optional[float] = None,
    override: bool = False,
    step: Optional[float] = None,
    threads: int = 1,
) -> MgfReport:
    """Estimate E[exp(theta * I^x_T)] with overflow-safe accumulation.

    When the uniform potential bound J is supplied and theta >= 1/J the
    estimate sits outside the guaranteed-finite range; the run refuses
    unless ``override=True``, and then carries a warning.  Stability screen:
    the estimate moves < 10% between the half sample and the full sample and
    < 25% when the top 1% of the sample is excluded, so it needs two paths.
    """
    if paths < 2:
        raise ValueError(f"paths must be >= 2 for the trimmed-sample screen, got {paths}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if j_value is not None and math.isnan(j_value):
        raise ValueError("j_value must not be NaN (pass None for no bound)")
    warning = None
    if j_value is not None and j_value > 0 and theta >= 1.0 / j_value - 1e-12:
        warning = (f"theta={theta:g} is at or above 1/J={1.0 / j_value:g}; "
                   "the exponential moment is not guaranteed finite")
        if not override:
            raise ValueError(warning + " (pass override=True to force)")

    dist = estimate_I_distribution(f, model, x, horizon, paths, seed, step=step, threads=threads)
    expo = theta * dist.samples

    def log_mean_exp(v):
        m = float(np.max(v))
        return m + math.log(float(np.mean(np.exp(v - m))))

    log_mgf = log_mean_exp(expo)
    half = log_mean_exp(expo[: max(1, paths // 2)])
    change_half = abs(math.exp(half - log_mgf) - 1.0)
    k = max(1, int(0.01 * paths))
    trimmed = log_mean_exp(np.sort(expo)[:-k])
    change_trim = abs(math.exp(trimmed - log_mgf) - 1.0)
    stable = change_half < 0.10 and change_trim < 0.25
    return MgfReport(theta=float(theta), empirical_mgf=float(math.exp(log_mgf)),
                     log_mgf=float(log_mgf), stable=bool(stable),
                     half_sample_change=float(change_half), trimmed_change=float(change_trim),
                     warning=warning,
                     meta={**dist.meta, "theta": float(theta),
                           "censored_fraction": float(dist.censored.mean())})
