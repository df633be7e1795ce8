"""Independent numerical oracles for the test suite.

Every closed-form constant asserted in the tests is recomputed here by a
route that does not share code with the package: direct series summation,
quadrature of defining integrals, or textbook special-function identities.
``test_oracles.py`` checks the two routes against each other before any
package test relies on the frozen values.
"""

import math

import numpy as np
from scipy import integrate, stats

# lattice compound Poisson used throughout: rate 2, unit jumps
LATTICE_RATE = 2.0

# truncated stable subordinator used throughout: density x^{-3/2}/... on (0, 1]
TS_ACTIVITY = 1.0
TS_INDEX = 0.5
TS_CUTOFF = 1.0


def lattice_site_mass_quad(n: int, rate: float = LATTICE_RATE) -> float:
    """Occupation of site n: integral over time of the Poisson pmf at n."""
    val, _ = integrate.quad(lambda t: stats.poisson.pmf(n, rate * t), 0, np.inf)
    return val


def geometric_potential_sum(rate: float = LATTICE_RATE, n_terms: int = 200) -> float:
    """Sum over sites of e^{-n} times the site mass 1/rate, by partial sums."""
    return sum(math.exp(-n) / rate for n in range(n_terms))


# frozen: 1 / (2 (1 - e^{-1}))
GEOMETRIC_POTENTIAL_VALUE = 0.7909883534346632


def exp_mgf(rate: float, theta: float) -> float:
    """E[e^{theta X}] for X exponential(rate), theta < rate."""
    assert theta < rate
    return rate / (rate - theta)


def ts_levy_tail(y: float, index: float = TS_INDEX, cutoff: float = TS_CUTOFF) -> float:
    """Mass of jumps larger than y, by quadrature of the jump density.

    Integrated in log space (x = e^t) so the steep power-law left end is
    resolved even for y many orders of magnitude below the cutoff.
    """
    if y >= cutoff:
        return 0.0
    lo = math.log(max(y, 1e-300))
    val, _ = integrate.quad(
        lambda t: TS_ACTIVITY * math.exp(-index * t), lo, math.log(cutoff),
        limit=200)
    return val


def ts_mean_quad(index: float = TS_INDEX, cutoff: float = TS_CUTOFF) -> float:
    """Mean drift of the subordinator: integral of x times the jump density."""
    val, _ = integrate.quad(lambda x: x * TS_ACTIVITY * x ** (-1.0 - index), 0, cutoff)
    return val


def overshoot_limit_cdf_quad(u: float, index: float = TS_INDEX, cutoff: float = TS_CUTOFF) -> float:
    """Stationary overshoot CDF: integrated jump tail over the mean.

    Classical renewal form: F(u) = (1/m) * integral_0^u tail(y) dy.
    """
    if u <= 0:
        return 0.0
    m = ts_mean_quad(index, cutoff)
    # y = s^k, k = 1 / (1 - index), removes the integrable y^(-index)
    # singularity at the origin (y = s^2 at index 1/2).
    k = 1.0 / (1.0 - index)
    top = min(u, cutoff) ** (1.0 / k)
    val, _ = integrate.quad(lambda s: ts_levy_tail(s ** k, index, cutoff) * k * s ** (k - 1.0),
                            0.0, top, limit=200)
    return val / m


def overshoot_limit_cdf_closed(u: float) -> float:
    """Same CDF via the closed form for index 1/2, cutoff 1: 2 sqrt(u) - u."""
    if u <= 0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return 2.0 * math.sqrt(u) - u


def bm_potential_density_quad(y: float, drift: float = 1.0, var: float = 1.0) -> float:
    """Occupation density of drifted BM: time-integral of the Gaussian marginal."""
    def marginal(t):
        return math.exp(-((y - drift * t) ** 2) / (2 * var * t)) / math.sqrt(2 * math.pi * var * t)
    val, err = integrate.quad(marginal, 0, np.inf, limit=400)
    return val


def bm_potential_density_closed(y: float, drift: float = 1.0, var: float = 1.0) -> float:
    if y >= 0:
        return 1.0 / drift
    return math.exp(2.0 * drift * y / var) / drift


def poisson_count_pmf(k: int, rate: float, t: float) -> float:
    return float(stats.poisson.pmf(k, rate * t))


def pareto_mean(alpha: float, scale: float = 1.0) -> float:
    """Mean of a Pareto(scale, alpha) jump; infinite for alpha <= 1."""
    if alpha <= 1.0:
        return math.inf
    return alpha * scale / (alpha - 1.0)


def dkw_band(n: int, confidence: float) -> float:
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))


def ts_overshoot_single_cutoff(level: float, paths: int, seed: int,
                               cutoff: float = 1e-5) -> np.ndarray:
    """First-passage overshoots of the truncated stable subordinator over
    ``level``, brute force with one small-jump cutoff for the whole path.

    Jumps below ``cutoff`` are replaced by their mean drift; jumps above it
    arrive as a Poisson process.  A drift crossing of the level counts as
    overshoot 0.  The law is exact above ``cutoff`` in the renewal limit.
    """
    c, rho, r = TS_ACTIVITY, TS_INDEX, TS_CUTOFF
    rate = c * (cutoff ** -rho - r ** -rho) / rho
    drift = c * cutoff ** (1.0 - rho) / (1.0 - rho)
    mean = c * r ** (1.0 - rho) / (1.0 - rho)
    lo, hi = cutoff ** -rho, r ** -rho
    block = int(1.2 * rate * level / mean) + 64
    gen = np.random.default_rng(seed)
    out = np.empty(paths)
    for i in range(paths):
        start = 0.0
        while True:
            gaps = gen.exponential(1.0 / rate, block)
            sizes = (lo - gen.random(block) * (lo - hi)) ** (-1.0 / rho)
            landed = start + np.cumsum(drift * gaps + sizes)
            before = landed - sizes
            over = np.flatnonzero((before > level) | (landed > level))
            if len(over):
                k = over[0]
                out[i] = 0.0 if before[k] > level else landed[k] - level
                break
            start = landed[-1]
    return out


def potential_mass_between(edges, masses, lo: float, hi: float, lattice_span=None) -> float:
    """Mass of [lo, hi] under a binned potential, bin by bin: each bin adds
    the share of its mass its overlap with [lo, hi] covers, or for a lattice
    measure, the mass of its site when the site is in [lo, hi] to 1e-9."""
    if hi <= lo:
        return 0.0
    total = 0.0
    for a, b, m in zip(edges[:-1], edges[1:], masses):
        if lattice_span is not None:
            site = round(0.5 * (a + b) / lattice_span) * lattice_span
            total += m if lo - 1e-9 <= site <= hi + 1e-9 else 0.0
        else:
            total += m * min(max((min(hi, b) - max(lo, a)) / (b - a), 0.0), 1.0)
    return total


def occupation_by_sweeps(times, values, rate: float, edges) -> np.ndarray:
    """Time an exact piecewise-linear path spends in each bin [a, b) of
    ``edges``, summed segment by segment with no passage times.

    Segment s runs over [times[s], times[s + 1]).  With ``rate`` 0 it holds
    ``values[s]``, and its whole dt goes to the bin holding that value (a
    value on an edge is in the bin above it).  With ``rate`` > 0 it sweeps
    up from ``values[s]`` at that rate: a sweep that stays inside a bin adds
    its dt, and one that crosses an edge adds to each bin it meets the length
    of the sweep inside it over the rate.  Time outside the grid is dropped.
    """
    t, v = np.asarray(times, float), np.asarray(values, float)
    dt, v0 = np.diff(t), v[:-1]
    top = v0 + rate * dt
    out = np.zeros(len(edges) - 1)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        if rate == 0.0:
            out[i] = dt[(v0 >= a) & (v0 < b)].sum()
            continue
        within = (v0 >= a) & (top < b)
        split = ~within & (top > a) & (v0 < b)
        inside = np.minimum(top[split], b) - np.maximum(v0[split], a)
        out[i] = dt[within].sum() + (inside / rate).sum()
    return out


def region_pieces(intervals, complement: bool, lo: float, hi: float) -> list:
    """Connected components of (region intersect (lo, hi)) as (a, b) pairs,
    by a walk over the sorted disjoint open ``intervals``.

    The region is their union, or with ``complement`` what the union leaves
    out: a cursor starts at lo and emits the stretch up to each interval it
    meets, then jumps past that interval; what is left up to hi is the last
    piece.
    """
    if hi <= lo:
        return []
    if not complement:
        out = [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]
        return [(a, b) for a, b in out if b > a]
    out = []
    cursor = lo
    for a, b in intervals:
        if b <= lo:
            continue
        if a >= hi:
            break
        if a > cursor:
            out.append((cursor, min(a, hi)))
        cursor = max(cursor, b)
    if cursor < hi:
        out.append((cursor, hi))
    return out


def region_contains(intervals, complement: bool, y: float, atol: float = 1e-12) -> bool:
    """Closure membership of y, interval by interval: within atol of some
    interval, or for a complement inside none of them shrunk by atol."""
    if not complement:
        return any(a - atol <= y <= b + atol for a, b in intervals)
    return not any(a + atol < y < b - atol for a, b in intervals)


def ladder_partial_sums(positions, terms, tops) -> list:
    """For each window top t, the sum of the terms at positions <= t, term by
    term in the order given."""
    out = []
    for t in tops:
        total = 0.0
        for p, v in zip(positions, terms):
            if p <= t:
                total += v
        out.append(total)
    return out


def search_each_piece(starts, keys, queries, side: str) -> np.ndarray:
    """(k, len(queries)) flat indices: piece by piece, ``np.searchsorted`` of
    the queries into that piece's own slice ``keys[starts[c]:starts[c + 1]]``,
    shifted by the slice's start."""
    return np.array([a + np.searchsorted(keys[a:b], queries, side=side)
                     for a, b in zip(starts[:-1], starts[1:])]).reshape(len(starts) - 1, -1)


def step_stieltjes_sum(pieces, sites, masses, lower: float) -> float:
    """Integral over y > lower of U([0, y)) against -df, for a nonincreasing
    step f given as (coefficient, a, b) pieces and a lattice potential given
    as site masses: at each piece end b > lower, f drops by its coefficient
    less that of a piece starting at b, and U([0, b)) adds, site by site, the
    masses of the sites in [0, b)."""
    total = 0.0
    for c, _, b in pieces:
        if b <= lower:
            continue
        drop = c - sum(c1 for c1, a1, _ in pieces if a1 == b)
        below = 0.0
        for s, m in zip(sites, masses):
            if 0.0 <= s < b:
                below += m
        total += below * drop
    return total


def running_integral(times, values, rate: float, exact: bool, f: tuple, x: float, at) -> list:
    """Integral over [0, t] of f(x + path) for each t in ``at``, segment by
    segment, with closed-form integrals and an exactly rounded sum.

    ``f`` is ``("exp",)`` for e^{-y} or ``("indicator", a, b)`` for the
    indicator of the open interval (a, b).  Segment s starts at
    ``times[s]`` and ``y = x + values[s]``.  On an exact path it moves at
    ``rate`` until ``times[s + 1]``; a time inside it takes the integral up
    to that time.  On a grid skeleton (``exact`` False) a cell integrates
    by the trapezoid rule for e^{-y} and the held value y for the
    indicator, and a time inside it takes the linear share of the cell.
    """
    def along(y, tau):      # exact path: integral over the first tau of the segment
        if f[0] == "exp":
            return math.exp(-y) * tau if rate == 0.0 else math.exp(-y) * -math.expm1(-rate * tau) / rate
        a, b = f[1], f[2]
        if rate == 0.0:
            return tau if a < y < b else 0.0
        lo, hi = sorted(((a - y) / rate, (b - y) / rate))
        return max(0.0, min(hi, tau) - max(lo, 0.0))

    def cell(y, y1, dt):    # grid skeleton: the whole cell
        if f[0] == "exp":
            return 0.5 * (math.exp(-y) + math.exp(-y1)) * dt
        return dt if f[1] < y < f[2] else 0.0

    out = []
    for t in at:
        terms = []
        for s in range(len(times) - 1):
            t0, t1 = float(times[s]), float(times[s + 1])
            if t0 >= t:
                break
            tau = min(t1, t) - t0
            y = x + float(values[s])
            if exact:
                terms.append(along(y, tau))
            else:
                terms.append(cell(y, x + float(values[s + 1]), t1 - t0) * tau / (t1 - t0))
        out.append(math.fsum(terms))
    return out
