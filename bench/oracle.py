"""Closed-form oracles and false-alarm-controlled acceptance thresholds.

Everything here is computed from first principles with the standard library;
nothing calls into ``levyint``, so a defect in the package cannot move its own
yardstick.  Each threshold takes the false-alarm rate ``alpha`` it must hold
(the probability that a correct program fails the check on a fresh seed) and,
for families of tests, spreads it over the family by Bonferroni.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Per-check family-wise false-alarm rate.  A batch makes at most eight
# statistical checks and seventy 30-second runs make about a thousand
# batches, so the chance that a correct program ever reads as failed over
# such a campaign stays below 1 %.
ALPHA = 1e-6

# The workloads' models, defined once: ``workloads.py`` builds its models from
# these constants and every exact value in ``Oracles`` is derived from them.
LATTICE_RATE = 2.0                  # unit-lattice compound Poisson, jumps of +1
THETA = 1.0                         # exponential-moment parameter of the lattice check
BM_DRIFT, BM_VAR = 1.0, 1.0         # drifted Brownian motion
TS_ACTIVITY, TS_INDEX, TS_CUTOFF = 1.0, 0.5, 1.0   # truncated stable: c, rho, r


def subordinator_mean(c: float, rho: float, r: float) -> float:
    """Mean of the subordinator with jump density c y^{-1-rho} on (0, r]."""
    return c * r ** (1.0 - rho) / (1.0 - rho)


@dataclass(frozen=True)
class Oracles:
    """Exact values the workloads are checked against, derived from the
    model constants above."""

    rate: float = LATTICE_RATE
    site_mass: float = 1.0 / LATTICE_RATE                   # U({n}) = 1 / rate
    # e^{theta I} with I ~ Exp(rate) is Pareto with index rate / theta
    mgf_index: float = LATTICE_RATE / THETA
    mgf: float = LATTICE_RATE / (LATTICE_RATE - THETA)      # E e^{theta Exp(rate)}
    bm_drift: float = BM_DRIFT
    bm_var: float = BM_VAR
    ts: tuple = (TS_ACTIVITY, TS_INDEX, TS_CUTOFF)
    ts_mean: float = subordinator_mean(TS_ACTIVITY, TS_INDEX, TS_CUTOFF)


def bm_potential_masses(edges, drift: float, var: float) -> list[float]:
    """Occupation measure of drifted BM on each bin: the density is
    e^{2 mu y / s2} / mu below 0 and 1 / mu above, integrated exactly."""
    k = 2.0 * drift / var

    def cum(y: float) -> float:
        return math.exp(k * min(y, 0.0)) / (drift * k) + max(y, 0.0) / drift

    return [cum(b) - cum(a) for a, b in zip(edges[:-1], edges[1:])]


def hypoexp_survival(z: float, rates) -> float:
    """P(sum of independent Exp(rates[i]) > z) for distinct rates."""
    total = 0.0
    for i, li in enumerate(rates):
        coef = 1.0
        for j, lj in enumerate(rates):
            if j != i:
                coef *= lj / (lj - li)
        total += coef * math.exp(-li * z)
    return min(max(total, 0.0), 1.0)


def lattice_exp_tail(a: float, x: float, rate: float, sites: int = 30) -> float:
    """G_a(x) = P(I^x > a) for f(y) = e^-y on the unit lattice.

    The path holds Exp(rate) at every site n >= 0, so
    I^x = e^-x * sum_n e^-n H_n, a hypoexponential sum with rates rate * e^n.
    """
    return hypoexp_survival(a * math.exp(x), [rate * math.exp(n) for n in range(sites)])


def _golden_min(g, lo: float, hi: float, steps: int = 200) -> float:
    """Minimum of a unimodal function on [lo, hi] by golden-section search."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - r * (b - a), a + r * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(steps):
        if gc <= gd:
            b, d, gd = d, c, gc
            c = b - r * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + r * (b - a)
            gd = g(d)
    return min(gc, gd)


def exp_sum_interval(weights, n: int, alpha: float) -> tuple[float, float]:
    """Interval that holds the mean of n independent copies of
    S = sum_k w_k E_k (E_k independent Exp(1), w_k > 0) with probability at
    least 1 - alpha: the Chernoff bound on each side at alpha / 2.

    On the unit lattice the path holds an independent Exp(rate) time at every
    site, so a site mass, a sum of site masses and a weighted sum such as
    sum_n e^-n U({n}) are all of this form with w_k = weight / rate.  The
    bound needs no sample standard error; a Student or normal statistic
    does, and for these right-skewed times its lower tail is far heavier
    than the normal one at Bonferroni levels (at 300 paths, P(z < -5.65)
    is about 3e-6 per site, not 8e-9).

    With psi(s) = -sum_k log(1 - s w_k), the log-MGF of S:
    P(mean >= a) <= exp(n psi(s) - n s a) for 0 < s < 1 / max w, and
    P(mean <= a) <= exp(n psi(-u) + n u a) for u > 0; each side's end is
    optimised over s (or u), along which the bound is unimodal.
    """
    w = [float(v) for v in weights]
    log_term = math.log(2.0 / alpha)
    w_max = max(w)

    def upper(t):              # s = sigmoid(t) / w_max spans (0, 1 / w_max)
        s = 1.0 / (1.0 + math.exp(-t)) / w_max
        return (-n * sum(math.log1p(-s * v) for v in w) + log_term) / (n * s)

    def lower(t):              # u = e^t / w_max; minus the lower end
        u = math.exp(t) / w_max
        return -(n * sum(math.log1p(u * v) for v in w) - log_term) / (n * u)

    return -_golden_min(lower, -30.0, 30.0), _golden_min(upper, -30.0, 30.0)


def binom_two_sided_p(k: int, n: int, p: float) -> float:
    """Exact two-sided binomial p-value: twice the smaller tail, capped at 1."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    lp, lq = math.log(p), math.log1p(-p)

    def pmf(i):
        return math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                        + i * lp + (n - i) * lq)

    lower = sum(pmf(i) for i in range(0, k + 1))
    upper = sum(pmf(i) for i in range(k, n + 1))
    return min(1.0, 2.0 * min(lower, upper))


def pareto_mean_lower_margin(n: int, alpha: float, index: float) -> float:
    """Margin t with P(mean of n Pareto(1, index) draws < mean - t) <= alpha.

    For index <= 2 the second moment is infinite, so no upper tolerance is
    both tight and safe (a single long holding time carries the mean past
    mean + t with probability ~1/(n t^2) at index 2).  The lower tail is
    light: truncating at c costs c^{1-k} / (k-1) of mean (k the index) and
    leaves E[min(Y, c)^2] = 1 + 2 int_1^c y^{1-k} dy, and the one-sided bound
    for nonnegative variables (Maurer 2003) gives
    P(mean < mu_c - s) <= exp(-n s^2 / (2 E[min(Y, c)^2])).  The best c on a
    coarse grid is used.
    """
    k = index
    log_term = 2.0 * math.log(1.0 / alpha)
    best = math.inf
    for c in (5.0, 10.0, 20.0, 40.0, 80.0, 160.0):
        second = 1.0 + 2.0 * (math.log(c) if k == 2.0 else (c ** (2.0 - k) - 1.0) / (2.0 - k))
        s = math.sqrt(log_term * second / n)
        best = min(best, s + c ** (1.0 - k) / (k - 1.0))
    return best


def dkw_band(n: int, alpha: float) -> float:
    """Half-width of the uniform empirical-CDF band (Massart's constant)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def stationary_overshoot_cdf(u: float, c: float, rho: float, r: float) -> float:
    """Limit overshoot law of the subordinator with jump density c y^{-1-rho}
    on (0, r]: (1/m) int_0^u tail(y) dy, with tail(y) = (c/rho)(y^-rho - r^-rho)
    (2 sqrt(u) - u for c = 1, rho = 1/2, r = 1)."""
    if u <= 0.0:
        return 0.0
    if u >= r:
        return 1.0
    area = c / rho * (u ** (1.0 - rho) / (1.0 - rho) - u * r ** -rho)
    return area / subordinator_mean(c, rho, r)


def renewal_bin_mass(width: float, mean: float) -> float:
    """Blackwell's limit of the potential of a bin far from the start: a
    subordinator with non-lattice jumps spends width / mean there."""
    return width / mean


def ts_laplace_exponent(lam: float, c: float, rho: float, r: float) -> float:
    """Phi(lam) = c int_0^r (1 - e^{-lam y}) y^{-1-rho} dy, by its power
    series c sum_k (-1)^{k+1} lam^k r^{k-rho} / (k! (k - rho))."""
    total, term, k = 0.0, 1.0, 0
    while True:
        k += 1
        term *= lam * r / k                      # (lam r)^k / k!
        total += (-1) ** (k + 1) * term / (k - rho)
        if term < 1e-17 * abs(total):
            return c * r ** -rho * total


def ts_lower_tail_bound(t: float, b: float, c: float, rho: float, r: float) -> float:
    """Chernoff bound on P(X_t <= b) for that subordinator:
    min over lam of exp(lam b - t Phi(lam)).

    It holds as well for the simulated version in which jumps below a cutoff
    are replaced by their mean drift: 1 - e^{-lam y} <= lam y makes that
    version's Laplace exponent larger."""
    return min(1.0, min(math.exp(lam * b - t * ts_laplace_exponent(lam, c, rho, r))
                        for lam in (0.05 * i for i in range(1, 81))))
