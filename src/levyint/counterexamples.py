"""Mechanical reconstruction of two counterexamples to naive tail tests.

1. A lattice compound Poisson process with an integrand vanishing on the
   lattice: the tail Lebesgue integral diverges while the perpetual
   integral is identically zero.
2. A sparse train of narrow unit-mass bumps placed where a subordinator
   almost never lands ("transient trap"): the tail integral diverges while
   the perpetual integral is almost surely finite.  Bump widths come from
   the exact stationary overshoot law, bump offsets from empirical overshoot
   distributions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rng as _rng
from .criteria import RegionSpec, dk_test, potential_integral
from .functions import TestFunction, lattice_sine, triangle_train
from .models import LevyModel, TruncatedStable, _jump_law, binomial_stderr, describe
from .perpetual import _integral_samples, _ladder_verdict
from .potential import estimate_potential

__all__ = [
    "OvershootTable",
    "TrapConstruction",
    "TrapConstructionError",
    "estimate_overshoot_cdf",
    "build_transient_trap",
    "lattice_counterexample",
    "verify_counterexample",
    "dkw_halfwidth",
]

# Overshoot sampling folds jumps below a cutoff eps into their mean drift
# (Asmussen & Rosinski 2001).  By P(O > u) = E int_0^tau tail_eps(level - X_t + u) dt
# the jump tail that sets the overshoot law is exact while the distance left
# to the level is at least eps; the approximation then only touches the
# occupation law below the level.  So the cutoff follows the distance left:
# a far stage at COARSE_CUTOFF_FRACTION * r up to SWITCH_MARGIN * r below the
# level, then a ladder of stages, each shrinking the distance left by
# LADDER_FACTOR with cutoff COARSE_CUTOFF_FRACTION times the distance left at
# its stop, down to FINE_CUTOFF_FRACTION * r (the sampler's floor) for the
# final approach, so the overshoot law is exact at and above the floor.
# Crossings via the drift are recorded as mass at 0+ (the conservative
# direction) and stay rare at the floor.  Each stage advances a whole chunk
# of paths as the rows of 2-D draws; paths drop out as they cross.
COARSE_CUTOFF_FRACTION = 1e-4
FINE_CUTOFF_FRACTION = 1e-8
SWITCH_MARGIN = 1.1          # times the max jump size r
LADDER_FACTOR = 10.0
OVERSHOOT_CELLS = 1 << 16    # most (gap, size) pairs per stage draw of a chunk
OVERSHOOT_MIN_CELLS = 1 << 10  # least: about what one draw's fixed cost buys

DKW_CONFIDENCE = 0.99

# Lattice sine pass rule: f vanishes on the lattice to LATTICE_ZERO_TOL and
# no simulated perpetual integral exceeds LATTICE_INTEGRAL_TOL_PER_TIME * horizon.
LATTICE_ZERO_TOL = 1e-12
LATTICE_INTEGRAL_TOL_PER_TIME = 1e-9


class TrapConstructionError(RuntimeError):
    """The overshoot table cannot certify the bump bounds to the requested depth."""


def dkw_halfwidth(n: int, confidence: float = DKW_CONFIDENCE) -> float:
    """Uniform empirical-CDF confidence band half-width at the given level."""
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))


@dataclass
class OvershootTable:
    """Empirical first-passage overshoot CDFs at increasing levels.

    ``cdfs[i, j]`` estimates P(overshoot over levels[i] <= eps_grid[j]), and
    ``limit_cdf[j]`` is the exact stationary overshoot law there, the rows'
    limit as the level grows.  ``limit_gap`` records the sup-distance between
    the two largest levels as a convergence diagnostic.  The rows share one
    set of paths, each climbing through every level, so each row has its own
    law and DKW band but the rows are not independent: ``limit_gap`` and the
    choice of x_n compare rows of the same paths.
    """

    levels: np.ndarray
    eps_grid: np.ndarray
    cdfs: np.ndarray
    paths_per_level: int
    creep_fraction: np.ndarray       # crossings via the compensation drift
    limit_cdf: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.levels) <= 0):
            raise ValueError("levels must be strictly increasing")
        if np.any(np.diff(self.eps_grid) <= 0):
            raise ValueError("eps grid must be strictly increasing")
        if (self.cdfs.shape != (len(self.levels), len(self.eps_grid))
                or self.limit_cdf.shape != self.eps_grid.shape):
            raise ValueError("cdf table shape mismatch")
        if np.any(self.cdfs < 0) or np.any(self.cdfs > 1) or np.any(np.diff(self.cdfs, axis=1) < 0):
            raise ValueError("each CDF row must be nondecreasing within [0, 1]")

    @property
    def limit_gap(self) -> float:
        if len(self.levels) < 2:
            return math.nan
        return float(np.abs(self.cdfs[-1] - self.cdfs[-2]).max())


def _cutoff_ladder(r: float, level: float) -> list[tuple[float, float]]:
    """(cutoff, stop) stages of the overshoot sampler, far stage first.

    Every stage but the last stops below the level by at least its cutoff;
    the last runs at the floor FINE_CUTOFF_FRACTION * r up to the level.
    """
    floor = FINE_CUTOFF_FRACTION * r
    stages = [(COARSE_CUTOFF_FRACTION * r, level - SWITCH_MARGIN * r)]
    d = SWITCH_MARGIN * r / LADDER_FACTOR
    while COARSE_CUTOFF_FRACTION * d > floor:
        stages.append((COARSE_CUTOFF_FRACTION * d, level - d))
        d /= LADDER_FACTOR
    stages.append((floor, level))
    return stages


def _overshoot_chunk(model: LevyModel, levels: np.ndarray, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Overshoots of ``n`` compensated-jump skeletons over every level, one row
    per level of the sorted ``levels``.

    Each path climbs once: it runs the stages of :func:`_cutoff_ladder` for each
    level in increasing order from where it landed over the one before, a fresh
    start by the strong Markov property, so every row keeps its own law.  0.0
    marks a crossing via the drift.  A stage reads its jump law through
    :func:`models._jump_law` at its cutoff; the paths at or below its stop
    draw rows of (gap, size) pairs: the live rows' own expected jump counts
    to the stop in all, clipped to [OVERSHOOT_MIN_CELLS, OVERSHOOT_CELLS] cells
    and split evenly.  A row's first position past the stop decides it: the path
    goes to the stop if the drift segment before that jump crossed first (a
    crossing only when the stop is the level), else to where the jump lands.
    Rows not yet past the stop draw again; a path already past a stop skips its
    stage, and one that landed above a level reads that as its overshoot.
    """
    pos = np.zeros(n)
    over = np.empty((len(levels), n))
    for level, row in zip(levels, over):
        for eps, stop in _cutoff_ladder(model.jumps.cutoff, level):
            rate, draw, drift = _jump_law(model, eps)
            live = np.flatnonzero(pos <= stop)
            while len(live):
                cells = rate * (stop - pos[live]).sum() / model.mean   # all rows' jumps left
                shape = (len(live), int(np.clip(cells, OVERSHOOT_MIN_CELLS, OVERSHOOT_CELLS)) // len(live))
                positions = rng.exponential(1.0 / rate, size=shape)   # gaps, then steps, in place
                sizes = draw(rng, positions.size).reshape(shape)
                positions *= drift
                positions += sizes
                np.cumsum(positions, axis=1, out=positions)
                positions += pos[live, None]
                crossed = positions > stop
                k = crossed.argmax(axis=1)
                hit = crossed[np.arange(len(live)), k]
                rows, k = np.flatnonzero(hit), k[hit]
                landed = positions[rows, k]
                pos[live[hit]] = np.where(landed - sizes[rows, k] > stop, stop, landed)
                live = live[~hit]
                pos[live] = positions[~hit, -1]
        # a path above the level cleared it by a jump; one at the level crept over
        np.subtract(pos, level, out=row)
    return over


def estimate_overshoot_cdf(
    model: LevyModel,
    levels: Sequence[float],
    paths: int,
    seed: int,
    threads: int = 1,
) -> OvershootTable:
    """Tabulate empirical overshoot CDFs of a subordinator at several levels.

    The model must be a driftless truncated stable subordinator (infinite
    activity, jumps bounded by the truncation level r); atomic jump laws
    make the overshoot distribution lattice-degenerate and useless for trap
    construction.  The CDFs, and the exact stationary law ``limit_cdf``, are
    tabulated on the grid ``geomspace(1e-9, r, 181)``.  Crossings via the
    small-jump compensation drift are counted as overshoot mass at 0+
    (conservative for small-overshoot bounds) and reported.

    Each chunk of ``rng.DEFAULT_CHUNK`` paths draws from one stream,
    ``derive_rng(seed, STREAM_OVERSHOOT, chunk_start)``, and every path climbs
    once through all the levels (:func:`_overshoot_chunk`), so the rows share
    their paths.  The chunks share one ``threads`` pool and their integer
    counts are added in chunk order, so the table is the same bytes for any
    ``threads``.  Repeated levels are refused before any draw, as are an
    empty level list and a ``paths`` or ``seed`` that is not an integer.
    """
    jumps = model.jumps
    if not isinstance(jumps, TruncatedStable) or model.drift != 0.0 or model.gaussian_var != 0.0:
        raise ValueError("overshoot tables need a driftless truncated stable subordinator")
    _rng._check_count(paths, "paths")
    _rng._check_count(seed, "seed", 0)
    levels = np.asarray(sorted(float(v) for v in levels))
    if len(levels) == 0 or not np.all(np.isfinite(levels) & (levels > 0)):
        raise ValueError(f"levels must be nonempty, positive and finite, got {levels.tolist()}")
    if np.any(np.diff(levels) == 0):
        raise ValueError(f"levels must be distinct, got {levels.tolist()}")
    eps_grid = np.geomspace(1e-9, jumps.cutoff, 181)

    def worker(a, b):        # (level, eps) counts, then each level's creep count
        over = _overshoot_chunk(model, levels, b - a,
                                _rng.derive_rng(seed, _rng.STREAM_OVERSHOOT, a))
        return np.column_stack((np.count_nonzero(over[:, :, None] <= eps_grid, axis=1),
                                np.count_nonzero(over == 0.0, axis=1)))
    counts = np.sum(_rng.map_chunks(paths, worker, threads=threads), axis=0) / paths

    meta = {"model": describe(model), "paths_per_level": paths, "master_seed": seed,
            "coarse_cutoff_fraction": COARSE_CUTOFF_FRACTION,
            "fine_cutoff_fraction": FINE_CUTOFF_FRACTION,
            "ladder_factor": LADDER_FACTOR,
            # overshoots below the floor are not resolved
            "cutoff_floor": FINE_CUTOFF_FRACTION * jumps.cutoff}
    return OvershootTable(levels=levels, eps_grid=eps_grid, cdfs=counts[:, :-1],
                          paths_per_level=paths, creep_fraction=counts[:, -1],
                          limit_cdf=jumps.overshoot_limit_cdf(eps_grid), meta=meta)


@dataclass
class TrapConstruction:
    """Certified placement of narrow bumps where the process rarely lands.

    Bump n (1-based) sits on (alpha_n, beta_n) with width eps_n and unit
    mass.  The recursion is alpha_1 = x_1, beta_n = alpha_n + eps_n,
    alpha_{n+1} = alpha_n + 1 + x_{n+1}; the certificate records, per n, the
    empirical overshoot bounds backing the 1/(2 n^2) visit cap.
    """

    x_levels: np.ndarray
    eps: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    f: TestFunction
    trap_set: RegionSpec             # the union of bump intervals (= complement of E)
    certificate: list[dict]
    safety: float
    tail_bound: float                # sum over unbuilt depths of 2/n^2
    meta: dict

    @property
    def n_max(self) -> int:
        return len(self.alpha)

    @property
    def certified_visit_bound(self) -> float:
        return float(sum(c["certified_cap"] for c in self.certificate))

    def complement_region(self) -> RegionSpec:
        """The region E on which f vanishes (everything off the bumps)."""
        return RegionSpec(intervals=[(a, b) for a, b in zip(self.alpha, self.beta)],
                          describes_complement=True, name="off_trap")

    def to_dict(self) -> dict:
        return {
            "x_levels": [float(v) for v in self.x_levels],
            "eps": [float(v) for v in self.eps],
            "alpha": [float(v) for v in self.alpha],
            "beta": [float(v) for v in self.beta],
            "safety": self.safety,
            "tail_bound": self.tail_bound,
            "certified_visit_bound": self.certified_visit_bound,
            "certificate": self.certificate,
            "meta": self.meta,
        }


def build_transient_trap(table: OvershootTable, n_max: int, safety: float = 2.0) -> TrapConstruction:
    """Select (eps_n, x_n) from the overshoot table and assemble the trap.

    eps_n is the largest grid value below eps_{n-1} where the exact law
    ``table.limit_cdf`` is at most 1 / (2 * safety * n^2), whatever the draws;
    x_n is the smallest level, at least x_{n-1}, whose Monte Carlo CDF at
    eps_n is within the safety factor of the law there.  The per-n certified
    visit cap is the design target 1 / (2 n^2) — independent of the safety
    factor, so a larger safety factor can only tighten, never loosen, the
    certificate.  Empirical margins and the 99% uniform CDF band are
    recorded per n so the reader can see where raw statistical confidence
    runs out.  A depth where no grid value certifies the law is refused, as
    is an eps_n below the sampler's resolution floor
    (``table.meta["cutoff_floor"]``; a table without one counts as exact);
    each entry records eps_n over that floor.
    """
    n_max = _rng._check_count(n_max, "n_max")
    if not 1.0 <= safety < math.inf:
        raise ValueError(f"safety factor must be finite and >= 1, got {safety}")
    limit = table.limit_cdf
    floor = table.meta.get("cutoff_floor", 0.0)
    cert, prev_eps, prev_x = [], math.inf, -math.inf
    band = dkw_halfwidth(table.paths_per_level)
    for n in range(1, n_max + 1):
        threshold = 1.0 / (2.0 * safety * n * n)
        ok = np.nonzero((limit <= threshold) & (table.eps_grid < prev_eps))[0]
        if len(ok) == 0:
            raise TrapConstructionError(
                f"no grid value certifies the limit bound at depth n={n} "
                f"(threshold {threshold:.3g}); refine the eps grid or add paths")
        gi = int(ok[-1])
        eps_n = float(table.eps_grid[gi])
        if eps_n < floor:
            raise TrapConstructionError(
                f"the certified eps {eps_n:.3g} at depth n={n} is below the overshoot "
                f"sampler's resolution floor {floor:.3g}")
        lim_val = float(limit[gi])

        lvl_ok = np.nonzero((table.cdfs[:, gi] <= safety * lim_val + 1e-15)
                            & (table.levels >= prev_x))[0]
        if len(lvl_ok) == 0:
            raise TrapConstructionError(
                f"no tabulated level matches the limit law within the safety factor "
                f"at depth n={n}; extend the level list")
        li = int(lvl_ok[0])
        x_n = float(table.levels[li])
        lvl_val = float(table.cdfs[li, gi])

        prev_eps, prev_x = eps_n, x_n
        cert.append({
            "n": n,
            "eps": eps_n,
            "x": x_n,
            "limit_cdf": lim_val,
            "level_cdf": lvl_val,
            "empirical_margin": float(safety * lim_val),
            "certified_cap": 1.0 / (2.0 * n * n),
            "dkw99_adjusted_level_cdf": float(lvl_val + band),
            "eps_over_floor": eps_n / floor if floor > 0 else math.inf,
        })

    x_arr = np.array([c["x"] for c in cert])
    eps_arr = np.array([c["eps"] for c in cert])
    alpha = np.empty(n_max)
    alpha[0] = x_arr[0]
    for n in range(1, n_max):
        alpha[n] = alpha[n - 1] + 1.0 + x_arr[n]
    beta = alpha + eps_arr

    # f lives exactly on the trap set: both come from (alpha, beta = alpha + eps)
    f = triangle_train(alpha, eps_arr, name=f"trap_bumps_{n_max}")
    trap_set = RegionSpec(intervals=[(a, b) for a, b in zip(alpha, beta)], name="trap")
    # tail beyond the materialized depth, with the visit check's per-n bound 2/n^2
    tail = float(np.cumsum(2.0 / np.arange(n_max + 1, 100_000) ** 2)[-1])   # summed in order
    meta = {**table.meta, "n_max": n_max, "safety": safety,
            "dkw99_band": band, "limit_gap": table.limit_gap}
    return TrapConstruction(x_levels=x_arr, eps=eps_arr, alpha=alpha, beta=beta,
                            f=f, trap_set=trap_set, certificate=cert, safety=safety,
                            tail_bound=tail, meta=meta)


@dataclass
class LatticeSineReport:
    """Divergent tail integral, identically zero perpetual integral."""

    span: float
    max_abs_on_lattice: float
    dk_verdict: str
    dk_value: float
    max_integral: float
    horizon: float
    paths: int
    mismatch_required: bool
    passed: bool
    meta: dict

    def to_dict(self) -> dict:
        return asdict(self)


def lattice_counterexample(
    model: LevyModel,
    paths: int,
    horizon: float,
    seed: int,
) -> LatticeSineReport:
    """Shifted-sine integrand on a lattice model: the required mismatch.

    Asserts f vanishes on the lattice to machine precision, that the tail
    Lebesgue test diverges, and that simulated perpetual integrals stay at
    zero.  The report flags the tail-test/pathwise mismatch as *required*:
    this is the documented failure mode of tail-only criteria on lattice
    models.
    """
    if model.lattice_span is None:
        raise ValueError("lattice counterexample needs a lattice model")
    alpha = model.lattice_span
    f = lattice_sine(alpha)
    sites = alpha * np.arange(0, 200)
    max_on_lattice = float(np.abs(f(sites)).max())
    dk = dk_test(f, 0.0)
    worst = float(np.abs(_integral_samples(f, model, [0.0], horizon, paths, seed)).max())
    passed = (max_on_lattice <= LATTICE_ZERO_TOL
              and dk.verdict == "infinite"
              and worst <= LATTICE_INTEGRAL_TOL_PER_TIME * horizon)
    return LatticeSineReport(
        span=alpha, max_abs_on_lattice=max_on_lattice, dk_verdict=dk.verdict,
        dk_value=dk.value, max_integral=worst, horizon=horizon, paths=paths,
        mismatch_required=True, passed=bool(passed),
        meta={"model": describe(model), "master_seed": seed, "f": f.name})


@dataclass
class TrapVerification:
    """Four-way verification of a built trap against fresh simulation."""

    visit_fraction: float
    visit_bound: float
    visit_stderr: float
    visit_ok: bool
    diagnosis_outcome: str
    diagnosis_ok: bool
    potential_integral_value: float
    potential_ok: bool
    dk_verdict: str
    dk_ok: bool
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return asdict(self)


def verify_counterexample(
    model: LevyModel,
    trap: TrapConstruction,
    paths: int,
    seed: int,
    horizon: Optional[float] = None,
    threads: int = 1,
    small_jump_cutoff: Optional[float] = None,
) -> TrapVerification:
    """Check the built trap against fresh paths.

    (i) the fraction of paths entering any bump interval is at most the sum
    of 2/n^2 over the built depths n, four times the sum of their certified
    caps 1/(2 n^2), plus 3 standard errors; (ii) the horizon ladder
    diagnosis of the bump integrand is finite; (iii) the potential
    integral restricted to the off-trap region is exactly zero; (iv) the
    tail Lebesgue test on the bump train diverges.

    Visit counting is conservative: a path counts as visiting when it meets
    the closure of a bump interval under :meth:`RegionSpec.last_visit`, by a
    landing or by a linear sweep (the compensated small-jump line cannot
    distinguish sweeping from landing).  A finer ``small_jump_cutoff``
    shrinks the compensation drift and with it the rate of spurious drift
    sweeps through bumps much narrower than the default cutoff.
    """
    beta_top = float(trap.beta[-1])
    if horizon is None:
        mean = model.mean
        if not (math.isfinite(mean) and mean > 0):
            raise ValueError("pass horizon explicitly for models without finite positive mean")
        horizon = 1.5 * (beta_top + 10.0) / mean
    # the bumps' live intervals are the trap set, and both end at beta_top:
    # the ladder rows and the visit rule read one segment index per block
    # and nothing above beta_top
    diagnosis, met = _ladder_verdict(
        trap.f, model, 0.0, [horizon / 4.0, horizon / 2.0, horizon], paths, seed, None, threads,
        small_jump_cutoff=small_jump_cutoff, visits=trap.trap_set)
    p_visit = np.count_nonzero(met) / paths
    se = float(binomial_stderr(p_visit, paths))
    bound = float(sum(2.0 / (n * n) for n in range(1, trap.n_max + 1)))
    visit_ok = p_visit <= bound + 3.0 * se
    diagnosis_ok = diagnosis.outcome == "finite"

    # Far-bin truncation is irrelevant here: f lives on the bumps, all below
    # beta_top, and the check is an exact zero on the complement region.  The
    # warnings this raises (the horizon heuristic) are kept in the details.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pm = estimate_potential(model, np.linspace(0.0, beta_top + 5.0, 257),
                                paths=200, seed=seed + 1, horizon=horizon)
    pot = potential_integral(trap.f, pm, trap.complement_region())
    potential_ok = pot.details["partial_value"] == 0.0

    dk = dk_test(trap.f, 0.0)
    dk_ok = dk.verdict == "infinite"

    passed = bool(visit_ok and diagnosis_ok and potential_ok and dk_ok)
    ev = diagnosis.evidence
    details = {
        "horizon": float(horizon),
        "paths": paths,
        "rungs": ev["rungs"],
        "medians": ev["medians"],
        "means": ev["means"],
        "censored_fraction_last": ev["censored_fraction"][-1],
        "median_growth": ev["median_growth_last"],
        "model": describe(model),
        "master_seed": seed,
        "small_jump_cutoff": small_jump_cutoff,
        "visit_counting": "conservative (landings plus drift-segment sweeps)",
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }
    return TrapVerification(
        visit_fraction=float(p_visit), visit_bound=bound, visit_stderr=float(se),
        visit_ok=bool(visit_ok), diagnosis_outcome=diagnosis.outcome, diagnosis_ok=bool(diagnosis_ok),
        potential_integral_value=float(pot.details["partial_value"]), potential_ok=bool(potential_ok),
        dk_verdict=dk.verdict, dk_ok=bool(dk_ok), passed=passed, details=details)
