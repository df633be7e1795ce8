"""One-dimensional Levy models that drift to +infinity, and path simulation.

The model zoo is deliberately small: pure drift, drifted Brownian motion,
compound Poisson (optionally supported on a lattice), and a truncated
stable subordinator.  A model is accepted only when transience to +infinity
is certifiable, i.e. the mean of the unit-time increment is positive
(possibly +infinity) or the process is a nonzero subordinator.

Paths are returned as skeletons.  Jump-driven models are represented
exactly: piecewise linear between jump times, with ``linear_rate`` holding
the deterministic slope (drift plus, for the truncated stable subordinator,
the mean compensation of the discarded small jumps).  Models with a
Gaussian part are sampled on a time grid and flagged ``exact=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Union

import numpy as np

from .rng import DEFAULT_CHUNK, STREAM_PATH, _check_threads, derive_rng, map_chunks

__all__ = [
    "ModelRejectionError",
    "CompoundPoisson",
    "TruncatedStable",
    "LevyModel",
    "PathBlock",
    "PathSample",
    "build_model",
    "describe",
    "simulate_path",
    "reduce_paths",
]

# Default internal cutoff for the truncated stable subordinator, as a
# fraction of the truncation level r: jumps below ``SMALL_JUMP_FRACTION * r``
# are folded into an equivalent linear drift.
SMALL_JUMP_FRACTION = 1e-4

# Expected segments per simulated block in ``reduce_paths``: light paths are
# drawn this many segments at a time, as the rows of one stream.
BLOCK_SEGMENTS = 2**14

# Arrival gaps drawn per stage of ``_jump_rows``, split evenly among its k
# rows; each stage is followed by the jump sizes of its arrivals.
JUMP_BLOCK = 2**12

_ATOL = 1e-9


class ModelRejectionError(ValueError):
    """Raised when a model cannot be certified to drift to +infinity or
    violates a structural constraint (e.g. lattice with a Gaussian part)."""


@dataclass(frozen=True)
class CompoundPoisson:
    """Compound Poisson jump component.

    Parameters
    ----------
    rate : float
        Jump intensity per unit time, > 0.
    atoms : tuple of (value, probability), optional
        Discrete jump law.  Probabilities must sum to 1.
    law : tuple, optional
        Named continuous jump law, one of ``("exponential", scale)``,
        ``("uniform", lo, hi)`` or ``("pareto", xm, tail_index)``.
        A Pareto tail index <= 1 gives an infinite-mean jump law.
    """

    rate: float
    atoms: Optional[tuple[tuple[float, float], ...]] = None
    law: Optional[tuple] = None

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ModelRejectionError(f"compound Poisson rate must be finite and > 0, got {self.rate}")
        if (self.atoms is None) == (self.law is None):
            raise ModelRejectionError("exactly one of atoms/law must be given")
        if self.atoms is not None:
            atoms = tuple((float(v), float(p)) for v, p in self.atoms)
            if not atoms:
                raise ModelRejectionError("atom list is empty")
            probs = np.array([p for _, p in atoms])
            vals = np.array([v for v, _ in atoms])
            if not (np.all(probs > 0) and abs(probs.sum() - 1.0) <= 1e-9):   # NaN too
                raise ModelRejectionError("atom probabilities must be positive and sum to 1")
            if not np.all(np.isfinite(vals)):
                raise ModelRejectionError("atom values must be finite")
            object.__setattr__(self, "atoms", atoms)
        else:
            name = self.law[0]
            if name == "exponential":
                (scale,) = map(float, self.law[1:])
                if not 0 < scale < math.inf:
                    raise ModelRejectionError(f"exponential scale must be finite and > 0, got {scale}")
                object.__setattr__(self, "law", ("exponential", scale))
            elif name == "uniform":
                lo, hi = map(float, self.law[1:])
                for key, v in (("lo", lo), ("hi", hi)):
                    if not math.isfinite(v):
                        raise ModelRejectionError(f"uniform {key} must be finite, got {v}")
                if not lo < hi:
                    raise ModelRejectionError("uniform law requires lo < hi")
                object.__setattr__(self, "law", ("uniform", lo, hi))
            elif name == "pareto":
                xm, a = map(float, self.law[1:])
                for key, v in (("xm", xm), ("tail index", a)):
                    if not 0 < v < math.inf:
                        raise ModelRejectionError(f"pareto {key} must be finite and > 0, got {v}")
                object.__setattr__(self, "law", ("pareto", xm, a))
            else:
                raise ModelRejectionError(f"unknown jump law {name!r}")

    @property
    def jump_mean(self) -> float:
        if self.atoms is not None:
            return float(sum(v * p for v, p in self.atoms))
        name = self.law[0]
        if name == "exponential":
            return self.law[1]
        if name == "uniform":
            return 0.5 * (self.law[1] + self.law[2])
        # pareto
        xm, a = self.law[1], self.law[2]
        return math.inf if a <= 1 else xm * a / (a - 1.0)

    @property
    def nonnegative(self) -> bool:
        if self.atoms is not None:
            return all(v >= 0 for v, _ in self.atoms)
        name = self.law[0]
        if name == "uniform":
            return self.law[1] >= 0
        return True  # exponential and pareto are supported on (0, inf)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n == 0:
            return np.empty(0)
        if self.atoms is not None:
            if len(self.atoms) == 1:   # one value: nothing to draw
                return np.full(n, self.atoms[0][0])
            vals = np.array([v for v, _ in self.atoms])
            probs = np.array([p for _, p in self.atoms])
            return rng.choice(vals, size=n, p=probs)
        name = self.law[0]
        if name == "exponential":
            return rng.exponential(self.law[1], size=n)
        if name == "uniform":
            return rng.uniform(self.law[1], self.law[2], size=n)
        xm, a = self.law[1], self.law[2]
        # inverse-transform Pareto: xm * U^{-1/a}
        return xm * rng.random(n) ** (-1.0 / a)


@dataclass(frozen=True)
class TruncatedStable:
    """Stable-like subordinator jumps with density ``c x^{-1-rho}`` on (0, r].

    Infinite activity for every rho in (0, 1); the truncation at r keeps the
    mean finite: ``c r^{1-rho} / (1-rho)``.
    """

    activity: float      # c > 0
    index: float         # rho in (0, 1)
    cutoff: float        # r in (0, 1]

    def __post_init__(self):
        if not (self.activity > 0 and math.isfinite(self.activity)):
            raise ModelRejectionError("activity must be finite and > 0")
        if not (0.0 < self.index < 1.0):
            raise ModelRejectionError("stability index must lie in (0, 1)")
        if not (0.0 < self.cutoff <= 1.0):
            raise ModelRejectionError("truncation level must lie in (0, 1]")

    @property
    def jump_part_mean(self) -> float:
        c, rho, r = self.activity, self.index, self.cutoff
        return c * r ** (1.0 - rho) / (1.0 - rho)

    def tail_mass(self, eps: float) -> float:
        """Levy measure of (eps, r]: rate of jumps retained above eps."""
        c, rho, r = self.activity, self.index, self.cutoff
        return c * (eps ** -rho - r ** -rho) / rho

    def small_jump_drift(self, eps: float) -> float:
        """Mean motion per unit time carried by jumps below eps."""
        c, rho = self.activity, self.index
        return c * eps ** (1.0 - rho) / (1.0 - rho)

    def sample_jumps(self, rng: np.random.Generator, n: int, eps: float) -> np.ndarray:
        """Inverse-transform draws from the normalized jump law on (eps, r]."""
        if n == 0:
            return np.empty(0)
        rho, r = self.index, self.cutoff
        a = eps ** -rho
        b = r ** -rho
        u = rng.random(n)
        u *= a - b                       # (a - u (a - b)) ** (-1 / rho), in place
        np.subtract(a, u, out=u)
        return np.power(u, -1.0 / rho, out=u)


JumpSpec = Union[CompoundPoisson, TruncatedStable, None]


@dataclass(frozen=True)
class LevyModel:
    """Validated Levy model.  Construct through :func:`build_model`."""

    drift: float
    gaussian_var: float
    jumps: JumpSpec
    lattice_span: Optional[float]
    mean: float  # E[xi_1]; +inf allowed

    @property
    def is_subordinator(self) -> bool:
        if self.drift < 0 or self.gaussian_var > 0:
            return False
        if self.jumps is None:
            return self.drift > 0
        if isinstance(self.jumps, TruncatedStable):
            return True
        return self.jumps.nonnegative


def build_model(
    drift: float = 0.0,
    gaussian_var: float = 0.0,
    jumps: JumpSpec = None,
    lattice_span: Optional[float] = None,
) -> LevyModel:
    """Validate parameters and certify transience to +infinity.

    Raises
    ------
    ModelRejectionError
        If ``gaussian_var < 0``, the lattice constraints fail, or neither
        ``mean > 0`` (finite or +inf) nor the nonzero-subordinator condition
        can certify drift to +infinity.
    """
    drift = float(drift)
    gaussian_var = float(gaussian_var)
    if not math.isfinite(drift):
        raise ModelRejectionError("drift must be finite")
    if not (gaussian_var >= 0 and math.isfinite(gaussian_var)):
        raise ModelRejectionError("gaussian_var must be finite and >= 0")

    if lattice_span is not None:
        alpha = float(lattice_span)
        if not 0 < alpha < math.inf:
            raise ModelRejectionError(f"lattice span must be finite and > 0, got {alpha}")
        if gaussian_var != 0.0 or drift != 0.0:
            raise ModelRejectionError("lattice models require zero drift and zero Gaussian part")
        if not isinstance(jumps, CompoundPoisson) or jumps.atoms is None:
            raise ModelRejectionError("lattice models require compound Poisson jumps with discrete atoms")
        for v, _ in jumps.atoms:
            if abs(v / alpha - round(v / alpha)) > _ATOL:
                raise ModelRejectionError(f"atom {v} is not an integer multiple of the lattice span {alpha}")
        lattice_span = alpha

    mean = drift
    if isinstance(jumps, CompoundPoisson):
        jm = jumps.jump_mean
        mean = math.inf if jm == math.inf else mean + jumps.rate * jm
    elif isinstance(jumps, TruncatedStable):
        mean = mean + jumps.jump_part_mean

    model = LevyModel(drift=drift, gaussian_var=gaussian_var, jumps=jumps,
                      lattice_span=lattice_span, mean=mean)
    nonzero_subordinator = model.is_subordinator and (drift > 0 or jumps is not None)
    if not (mean > 0 or nonzero_subordinator):
        raise ModelRejectionError(
            f"cannot certify drift to +infinity: mean {mean} is not positive "
            "and the model is not a nonzero subordinator")
    return model


def describe(model: LevyModel) -> str:
    """Compact model identifier embedded in artifact metadata."""
    parts = [f"drift={model.drift:g}", f"gvar={model.gaussian_var:g}"]
    j = model.jumps
    if isinstance(j, CompoundPoisson):
        if j.atoms is not None:
            atoms = ",".join(f"{v:g}:{p:g}" for v, p in j.atoms)
            parts.append(f"cpp(rate={j.rate:g};atoms={atoms})")
        else:
            parts.append(f"cpp(rate={j.rate:g};law={j.law[0]}{j.law[1:]})")
    elif isinstance(j, TruncatedStable):
        parts.append(f"tstable(c={j.activity:g},rho={j.index:g},r={j.cutoff:g})")
    else:
        parts.append("nojumps")
    if model.lattice_span is not None:
        parts.append(f"lattice={model.lattice_span:g}")
    return "|".join(parts)


@dataclass
class PathBlock:
    """k paths on [0, horizon], each started at (0, 0), as flat per-segment arrays.

    The segments of piece c are ``starts[c]:starts[c + 1]``, in time order.
    Segment s runs from the piece-local time ``t0[s]`` to ``t1[s]`` and
    starts at the piece-local value ``v0[s]``.  On an exact path the value
    then moves at ``linear_rate``; on a grid skeleton it is ``v1[s]`` at the
    end of the cell.  ``end[c]`` is the value of piece c at the horizon.
    Durations are ``t1 - t0``, taken where they are needed, so a path's
    one-piece block is views of its own arrays.  ``nondecreasing`` is carried
    from where the paths are drawn (a subordinator's, in
    :func:`simulate_path`), never guessed from the values: such a block is
    exact, with ``linear_rate >= 0`` and values that never fall within a
    piece.

    This is the unit every layer function works on (``occupation_histogram``,
    ``integral_at_times``, ``integral_along_path``, ``RegionSpec.last_visit``):
    one vectorised pass over the flat arrays gives one row per piece.  A
    :class:`PathSample` is the one-piece case.  A block of light jump paths
    holds the k rows of one stream (:func:`_jump_paths`); a block of grid
    skeletons, k paths drawn from k streams (:func:`_simulate_grid`).  The
    checks a path gets run here, once per block: every piece starts at
    (0, 0), its times strictly increase, and it ends at the horizon.
    """

    starts: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    v0: np.ndarray
    end: np.ndarray
    exact: bool
    horizon: float
    linear_rate: float = 0.0
    v1: Optional[np.ndarray] = None
    nondecreasing: bool = False
    _sweep_memo: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _groups: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        first, last = self.starts[:-1], self.starts[1:] - 1
        if self.t0[first].any() or self.v0[first].any():
            raise ValueError("paths start at (t, x) = (0, 0)")
        if (self.t1 <= self.t0).any():
            raise ValueError("times must be strictly increasing")
        if (abs(self.t1[last] - self.horizon) > 1e-9 * max(1.0, self.horizon)).any():
            raise ValueError("last sample time must equal the horizon")
        if self.nondecreasing and not (self.exact and self.linear_rate >= 0):
            raise ValueError("a nondecreasing path is exact with linear_rate >= 0")

    def __len__(self) -> int:
        return len(self.starts) - 1

    @property
    def piece(self) -> np.ndarray:
        """Piece id of every segment."""
        return np.repeat(np.arange(len(self)), np.diff(self.starts))

    def pieces(self) -> list["PathSample"]:
        """Each piece as a :class:`PathSample`, read from the block's arrays."""
        return [PathSample(np.append(self.t0[a:b], self.t1[b - 1]), np.append(self.v0[a:b], end),
                           exact=self.exact, horizon=self.horizon, linear_rate=self.linear_rate,
                           nondecreasing=self.nondecreasing)
                for a, b, end in zip(self.starts[:-1], self.starts[1:], self.end)]

    def _search_pieces(self, keys: np.ndarray, queries: np.ndarray, side: str) -> np.ndarray:
        """(k, len(queries)) ``searchsorted`` of ``queries`` into each piece's
        own run of the per-segment ``keys`` (sorted within each piece), as
        flat indices: one search of the pairs (c, query) into the (piece, key)
        pairs, held as complex numbers.  numpy orders those by real part, the
        piece, then by imaginary part, so each piece is searched exactly.
        """
        k = len(self)
        if k == 1:     # c = 0: the keys themselves, with no O(segments) copy
            return np.searchsorted(keys, queries[None, :], side=side)
        pairs = np.empty(len(keys), complex)
        pairs.real, pairs.imag = self.piece, keys
        at = np.empty((k, len(queries)), complex)
        at.real, at.imag = np.arange(k)[:, None], queries
        return np.searchsorted(pairs, at, side=side)

    def _segments_at(self, at: np.ndarray) -> np.ndarray:
        """(k, len(at)) index of the last segment of each piece that starts at
        or before each time (the last segment for a time at the horizon)."""
        return self._search_pieces(self.t0, at, "right") - 1

    def _passage_times(self, levels: np.ndarray) -> np.ndarray:
        """(k, len(levels)) first time each piece of a nondecreasing block is
        at or above each of the increasing ``levels``, or its end time if it
        never is: min(tau_y, horizon).

        The segment starts ``v0`` never fall within a piece, so one search of
        the levels into them finds j, the first segment that starts at or
        above y (side "left": a value on a level is at it, the cadlag
        convention).  With r = 0 the path sits at v0 over each segment, so
        tau_y is where segment j starts, ``t1[j - 1]``.  With r > 0 the path
        may reach y sweeping up through segment j - 1, so tau_y is the time
        it meets y there, capped at that segment's end.
        """
        j = self._search_pieces(self.v0, levels, "left")
        first = self.starts[:-1, None]
        r = self.linear_rate
        if r == 0.0:
            return np.where(j > first, self.t1[j - 1], 0.0)
        p = np.maximum(j - 1, first)       # j == first: v0 = 0 is at or above y
        tau = np.maximum(levels - self.v0[p], 0.0)
        tau /= r
        tau += self.t0[p]
        return np.minimum(tau, self.t1[p], out=tau)

    def _piece_sums(self, values: np.ndarray) -> np.ndarray:
        """``values[starts[c]:starts[c + 1]].sum()`` for every piece c.

        numpy sums a contiguous run pairwise, in an order set by its length,
        and sums each row of a 2-D array the same way.  So the pieces are
        grouped by segment count and each group is summed as the rows of one
        gathered array; a sequential ``add.reduceat`` would round differently.
        """
        if self._groups is None:
            counts = np.diff(self.starts)
            self._groups = [(rows, self.starts[rows][:, None] + np.arange(n))
                            for n in np.unique(counts)
                            for rows in [np.nonzero(counts == n)[0]]]
        out = np.empty(len(self))
        for rows, idx in self._groups:
            out[rows] = values[idx].sum(axis=1)
        return out

    def _sweep_index(self, x: float, intervals: np.ndarray) -> np.ndarray:
        """Sorted indices of the segments of ``x + path`` whose closed sweep
        range meets the closure of one of ``intervals``, a sorted (n, 2)
        array of intervals disjoint up to shared endpoints.

        Segment s sweeps [min(v_s, w_s), max(v_s, w_s)], with w_s = v_s +
        r * dt_s on an exact path and w_s = v1_s on a grid skeleton.  It
        meets an interval when some interval starts at or below the top of
        the range and not every such interval ends below its bottom: one
        ``searchsorted`` pair over the interval ends.  The last answer is
        kept, so the visit rule and the running integral asking about the
        same intervals on one block share one pass.
        """
        memo = self._sweep_memo
        if memo is not None and memo[0] == x and np.array_equal(memo[1], intervals):
            return memo[2]
        v0 = x + self.v0
        if self.exact:
            w = self.t1 - self.t0
            w *= self.linear_rate
            w += v0
            lo, hi = (v0, w) if self.linear_rate >= 0 else (w, v0)
        else:
            w = x + self.v1
            lo, hi = np.minimum(v0, w), np.maximum(v0, w)
        up_to = np.searchsorted(intervals[:, 0], hi, side="right")   # starting at or below the top
        below = np.searchsorted(intervals[:, 1], lo, side="left")    # ending below the bottom
        met = np.nonzero(up_to > below)[0]
        self._sweep_memo = (x, intervals, met)
        return met


@dataclass
class PathSample:
    """Skeleton of one simulated path started at 0.

    For ``exact=True`` the path is piecewise linear: between consecutive
    times the value moves at ``linear_rate`` and jumps land exactly at the
    listed times, so value changes other than the deterministic slope occur
    only at listed times.  For ``exact=False`` the values are a grid
    skeleton of a diffusion component and ``linear_rate`` is 0.  The path is
    checked, and read by the layer functions, as its one-piece
    :class:`PathBlock`; ``nondecreasing`` marks a subordinator's path, as
    there.
    """

    times: np.ndarray
    values: np.ndarray
    exact: bool
    horizon: float
    linear_rate: float = 0.0
    nondecreasing: bool = False
    _block: Optional[PathBlock] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        t, v = np.asarray(self.times, float), np.asarray(self.values, float)
        if t.shape != v.shape or t.ndim != 1 or len(t) < 2:
            raise ValueError("times/values must be equal-length 1-d arrays with >= 2 entries")
        self.times, self.values = t, v
        self._block = PathBlock(np.array([0, len(t) - 1]), t[:-1], t[1:], v[:-1], v[-1:],
                                exact=self.exact, horizon=self.horizon,
                                linear_rate=self.linear_rate,
                                v1=None if self.exact else v[1:],
                                nondecreasing=self.nondecreasing)


def _as_block(path: PathSample | PathBlock) -> PathBlock:
    """The block a layer function reads: a :class:`PathSample` is its one-piece block."""
    return path._block if isinstance(path, PathSample) else path


def _jump_cutoff(jumps: TruncatedStable, small_jump_cutoff: Optional[float]) -> float:
    eps = small_jump_cutoff if small_jump_cutoff is not None else SMALL_JUMP_FRACTION * jumps.cutoff
    if not (0 < eps < jumps.cutoff):
        raise ValueError("small_jump_cutoff must lie in (0, cutoff)")
    return eps


def _jump_rows(rng, lam, draw, horizon, k):
    """Arrival times of k Poisson streams of rate ``lam`` (the rows) and
    ``draw(n)`` jump sizes for them, as a generator of stages.

    A stage draws m = ``JUMP_BLOCK // k`` gaps for every row, row-major,
    carrying each row's time in, then the sizes of the arrivals up to the
    horizon, row-major, up to the last of them.  It yields the (k, m) times
    and sizes and each row's count n of those arrivals; the last stage is cut
    to the columns some row reads.  Every row is drawn in every stage, so a
    reader that stops early has drawn a prefix of the full stream, and what
    it kept of any row is the full block's, bit for bit.  With k = 1 this is
    the stream of one path, which :func:`simulate_path` and
    :func:`_simulate_grid` read a stage at a time, the row cut to its count.
    """
    m = max(1, JUMP_BLOCK // k)
    t, every = 0.0, np.full(k, m)
    while True:
        times = rng.exponential(1.0 / lam, size=(k, m))
        times[:, 0] += t
        np.cumsum(times, axis=1, out=times)
        t = times[:, -1]
        if t.max() <= horizon:
            yield times, every, draw(k * m).reshape(k, m)
            continue
        n = (times <= horizon).sum(axis=1)
        live = np.flatnonzero(n)
        drawn = live[-1] * m + n[live[-1]] if len(live) else 0
        sizes = np.concatenate([draw(drawn), np.zeros(k * m - drawn)]).reshape(k, m)
        w = max(n.max(), 1)     # the columns some row reads
        yield times[:, :w], n, sizes[:, :w]
        if t.min() > horizon:
            return


def _jump_law(model: LevyModel, rng, small_jump_cutoff: Optional[float]):
    """A jump model's arrival rate, ``draw(n)`` for n of its jump sizes from
    ``rng``, and the linear rate of its paths between arrivals: the drift,
    plus the mean of the small jumps a truncated stable subordinator drops."""
    jumps = model.jumps
    if isinstance(jumps, CompoundPoisson):
        return jumps.rate, partial(jumps.sample, rng), model.drift
    eps = _jump_cutoff(jumps, small_jump_cutoff)
    return (jumps.tail_mass(eps), partial(jumps.sample_jumps, rng, eps=eps),
            model.drift + jumps.small_jump_drift(eps))


def _jump_paths(model: LevyModel, horizon: float, rng, k: int,
                small_jump_cutoff: Optional[float] = None,
                ceiling: Optional[float] = None) -> PathBlock:
    """A block of k paths of a jump or drift model on [0, horizon], the rows
    of :func:`_jump_rows` drawn from ``rng``: row r is what
    :func:`simulate_path` draws for k = 1, with every scalar step done for
    all rows at once.  Given a ceiling, a subordinator's row keeps its
    arrivals up to its first sample above it, and no stage is drawn past the
    one where every row is past that sample or its horizon.
    """
    rate, stages = model.drift, ()
    if model.jumps is not None:
        lam, draw, rate = _jump_law(model, rng, small_jump_cutoff)
        stages = _jump_rows(rng, lam, draw, horizon, k)
    # per row: (0, 0), then its arrivals, of which it keeps the first count
    ts, vs, count, low = [np.zeros((k, 1))], [np.zeros((k, 1))], np.zeros(k, int), None
    total = 0.0
    for times, n, sizes in stages:
        sizes[:, 0] += total
        total = np.cumsum(sizes, axis=1, out=sizes)[:, -1]
        values = np.multiply(times, rate)
        values += sizes
        ts.append(times)
        vs.append(values)
        count += n
        if ceiling is not None and values[:, -1].max() > ceiling:
            # every earlier column is at or below the ceiling; a row whose
            # last column is past it, or past the horizon, is done
            low = sum(x.shape[1] for x in ts[:-1]) if low is None else low
            if ((values[:, -1] > ceiling) | (times[:, -1] > horizon)).all():
                break
    # a row's values never fall: it keeps its arrivals up to the first above
    # the ceiling (columns past its count are past the horizon, and no lower)
    t = np.concatenate(ts + [np.empty((k, 1))], axis=1)
    v = np.concatenate(vs + [np.empty((k, 1))], axis=1)
    if low is not None:
        np.minimum(count, (v[:, low:-1] <= ceiling).sum(axis=1) + low, out=count)
    # then the horizon, reached along the slope, unless a jump landed on it
    rows = np.arange(k)
    last_t = t[rows, count]
    t[rows, count + 1] = horizon
    v[rows, count + 1] = v[rows, count] + rate * (horizon - last_t)
    size = count + (last_t < horizon)      # segments per row
    seg = np.arange(t.shape[1] - 1) < size[:, None]
    return PathBlock(np.concatenate([[0], np.cumsum(size)]), t[:, :-1][seg], t[:, 1:][seg],
                     v[:, :-1][seg], v[rows, size], exact=True, horizon=horizon,
                     linear_rate=rate, nondecreasing=model.is_subordinator)


def simulate_path(
    model: LevyModel,
    horizon: float,
    step: Optional[float] = None,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    small_jump_cutoff: Optional[float] = None,
    ceiling: Optional[float] = None,
) -> PathSample:
    """Simulate one path of ``model`` on [0, horizon].

    Parameters
    ----------
    step : float, optional
        Time grid spacing; required when ``gaussian_var > 0``.
    seed, rng : optional
        The path's stream: ``rng`` itself, or ``default_rng(seed)``.  One of
        them is required, so every path can be drawn again.
    small_jump_cutoff : float, optional
        For the truncated stable subordinator, jumps below this threshold are
        replaced by their expected linear drift.  Defaults to
        ``SMALL_JUMP_FRACTION * cutoff``.
    ceiling : float, optional
        Subordinators only: a level above which the caller reads nothing.
        The path reads no stage of :func:`_jump_rows` past the one that
        holds its first sample strictly above ``ceiling``; it is the process
        up to that sample, then goes on at ``linear_rate`` to the horizon.  A
        subordinator never comes back down, so every segment this leaves out
        starts above the ceiling, and the samples kept are the unstopped
        path's, bit for bit: both read the same stages.
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError("horizon must be finite and > 0")
    if ceiling is not None and (math.isnan(ceiling) or not model.is_subordinator):
        raise ValueError("a ceiling needs a subordinator and a level that is not NaN")
    if rng is None:
        if seed is None:
            raise ValueError("pass a seed or an rng: a path is never drawn from fresh entropy")
        rng = np.random.default_rng(seed)

    if model.gaussian_var > 0:
        return _simulate_grid(model, horizon, step, [rng])

    # (0, 0), then the value rate * t + S at each arrival (S: the summed
    # jumps), up to the first above the ceiling; then, unless a jump lands on
    # it, the horizon, where the last piece ends
    times, values, total, rate, stages = [[0.0]], [[0.0]], 0.0, model.drift, ()
    if model.jumps is not None:
        lam, draw, rate = _jump_law(model, rng, small_jump_cutoff)
        stages = _jump_rows(rng, lam, draw, horizon, 1)
    for jt, n, sizes in stages:     # one row, in scalar steps
        jt, sizes = jt[0, :n[0]], sizes[0, :n[0]]
        if not len(jt):   # a stage with no arrival is the last
            break
        sizes[0] += total
        np.cumsum(sizes, out=sizes)
        total = sizes[-1]
        v = np.multiply(jt, rate)
        v += sizes
        if ceiling is not None and v[-1] > ceiling:   # the values never fall: search them
            m = int(np.searchsorted(v, ceiling, side="right")) + 1
            times.append(jt[:m])
            values.append(v[:m])
            break
        times.append(jt)
        values.append(v)
    last_t, last_v = times[-1][-1], values[-1][-1]
    if last_t < horizon:
        times.append([horizon])
        values.append([last_v + rate * (horizon - last_t)])
    return PathSample(np.concatenate(times), np.concatenate(values), exact=True, horizon=horizon,
                      linear_rate=rate, nondecreasing=model.is_subordinator)


def reduce_paths(
    model: LevyModel,
    horizon: float,
    paths: int,
    seed: int,
    reducer,
    key: tuple = (STREAM_PATH,),
    threads: int = 1,
    step: Optional[float] = None,
    small_jump_cutoff: Optional[float] = None,
    ceiling: Optional[float] = None,
) -> list:
    """The package's one Monte Carlo path loop.

    Paths are drawn in blocks of k consecutive indices, k from
    :func:`_block_paths`.  For a jump or drift model the block starting at
    path index s is the k iid rows :func:`_jump_paths` draws from
    ``derive_rng(seed, *key, s)`` (with ``small_jump_cutoff``); with k = 1,
    ``simulate_path(model, horizon, rng=derive_rng(seed, *key, s))``.  Piece
    i of a block of grid skeletons (a Gaussian part) is the path
    ``simulate_path(model, horizon, step=step, rng=derive_rng(seed, *key,
    i))`` gives, bit for bit, drawn beside the others by
    :func:`_simulate_grid`.  Each fixed chunk of path indices, tiled by whole
    blocks, goes to ``reducer`` as a lazy iterable of :class:`PathBlock` s,
    in index order; a reducer passes each block to the layer functions,
    which return one row per piece, and reads ``block.pieces()`` only when
    it needs whole paths.  The per-chunk results come back in chunk order,
    so the caller's final reduction, and every random stream, is the same
    for any number of threads.  Only grid blocks use the ``threads`` pool:
    their cells come in arrays long enough for numpy to release the GIL for
    a while.  Every jump path, k = 1 included, runs on the calling thread.
    A stage of a k = 1 path is about a dozen numpy calls on 4096 elements, a
    block of light paths a reducer that holds the GIL, so two threads would
    pass the GIL back and forth at every call and run no faster than one
    while burning a second core.  A budget below one path is refused, so is
    a horizon that is not finite and > 0, and so is a ``threads`` that is not
    an integer >= 1, whether or not the pool is used.

    A reducer that reads nothing of ``x + path`` above some level (a
    potential grid's top edge, the top of ``f.live_intervals``) passes that
    level, less x, as ``ceiling``.  Each path of a subordinator is then kept
    only up to its first sample above it, then one linear segment to the
    horizon, which adds nothing to what the reducer reads.  Other models
    ignore the ceiling: a path that can come back down must be drawn whole.
    """
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError("horizon must be finite and > 0")
    threads = _check_threads(threads)
    block = _block_paths(model, horizon, small_jump_cutoff, step)
    grid = model.gaussian_var > 0
    if not model.is_subordinator:
        ceiling = None

    def chunk_blocks(a, b):
        for s in range(a, b, block):
            k = min(block, b - s)
            if grid:
                yield _as_block(_simulate_grid(model, horizon, step,
                                               [derive_rng(seed, *key, i) for i in range(s, s + k)]))
            elif k == 1:    # the same stream, its one row read in scalar steps
                yield simulate_path(model, horizon, rng=derive_rng(seed, *key, s),
                                    small_jump_cutoff=small_jump_cutoff, ceiling=ceiling)._block
            else:
                yield _jump_paths(model, horizon, derive_rng(seed, *key, s), k,
                                  small_jump_cutoff, ceiling)

    return map_chunks(paths, lambda a, b: reducer(chunk_blocks(a, b)),
                      threads=threads if grid else 1)


def _block_paths(model: LevyModel, horizon: float, small_jump_cutoff: Optional[float],
                 step: Optional[float] = None) -> int:
    """Paths per block: a budget over the expected segments per path,
    clamped to [1, DEFAULT_CHUNK].  The budget is ``BLOCK_SEGMENTS`` for jump
    paths, and ``2 * BLOCK_SEGMENTS`` cells for grid skeletons (a Gaussian
    part; one cell per ``step``, plus one per jump), whose k paths are drawn
    side by side, each from its own stream."""
    jumps = model.jumps
    if jumps is None:
        segments = 0.0
    elif isinstance(jumps, CompoundPoisson):
        segments = jumps.rate * horizon
    else:
        segments = jumps.tail_mass(_jump_cutoff(jumps, small_jump_cutoff)) * horizon
    budget = BLOCK_SEGMENTS
    if model.gaussian_var > 0:
        if step is None or step <= 0:
            raise ValueError("a positive step is required for models with a Gaussian part")
        segments += horizon / step
        budget *= 2
    if not segments > 0:   # pure drift
        return DEFAULT_CHUNK
    return max(1, int(min(DEFAULT_CHUNK, budget / segments)))


def binomial_stderr(p, n: int):
    """Binomial standard error of proportion(s) ``p`` over ``n`` trials, floored above 0."""
    return np.sqrt(np.maximum(p * (1 - p), 1e-12) / n)


def _simulate_grid(model: LevyModel, horizon: float, step: Optional[float],
                   rngs: list) -> PathSample | PathBlock:
    """Grid skeletons of ``len(rngs)`` independent paths on [0, horizon], path
    i drawn from ``rngs[i]`` alone: first its jumps, if any, then one normal
    per cell.  One generator gives a :class:`PathSample` (what
    :func:`simulate_path` returns), several a :class:`PathBlock` of the paths
    in order, each piece equal bit for bit to the lone path of its generator.

    Cells end at the grid points and at the jump times; a jump is applied at
    the end of its cell.  Without jumps every path has the same cells, so the
    grid, dt and the drift and volatility terms are built once per block.
    """
    if step is None or step <= 0:
        raise ValueError("a positive step is required for models with a Gaussian part")
    jumps = model.jumps
    if isinstance(jumps, TruncatedStable):
        raise ModelRejectionError("Gaussian part combined with a truncated stable subordinator is not supported")
    grid = np.linspace(0.0, horizon, max(1, int(round(horizon / step))) + 1)
    k, sd = len(rngs), math.sqrt(model.gaussian_var)
    if jumps is None:
        times = [grid] * k
    else:
        landings = []
        for rng in rngs:
            rows = [(t[0, :n[0]], s[0, :n[0]]) for t, n, s in
                    _jump_rows(rng, jumps.rate, partial(jumps.sample, rng), horizon, 1)]
            landings.append(tuple(map(np.concatenate, zip(*rows))))
        times = [np.unique(np.concatenate([grid, jt])) for jt, _ in landings]
    starts = np.zeros(k + 1, dtype=int)
    np.cumsum([len(t) - 1 for t in times], out=starts[1:])
    incr = np.empty(starts[-1])
    for rng, a, b in zip(rngs, starts[:-1], starts[1:]):
        rng.standard_normal(out=incr[a:b])
    if jumps is None:
        dt = np.diff(grid)
        rows = incr.reshape(k, -1)
        rows *= sd * np.sqrt(dt)
        rows += model.drift * dt
    else:
        dt = np.concatenate([np.diff(t) for t in times])
        incr *= sd * np.sqrt(dt)
        incr += model.drift * dt
        for t, (jt, sizes), a in zip(times, landings, starts):
            np.add.at(incr, a + np.searchsorted(t, jt) - 1, sizes)
    for a, b in zip(starts[:-1], starts[1:]):     # v1: the value at each cell's end
        np.cumsum(incr[a:b], out=incr[a:b])
    if k == 1:
        return PathSample(times[0], np.concatenate([[0.0], incr]), exact=False, horizon=horizon)
    v0 = np.empty_like(incr)
    v0[1:] = incr[:-1]
    v0[starts[:-1]] = 0.0
    return PathBlock(starts, np.concatenate([t[:-1] for t in times]),
                     np.concatenate([t[1:] for t in times]), v0, incr[starts[1:] - 1],
                     exact=False, horizon=horizon, v1=incr)
