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

from .rng import DEFAULT_CHUNK, STREAM_PATH, derive_rng, map_chunks

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
# drawn this many segments at a time and cut into pieces of one horizon.
BLOCK_SEGMENTS = 2**14

# Jump sizes drawn at a time by ``simulate_path`` when a ceiling may stop it.
CEILING_BLOCK = 2**12

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
            if np.any(probs <= 0) or abs(probs.sum() - 1.0) > 1e-9:
                raise ModelRejectionError("atom probabilities must be positive and sum to 1")
            if not np.all(np.isfinite(vals)):
                raise ModelRejectionError("atom values must be finite")
            object.__setattr__(self, "atoms", atoms)
        else:
            name = self.law[0]
            if name == "exponential":
                (scale,) = map(float, self.law[1:])
                if scale <= 0:
                    raise ModelRejectionError("exponential scale must be > 0")
                object.__setattr__(self, "law", ("exponential", scale))
            elif name == "uniform":
                lo, hi = map(float, self.law[1:])
                if not lo < hi:
                    raise ModelRejectionError("uniform law requires lo < hi")
                object.__setattr__(self, "law", ("uniform", lo, hi))
            elif name == "pareto":
                xm, a = map(float, self.law[1:])
                if xm <= 0 or a <= 0:
                    raise ModelRejectionError("pareto law requires xm > 0 and tail index > 0")
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
        if alpha <= 0:
            raise ModelRejectionError("lattice span must be > 0")
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
    one-piece block is views of its own arrays.

    This is the unit every layer function works on (``occupation_histogram``,
    ``integral_at_times``, ``integral_along_path``, ``RegionSpec.last_visit``):
    one vectorised pass over the flat arrays gives one row per piece.  A
    :class:`PathSample` is the one-piece case.  The checks a path gets run
    here, once per block: every piece starts at (0, 0), its times strictly
    increase, and it ends at the horizon.
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

    def __len__(self) -> int:
        return len(self.starts) - 1

    @property
    def piece(self) -> np.ndarray:
        """Piece id of every segment."""
        return np.repeat(np.arange(len(self)), np.diff(self.starts))

    def pieces(self) -> list["PathSample"]:
        """Each piece as a :class:`PathSample`, read from the block's arrays."""
        return [PathSample(np.append(self.t0[a:b], self.t1[b - 1]), np.append(self.v0[a:b], end),
                           exact=self.exact, horizon=self.horizon, linear_rate=self.linear_rate)
                for a, b, end in zip(self.starts[:-1], self.starts[1:], self.end)]

    def _segments_at(self, at: np.ndarray) -> np.ndarray:
        """(k, len(at)) index of the segment each time falls in, per piece
        (the last segment for a time at the horizon).

        One ``searchsorted`` over the keys ``t0 + c * W``, with W a power of
        two above twice the horizon, so piece c's keys lie in [c W, (c + 1) W).
        Adding c W rounds monotonically, so a key can only tie its query, never
        pass it: the first guess is at or after the answer, and a step back
        while the segment starts after the time makes it exact.
        """
        k = len(self)
        if k == 1:     # c = 0: the keys are t0 itself, with no O(segments) copy
            keys, queries = self.t0, at[None, :]
        else:
            span = 2.0 ** (math.frexp(self.horizon)[1] + 1)
            keys = self.t0 + self.piece * span
            queries = at[None, :] + (span * np.arange(k))[:, None]
        idx = np.searchsorted(keys, queries, side="right") - 1
        while True:
            late = self.t0[idx] > at
            if not late.any():
                return idx
            idx -= late

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
    :class:`PathBlock`.
    """

    times: np.ndarray
    values: np.ndarray
    exact: bool
    horizon: float
    linear_rate: float = 0.0
    _block: Optional[PathBlock] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        t, v = np.asarray(self.times, float), np.asarray(self.values, float)
        if t.shape != v.shape or t.ndim != 1 or len(t) < 2:
            raise ValueError("times/values must be equal-length 1-d arrays with >= 2 entries")
        self.times, self.values = t, v
        self._block = PathBlock(np.array([0, len(t) - 1]), t[:-1], t[1:], v[:-1], v[-1:],
                                exact=self.exact, horizon=self.horizon,
                                linear_rate=self.linear_rate,
                                v1=None if self.exact else v[1:])


def _as_block(path: PathSample | PathBlock) -> PathBlock:
    """The block a layer function reads: a :class:`PathSample` is its one-piece block."""
    return path._block if isinstance(path, PathSample) else path


def _jump_cutoff(jumps: TruncatedStable, small_jump_cutoff: Optional[float]) -> float:
    eps = small_jump_cutoff if small_jump_cutoff is not None else SMALL_JUMP_FRACTION * jumps.cutoff
    if not (0 < eps < jumps.cutoff):
        raise ValueError("small_jump_cutoff must lie in (0, cutoff)")
    return eps


def _exponential_arrivals(rng, rate, horizon):
    """Arrival times of a Poisson stream on (0, horizon], by exponential spacings."""
    if rate <= 0:
        return np.empty(0)
    mean_n = rate * horizon
    n_guess = int(mean_n + 6.0 * math.sqrt(mean_n + 1.0) + 16)
    t = rng.exponential(1.0 / rate, size=n_guess)
    np.cumsum(t, out=t)
    while t[-1] <= horizon:  # rare: extend until the horizon is passed
        extra = rng.exponential(1.0 / rate, size=max(16, n_guess // 4))
        np.cumsum(extra, out=extra)
        extra += t[-1]
        t = np.concatenate([t, extra])
    # arrivals are nondecreasing, so those within the horizon are a prefix
    return t[:np.searchsorted(t, horizon, side="right")]


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
    small_jump_cutoff : float, optional
        For the truncated stable subordinator, jumps below this threshold are
        replaced by their expected linear drift.  Defaults to
        ``SMALL_JUMP_FRACTION * cutoff``.
    ceiling : float, optional
        Subordinators only: a level above which the caller reads nothing.
        All arrival times are drawn as without it, then the jump sizes in
        blocks of ``CEILING_BLOCK``, and drawing stops at the first jump that
        lands strictly above ``ceiling``.  The path is then the process only
        up to that sample, and goes on from it at ``linear_rate`` to the
        horizon.  A subordinator never comes back down, so every segment
        this leaves out starts above the ceiling, and the samples that are
        kept are the unstopped path's, bit for bit: numpy fills jump sizes
        one element at a time in stream order, and the running sum carries
        across blocks.
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError("horizon must be finite and > 0")
    if ceiling is not None and (math.isnan(ceiling) or not model.is_subordinator):
        raise ValueError("a ceiling needs a subordinator and a level that is not NaN")
    if rng is None:
        rng = np.random.default_rng(seed)

    jumps = model.jumps
    if model.gaussian_var > 0:
        if step is None or step <= 0:
            raise ValueError("a positive step is required for models with a Gaussian part")
        return _simulate_grid(model, horizon, step, rng)

    if jumps is None:
        times = np.array([0.0, horizon])
        values = np.array([0.0, model.drift * horizon])
        return PathSample(times, values, exact=True, horizon=horizon, linear_rate=model.drift)

    if isinstance(jumps, CompoundPoisson):
        jt = _exponential_arrivals(rng, jumps.rate, horizon)
        draw = partial(jumps.sample, rng)
        rate = model.drift
    else:  # truncated stable subordinator
        eps = _jump_cutoff(jumps, small_jump_cutoff)
        jt = _exponential_arrivals(rng, jumps.tail_mass(eps), horizon)
        draw = partial(jumps.sample_jumps, rng, eps=eps)
        rate = model.drift + jumps.small_jump_drift(eps)

    # (0, 0), then the value rate * t + S at each arrival (S: the summed
    # jumps), up to the first above the ceiling; then, unless a jump lands on
    # it, the horizon, where the last piece ends
    n = len(jt)
    times = np.empty(n + 2)
    values = np.empty(n + 2)
    times[0] = values[0] = 0.0
    stop = ceiling is not None and ceiling < math.inf
    size = CEILING_BLOCK if stop else max(n, 1)
    m, carry = n, 0.0
    for a in range(0, n, size):
        b = min(n, a + size)
        sizes = draw(b - a)
        if a:
            sizes[0] += carry
        out = values[a + 1:b + 1]
        np.cumsum(sizes, out=out)
        carry = out[-1]
        out += np.multiply(jt[a:b], rate, out=sizes)   # the jump buffer is free now
        if stop and out[-1] > ceiling:   # the values never fall: search them
            m = a + int(np.searchsorted(out, ceiling, side="right")) + 1
            break
    times[1:m + 1] = jt[:m]
    tail = times[m] < horizon
    if tail:
        times[m + 1] = horizon
        values[m + 1] = values[m] + rate * (horizon - times[m])
    end = m + 1 + tail
    return PathSample(times[:end], values[:end], exact=True, horizon=horizon, linear_rate=rate)


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

    Paths are drawn in blocks of k consecutive indices: the block starting
    at path index s is one ``simulate_path(model, k * horizon,
    rng=derive_rng(seed, *key, s))`` (with ``step`` and ``small_jump_cutoff``
    passed through), cut at multiples of ``horizon`` into k paths that each
    start at (0, 0).  Increments of a Levy process are stationary and
    independent, so the pieces are iid paths on [0, horizon].  k comes from
    :func:`_block_paths`; with k = 1 path i is drawn from
    ``derive_rng(seed, *key, i)`` uncut.  Each fixed chunk of path indices,
    tiled by whole blocks, goes to ``reducer`` as a lazy iterable of
    :class:`PathBlock` s, in index order; a reducer passes each block to the
    layer functions, which return one row per piece, and reads
    ``block.pieces()`` only when it needs whole paths.  The per-chunk results
    come back in chunk order, so the caller's final reduction, and every
    random stream, is the same for any number of threads.  Only k = 1 paths
    use the ``threads`` pool: the reducers of block-cut light paths hold the
    GIL, so two threads would pass it back and forth and run slower, and by
    a varying amount, than one.  A budget below one path is refused, and so
    is ``threads`` below 1 (by :func:`map_chunks`).

    A reducer that reads nothing of ``x + path`` above some level (a
    potential grid's top edge, the top of ``f.live_intervals``) passes that
    level, less x, as ``ceiling``.  Uncut paths of a subordinator are then
    drawn with it by :func:`simulate_path`: each is the process only up to
    its first sample above the ceiling, then one linear segment to the
    horizon, which starts above the ceiling and so adds nothing to what the
    reducer reads.  Cut paths (k > 1) and other models ignore it: a long
    path must reach every cut, and a path that can come back down must be
    drawn whole.
    """
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    block = _block_paths(model, horizon, small_jump_cutoff)
    if block > 1 or not model.is_subordinator:
        ceiling = None

    def chunk_blocks(a, b):
        for s in range(a, b, block):
            k = min(block, b - s)
            long = simulate_path(model, k * horizon, step=step,
                                 rng=derive_rng(seed, *key, s),
                                 small_jump_cutoff=small_jump_cutoff, ceiling=ceiling)
            yield _cut_path(long, k, horizon)

    return map_chunks(paths, lambda a, b: reducer(chunk_blocks(a, b)),
                      threads=threads if block == 1 else min(threads, 1))


def _block_paths(model: LevyModel, horizon: float, small_jump_cutoff: Optional[float]) -> int:
    """Paths per block: ``BLOCK_SEGMENTS`` over the expected segments per
    path, clamped to [1, DEFAULT_CHUNK].  Grid skeletons (a Gaussian part)
    get 1, since a cut at a multiple of ``horizon`` need not be a grid point."""
    jumps = model.jumps
    if model.gaussian_var > 0:
        return 1
    if jumps is None:
        segments = 0.0
    elif isinstance(jumps, CompoundPoisson):
        segments = jumps.rate * horizon
    else:
        segments = jumps.tail_mass(_jump_cutoff(jumps, small_jump_cutoff)) * horizon
    if not segments > 0:   # pure drift, or a horizon simulate_path refuses
        return DEFAULT_CHUNK
    return max(1, int(min(DEFAULT_CHUNK, BLOCK_SEGMENTS / segments)))


def _cut_path(path: PathSample, k: int, horizon: float) -> PathBlock:
    """Cut an exact path on [0, k * horizon] at multiples of ``horizon``
    into a block of k paths on [0, horizon], each re-based to start at (0, 0).

    The value at a cut extends the linear piece before it, and a jump that
    lands on a cut goes into the end value of the piece it closes, so the
    increments of the pieces add up to the long path.  For piece c >= 1 the
    re-based time ``t - c * horizon`` is exact (Sterbenz), so time order
    survives; a time that rounds onto the piece's end is likewise folded in.
    With k = 1 the block is the path's own.
    """
    if k == 1:
        return path._block
    t, v, r = path.times, path.values, path.linear_rate
    cuts = horizon * np.arange(k + 1)
    at = np.searchsorted(t, cuts, side="right") - 1
    at_value = v[at] + r * (cuts - t[at])
    # cuts[piece] <= t < cuts[piece + 1], counted off the increasing times
    piece = np.repeat(np.arange(k + 1), np.diff(np.searchsorted(t, cuts), append=len(t)))
    local = cuts[piece]
    np.subtract(t, local, out=local)
    inner = (local > 0) & (local < horizon)
    piece, local, rise = piece[inner], local[inner], v[inner]
    rise -= at_value[piece]
    # piece c samples (0, 0), its inner times, then (horizon, end); its
    # segments start at starts[c], and inner sample j starts segment j + c + 1
    starts = np.searchsorted(piece, np.arange(k + 1)) + np.arange(k + 1)
    first, last = starts[:-1], starts[1:] - 1
    opens = piece
    opens += np.arange(1, len(local) + 1)
    t0, t1, v0 = np.empty(starts[-1]), np.empty(starts[-1]), np.empty(starts[-1])
    t0[first] = v0[first] = 0.0
    t0[opens] = local
    v0[opens] = rise
    t1[:-1] = t0[1:]
    t1[last] = horizon
    return PathBlock(starts, t0, t1, v0, np.diff(at_value), exact=True, horizon=horizon,
                     linear_rate=r)


def binomial_stderr(p, n: int):
    """Binomial standard error of proportion(s) ``p`` over ``n`` trials, floored above 0."""
    return np.sqrt(np.maximum(p * (1 - p), 1e-12) / n)


def _simulate_grid(model, horizon, step, rng):
    n_cells = max(1, int(round(horizon / step)))
    grid = np.linspace(0.0, horizon, n_cells + 1)
    jumps = model.jumps
    if isinstance(jumps, CompoundPoisson):
        jt = _exponential_arrivals(rng, jumps.rate, horizon)
        sizes = jumps.sample(rng, len(jt))
        times = np.unique(np.concatenate([grid, jt]))
    elif isinstance(jumps, TruncatedStable):
        raise ModelRejectionError("Gaussian part combined with a truncated stable subordinator is not supported")
    else:
        jt, sizes = np.empty(0), np.empty(0)
        times = grid
    dt = np.diff(times)
    incr = model.drift * dt + math.sqrt(model.gaussian_var) * np.sqrt(dt) * rng.standard_normal(len(dt))
    if len(jt):
        at = np.searchsorted(times, jt) - 1  # jump applied at the end of its cell
        np.add.at(incr, at, sizes)
    values = np.concatenate([[0.0], np.cumsum(incr)])
    return PathSample(times, values, exact=False, horizon=horizon, linear_rate=0.0)
