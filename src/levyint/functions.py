"""Nonnegative test integrands f used in perpetual integrals.

A :class:`TestFunction` bundles a vectorized evaluator with enough structure
to integrate it reliably: an optional exact primitive (antiderivative of f
with an arbitrary base point), breakpoints where the function is kinked or
discontinuous, and the intervals off which it vanishes.  The primitive is
what makes needle-thin bump trains integrable exactly; blind quadrature
never sees them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "TestFunction",
    "from_callable",
    "step_function",
    "indicator",
    "constant",
    "exp_decay",
    "inverse_power",
    "lattice_sine",
    "triangle_train",
]

_CHECK_POINTS = 10_000


@dataclass
class TestFunction:
    """Nonnegative, locally bounded integrand on the real line.

    ``live_intervals`` is a sorted (n, 2) array of intervals, disjoint up to
    shared endpoints, off whose closure f is exactly 0 and its primitive
    exactly constant, so an integral over a range that misses them is exactly
    0.0.  The bump train and the step functions set their pieces (those with a
    nonzero coefficient); every other function is one piece, the whole line.
    It is set by the constructors, not passed in, and :attr:`support` is its
    hull.
    """

    name: str
    kind: str                                   # "closed_form" | "step"
    evaluator: Callable[[np.ndarray], np.ndarray]
    primitive: Optional[Callable[[np.ndarray], np.ndarray]] = None
    breakpoints: np.ndarray = field(default_factory=lambda: np.empty(0))
    ladder_windows: Optional[np.ndarray] = None  # preferred partial-integral edges
    live_intervals: np.ndarray = field(init=False,
                                       default_factory=lambda: np.array([[-math.inf, math.inf]]))

    @property
    def support(self) -> tuple[float, float]:
        """Hull of ``live_intervals``: (0.0, 0.0) when f has no live piece."""
        live = self.live_intervals
        return (float(live[0, 0]), float(live[-1, 1])) if len(live) else (0.0, 0.0)

    def __call__(self, y) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(y, float)), float)

    def integral_on(self, lo, hi):
        """Integral of f over [lo, hi]; vectorized over array endpoints.

        Uses the exact primitive when available, otherwise composite Simpson
        refined at declared breakpoints.
        """
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        if self.primitive is not None:
            out = np.asarray(self.primitive(hi) - self.primitive(lo), float)
            if lo.ndim == 0 and out.ndim > 0:       # primitives may up-dim scalars
                return np.float64(out.reshape(-1)[0])
            return out
        if lo.ndim == 0:
            return np.float64(self._simpson(float(lo), float(hi)))
        return np.array([self._simpson(a, b) for a, b in zip(lo.ravel(), hi.ravel())]).reshape(lo.shape)

    def _simpson(self, a: float, b: float) -> float:
        if b <= a:
            return 0.0 if b == a else -self._simpson(b, a)
        edges = [a, b] + [float(p) for p in self.breakpoints if a < p < b]
        edges.sort()
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            n = 1 + 2 * max(64, min(4096, int(8 * (hi - lo))))
            xs = np.linspace(lo, hi, n)
            w = self(xs)
            h = (hi - lo) / (n - 1)
            total += h / 3.0 * (w[0] + w[-1] + 4.0 * w[1:-1:2].sum() + 2.0 * w[2:-1:2].sum())
        return total


def _check_nonnegative(f: TestFunction) -> TestFunction:
    """Spot-check f on its support, an infinite end clipped to -60 or 200."""
    lo, hi = f.support
    lo = lo if math.isfinite(lo) else -60.0
    hi = hi if math.isfinite(hi) else 200.0
    xs = np.linspace(lo, hi, _CHECK_POINTS)
    w = f(xs)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{f.name}: non-finite values on the check window")
    if w.min() < -1e-12:
        raise ValueError(f"{f.name}: negative value {w.min():g} at y={xs[int(np.argmin(w))]:g}")
    return f


def from_callable(
    fn: Callable[[np.ndarray], np.ndarray],
    name: str = "f",
    primitive: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    breakpoints: Sequence[float] = (),
) -> TestFunction:
    """Wrap a vectorized callable, supported on the whole line;
    nonnegativity is spot-checked on a grid."""
    f = TestFunction(name=name, kind="closed_form", evaluator=fn, primitive=primitive,
                     breakpoints=np.asarray(sorted(breakpoints), float))
    return _check_nonnegative(f)


def step_function(pieces: Sequence[tuple[float, float, float]], name: str = "step") -> TestFunction:
    """Finite sum of coefficients times open-interval indicators.

    ``pieces`` is a sequence of (coefficient, lower, upper); intervals must be
    disjoint and coefficients nonnegative.
    """
    pieces = sorted(((float(c), float(a), float(b)) for c, a, b in pieces), key=lambda p: p[1])
    for c, a, b in pieces:
        if not (a < b):
            raise ValueError(f"degenerate interval ({a}, {b})")
        if not 0 <= c < math.inf:
            raise ValueError(f"step coefficients must be finite and nonnegative, got {c}")
    for (_, _, b0), (_, a1, _) in zip(pieces[:-1], pieces[1:]):
        if a1 < b0 - 1e-12:
            raise ValueError("step intervals must be disjoint")
    coeffs = np.array([c for c, _, _ in pieces])
    lowers = np.array([a for _, a, _ in pieces])
    uppers = np.array([b for _, _, b in pieces])

    def ev(y):
        y = np.atleast_1d(np.asarray(y, float))
        out = np.zeros(len(y))
        for c, a, b in zip(coeffs, lowers, uppers):
            out += c * ((y > a) & (y < b))
        return out

    def prim(y):
        y = np.asarray(y, float)[..., None]
        return (coeffs * np.clip(y - lowers, 0.0, uppers - lowers)).sum(axis=-1)

    f = TestFunction(name=name, kind="step", evaluator=ev, primitive=prim,
                     breakpoints=np.unique(np.concatenate([lowers, uppers])))
    live = coeffs > 0
    # pieces may overlap by the 1e-12 slack above; the running maximum keeps
    # the upper ends sorted, widening a piece only over its neighbour
    f.live_intervals = np.column_stack([lowers[live], np.maximum.accumulate(uppers[live])])
    return f


def indicator(lo: float, hi: float) -> TestFunction:
    return step_function([(1.0, lo, hi)], name=f"1_({lo:g},{hi:g})")


def constant(value: float = 1.0) -> TestFunction:
    value = float(value)
    if not 0 <= value < math.inf:
        raise ValueError(f"constant must be finite and nonnegative, got {value}")
    return TestFunction(name=f"const_{value:g}", kind="closed_form",
                        evaluator=lambda y: np.full_like(np.asarray(y, float), value),
                        primitive=lambda y: value * np.asarray(y, float))


def exp_decay() -> TestFunction:
    """f(y) = exp(-y).  Locally bounded on all of R, integrable at +inf."""
    return from_callable(lambda y: np.exp(-y), name="exp_decay",
                         primitive=lambda y: -np.exp(-y))


def inverse_power(power: float = 1.0) -> TestFunction:
    """f(y) = (1 + |y|)^{-power}; tail-integrable iff power > 1."""
    p = float(power)
    if p <= 0:
        raise ValueError("power must be > 0")

    def prim(y):
        y = np.asarray(y, float)
        if p == 1.0:
            mag = np.log1p(np.abs(y))
        else:
            mag = ((1.0 + np.abs(y)) ** (1.0 - p) - 1.0) / (1.0 - p)
        return np.sign(y) * mag

    return from_callable(lambda y: (1.0 + np.abs(y)) ** -p, name=f"inverse_power_{p:g}",
                         primitive=prim, breakpoints=[0.0])


def lattice_sine(span: float = 1.0) -> TestFunction:
    """f(y) = 1 + sin(3*pi/2 + 2*pi*y/span), vanishing on the lattice.

    Evaluated as ``1 - cos(2*pi*y/span)`` with the phase reduced modulo one
    period first, so f(n*span) == 0.0 exactly in floating point.
    """
    alpha = float(span)
    if alpha <= 0:
        raise ValueError("span must be > 0")

    def ev(y):
        frac = np.mod(np.asarray(y, float) / alpha, 1.0)
        return 1.0 - np.cos(2.0 * math.pi * frac)

    def prim(y):
        y = np.asarray(y, float)
        return y - alpha / (2.0 * math.pi) * np.sin(2.0 * math.pi * y / alpha)

    return from_callable(ev, name=f"lattice_sine_{alpha:g}", primitive=prim)


def triangle_train(starts: Sequence[float], widths: Sequence[float], name: str = "bump_train") -> TestFunction:
    """Sum of disjoint symmetric triangular bumps of unit mass.

    Bump n occupies ``(starts[n], starts[n] + widths[n])`` with peak height
    ``2 / widths[n]``, so each bump integrates to exactly 1.  The primitive is
    exact piecewise-quadratic arithmetic; ``ladder_windows`` exposes the bump
    right edges so partial-integral ladders can align with the train.
    """
    a = np.asarray(starts, float)
    w = np.asarray(widths, float)
    if a.shape != w.shape or a.ndim != 1 or len(a) == 0:
        raise ValueError("starts and widths must be matching nonempty 1-d sequences")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(w))):
        raise ValueError("starts and widths must be finite")
    if np.any(w <= 0):
        raise ValueError("widths must be positive")
    order = np.argsort(a)
    a, w = a[order], w[order]
    b = a + w
    if np.any(a[1:] < b[:-1]):
        raise ValueError("bumps must be disjoint")

    def ev(y):
        y = np.atleast_1d(np.asarray(y, float))
        out = np.zeros(len(y))
        idx = np.searchsorted(a, y, side="right") - 1
        ok = (idx >= 0) & (y < b[np.clip(idx, 0, len(a) - 1)])
        ii = idx[ok]
        t = (y[ok] - a[ii]) / w[ii]          # position within the bump in [0, 1)
        out[ok] = (2.0 / w[ii]) * (1.0 - np.abs(2.0 * t - 1.0))
        return out

    def prim(y):
        y = np.atleast_1d(np.asarray(y, float))
        idx = np.searchsorted(b, y, side="right")   # bumps fully to the left
        out = idx.astype(float)
        part = (np.searchsorted(a, y, side="right") - 1 == idx) & (idx < len(a))
        ii = idx[part]
        t = np.clip((y[part] - a[ii]) / w[ii], 0.0, 1.0)
        out[part] += np.where(t <= 0.5, 2.0 * t * t, 1.0 - 2.0 * (1.0 - t) ** 2)
        return out

    f = TestFunction(name=name, kind="closed_form", evaluator=ev, primitive=prim,
                     breakpoints=np.unique(np.concatenate([a, a + 0.5 * w, b])),
                     ladder_windows=b.copy())
    f.live_intervals = np.column_stack([a, b])
    return f
