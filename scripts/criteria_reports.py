"""Seeded random reports of the criteria layer, written and compared as JSON.

    PYTHONPATH=src python3 scripts/criteria_reports.py --out reports.json
    PYTHONPATH=src python3 scripts/criteria_reports.py --against reports.json

Draws ``--reports`` (default 4500) random calls of ``potential_integral``,
``dk_test``, ``erickson_maller_test`` and ``khasminskii_J``, in turn, from
``--seed``.  The inputs cover lattice and continuous potential measures (made
up from random masses, so no path is drawn), the full line, half-lines,
unions of intervals and complements, shifts x in [-3, 3] and seven test
functions.  Every grid reaches past sup f + 3, so neither sign of the
grid-coverage rule refuses a shift.  A refused call is recorded as its
error's type and message; a report is kept whole, floats written by repr.

``--against FILE`` compares this checkout's reports with FILE, written by
another checkout with the same seed and count.  It prints, per criterion, the
number of byte-identical reports, every verdict or error mismatch and, for
each field of the reports where numbers differ, the largest relative
difference; it exits 1 if any verdict or error differs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

import levyint as L

KINDS = ("potential_integral", "dk_test", "erickson_maller_test", "khasminskii_J")
SHIFT = 3.0          # |x| <= SHIFT
GRID_TOP_MIN = 50.0  # above the largest sup f (the needle train's, about 42) + SHIFT


def _functions() -> list:
    needles = np.cumsum(3.0 + np.arange(7))
    return [L.exp_decay(), L.inverse_power(1.0), L.inverse_power(2.0), L.indicator(0.0, 1.0),
            L.step_function([(1.0, 0.0, 2.0), (0.5, 2.0, 6.0), (0.25, 6.0, 9.0)], name="stairs"),
            L.lattice_sine(1.0), L.triangle_train(needles, np.full(7, 1e-3), name="needles")]


def _measure(rng, i: int) -> L.PotentialMeasure:
    """A lattice measure on even i, a continuous one on odd i; masses follow
    a renewal density (flat) or a decaying one, with multiplicative noise."""
    lattice = i % 2 == 0
    if lattice:
        span = float(rng.choice([0.5, 1.0]))
        n = int(rng.integers(int(GRID_TOP_MIN / span) + 2, int(130 / span)))
        edges = (np.arange(n + 1) - 0.5) * span
    else:
        lo, hi = float(rng.choice([0.0, -2.0, -5.0])), float(rng.uniform(GRID_TOP_MIN + 1, 130))
        n = int(rng.integers(64, 300))
        edges = (np.linspace(lo, hi, n + 1) if rng.random() < 0.5 else
                 np.concatenate([[lo], np.sort(rng.uniform(lo, hi, n - 1)), [hi]]))
    centers = 0.5 * (edges[:-1] + edges[1:])
    density = (np.full(n, rng.uniform(0.3, 2.0)) if rng.random() < 0.5
               else np.exp(-rng.uniform(0.02, 0.5) * np.maximum(centers, 0.0)))
    masses = density * np.diff(edges) * rng.uniform(0.8, 1.2, n)
    return L.PotentialMeasure(edges=edges, masses=masses, stderr=0.01 * masses,
                              lattice_span=span if lattice else None,
                              meta={"model": f"m{i}"})


def _region(rng):
    pick = rng.integers(4)
    if pick == 0:
        return L.full_line(), "full_line"
    if pick == 1:
        h = float(rng.uniform(-1.0, 5.0))
        return L.half_line(h), f"half_line({h!r})"
    ends = np.sort(rng.uniform(-2.0, 60.0, 2 * int(rng.integers(1, 6))))
    ivals = [(float(a), float(b)) for a, b in ends.reshape(-1, 2) if a < b]
    complement = bool(pick == 3)
    return (L.RegionSpec(intervals=ivals, describes_complement=complement),
            f"{'complement' if complement else 'intervals'}({ivals!r})")


def _call(kind, f, pm, rng) -> tuple[dict, object]:
    if kind == "potential_integral":
        region, name = _region(rng)
        x = float(rng.uniform(-SHIFT, SHIFT)) if rng.random() < 0.7 else 0.0
        return {"region": name, "x": x}, lambda: L.potential_integral(f, pm, region, x=x).to_dict()
    if kind == "dk_test":
        cut = float(rng.uniform(0.0, 5.0)) if rng.random() < 0.7 else 0.0
        return {"lower": cut}, lambda: L.dk_test(f, cut).to_dict()
    if kind == "erickson_maller_test":
        cut = float(rng.uniform(0.0, 5.0)) if rng.random() < 0.7 else 1.0
        return {"lower": cut}, lambda: L.erickson_maller_test(f, pm, cut).to_dict()
    grid = np.sort(rng.uniform(-SHIFT, SHIFT, int(rng.integers(1, 13))))
    return {"x_grid": grid.tolist()}, lambda: L.khasminskii_J(f, pm, grid)


def reports(seed: int, count: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    functions = _functions()
    measures = [_measure(rng, i) for i in range(24)]
    out = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        f = functions[int(rng.integers(len(functions)))]
        m = int(rng.integers(len(measures)))
        inputs, run = _call(kind, f, measures[m], rng)
        rec = {"kind": kind, "f": f.name, "measure": m, **inputs}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rec["result"] = run()
            except Exception as exc:   # a refusal is a result too
                rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["warnings"] = [str(w.message) for w in caught]
        out.append(rec)
    return out


def _numbers(a, b, path=""):
    """(field, a, b) for the numbers at the same place in two equally shaped
    records; a list's items share its field name."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            yield from _numbers(a[k], b[k], f"{path}.{k}" if path else k)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for u, v in zip(a, b):
            yield from _numbers(u, v, path)
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
        yield path, float(a), float(b)


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(mine: list[dict], theirs: list[dict]) -> int:
    if len(mine) != len(theirs):
        print(f"report counts differ: {len(mine)} here, {len(theirs)} there")
        return 1
    mismatches = 0
    for kind in KINDS:
        pairs = [(a, b) for a, b in zip(mine, theirs) if a["kind"] == kind]
        same, worst = 0, {}
        for a, b in pairs:
            same += json.dumps(a) == json.dumps(b)
            ra, rb = a.get("result"), b.get("result")
            va = ra.get("verdict") if isinstance(ra, dict) else None
            vb = rb.get("verdict") if isinstance(rb, dict) else None
            if a.get("error") != b.get("error") or va != vb or (ra is None) != (rb is None):
                mismatches += 1
                print(f"MISMATCH {kind} {json.dumps({k: a[k] for k in a if k not in ('result', 'error')})}:"
                      f" {a.get('error') or va} / {b.get('error') or vb}")
            for field, u, v in _numbers(ra, rb):
                worst[field] = max(worst.get(field, 0.0), _rel(u, v))
        moved = ", ".join(f"{k} {r:.3g}" for k, r in sorted(worst.items()) if r > 0) or "none"
        print(f"{kind}: {same}/{len(pairs)} identical; largest relative difference by field: {moved}")
    print(f"verdict or error mismatches: {mismatches}")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--reports", type=int, default=4500)
    p.add_argument("--out", help="write the reports here as JSON")
    p.add_argument("--against", help="compare with reports written by another checkout")
    args = p.parse_args(argv)
    mine = reports(args.seed, args.reports)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(mine, fh)
    if args.against:
        with open(args.against) as fh:
            return compare(mine, json.load(fh))
    return 0


if __name__ == "__main__":
    sys.exit(main())
