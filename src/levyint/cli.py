"""Config-driven command line front end.

Subcommands wire models, test functions, and finiteness tests into
reproducible experiments::

    levyint simulate       sample paths, write skeleton CSV
    levyint potential      Monte Carlo potential measure (+ closed-form check)
    levyint test           comparison/finiteness tests on one (model, f) pair
    levyint diagnose       horizon-ladder finiteness diagnosis
    levyint counterexample lattice-sine or transient-trap reconstruction
    levyint scan           sublevel-set grid of x -> P(I^x > a)

Exit codes: 0 success, 2 configuration error, 3 model rejected,
4 verification assertion failure.  Every artifact embeds the config digest
and master seed; reruns with the same config byte-reproduce all artifacts
regardless of the thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import functions as fn
from .counterexamples import (
    TrapConstructionError,
    build_transient_trap,
    estimate_overshoot_cdf,
    lattice_counterexample,
    verify_counterexample,
)
from .criteria import (
    CriterionReport,
    RegionSpec,
    blackwell_equivalence_check,
    dk_test,
    erickson_maller_test,
    full_line,
    half_line,
    khasminskii_J,
    potential_integral,
)
from .models import (
    CompoundPoisson,
    LevyModel,
    ModelRejectionError,
    TruncatedStable,
    build_model,
    describe,
    reduce_paths,
)
from .perpetual import (
    batty_inequality_check,
    estimate_L_set,
    finiteness_diagnosis,
    khasminskii_exponential_check,
)
from .potential import analytic_potential, estimate_potential

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_VERIFY = 4


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing

# keys excluded from the digest: they must not break byte-reproducibility
# across reruns (different output dirs) or worker pools (thread counts)
_DIGEST_EXCLUDE = {"out", "threads"}

# Bare-name specs mean {kind: name}; these names are presets of a kind.
_MODEL_PRESETS = {
    "lattice_cpp": {"kind": "cpp", "rate": 2.0, "atoms": [[1.0, 1.0]], "lattice_span": 1.0},
}

_FUNCTION_PRESETS = {
    "inverse_square": {"kind": "inverse_power", "power": 2.0},
    "inverse_first": {"kind": "inverse_power", "power": 1.0},
    "unit_indicator": {"kind": "indicator", "lo": 0.0, "hi": 1.0},
}


def _expand(spec, presets: dict, what: str) -> dict:
    """A spec as a mapping: a bare name s is {kind: s}, a preset kind its parameters."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} spec must be a name or a mapping")
    preset = presets.get(str(spec.get("kind")))
    if preset is None:
        return spec
    return {**preset, **spec, "kind": preset["kind"]}


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    return data


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = load_config(args.config) if args.config else {}
    for key in ("seed", "paths", "horizon", "threads", "out"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "model", None):
        cfg["model"] = args.model
    if getattr(args, "function", None):
        cfg["function"] = args.function
    if getattr(args, "mode", None):
        cfg["mode"] = args.mode
    if cfg.get("seed") is None:
        raise ConfigError("a master seed is required (config key 'seed' or --seed); "
                          "there is no wall-clock default")
    cfg["seed"] = _as(int, cfg["seed"], "seed")
    if cfg["seed"] < 0:
        raise ConfigError(f"config key 'seed' must be a non-negative integer, got {cfg['seed']}")
    for key in ("paths", "overshoot_paths"):
        if key in cfg and not _as(int, cfg[key], key) >= 1:
            raise ConfigError(f"'{key}' must be a positive path budget, got {cfg[key]}")
    # threads is outside the config digest, so it may be converted in place
    cfg["threads"] = _as(int, cfg.get("threads", 1), "threads")
    if cfg["threads"] < 1:
        raise ConfigError(f"config key 'threads' must be >= 1, got {cfg['threads']}")
    cfg.setdefault("out", "out")
    return cfg


def config_digest(cfg: dict) -> str:
    slim = {k: v for k, v in cfg.items() if k not in _DIGEST_EXCLUDE}
    blob = json.dumps(slim, sort_keys=True, default=_jsonable)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config key '{key}'")
    return cfg[key]


def _as(kind, value, key: str, infinite: bool = False):
    """``kind(value)``, or a config error naming ``key``.  An integer refuses a
    fraction; a number refuses NaN, and ±inf unless ``infinite`` (interval ends)."""
    what = "an integer" if kind is int else "a number or ±inf" if infinite else "a finite number"
    error = ConfigError(f"config key '{key}' must be {what}, got {value!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error from exc
    fraction = kind is int and isinstance(value, float) and out != value
    in_range = kind is int or math.isfinite(out) or infinite and math.isinf(out)
    if isinstance(value, bool) or fraction or not in_range:   # a YAML boolean is not a number
        raise error
    return out


def _num(spec: dict, key: str, default=None, kind=float):
    """``spec[key]`` (``default`` when absent) as ``kind``; null only where the default is."""
    value = spec.get(key, default)
    return None if value is None and default is None else _as(kind, value, key)


def _list(value, key: str, width: int = 0, ends=()) -> np.ndarray:
    """``value``, a list of numbers, as a float array; with ``width``, a list of
    ``width``-number lists as an (n, width) array.  Every number is read by
    :func:`_as`; only the ``ends`` columns, interval ends, may hold ±inf."""
    if not isinstance(value, list) or width and not all(
            isinstance(row, list) and len(row) == width for row in value):
        shape = f"lists of {width} numbers" if width else "numbers"
        raise ConfigError(f"config key '{key}' must be a list of {shape}, got {value!r}")
    if not width:
        return np.array([_as(float, v, key) for v in value], float)
    return np.array([[_as(float, v, key, j in ends) for j, v in enumerate(row)] for row in value],
                    float).reshape(-1, width)


def model_from_config(spec) -> LevyModel:
    """Build a model from a kind or preset name, or a parameter mapping."""
    spec = _expand(spec, _MODEL_PRESETS, "model")
    kind = spec.get("kind")
    if kind in ("drift", "deterministic"):
        return build_model(drift=_num(spec, "drift", 1.0))
    if kind in ("bm", "brownian"):
        return build_model(drift=_num(spec, "drift", 1.0),
                           gaussian_var=_num(spec, "gaussian_var", 1.0))
    if kind in ("cpp", "compound_poisson"):
        rate, atoms, law = _num(spec, "rate", 1.0), spec.get("atoms"), spec.get("law")
        if atoms is not None:
            jumps = CompoundPoisson(rate, atoms=_list(atoms, "atoms", 2))
        elif isinstance(law, list) and law:     # [name, parameters...]
            jumps = CompoundPoisson(rate, law=(str(law[0]), *_list(law[1:], "law")))
        else:
            raise ConfigError("compound Poisson spec needs 'atoms' or 'law' = [name, parameters...]")
        return build_model(drift=_num(spec, "drift", 0.0),
                           gaussian_var=_num(spec, "gaussian_var", 0.0),
                           jumps=jumps, lattice_span=_num(spec, "lattice_span"))
    if kind in ("tstable", "truncated_stable"):
        jumps = TruncatedStable(activity=_num(spec, "activity", 1.0),
                                index=_num(spec, "index", 0.5),
                                cutoff=_num(spec, "cutoff", 1.0))
        return build_model(drift=_num(spec, "drift", 0.0), jumps=jumps)
    raise ConfigError(f"unknown model kind '{kind}'")


def function_from_config(spec) -> fn.TestFunction:
    """Build a test function from a kind or preset name, or a parameter mapping."""
    spec = _expand(spec, _FUNCTION_PRESETS, "function")
    kind = spec.get("kind")
    if kind == "exp_decay":
        return fn.exp_decay()
    if kind == "inverse_power":
        return fn.inverse_power(_num(spec, "power", 1.0))
    if kind == "indicator":
        return fn.indicator(_as(float, _require(spec, "lo"), "lo", infinite=True),
                            _as(float, _require(spec, "hi"), "hi", infinite=True))
    if kind == "constant":
        return fn.constant(_num(spec, "value", 1.0))
    if kind == "step":
        return fn.step_function(_list(_require(spec, "pieces"), "pieces", 3, ends=(1, 2)))
    if kind == "lattice_sine":
        return fn.lattice_sine(_num(spec, "span", 1.0))
    if kind == "triangle_train":
        return fn.triangle_train(_list(_require(spec, "starts"), "starts"),
                                 _list(_require(spec, "widths"), "widths"))
    raise ConfigError(f"unknown function kind '{kind}'")


def region_from_config(spec) -> RegionSpec:
    if spec is None:
        return half_line(0.0)
    if spec == "full_line":
        return full_line()
    if not isinstance(spec, dict):
        raise ConfigError("region spec must be a mapping or 'full_line'")
    if "half_line" in spec:
        return half_line(_as(float, spec["half_line"], "half_line", infinite=True))
    if "intervals" in spec:
        complement = spec.get("complement", False)
        if not isinstance(complement, bool):
            raise ConfigError(f"config key 'complement' must be true or false, got {complement!r}")
        return RegionSpec(intervals=_list(spec["intervals"], "intervals", 2, ends=(0, 1)),
                          describes_complement=complement, name=spec.get("name", "region"))
    raise ConfigError("region spec needs 'half_line' or 'intervals'")


def grid_from_config(spec, model: LevyModel) -> np.ndarray:
    """Bin edges; by default 64 bins on [0, 64], or one per lattice site 0..63."""
    if spec is None and model.lattice_span is not None:
        # one bin per lattice site, edges between sites
        return model.lattice_span * (np.arange(64 + 1) - 0.5)
    spec = {} if spec is None else spec
    if not isinstance(spec, dict):
        raise ConfigError("grid spec must be a mapping with lo/hi/bins or edges")
    if "edges" in spec:
        edges = _list(spec["edges"], "grid.edges")
        if len(edges) < 2 or not np.all(np.diff(edges) > 0):
            raise ConfigError(f"config key 'grid.edges' must be at least 2 strictly "
                              f"increasing values, got {spec['edges']!r}")
        return edges
    lo, hi = _as(float, spec.get("lo", 0.0), "grid.lo"), _as(float, spec.get("hi", 64.0), "grid.hi")
    bins = _as(int, spec.get("bins", 64), "grid.bins")
    if bins < 1:
        raise ConfigError(f"config key 'grid.bins' must be >= 1, got {bins}")
    if not hi > lo:
        raise ConfigError(f"config key 'grid.hi' must exceed grid.lo = {lo!r}, got {hi!r}")
    return np.linspace(lo, hi, bins + 1)


# ---------------------------------------------------------------------------
# deterministic writers

def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if obj == math.inf:
        return "inf"
    raise TypeError(f"not serializable: {type(obj)}")


def write_json(path: Path, payload: dict, cfg: dict) -> None:
    payload = dict(payload)
    payload["config_digest"] = config_digest(cfg)
    payload["master_seed"] = cfg["seed"]
    path.parent.mkdir(parents=True, exist_ok=True)
    # allow_nan keeps inf sentinels readable; sort_keys pins the byte layout
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n")


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path: Path, header: list[str], rows, cfg: dict, extra_meta: dict = None) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {"config_digest": config_digest(cfg), "master_seed": cfg["seed"]}
    meta.update(extra_meta or {})
    with open(path, "w", newline="") as fh:
        for k in sorted(meta):
            fh.write(f"# {k}: {meta[k]}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _outdir(cfg: dict) -> Path:
    p = Path(cfg["out"])
    p.mkdir(parents=True, exist_ok=True)
    return p


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(cfg: dict) -> int:
    model = model_from_config(_require(cfg, "model"))
    paths = _num(cfg, "paths", 10, int)
    horizon = _num(cfg, "horizon", 50.0)
    step = _num(cfg, "step")
    out = _outdir(cfg)

    sims = [path for part in reduce_paths(model, horizon, paths, cfg["seed"],
                                          lambda chunk: [p for b in chunk for p in b.pieces()],
                                          step=step)
            for path in part]
    rows = [(i, t, v) for i, path in enumerate(sims) for t, v in zip(path.times, path.values)]
    write_csv(out / "paths.csv", ["path", "time", "value"], rows, cfg,
              {"model": describe(model), "horizon": repr(horizon)})
    finals = np.array([path.values[-1] for path in sims])
    write_json(out / "simulate_summary.json", {
        "model": describe(model), "paths": paths, "horizon": horizon,
        "final_value_mean": float(finals.mean()),
        "final_value_min": float(finals.min()),
        "final_value_max": float(finals.max()),
        "expected_final": model.mean * horizon if math.isfinite(model.mean) else "inf",
    }, cfg)
    print(f"wrote {paths} paths to {out / 'paths.csv'}")
    return EXIT_OK


def _potential_from_config(cfg, model):
    edges = grid_from_config(cfg.get("grid"), model)
    return estimate_potential(model, edges, paths=_num(cfg, "paths", 2000, int),
                              seed=cfg["seed"], horizon=_num(cfg, "horizon"),
                              step=_num(cfg, "step"), threads=cfg["threads"])


def cmd_potential(cfg: dict) -> int:
    model = model_from_config(_require(cfg, "model"))
    pm = _potential_from_config(cfg, model)
    out = _outdir(cfg)
    pm.meta["config_digest"] = config_digest(cfg)
    pm.to_csv(out / "potential.csv")

    report = {"model": describe(model), "paths": _num(cfg, "paths", 2000, int),
              "bins": len(pm.masses), "total_mass": float(pm.masses.sum())}
    closed = analytic_potential(model, pm.edges)
    if closed is not None:
        z = np.abs(pm.masses - closed.masses) / np.maximum(pm.stderr, 1e-300)
        report["closed_form_available"] = True
        report["max_abs_z"] = float(z.max())
        report["bins_beyond_3se"] = int((z > 3.0).sum())
    else:
        report["closed_form_available"] = False
    write_json(out / "potential_report.json", report, cfg)
    print(f"wrote potential measure ({len(pm.masses)} bins) to {out / 'potential.csv'}")
    return EXIT_OK


def cmd_test(cfg: dict) -> int:
    model = model_from_config(_require(cfg, "model"))
    f = function_from_config(_require(cfg, "function"))
    which = cfg.get("tests", ["dk", "potential_integral"])
    if not (isinstance(which, list) and all(isinstance(name, str) for name in which)):
        raise ConfigError(f"config key 'tests' must be a list of test names, got {which!r}")
    # read before the potential measure is drawn
    x = _num(cfg, "x", 0.0)
    cutoff = _num(cfg, "lower_cutoff", 1.0)
    dk_cutoff = _num(cfg, "dk_cutoff", 0.0)
    region = region_from_config(cfg.get("region"))
    xg = cfg.get("x_grid")
    grid = np.linspace(-2.0, 2.0, 41) if xg is None else _list(xg, "x_grid")

    pm = None
    if set(which) & {"potential_integral", "erickson_maller", "blackwell", "khasminskii_j"}:
        pm = _potential_from_config(cfg, model)

    reports = {}
    comparison = []
    model_id, f_id = describe(model), f.name
    for name in which:
        if name == "dk":
            rep = dk_test(f, dk_cutoff)
        elif name == "potential_integral":
            rep = potential_integral(f, pm, region, x=x)
        elif name == "erickson_maller":
            rep = erickson_maller_test(f, pm, cutoff)
        elif name == "blackwell":
            rep = blackwell_equivalence_check(f, pm, cutoff)
        elif name == "khasminskii_j":
            rep = khasminskii_J(f, pm, grid)
        elif name == "batty":
            rep = batty_inequality_check(
                f, model, x, a=_num(cfg, "a", 1.0), t=_num(cfg, "t", 10.0),
                n_outer=_num(cfg, "paths", 400, int), seed=cfg["seed"],
                step=_num(cfg, "step")).__dict__
        elif name == "mgf":
            rep = khasminskii_exponential_check(
                f, model, x, theta=_num(cfg, "theta", 1.0),
                horizon=_num(cfg, "horizon", 50.0), paths=_num(cfg, "paths", 2000, int),
                seed=cfg["seed"], j_value=_num(cfg, "j_value"), step=_num(cfg, "step"),
                threads=cfg["threads"]).__dict__
        else:
            raise ConfigError(f"unknown test '{name}'")
        if isinstance(rep, CriterionReport):    # a verdict: one row of comparison.csv
            comparison.append((name, rep.value, rep.verdict))
            rep = rep.to_dict()
        reports[name] = rep

    out = _outdir(cfg)
    write_json(out / "tests.json", {"model": model_id, "f": f_id, "reports": reports}, cfg)
    write_csv(out / "comparison.csv", ["test", "value", "verdict", "model_id", "f_id"],
              [(n, v, verdict, model_id, f_id) for n, v, verdict in comparison],
              cfg)
    for n, v, verdict in comparison:
        print(f"{n}: {verdict} (value {v})")
    return EXIT_OK


def cmd_diagnose(cfg: dict) -> int:
    model = model_from_config(_require(cfg, "model"))
    f = function_from_config(_require(cfg, "function"))
    horizon = _num(cfg, "horizon", 80.0)
    ladder = cfg.get("ladder")
    if ladder is None:
        n_rungs = _num(cfg, "rungs", 4, int)
        ladder = [horizon / 2 ** (n_rungs - 1 - i) for i in range(n_rungs)]
    else:
        ladder = _list(ladder, "ladder")
    verdict = finiteness_diagnosis(f, model, x=_num(cfg, "x", 0.0),
                                   rungs=ladder, paths=_num(cfg, "paths", 2000, int),
                                   seed=cfg["seed"], step=_num(cfg, "step"),
                                   threads=cfg["threads"])
    out = _outdir(cfg)
    ev = verdict.evidence
    write_json(out / "diagnosis.json",
               {"outcome": verdict.outcome, "note": verdict.note, "evidence": ev}, cfg)
    write_csv(out / "ladder.csv", ["horizon", "median_I", "mean_I", "censored_fraction"],
              zip(ev["rungs"], ev["medians"], ev["means"], ev["censored_fraction"]),
              cfg, {"model": describe(model), "f": f.name})
    print(f"diagnosis: {verdict.outcome}")
    return EXIT_OK


def cmd_counterexample(cfg: dict) -> int:
    mode = cfg.get("mode", "lattice")
    if mode == "lattice":
        model = model_from_config(cfg.get("model", "lattice_cpp"))
        report = lattice_counterexample(model, paths=_num(cfg, "paths", 200, int),
                                        horizon=_num(cfg, "horizon", 100.0),
                                        seed=cfg["seed"])
        out = _outdir(cfg)
        write_json(out / "lattice_counterexample.json", report.to_dict(), cfg)
        print(f"lattice counterexample: tail test {report.dk_verdict}, "
              f"max |I| {report.max_integral:.3g} -> "
              f"{'PASS' if report.passed else 'FAIL'}")
        return EXIT_OK if report.passed else EXIT_VERIFY

    if mode == "trap":
        model = model_from_config(cfg.get("model", "tstable"))
        levels = _list(cfg.get("levels", [2, 3, 4, 6, 8, 12, 16, 22, 30]), "levels")
        n_max, safety = _num(cfg, "n_max", 12, int), _num(cfg, "safety", 2.0)
        table = estimate_overshoot_cdf(model, levels,
                                       paths=_num(cfg, "overshoot_paths", 4000, int),
                                       seed=cfg["seed"], threads=cfg["threads"])
        out = _outdir(cfg)
        write_csv(out / "overshoot_cdfs.csv", ["level", "eps", "cdf"],
                  [(lv, e, c) for li, lv in enumerate(table.levels)
                   for e, c in zip(table.eps_grid, table.cdfs[li])],
                  cfg, {"paths_per_level": table.paths_per_level,
                        "limit_gap": repr(table.limit_gap)})
        trap = build_transient_trap(table, n_max=n_max, safety=safety)
        write_json(out / "trap_construction.json", trap.to_dict(), cfg)
        verification = verify_counterexample(model, trap,
                                             paths=_num(cfg, "paths", 2000, int),
                                             seed=cfg["seed"] + 1,
                                             threads=cfg["threads"])
        write_json(out / "trap_verification.json", verification.to_dict(), cfg)
        print(f"trap verification: visits {verification.visit_fraction:.4f} "
              f"<= {verification.visit_bound:.4f} [{verification.visit_ok}], "
              f"diagnosis {verification.diagnosis_outcome}, "
              f"off-trap potential integral {verification.potential_integral_value}, "
              f"tail test {verification.dk_verdict} -> "
              f"{'PASS' if verification.passed else 'FAIL'}")
        return EXIT_OK if verification.passed else EXIT_VERIFY

    raise ConfigError(f"unknown counterexample mode '{mode}' (lattice or trap)")


def cmd_scan(cfg: dict) -> int:
    model = model_from_config(_require(cfg, "model"))
    f = function_from_config(_require(cfg, "function"))
    scan = cfg.get("scan", {})
    if not isinstance(scan, dict):
        raise ConfigError(f"config key 'scan' must be a mapping with a, q and x, got {scan!r}")
    xspec = scan.get("x", {})     # a list, or a mapping with lo, hi and points
    xs = (np.linspace(_num(xspec, "lo", -2.0), _num(xspec, "hi", 6.0), _num(xspec, "points", 17, int))
          if isinstance(xspec, dict) else _list(xspec, "x"))
    approx = estimate_L_set(f, model, a=_num(scan, "a", 1.0),
                            q=_num(scan, "q", 0.5), x_grid=xs,
                            horizon=_num(cfg, "horizon", 50.0),
                            paths=_num(cfg, "paths", 1000, int), seed=cfg["seed"],
                            step=_num(cfg, "step"), threads=cfg["threads"])
    out = _outdir(cfg)
    write_csv(out / "lset.csv", ["x", "g_hat", "stderr", "member"],
              zip(approx.xs, approx.g_hat, approx.stderr, approx.member),
              cfg, {"a": repr(approx.a), "q": repr(approx.q),
                    "model": describe(model), "f": f.name})
    write_json(out / "lset_summary.json", {
        "a": approx.a, "q": approx.q, "model": describe(model), "f": f.name,
        "member_count": int(approx.member.sum()), "grid_points": len(approx.xs),
        "member_min_x": float(approx.xs[approx.member].min()) if approx.member.any() else None,
    }, cfg)
    print(f"scan: {int(approx.member.sum())}/{len(approx.xs)} grid points in the sublevel set")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "potential": cmd_potential,
    "test": cmd_test,
    "diagnose": cmd_diagnose,
    "counterexample": cmd_counterexample,
    "scan": cmd_scan,
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="levyint",
                                description="perpetual-integral finiteness toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="YAML experiment config")
        sp.add_argument("--seed", type=int, help="master seed (mandatory if absent from config)")
        sp.add_argument("--paths", type=int, help="Monte Carlo path budget")
        sp.add_argument("--horizon", type=float, help="time horizon")
        sp.add_argument("--threads", type=int,
                        help="worker threads; they speed up Gaussian grid paths and the "
                             "overshoot table, and never change results")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--model", help="model kind or preset name")
        if name in ("test", "diagnose", "scan"):
            sp.add_argument("--function", help="test function kind or preset name")
        if name == "counterexample":
            sp.add_argument("--mode", choices=["lattice", "trap"])
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except ModelRejectionError as exc:
        print(f"model rejected: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (ConfigError, ValueError) as exc:
        # a value the library refuses, a RegionCoverageError among them
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrapConstructionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
