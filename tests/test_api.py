"""The public surface: every export in ``levyint.__all__`` and its optional parameters.

Rule: a public parameter exists only while some caller passes it (the CLI,
the tests, the benchmark, the scripts or the README).  A new optional
parameter needs such a caller in the same change, and a CHANGES.md line
saying why it is needed; a parameter whose last caller goes becomes a
constant.  Update the table below only together with that line.

The same rule holds for the exports themselves, and an export whose only
caller is its own unit test has no caller: every name in ``levyint.__all__``
must be named by the package, the benchmark, the scripts or the README.
"""

import ast
import inspect
import re
from pathlib import Path

import levyint as L

ROOT = Path(__file__).resolve().parents[1]
ROUTES = ("src/levyint", "bench", "scripts", "README.md")

OPTIONAL_PARAMETERS = {
    "BattyReport": (),
    "CompoundPoisson": ("atoms", "law"),
    "CriterionReport": ("details",),
    "IDistribution": (),
    "LSetApprox": (),
    "LevyModel": (),
    "MgfReport": (),
    "OvershootTable": ("meta",),
    "PathSample": ("linear_rate", "nondecreasing"),
    "PotentialMeasure": ("lattice_span", "meta"),
    "RegionSpec": ("describes_complement", "name"),
    "TestFunction": ("primitive", "breakpoints", "ladder_windows"),
    "TrapConstruction": (),
    "TruncatedStable": (),
    "Verdict": (),
    "analytic_potential": (),
    "batty_inequality_check": ("step",),
    "blackwell_equivalence_check": ("lower_cutoff",),
    "build_model": ("drift", "gaussian_var", "jumps", "lattice_span"),
    "build_transient_trap": ("safety",),
    "classify_ladder": (),
    "constant": ("value",),
    "derive_rng": (),
    "describe": (),
    "dk_test": ("lower_cutoff",),
    "erickson_maller_test": ("lower_cutoff",),
    "estimate_I_distribution": ("step", "threads"),
    "estimate_L_set": ("step", "threads"),
    "estimate_overshoot_cdf": ("threads",),
    "estimate_potential": ("horizon", "step", "threads"),
    "exp_decay": (),
    "finiteness_diagnosis": ("step", "threads"),
    "from_callable": ("name", "primitive", "breakpoints"),
    "full_line": (),
    "half_line": (),
    "horizon_heuristic": (),
    "indicator": (),
    "integral_along_path": ("x",),
    "integral_at_times": (),
    "inverse_power": ("power",),
    "khasminskii_J": (),
    "khasminskii_exponential_check": ("j_value", "override", "step", "threads"),
    "lattice_counterexample": (),
    "lattice_sine": ("span",),
    "map_chunks": ("threads", "chunk"),
    "potential_integral": ("x",),
    "simulate_path": ("step", "seed", "rng", "small_jump_cutoff", "ceiling"),
    "step_function": ("name",),
    "triangle_train": ("name",),
    "verify_counterexample": ("horizon", "threads", "small_jump_cutoff"),
}


def _public_callables():
    """Every callable export except the exception classes."""
    return {name: getattr(L, name) for name in L.__all__
            if callable(getattr(L, name))
            and not (inspect.isclass(getattr(L, name))
                     and issubclass(getattr(L, name), BaseException))}


def _optional(obj) -> tuple:
    return tuple(p.name for p in inspect.signature(obj).parameters.values()
                 if p.default is not inspect.Parameter.empty)


def test_every_public_callable_is_pinned():
    assert set(_public_callables()) == set(OPTIONAL_PARAMETERS)


def test_optional_parameters_are_pinned():
    actual = {name: _optional(obj) for name, obj in _public_callables().items()}
    assert actual == OPTIONAL_PARAMETERS


def _route_lines() -> list[str]:
    """Lines of every route, less the ``__all__`` lists and the re-export module."""
    files = []
    for route in ROUTES:
        path = ROOT / route
        files += [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.suffix in (".py", ".md", ".sh", ".yaml"))
    lines = []
    for path in files:
        if path == ROOT / "src/levyint/__init__.py":
            continue
        text = path.read_text().splitlines()
        skip = set()
        if path.suffix == ".py":
            for node in ast.parse("\n".join(text)).body:
                if isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "__all__" for t in node.targets):
                    skip.update(range(node.lineno - 1, node.end_lineno))
        lines += [line for i, line in enumerate(text) if i not in skip]
    return lines


def test_every_export_has_a_route():
    lines = _route_lines()

    def referenced(name):
        own = re.compile(rf"^\s*(?:def|class)\s+{name}\b")
        word = re.compile(rf"\b{name}\b")
        return any(word.search(line) and not own.match(line) for line in lines)

    unrouted = [name for name in L.__all__ if not referenced(name)]
    assert not unrouted, f"exports with no caller outside their own tests: {unrouted}"
