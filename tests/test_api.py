"""The public surface: the optional parameters of every callable in ``levyint.__all__``.

Rule: a public parameter exists only while some caller passes it (the CLI,
the tests, the benchmark, the scripts or the README).  A new optional
parameter needs such a caller in the same change, and a CHANGES.md line
saying why it is needed; a parameter whose last caller goes becomes a
constant.  Update the table below only together with that line.
"""

import inspect

import levyint as L

OPTIONAL_PARAMETERS = {
    "BattyReport": (),
    "CompoundPoisson": ("atoms", "law"),
    "CriterionReport": ("details",),
    "IDistribution": (),
    "LSetApprox": (),
    "LevyModel": (),
    "MgfReport": (),
    "OvershootTable": ("meta",),
    "PassageRecord": (),
    "PathSample": ("linear_rate",),
    "PotentialMeasure": ("lattice_span", "meta"),
    "RegionSpec": ("intervals", "generator", "max_depth", "describes_complement", "name"),
    "TestFunction": ("primitive", "breakpoints", "support", "ladder_windows"),
    "TrapConstruction": (),
    "TruncatedStable": (),
    "Verdict": ("note",),
    "analytic_potential": (),
    "batty_inequality_check": ("step",),
    "blackwell_equivalence_check": ("lower_cutoff", "x"),
    "bootstrap_outcome_consistency": (),
    "build_model": ("drift", "gaussian_var", "jumps", "lattice_span"),
    "build_transient_trap": ("safety",),
    "classify_ladder": (),
    "constant": ("value",),
    "derive_rng": (),
    "describe": (),
    "dk_test": ("lower_cutoff",),
    "erickson_maller_test": ("lower_cutoff",),
    "estimate_I_distribution": ("a_values", "step", "threads"),
    "estimate_L_set": ("step", "threads"),
    "estimate_overshoot_cdf": ("threads",),
    "estimate_potential": ("horizon", "step", "threads"),
    "exp_decay": (),
    "finiteness_diagnosis": ("step", "threads"),
    "first_passage": (),
    "from_callable": ("name", "primitive", "breakpoints", "support"),
    "full_line": (),
    "half_line": (),
    "hitting_probability": (),
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
    "simulate_path": ("step", "seed", "rng", "small_jump_cutoff"),
    "step_function": ("name",),
    "transience_probe": ("x", "step"),
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
