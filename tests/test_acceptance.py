"""Acceptance gate: one test per release criterion, fixed seeds, stated tolerances.

Each test registers a single PASS/FAIL line (printed in the terminal summary)
before asserting, so the final table is complete even when a criterion trips.
Budgets here are the real ones; run without ``--quick``.
"""

from pathlib import Path

import numpy as np
import pytest

import levyint as L
from levyint.cli import main as cli_main

import acceptance_log
from oracles import GEOMETRIC_POTENTIAL_VALUE


@pytest.fixture(autouse=True)
def _full_budget_only(quick):
    if quick:
        pytest.skip("acceptance tolerances require the full Monte Carlo budgets")


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_lattice_potential_oracle(lattice_pm, timings):
    """Site masses U({n}) = 1/2 within 3 MC standard errors for n = 0..50,
    from 10^4 paths at horizon 200, in under 30 s single-threaded."""
    z = np.abs(lattice_pm.masses - 0.5) / np.where(lattice_pm.stderr > 0,
                                                   lattice_pm.stderr, np.inf)
    runtime = timings["lattice_pm"]
    ok = bool(z.max() < 3.0) and runtime < 30.0
    acceptance_log.record(1, "lattice site masses = 1/2 within 3 SE, < 30 s", ok,
                          f"max |z| = {z.max():.2f} over 51 sites, {runtime:.1f} s")
    assert z.max() < 3.0, f"worst site deviates {z.max():.2f} SE from 1/2"
    assert runtime < 30.0, f"potential estimation took {runtime:.1f} s"


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_exponential_functional(lattice_model, lattice_pm_fine):
    """potential_integral(e^-y, (0, inf)) matches sum e^-n / rate within 1 %;
    the simulation diagnosis at horizon 80 is finite with < 1 % censoring."""
    rep = L.potential_integral(L.exp_decay(), lattice_pm_fine, L.half_line(0.0))
    rel = abs(rep.value - GEOMETRIC_POTENTIAL_VALUE) / GEOMETRIC_POTENTIAL_VALUE

    diag = L.finiteness_diagnosis(L.exp_decay(), lattice_model, x=0.0,
                                  rungs=[10.0, 20.0, 40.0, 80.0],
                                  paths=4000, seed=2231)
    censored = diag.evidence["censored_fraction"][-1]
    ok = rel < 0.01 and diag.outcome == "finite" and censored < 0.01
    acceptance_log.record(2, "exponential functional within 1 %, finite diagnosis", ok,
                          f"rel err {rel:.2%}, diagnosis {diag.outcome}, "
                          f"censored {censored:.2%}")
    assert rel < 0.01, f"value {rep.value} vs {GEOMETRIC_POTENTIAL_VALUE}"
    assert diag.outcome == "finite"
    assert censored < 0.01


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_dk_equivalence_corpus(bm_pm, ts_pm, corpus_functions):
    """dk_test and potential_integral verdicts agree on all 8 model x function
    cases (drifted BM and truncated-stable subordinator; four test functions)."""
    cases = []
    for pm_name, pm in (("bm", bm_pm), ("ts", ts_pm)):
        for f in corpus_functions:
            dk = L.dk_test(f)
            pot = L.potential_integral(f, pm, L.full_line())
            cases.append((pm_name, f.name, dk.verdict, pot.verdict))
    agree = sum(1 for _, _, a, b in cases if a == b)
    ok = agree == len(cases) == 8
    acceptance_log.record(3, "tail test vs potential integral: 8/8 verdicts agree",
                          ok, f"{agree}/{len(cases)} agree")
    for pm_name, fname, dk_v, pot_v in cases:
        assert dk_v == pot_v, f"{pm_name} x {fname}: dk={dk_v} potential={pot_v}"


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_lattice_sine_counterexample(lattice_model):
    """Tail test says infinite, yet every one of 10^4 simulated paths has
    integral <= 1e-9 * T at T = 100 (the integrand vanishes on the lattice)."""
    rep = L.lattice_counterexample(lattice_model, paths=10_000, horizon=100.0,
                                   seed=41)
    ok = (rep.passed and rep.dk_verdict == "infinite"
          and rep.max_integral <= 1e-9 * rep.horizon
          and rep.max_abs_on_lattice == 0.0)
    acceptance_log.record(4, "lattice sine: verdict infinite, paths integrate to 0",
                          ok, f"dk {rep.dk_verdict}, max path integral "
                              f"{rep.max_integral:.1e} over {rep.paths} paths")
    assert rep.dk_verdict == "infinite"
    assert rep.max_abs_on_lattice == 0.0
    assert rep.max_integral <= 1e-9 * rep.horizon
    assert rep.passed


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_transient_trap(trap20, trap_verification, timings):
    """Trap built to depth 20 from measured overshoot CDFs: visit fraction
    <= sum 2/n^2 + 3 SE, off-trap potential integral exactly 0, simulation
    diagnosis finite, tail test infinite; whole pipeline < 5 min."""
    v = trap_verification
    table_s, build_s, verify_s = (timings["overshoot_table"], timings["trap20"],
                                  timings["trap_verification"])
    runtime = table_s + build_s + verify_s
    ok = (trap20.n_max == 20 and v.passed and runtime < 300.0)
    acceptance_log.record(
        5, "transient trap: all four checks, < 5 min", ok,
        f"visit {v.visit_fraction:.3f} <= {v.visit_bound:.3f} + 3x{v.visit_stderr:.4f}, "
        f"diagnosis {v.diagnosis_outcome}, off-trap integral "
        f"{v.potential_integral_value}, dk {v.dk_verdict}, {runtime:.0f} s = "
        f"overshoot table {table_s:.1f} s + trap build {build_s:.2f} s + "
        f"verification {verify_s:.1f} s = {1e3 * verify_s / v.details['paths']:.1f} ms/path")
    assert trap20.n_max == 20
    assert v.visit_ok, (v.visit_fraction, v.visit_bound, v.visit_stderr)
    assert v.potential_ok and v.potential_integral_value == 0.0
    assert v.diagnosis_ok, v.diagnosis_outcome
    assert v.dk_ok, v.dk_verdict
    assert v.passed
    assert runtime < 300.0, f"pipeline took {runtime:.0f} s"


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_batty_inequality_grid(lattice_model, bm_model):
    """P(I_t^x > a for all probe starts) * a <= E I_t^x within 3 propagated SE
    on a 3 x 3 x 3 grid of (f, a, t), for both models: 54 cases, 0 violations.
    Lattice paths start off the lattice, at x = 0.5: from x = 0 the open
    indicator reads 0 on every site, so those cases would hold with lhs 0."""
    fs = [L.indicator(0.0, 1.0), L.exp_decay(), L.inverse_power(2.0)]
    a_grid = [0.5, 1.0, 2.0]
    t_grid = [5.0, 10.0, 20.0]
    violations = []
    idx = 0
    for model, x, n_outer, step in ((lattice_model, 0.5, 400, None), (bm_model, 0.0, 240, 0.05)):
        for f in fs:
            for a in a_grid:
                for t in t_grid:
                    rep = L.batty_inequality_check(f, model, x=x, a=a, t=t,
                                                   n_outer=n_outer,
                                                   seed=60_000 + idx, step=step)
                    idx += 1
                    if not rep.holds:
                        violations.append((model is bm_model, f.name, a, t,
                                           rep.lhs, rep.rhs))
    ok = idx == 54 and not violations
    acceptance_log.record(6, "occupation-bound inequality on 54-case grid", ok,
                          f"{idx - len(violations)}/{idx} hold")
    assert idx == 54
    assert not violations, violations


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_khasminskii(lattice_model, lattice_pm_fine):
    """Uniform bound J = 1/2 within 2 % for the unit window; empirical
    exponential moment at theta = 1 equals 2 within 5 % and passes the
    stability screen (the holding time at the start site is Exp(2))."""
    J = L.khasminskii_J(L.indicator(0.0, 1.0), lattice_pm_fine,
                        x_grid=[0.0, 0.25, 0.5, 0.75])
    j_rel = abs(J["J"] - 0.5) / 0.5

    mgf = L.khasminskii_exponential_check(L.indicator(0.0, 1.0), lattice_model,
                                          x=0.25, theta=1.0, horizon=60.0,
                                          paths=20_000, seed=7001,
                                          j_value=J["J"])
    m_rel = abs(mgf.empirical_mgf - 2.0) / 2.0
    ok = (j_rel < 0.02 and m_rel < 0.05 and mgf.stable and mgf.warning is None)
    acceptance_log.record(7, "uniform bound J and exponential moment", ok,
                          f"J = {J['J']:.4f} ({j_rel:.2%} off), "
                          f"MGF = {mgf.empirical_mgf:.3f} ({m_rel:.2%} off), "
                          f"stable = {mgf.stable}")
    assert j_rel < 0.02, J
    assert m_rel < 0.05, mgf.empirical_mgf
    assert mgf.stable and mgf.warning is None


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_decreasing_tail_criterion(bm_pm, ts_pm, corpus_functions):
    """The nonincreasing-function criterion returns the same verdict as the
    tail test for every corpus function on both finite-mean models (8 cases)."""
    cases = []
    for pm_name, pm in (("bm", bm_pm), ("ts", ts_pm)):
        for f in corpus_functions:
            em = L.erickson_maller_test(f, pm)
            dk = L.dk_test(f)
            cases.append((pm_name, f.name, em.verdict, dk.verdict))
    agree = sum(1 for _, _, a, b in cases if a == b)
    ok = agree == len(cases) == 8
    acceptance_log.record(8, "nonincreasing-f criterion matches tail test 8/8",
                          ok, f"{agree}/{len(cases)} agree")
    for pm_name, fname, em_v, dk_v in cases:
        assert em_v == dk_v, f"{pm_name} x {fname}: em={em_v} dk={dk_v}"


# ---------------------------------------------------------------- criterion 9

def _run_artifact_set(out: Path, threads: int) -> dict:
    """Run the four artifact-producing subcommands into ``out``; hash results."""
    base = ["--model", "lattice_cpp", "--seed", "909", "--out", str(out),
            "--threads", str(threads)]
    assert cli_main(["simulate", "--paths", "4", "--horizon", "10"] + base) == 0
    assert cli_main(["potential", "--paths", "300"] + base) == 0
    assert cli_main(["diagnose", "--function", "exp_decay", "--paths", "150",
                     "--horizon", "40"] + base) == 0
    assert cli_main(["test", "--function", "exp_decay", "--paths", "300"] + base) == 0
    blobs = {}
    for p in sorted(out.iterdir()):
        blobs[p.name] = p.read_bytes()
    return blobs


def test_criterion_9_determinism(tmp_path):
    """Re-running with the same seed byte-reproduces every CSV/JSON artifact
    at 1, 2, and 8 worker threads."""
    runs = {}
    for tag, threads in (("t1", 1), ("t2", 2), ("t8", 8), ("t1_repeat", 1)):
        runs[tag] = _run_artifact_set(tmp_path / tag, threads)
    names = sorted(runs["t1"])
    mismatches = [(tag, name) for tag in ("t2", "t8", "t1_repeat")
                  for name in names if runs[tag].get(name) != runs["t1"][name]]
    ok = len(names) == 8 and not mismatches
    acceptance_log.record(9, "byte-identical artifacts at 1/2/8 threads", ok,
                          f"{len(names)} artifacts x 4 runs")
    assert len(names) == 8, names
    assert not mismatches, mismatches
