import re
import time
import warnings

import numpy as np
import pytest

import levyint as L

_CRITERION = re.compile(r"::test_criterion_(\d+)_")
_CRITERION_SECONDS = {}


def pytest_addoption(parser):
    parser.addoption("--quick", action="store_true",
                     help="shrink Monte Carlo budgets (acceptance tolerances not guaranteed)")


def pytest_runtest_logreport(report):
    """Add up the setup and call time of each acceptance criterion.

    A session fixture is timed in the setup of the first test that asks for
    it, so a shared fixture counts toward the first criterion that uses it.
    """
    match = _CRITERION.search(report.nodeid)
    if match and report.when in ("setup", "call"):
        num = int(match.group(1))
        _CRITERION_SECONDS[num] = _CRITERION_SECONDS.get(num, 0.0) + report.duration


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import acceptance_log
    if acceptance_log.RECORDS:
        terminalreporter.section("acceptance criteria")
        for num, title, ok, detail in sorted(acceptance_log.RECORDS):
            status = "PASS" if ok else "FAIL"
            line = f"[{status}] criterion {num}: {title}"
            if detail:
                line += f"  ({detail})"
            if num in _CRITERION_SECONDS:
                line += f"  [{_CRITERION_SECONDS[num]:.1f} s]"
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def quick(request):
    return request.config.getoption("--quick")


@pytest.fixture(scope="session")
def timings():
    """Wall-clock seconds of the expensive session fixtures, for runtime criteria."""
    return {}


@pytest.fixture(scope="session")
def lattice_model():
    return L.build_model(jumps=L.CompoundPoisson(rate=2.0, atoms=((1.0, 1.0),)),
                         lattice_span=1.0)


@pytest.fixture(scope="session")
def bm_model():
    return L.build_model(drift=1.0, gaussian_var=1.0)


@pytest.fixture(scope="session")
def ts_model():
    return L.build_model(jumps=L.TruncatedStable(activity=1.0, index=0.5, cutoff=1.0))


LATTICE_EDGES = np.arange(52.0) - 0.5          # one bin per site, sites 0..50


@pytest.fixture(scope="session")
def lattice_pm(lattice_model, quick, timings):
    """Site masses from 10^4 paths at horizon 200 (the acceptance budget)."""
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")        # horizon 200 vs heuristic 204
        pm = L.estimate_potential(lattice_model, LATTICE_EDGES,
                                  paths=1000 if quick else 10_000,
                                  seed=1114, horizon=200.0)
    timings["lattice_pm"] = time.perf_counter() - t0
    return pm


@pytest.fixture(scope="session")
def lattice_pm_fine(lattice_model, quick):
    """Larger budget for value-level (not just verdict-level) comparisons."""
    return L.estimate_potential(lattice_model, LATTICE_EDGES,
                                paths=4000 if quick else 40_000,
                                seed=2225, horizon=210.0)


@pytest.fixture(scope="session")
def bm_pm(bm_model, quick):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return L.estimate_potential(bm_model, np.linspace(-6.0, 128.0, 269),
                                    paths=1000 if quick else 4000,
                                    seed=3336, step=0.05, horizon=400.0)


@pytest.fixture(scope="session")
def ts_pm(ts_model, quick):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return L.estimate_potential(ts_model, np.linspace(0.0, 128.0, 257),
                                    paths=1000 if quick else 4000,
                                    seed=4447, horizon=200.0)


@pytest.fixture(scope="session")
def corpus_functions():
    return [L.exp_decay(), L.inverse_power(2.0), L.inverse_power(1.0),
            L.indicator(0.0, 1.0)]


@pytest.fixture(scope="session")
def overshoot_table(ts_model, quick, timings):
    t0 = time.perf_counter()
    tab = L.estimate_overshoot_cdf(ts_model, [2, 3, 4, 6, 8, 12, 16, 22, 30],
                                   paths=2000 if quick else 8000, seed=5558)
    timings["overshoot_table"] = time.perf_counter() - t0
    return tab


@pytest.fixture(scope="session")
def trap20(overshoot_table, timings):
    t0 = time.perf_counter()
    trap = L.build_transient_trap(overshoot_table, n_max=20, safety=2.0)
    timings["trap20"] = time.perf_counter() - t0
    return trap


@pytest.fixture(scope="session")
def trap_verification(ts_model, trap20, quick, timings):
    t0 = time.perf_counter()
    rep = L.verify_counterexample(ts_model, trap20,
                                  paths=2000 if quick else 10_000,
                                  seed=6669, small_jump_cutoff=1e-6)
    timings["trap_verification"] = time.perf_counter() - t0
    return rep
