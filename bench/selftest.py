"""Self-test of the benchmark harness on a tiny budget (a few seconds).

    python3 bench/selftest.py

1. BENCHMARK.json lists exactly the workloads and metrics the harness emits.
2. Every workload, traced, calls each layer function it claims to exercise
   (``.calls`` > 0), which proves each rebind in ``tracing.instrument`` took
   effect; together the workloads cover every traced function.  The traced
   and untraced batches give the same digest, and the package's own
   functions are restored afterwards.
3. A deliberately wrong oracle makes a check fail (check_fail_frac > 0): the
   lattice site mass on the tiny budget, and the truncated stable mean at
   the corpus workload's full budget.
Exits 1 if any expectation fails.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import levyint as L  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracles  # noqa: E402

SCALE = 0.02
problems = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        problems.append(what)


def fail_frac(checks) -> float:
    return sum(not c.ok for c in checks) / len(checks)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match the harness")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS,
           "BENCHMARK.json end_to_end metrics and units match the harness")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == [(k, run.layer_unit(k)) for k in run.PER_LAYER],
           "BENCHMARK.json per_layer metrics and units match the harness")

    originals = (L.simulate_path, L.TestFunction.__dict__["__call__"])
    covered = set()
    workdir = run.WORKDIR / "selftest"
    for name, cls in workloads.WORKLOADS.items():
        w = cls(workdir / name, scale=SCALE)
        seeds = workloads.call_seeds(7, 0, w.seeds_per_batch)
        checks, _, plain = workloads.evaluate(w, workloads.run_batch(w, seeds), Oracles())
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            out = workloads.run_batch(w, seeds)
        traced_checks, _, traced = workloads.evaluate(w, out, Oracles())
        metrics = tracing.layer_metrics(tracing.aggregate(tracer.spans))
        missing = [s for s in w.exercises if metrics[f"{s}.calls"] <= 0]
        expect(not missing, f"{name}: every exercised layer function traced {missing or ''}")
        expect(plain == traced, f"{name}: traced digest equals untraced ({plain})")
        expect(fail_frac(checks) == 0 and fail_frac(traced_checks) == 0,
               f"{name}: all {len(checks)} checks pass on the tiny budget")
        covered.update(w.exercises)
    expect(covered == set(tracing.SPAN_NAMES),
           f"workloads cover every traced function {sorted(set(tracing.SPAN_NAMES) - covered)}")
    expect(originals == (L.simulate_path, L.TestFunction.__dict__["__call__"]),
           "instrument restores the package's functions")

    w = workloads.LatticeVerdicts(workdir / "wrong_oracle", scale=SCALE)
    seeds = workloads.call_seeds(7, 0, w.seeds_per_batch)
    checks, _, _ = workloads.evaluate(w, workloads.run_batch(w, seeds),
                                      replace(Oracles(), site_mass=0.6))
    expect(fail_frac(checks) > 0, f"wrong site-mass oracle 0.6 fails a check "
                                  f"(check_fail_frac {fail_frac(checks):.3f})")
    w = workloads.ContinuousCorpus(workdir / "wrong_oracle")
    seeds = workloads.call_seeds(7, 0, w.seeds_per_batch)
    checks, _, _ = workloads.evaluate(w, workloads.run_batch(w, seeds),
                                      replace(Oracles(), ts_mean=2.5))
    expect(any(not c.ok and "Blackwell" in c.name for c in checks),
           "wrong truncated-stable mean oracle 2.5 fails the Blackwell check")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
