"""Benchmark of levyint: time to a checked verdict on three batch workloads.

    python3 bench/run.py --workload lattice_verdicts --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30    # table of every workload

Each workload is a closed loop in one process: a batch of calls through the
public ``levyint`` API with per-call seeds derived from ``--seed`` and the
batch index.  Batch 0 warms up (lazy imports, first-call costs); batches then
repeat until ``--seconds`` have passed.  Every batch is checked against
oracles computed in ``oracle.py``.

Wall and CPU times are medians over the timed batches.  Set-up is timed in
a fresh interpreter ``SETUP_PROBES`` times per run, at fixed fractions of
``--seconds`` (each at the first batch boundary after its due time, the
rest after the loop), and reported as the fastest probe: a 0.1-second
import only ever gets slower when other tenants contend for the machine.
The probe count does not depend on how many batches fit, so a faster batch
does not buy a lower minimum.  Every repeat is kept in the record.  Peak memory
is the high-water mark after the warm-up batch, a fixed amount of work: the
process's resident size keeps creeping up with every further batch (new
worker threads per call get new allocator arenas), which would tie it to
how many batches fit in ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each batch
twice with the same seeds, untraced then traced (``tracing.py``), checks that
both give the same result digest, and reports the per-layer metrics and the
tracing overhead.  The last stdout line is the JSON result; the full record
(checks, notes, digest, environment) goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_PROBES = 20

# end-to-end metrics as reported with --trace 0 (check_fail_frac is printed
# and carried by the result's attempted/failed counts)
E2E_UNITS = {"wall_s": "s", "paths_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB",
             "setup_s": "s"}

PER_LAYER = (
    "rng.derive_rng.calls", "rng.derive_rng.self_s",
    "rng.map_chunks.calls", "rng.map_chunks.total_s", "rng.map_chunks.parallel_eff",
    "models.simulate_path.calls", "models.simulate_path.self_s",
    "models.simulate_path.us_per_path", "models.simulate_path.segments_per_path",
    "functions.integral_on.calls", "functions.integral_on.self_s",
    "functions.evaluate.calls", "functions.evaluate.self_s",
    "potential.estimate_potential.calls", "potential.estimate_potential.self_s",
    "potential.occupation_histogram.calls", "potential.occupation_histogram.self_s",
    "potential.occupation_histogram.us_per_call",
    "perpetual.integral_at_times.calls", "perpetual.integral_at_times.self_s",
    "perpetual.integral_along_path.calls", "perpetual.integral_along_path.self_s",
    "perpetual.finiteness_diagnosis.total_s", "perpetual.estimate_I_distribution.total_s",
    "perpetual.estimate_L_set.total_s", "perpetual.khasminskii_exponential_check.total_s",
    "criteria.potential_integral.calls", "criteria.potential_integral.self_s",
    "criteria.dk_test.calls", "criteria.dk_test.self_s",
    "criteria.erickson_maller_test.calls", "criteria.erickson_maller_test.self_s",
    "criteria.classify_ladder.calls", "criteria.classify_ladder.self_s",
    "criteria.khasminskii_J.total_s",
    "counterexamples.estimate_overshoot_cdf.total_s",
    "counterexamples.estimate_overshoot_cdf.us_per_path",
    "counterexamples.build_transient_trap.total_s",
    "counterexamples.verify_counterexample.total_s",
    "counterexamples.verify_counterexample.self_s",
    "counterexamples.lattice_counterexample.total_s",
    "counterexamples.lattice_counterexample.self_s",
    "cli.main.total_s",
    "cli.write_csv.calls", "cli.write_csv.self_s", "cli.write_csv.bytes",
    "cli.write_json.calls", "cli.write_json.self_s", "cli.write_json.bytes",
    "bench.trace_overhead_s",
)


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith("segments_per_path"):
        return "count"
    if ".us_per_" in name:
        return "us"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("parallel_eff"):
        return "ratio"
    return "s"


def environment() -> dict:
    import numpy

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    sources = sorted(SRC.rglob("*.py"))
    blob = b"".join(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes()
                    for p in sources)
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": version("scipy"), "git_commit": git_commit(),
            "src_lines": blob.count(b"\n"), "src_sha256": hashlib.sha256(blob).hexdigest()[:16]}


def git_commit():
    """HEAD of a git checkout, read from .git directly; None elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_setup(name: str, workdir: Path) -> float:
    """Set-up seconds of one workload in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), name, str(workdir)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Run:
    """Batches of one workload with their checks, digests and timings."""

    def __init__(self, workload, seed: int, oracles):
        self.workload, self.seed, self.oracles = workload, seed, oracles
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.first = None          # (checks, notes, digest) of batch 0

    def batch(self, index: int, tracer=None):
        """Run, time and check one batch; returns (wall, cpu, digest) or None."""
        import tracing
        import workloads

        seeds = workloads.call_seeds(self.seed, index, self.workload.seeds_per_batch)
        try:
            cpu0, t0 = cpu_seconds(), perf_counter()
            if tracer is None:
                out = workloads.run_batch(self.workload, seeds)
            else:
                with tracing.instrument(tracer):
                    out = workloads.run_batch(self.workload, seeds)
            wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
            checks, notes, digest = workloads.evaluate(self.workload, out, self.oracles)
        except Exception:                       # a raising call is a failed batch
            self.tally(False, f"batch {index} raised:\n{traceback.format_exc()}")
            return None
        for c in checks:
            self.tally(c.ok, f"batch {index}: {c.name}: {c.detail}")
        if self.first is None:
            self.first = (checks, notes, digest)
        return wall, cpu, digest

    def tally(self, ok: bool, text: str) -> None:
        """Count one attempted check; report it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(text)
            print(f"FAILED {text}", file=sys.stderr)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads
    from oracle import Oracles

    workdir = WORKDIR / name
    workdir.mkdir(parents=True, exist_ok=True)
    probe_setup(name, workdir)          # warm-up: byte-compiles, fills the page cache
    setup = []
    workload = workloads.WORKLOADS[name](workdir)
    run = Run(workload, seed, Oracles())

    walls, cpus, overheads, layers, first_spans = [], [], [], [], []
    index = 0
    deadline = peak_rss_mb = None
    probes_due = []
    while deadline is None or perf_counter() < deadline:
        untraced = run.batch(index)
        if trace:
            tracer = tracing.Tracer()
            traced = run.batch(index, tracer)
            if untraced and traced:
                same = untraced[2] == traced[2]
                run.tally(same, f"batch {index}: traced digest {traced[2]} != "
                                f"untraced {untraced[2]}")
                layers.append(tracing.layer_metrics(tracing.aggregate(tracer.spans)))
                if index == 0:
                    first_spans = tracer.spans
                elif same:
                    overheads.append(traced[0] - untraced[0])
        if index > 0 and untraced:
            walls.append(untraced[0])
            cpus.append(untraced[1])
        if deadline is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            start = perf_counter()
            deadline = start + seconds
            probes_due = [start + k * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
        while probes_due and perf_counter() >= probes_due[0]:
            probes_due.pop(0)
            setup.append(probe_setup(name, workdir))
        index += 1
    for _ in probes_due:
        setup.append(probe_setup(name, workdir))

    if trace:
        tracing.write_spans(first_spans, workdir / f"spans_seed{seed}.csv")
        metrics = {k: statistics.median(m[k] for m in layers) if layers else 0.0
                   for k in PER_LAYER if k != "bench.trace_overhead_s"}
        metrics["bench.trace_overhead_s"] = statistics.median(overheads) if overheads else 0.0
        metrics = {k: {"value": metrics[k], "unit": layer_unit(k)} for k in PER_LAYER}
    else:
        wall = statistics.median(walls) if walls else math.nan
        values = {"wall_s": wall, "paths_per_s": workload.paths / wall,
                  "cpu_s": statistics.median(cpus) if cpus else math.nan,
                  "peak_rss_mb": peak_rss_mb, "setup_s": min(setup)}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    checks, notes, digest = run.first or ([], {}, None)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "batches": index, "timed_batches": len(walls), "paths_per_batch": workload.paths,
        "threads": workloads.THREADS, "digest_batch0": digest,
        "batch_wall_s": walls, "batch_cpu_s": cpus, "setup_probes_s": setup,
        "check_fail_frac": run.failed / run.attempted if run.attempted else 1.0,
        "metrics": metrics,
        "checks_batch0": [{"name": c.name, "ok": c.ok, "detail": c.detail,
                           "false_alarm": c.alpha} for c in checks],
        "notes_batch0": notes, "failures": run.failures, "env": environment(),
    }
    results = WORKDIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")
    return {"record": record, "result": {"correct": run.failed == 0 and run.attempted > 0,
                                         "attempted": run.attempted, "failed": run.failed,
                                         "metrics": metrics}}


def print_summary(record: dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"batches {record['batches']} ({record['timed_batches']} timed)  "
          f"paths/batch {record['paths_per_batch']}  digest {record['digest_batch0']}")
    for name, m in record["metrics"].items():
        print(f"   {name:52s} {m['value']:.6g} {m['unit']}")
    print(f"   {'check_fail_frac':52s} {record['check_fail_frac']:.6g} fraction")
    for c in record["checks_batch0"]:
        print(f"   [{'ok' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")
    for k, v in record["notes_batch0"].items():
        print(f"   note {k}: {v}")
    print(f"   env {json.dumps(record['env'])}")


def run_all(args) -> int:
    """Every workload in its own process; one table, one combined result."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import levyint
    except ImportError as exc:
        print(f"cannot import levyint from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(levyint.__file__).resolve().parent != (SRC / "levyint").resolve():
        print(f"levyint resolved to {levyint.__file__}, not the checkout's src/", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(out["record"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
