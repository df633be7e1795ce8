#!/usr/bin/env bash
# Run the bundled experiments end to end.  Artifacts land under out/.
# Each run is deterministic given its config; rerunning reproduces every
# file byte for byte.
set -euo pipefail
cd "$(dirname "$0")/.."

# The package runs from the checkout; no installed console script is needed.
levyint() { PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m levyint.cli "$@"; }

# Each experiment's wall time goes to the console (bash's `time`, on
# stderr), never under out/, so SHA256SUMS does not see it.
TIMEFORMAT='   wall time %R s'

echo "== exponential integrand on the lattice model =="
time {
  levyint test --config scripts/exp_exponential.yaml
  levyint diagnose --config scripts/exp_exponential.yaml --horizon 80 --out out/exponential
}

echo "== verdict-agreement corpus =="
time for f in exp_decay inverse_square inverse_first unit_indicator; do
  levyint test --config scripts/exp_dk_corpus.yaml --function "$f" --out "out/dk_corpus/bm_$f"
  levyint test --config scripts/exp_dk_corpus.yaml --function "$f" --model tstable \
    --out "out/dk_corpus/tstable_$f"
done

echo "== lattice sine counterexample =="
time levyint counterexample --config scripts/exp_lattice_sine.yaml

echo "== transient trap counterexample =="
time levyint counterexample --config scripts/exp_trap.yaml

echo "== sublevel-set scan =="
time levyint scan --config scripts/exp_lset_scan.yaml

# One sorted checksum line per artifact: two checkouts reproduce each other
# exactly when their SHA256SUMS files are identical.
(cd out && find . -type f ! -name SHA256SUMS -print0 | LC_ALL=C sort -z \
   | xargs -0 sha256sum > SHA256SUMS)
echo "all experiments finished; artifacts and out/SHA256SUMS in out/"
