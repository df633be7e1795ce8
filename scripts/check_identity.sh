#!/usr/bin/env bash
# Byte-identity check for a change that must not move any output.
#
#   scripts/check_identity.sh                      # digests and bench self-test
#   scripts/check_identity.sh A/SHA256SUMS B/SHA256SUMS
#
# Prints digest_batch0 of every benchmark workload at --seed 1 and the
# src/levyint line count, runs the benchmark self-test, and, given two
# out/SHA256SUMS files written by scripts/run_examples.sh (say one in a
# checkout of the parent commit and one in this checkout), diffs them.
# Compare the digests with the ones the parent commit prints, or with those
# CHANGES.md records.  It reads bench/ and writes only the benchmark's own
# records under .bench_work/.
#
# Every step runs whatever an earlier one did, and prints its status; the
# exit status is non-zero when a digest run, the self-test or the diff
# failed.
set -uo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 0 ] && [ $# -ne 2 ]; then
  echo "usage: $0 [A/SHA256SUMS B/SHA256SUMS]" >&2
  exit 2
fi

failed=()
status() {  # status NAME EXIT_CODE
  if [ "$2" -eq 0 ]; then
    echo "-- $1: ok"
  else
    echo "-- $1: FAILED (exit $2)"
    failed+=("$1")
  fi
}

for w in lattice_verdicts trap_certificate continuous_corpus; do
  # batch 0 always runs, so a one-second budget is enough for its digest
  line=$(python3 bench/run.py --workload "$w" --seed 1 --seconds 1 | grep '^== ')
  rc=$?
  echo "digest_batch0 $w ${line##*digest }"
  status "digest $w" "$rc"
done

echo "src/levyint lines $(cat src/levyint/*.py | wc -l)"

python3 bench/selftest.py
status "bench self-test" $?

if [ $# -eq 2 ]; then
  diff "$1" "$2"
  rc=$?
  [ "$rc" -eq 0 ] && echo "SHA256SUMS identical: $1 $2"
  status "SHA256SUMS diff" "$rc"
fi

if [ ${#failed[@]} -ne 0 ]; then
  echo "failed: ${failed[*]}"
  exit 1
fi
echo "all steps ok"
