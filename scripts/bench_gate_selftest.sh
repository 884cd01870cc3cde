#!/usr/bin/env bash
# Proves the regression gate actually gates: against a freshly recorded
# baseline, a clean re-run must pass bench_compare and a seeded straggler
# injection (every op on every rank delayed 50 us) must fail it. Runs on the
# deterministic simulator, so the clean comparison is exact and the test has
# no flake margin. Used by `scripts/check.sh bench` and the BenchGate ctest.
#
#   scripts/bench_gate_selftest.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
build="${1:-build}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

common=(--build="$build" --quick --presets=mini8)

echo "== bench gate self-test ($build, mini8) =="
scripts/bench_store.py record --store="$tmp/store.json" "${common[@]}" \
  --note="selftest baseline"

scripts/bench_store.py record --out="$tmp/clean.json" "${common[@]}"
scripts/bench_compare --store="$tmp/store.json" --candidate="$tmp/clean.json"

scripts/bench_store.py record --out="$tmp/slow.json" "${common[@]}" \
  --fault='straggler,prob=1,delay=5e-5'
if scripts/bench_compare --store="$tmp/store.json" \
    --candidate="$tmp/slow.json"; then
  echo "bench gate self-test: FAIL — straggler candidate passed the gate" >&2
  exit 1
fi
echo "bench gate self-test: ok (clean passes, straggler fails)"
