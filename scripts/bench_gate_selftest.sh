#!/usr/bin/env bash
# Proves the regression gate actually gates: against a freshly recorded
# baseline, a clean re-run must pass bench_compare and a seeded straggler
# injection (every op on every rank delayed 50 us) must fail it. Then, on
# hand-made stores, the svc count rows gate in their real direction: fewer
# completions and a shed count rising from zero fail, more completions pass;
# and the host wall-clock gate trips on a 3x slower fig11L, lets a 1.3x
# slower one pass, and skips a run from a host with another core count.
# Runs on the deterministic simulator, so the clean comparison is exact and
# the test has no flake margin. Used by `scripts/check.sh bench` and the
# BenchGate ctest.
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
# store FILE COMPLETED SHED: a one-run svc store with one latency row.
store() {
  cat > "$1" <<EOF
{"version": 1, "runs": [{"commit": "selftest", "note": "",
 "config": {"targets": ["svc"], "presets": "mini8", "quick": true,
            "backend": "fiber", "fault": ""},
 "points": {"svc/mini8/completed/all": $2, "svc/mini8/shed/all": $3,
            "svc/mini8/p50_us/all": 10.0}}]}
EOF
}
store "$tmp/svc_base.json" 1000 0
store "$tmp/svc_fewer.json" 900 0
store "$tmp/svc_shed.json" 1000 5
store "$tmp/svc_more.json" 1100 0
for bad in fewer shed; do
  if scripts/bench_compare --store="$tmp/svc_base.json" \
      --candidate="$tmp/svc_$bad.json"; then
    echo "bench gate self-test: FAIL — svc_$bad candidate passed the gate" >&2
    exit 1
  fi
done
scripts/bench_compare --store="$tmp/svc_base.json" \
  --candidate="$tmp/svc_more.json"
# wall FILE SECONDS CORES: a one-run fig11L store with one unchanged point
# and the given median host wall time and host core count.
wall() {
  cat > "$1" <<EOF
{"version": 1, "runs": [{"commit": "selftest", "note": "",
 "config": {"targets": ["fig11L"], "presets": "mini8", "quick": true,
            "backend": "fiber", "fault": ""},
 "points": {"fig11L/mini8/xhc/4": 1.0},
 "wall_s": {"fig11L": $2}, "host_cores": $3}]}
EOF
}
wall "$tmp/wall_base.json" 4.0 4
wall "$tmp/wall_3x.json" 12.0 4
wall "$tmp/wall_1.3x.json" 5.2 4
wall "$tmp/wall_cores.json" 12.0 8
if scripts/bench_compare --store="$tmp/wall_base.json" \
    --candidate="$tmp/wall_3x.json"; then
  echo "bench gate self-test: FAIL — 3x slower fig11L passed the gate" >&2
  exit 1
fi
scripts/bench_compare --store="$tmp/wall_base.json" \
  --candidate="$tmp/wall_1.3x.json"
scripts/bench_compare --store="$tmp/wall_base.json" \
  --candidate="$tmp/wall_cores.json" | tee "$tmp/cores.out"
grep -q 'wall fig11L .* skipped' "$tmp/cores.out"
echo "bench gate self-test: ok (clean passes, straggler fails," \
  "svc count rows gate in their direction, host wall gate trips at 3x" \
  "and skips other core counts)"
