#!/usr/bin/env bash
# Proves observability output does not depend on --jobs: each figure bench
# that observes its sweep points (fig8, fig4, fig10, the reduce extension)
# runs on mini8 with every observability flag at --jobs=1 and --jobs=3, and
# stdout (minus the `written:` lines, whose paths differ) and every export
# must be byte-identical. Each point owns its machine and observer, so only
# the dispatch order varies. Used by the ObsJobsParity ctest; in a TSan tree
# the TSan-built benches run the points' observers concurrently.
#
#   scripts/obs_jobs_parity.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
build="${1:-build}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for bench in bench_fig8_bcast bench_fig4_atomics bench_fig10_cacheline \
    bench_ext_reduce_barrier; do
  for jobs in 1 3; do
    out="$tmp/$bench/j$jobs"
    mkdir -p "$out"
    "$build/bench/$bench" --quick --preset=mini8 --jobs="$jobs" --metrics \
      --hist --critpath --coherence --trace-out="$out/trace.json" \
      --hist-out="$out/hist.json" | grep -v 'written: ' > "$out/stdout"
  done
  ls "$tmp/$bench/j1"/trace.*.json > /dev/null  # a trace was written at all
  diff -r "$tmp/$bench/j1" "$tmp/$bench/j3"
  echo "$bench: observability output identical at --jobs=1 and --jobs=3"
done
echo "obs jobs parity: ok"
