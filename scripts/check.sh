#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the test suite — optionally
# under a sanitizer (each mode gets its own build directory). Outside TSan
# trees every test runs with the protocol ledger on (tests/CMakeLists.txt).
#
#   scripts/check.sh            # plain tier-1 build + ctest (build/)
#   scripts/check.sh thread     # ThreadSanitizer       (build-tsan/)
#   scripts/check.sh address    # Address+UB sanitizer  (build-asan/)
#   scripts/check.sh undefined  # UBSan alone           (build-ubsan/)
#   scripts/check.sh fault      # chaos suite: fixed seed sweep (build/)
#                               # plus the same under TSan (build-tsan/)
#   scripts/check.sh bench      # perf regression gate: quick fig8L+
#                               # fig11L (the Fig. 8/11 sweeps with the
#                               # large sizes)+fig10+fig4+svc, then the
#                               # reduce bench as its own run, each vs
#                               # BENCH_perf.json + gate self-test
#   scripts/check.sh largemsg   # large-message path gate: bandwidth-engine
#                               # tests, verified --large sweeps, bit-identity
#                               # of quick-table rows at or below the default
#                               # thresholds with the paths disabled,
#                               # seeded chaos over large sizes, TSan +
#                               # threads-backend reruns
#   scripts/check.sh coherence  # coherence observatory gate: scenario
#                               # assertions, --coherence determinism,
#                               # zero-cost contract, model tests under
#                               # TSan + the threads backend
#   scripts/check.sh service    # multi-tenant service gate: svc + fault
#                               # suites, a 100k-request/8-tenant soak with
#                               # byte-determinism across reruns and the
#                               # threads backend, seeded-fault soaks
#                               # (incl. comm=-filtered clauses), a
#                               # wider-node soak, and the svc tests under
#                               # TSan
#   scripts/check.sh telemetry  # service telemetry gate: obs/svc telemetry
#                               # suites, off-path bit-identity for fig8 +
#                               # loadgen with the plane disabled, byte-
#                               # determinism of every export across reruns,
#                               # the threads backend and --jobs, table
#                               # invariance with the plane attached, and
#                               # the SLO gate self-test (seeded straggler
#                               # must trip it)
#   scripts/check.sh lint       # full static pass: flag-protocol lints
#                               # (incl. --selftest), a -Werror build of
#                               # every target (build-werror/), and
#                               # run-clang-tidy over src/ with warnings-
#                               # as-errors (skipped with a note when
#                               # clang-tidy is absent)
#   scripts/check.sh analyze    # schedule verification: the analyzer
#                               # sweep over every preset x op x size class
#                               # plus the steady-state cells
#                               # (build/bench/analyze_protocol)
#   scripts/check.sh timing     # timing-only data plane proof: every
#                               # bench-store target that runs the OSU
#                               # harness (fig8L, fig11L, fig10, fig4,
#                               # reduce) on each paper preset prints
#                               # byte-identical tables with and without
#                               # --verify
#
# Extra arguments after the mode are forwarded to ctest, e.g.
#   scripts/check.sh thread -R Obs
set -euo pipefail
shopt -s inherit_errexit
cd "$(dirname "$0")/.."

mode="${1:-}"
[ $# -gt 0 ] && shift

# Quick bench-store sweep through the regression gate (DESIGN.md §
# Observatory): first the self-test proving the gate can fail, then the
# candidate-vs-committed-baseline comparison. The sweeps run on the
# deterministic simulator, so the 5% default threshold has no flake margin.
run_bench_gate() {
  local build_dir="$1"
  scripts/bench_gate_selftest.sh "$build_dir"
  if [ -f BENCH_perf.json ]; then
    local cand red
    cand="$(mktemp)"
    red="$(mktemp)"
    # shellcheck disable=SC2064
    trap "rm -f '$cand' '$red'" RETURN
    scripts/bench_store.py record --out="$cand" --build="$build_dir"
    scripts/bench_compare --store=BENCH_perf.json --candidate="$cand"
    # The reduce extension bench is a run of its own (bench_store.py).
    scripts/bench_store.py record --out="$red" --build="$build_dir" \
      --targets=reduce
    scripts/bench_compare --store=BENCH_perf.json --candidate="$red"
  else
    echo "no BENCH_perf.json — recording a baseline (commit it)"
    scripts/bench_store.py record --build="$build_dir"
  fi
}

# Timing-only data plane proof (DESIGN.md § Host data plane): without
# --verify the OSU sweeps move no payload bytes, with it they move and check
# every byte, and the tables must not differ by one byte. That also asserts
# the cost model never reads payload content. Arguments mirror
# bench_store.py's TARGETS in its default --quick mode, one paper preset at
# a time (fig10 and fig4 otherwise run a single default preset).
run_timing_gate() {
  local build_dir="$1" tmp target bin extra preset out
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$tmp'" RETURN
  for target in fig8L:bench_fig8_bcast:--large \
      fig11L:bench_fig11_allreduce:--large \
      fig10:bench_fig10_cacheline: fig4:bench_fig4_atomics: \
      reduce:bench_ext_reduce_barrier:; do
    IFS=: read -r target bin extra <<< "$target"
    for preset in epyc1p epyc2p armn1; do
      out="$tmp/$target.$preset"
      # shellcheck disable=SC2086
      "$build_dir/bench/$bin" --csv --jobs=0 --quick --preset="$preset" \
        $extra > "$out.timing"
      # shellcheck disable=SC2086
      "$build_dir/bench/$bin" --csv --jobs=0 --quick --preset="$preset" \
        $extra --verify > "$out.full"
      grep -q '^== ' "$out.timing"  # a table was printed at all
      diff "$out.timing" "$out.full"
      echo "$target/$preset: timing-only and full-data tables identical"
    done
  done
}

case "$mode" in
  "")
    build_dir=build
    cmake_args=()
    ;;
  thread)
    build_dir=build-tsan
    cmake_args=(-DXHC_SANITIZE=thread)
    ;;
  address)
    build_dir=build-asan
    cmake_args=(-DXHC_SANITIZE=address)
    ;;
  undefined)
    build_dir=build-ubsan
    cmake_args=(-DXHC_SANITIZE=undefined)
    ;;
  fault)
    # Chaos mode: the fault/degradation suite in the plain build, a seeded
    # bench sweep proving every scenario terminates, then the same tests
    # under TSan (fiber backend, annotated switches) to keep the watchdog
    # and abort paths race-clean.
    scripts/lint_flags.sh
    cmake -B build -S .
    cmake --build build -j "$(nproc)"
    (cd build && ctest --output-on-failure -j "$(nproc)" \
      -R 'Fault|GuardedMain|RegCache' "$@")
    echo "== seeded chaos sweep: bench_fig8_bcast --fault =="
    spec='attach,prob=0.2;regmiss,prob=0.3;straggler,prob=0.2,delay=2e-6;flagdelay,prob=0.1,delay=1e-6'
    for seed in 1 7 42 1337 12648430; do
      build/bench/bench_fig8_bcast --quick --preset=mini8 \
        --fault="$spec" --fault-seed="$seed" > /dev/null
      echo "seed $seed: ok"
    done
    cmake -B build-tsan -S . -DXHC_SANITIZE=thread
    cmake --build build-tsan -j "$(nproc)"
    (cd build-tsan && ctest --output-on-failure -j "$(nproc)" \
      -R 'Fault|GuardedMain' "$@")
    exit 0
    ;;
  bench)
    cmake -B build -S .
    cmake --build build -j "$(nproc)"
    run_bench_gate build
    exit 0
    ;;
  largemsg)
    # Large-message path gate (DESIGN.md § Large-message paths): the
    # bandwidth-engine test groups, result-verified --large sweeps of the
    # allreduce and bcast benches, a bit-identity check that the quick
    # tables' rows at or below the default thresholds are unchanged when the
    # large paths are force disabled, a seeded chaos sweep over large sizes,
    # and the same test groups again under the threads backend and TSan.
    scripts/lint_flags.sh
    cmake -B build -S .
    cmake --build build -j "$(nproc)"
    largemsg_tests='LargeMsg|LlcShardNest|CacheTree|Chain|Collectives|ReduceKernels|ShardPlan|Partition|ShardSchedule|Reduce\.'
    (cd build && ctest --output-on-failure -j "$(nproc)" \
      -R "$largemsg_tests" "$@")
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    echo "== result-verified large sweeps =="
    build/bench/bench_fig11_allreduce --quick --large --verify \
      --preset=epyc2p > /dev/null
    # xhc pipelines every bcast by default (xhc-flat and ucc stripe above
    # their pinned 128 KiB), so the last run stripes xhc's tree as well.
    # Its upper levels pull along the chain above 2 MiB on the Epycs (4 MiB
    # here) and above 128 KiB on armn1 (256 KiB, 1 MiB and 4 MiB).
    for preset in epyc2p epyc1p armn1; do
      build/bench/bench_fig8_bcast --quick --large --verify \
        --preset="$preset" > /dev/null
    done
    build/bench/bench_fig8_bcast --quick --large --verify \
      --preset=epyc2p --tune=xhc_stripe_threshold=131072 > /dev/null
    # Tiny grids with the thresholds pulled down: the nested schedule and
    # xhc's striping run on every size of the quick sweep under
    # verification (xhc-flat keeps its pinned 128 KiB here; its striping at
    # small sizes is LargeMsgPaths.BcastStripedPayloadIntegrity's).
    build/bench/bench_fig11_allreduce --quick --verify --preset=mini8 \
      --tune=xhc_rs_ag_threshold=4096 > /dev/null
    build/bench/bench_fig8_bcast --quick --verify --preset=mini16 \
      --tune=xhc_stripe_threshold=4096 > /dev/null
    echo "verified sweeps: ok"
    echo "== bit-identity: rows at or below the thresholds unchanged with large paths off =="
    # Keeps the header lines and the rows whose Size is at most $1 bytes.
    rows_upto() {
      awk -F, -v max="$1" '$1 ~ /^[0-9]+[KM]?$/ {
        n = $1 + 0
        if ($1 ~ /K$/) n *= 1024
        if ($1 ~ /M$/) n *= 1048576
        if (n > max) next
      } { print }'
    }
    # The "on" side enables xhc's striping at 128 KiB (its default stripes
    # nothing; xhc-flat and ucc pin 128 KiB and ignore the key), which lies
    # above fig8's whole quick sweep; the default rs_ag_threshold (8 KiB)
    # splits fig11's, so only its 4 B-4 KiB rows stay on the latency path.
    for fig in fig8_bcast:131072 fig11_allreduce:8192; do
      max="${fig#*:}" fig="${fig%:*}"
      "build/bench/bench_$fig" --quick --csv --jobs=0 \
        --tune=xhc_stripe_threshold=131072 \
        | rows_upto "$max" > "$tmp/$fig.on"
      "build/bench/bench_$fig" --quick --csv --jobs=0 \
        --tune=xhc_rs_ag_threshold=0 --tune=xhc_stripe_threshold=0 \
        | rows_upto "$max" > "$tmp/$fig.off"
      diff "$tmp/$fig.on" "$tmp/$fig.off"
      echo "$fig: rows <= $max B bit-identical"
    done
    echo "== seeded chaos sweep over large sizes =="
    spec='attach,prob=0.2;regmiss,prob=0.3;straggler,prob=0.2,delay=2e-6;flagdelay,prob=0.1,delay=1e-6'
    for seed in 1 42 1337; do
      build/bench/bench_fig11_allreduce --quick --large --preset=mini16 \
        --fault="$spec" --fault-seed="$seed" > /dev/null
      echo "seed $seed: ok"
    done
    echo "== threads backend =="
    (cd build && XHC_SIM_BACKEND=threads ctest --output-on-failure \
      -j "$(nproc)" -R "$largemsg_tests" "$@")
    echo "== TSan =="
    cmake -B build-tsan -S . -DXHC_SANITIZE=thread
    cmake --build build-tsan -j "$(nproc)"
    (cd build-tsan && ctest --output-on-failure -j "$(nproc)" \
      -R "$largemsg_tests" "$@")
    echo "largemsg gate: OK"
    exit 0
    ;;
  coherence)
    # Coherence observatory gate (DESIGN.md § Coherence observatory).
    # The fig10/fig4 binaries carry always-on scenario assertions (packed
    # announce lines strictly costlier than separated; ~N ownership
    # transfers for N concurrent RMWs), so plain quick runs already gate
    # the model's mechanisms; on top of that this mode checks that
    # --coherence output is byte-deterministic across runs and --jobs,
    # that tracking never shifts virtual time (fig8 tables identical with
    # and without --coherence), and that the model tests stay clean under
    # TSan and the threads scheduler backend.
    scripts/lint_flags.sh
    cmake -B build -S .
    cmake --build build -j "$(nproc)"
    # The model suites include the flat per-event tables' own tests: the
    # cache model's residency, the flag-history window and the per-rank
    # block lookup across a free.
    coh_tests='LineModel|SimMachineCoh|SimCacheModel|SimFlagHist|SimMachineFree'
    (cd build && ctest --output-on-failure -j "$(nproc)" \
      -R "$coh_tests|VerifyLayout" "$@")
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    echo "== scenario assertions + determinism: fig10 =="
    build/bench/bench_fig10_cacheline --quick --coherence > "$tmp/f10.a"
    build/bench/bench_fig10_cacheline --quick --coherence > "$tmp/f10.b"
    build/bench/bench_fig10_cacheline --quick --coherence --jobs=4 \
      > "$tmp/f10.j"
    diff "$tmp/f10.a" "$tmp/f10.b"
    diff "$tmp/f10.a" "$tmp/f10.j"
    grep -q 'coherence assertion' "$tmp/f10.a"
    echo "fig10: deterministic (repeat + --jobs=4), assertion passed"
    echo "== scenario assertions + determinism: fig4 =="
    build/bench/bench_fig4_atomics --quick --coherence > "$tmp/f4.a"
    build/bench/bench_fig4_atomics --quick --coherence --jobs=4 > "$tmp/f4.b"
    diff "$tmp/f4.a" "$tmp/f4.b"
    grep -q 'coherence assertion' "$tmp/f4.a"
    echo "fig4: deterministic (repeat + --jobs=4), assertion passed"
    echo "== zero-cost contract: fig8 tables unchanged by tracking =="
    # Single preset, so the coherence sections are strictly after the
    # latency table; blank lines are squeezed on both sides so only real
    # content is compared.
    build/bench/bench_fig8_bcast --quick --preset=mini8 \
      | awk 'NF' > "$tmp/f8.plain"
    build/bench/bench_fig8_bcast --quick --preset=mini8 --coherence \
      | sed '/^== Coherence/,$d' | awk 'NF' > "$tmp/f8.coh"
    diff "$tmp/f8.plain" "$tmp/f8.coh"
    echo "fig8: latency table identical with tracking on (report stripped)"
    build/bench/bench_fig11_allreduce --quick --preset=mini8 --coherence \
      > "$tmp/f11.coh"
    grep -q '^== Coherence' "$tmp/f11.coh"
    echo "fig11: prints its coherence report"
    echo "== threads backend =="
    XHC_SIM_BACKEND=threads build/bench/bench_fig10_cacheline --quick \
      > /dev/null
    (cd build && XHC_SIM_BACKEND=threads ctest --output-on-failure \
      -j "$(nproc)" -R "$coh_tests" "$@")
    echo "== TSan =="
    cmake -B build-tsan -S . -DXHC_SANITIZE=thread
    cmake --build build-tsan -j "$(nproc)"
    (cd build-tsan && ctest --output-on-failure -j "$(nproc)" \
      -R "$coh_tests|VerifyLayout" "$@")
    echo "coherence gate: OK"
    exit 0
    ;;
  service)
    # Multi-tenant service gate (DESIGN.md § Multi-tenant service): the
    # svc unit/property suites plus the comm-aware fault tests, then a
    # 100k-request soak across 8 overlapping tenants on mini8 — run twice
    # and once under the threads backend, all three tables byte-identical —
    # then seeded chaos soaks (including a comm=-filtered straggler clause)
    # proving integrity holds under injected faults, a moderate soak on the
    # wider epyc2p node, and the svc + fault suites again under TSan.
    # bench_loadgen exits non-zero on any payload integrity mismatch, so
    # every soak line is a gate, not a smoke run.
    scripts/lint_flags.sh
    cmake -B build -S .
    cmake --build build -j "$(nproc)"
    (cd build && ctest --output-on-failure -j "$(nproc)" \
      -R 'Svc|FaultSpec|FaultDrop|ServiceSoakQuick' "$@")
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    echo "== 100k-request soak: 8 tenants, mini8 =="
    soak=(build/bench/bench_loadgen --preset=mini8 --comms=8
          --duration=100000 --csv --jobs=0)
    "${soak[@]}" > "$tmp/soak.a"
    "${soak[@]}" > "$tmp/soak.b"
    diff "$tmp/soak.a" "$tmp/soak.b"
    XHC_SIM_BACKEND=threads "${soak[@]}" > "$tmp/soak.t"
    diff "$tmp/soak.a" "$tmp/soak.t"
    echo "soak: clean, byte-deterministic (rerun + threads backend)"
    echo "== seeded chaos soaks =="
    spec='attach,prob=0.05;regmiss,prob=0.2;straggler,prob=0.1,delay=2e-6'
    spec+=';flagdelay,prob=0.05,delay=1e-6'
    spec+=';straggler,comm=3,prob=0.5,delay=1e-5'
    for seed in 1 42 1337; do
      build/bench/bench_loadgen --preset=mini8 --comms=8 --duration=20000 \
        --fault="$spec" --fault-seed="$seed" > /dev/null
      echo "seed $seed: ok"
    done
    echo "== wider-node soak: 8 tenants, epyc2p =="
    build/bench/bench_loadgen --preset=epyc2p --comms=8 --duration=5000 \
      > /dev/null
    echo "epyc2p: ok"
    echo "== TSan =="
    cmake -B build-tsan -S . -DXHC_SANITIZE=thread
    cmake --build build-tsan -j "$(nproc)"
    (cd build-tsan && ctest --output-on-failure -j "$(nproc)" \
      -R 'Svc|FaultSpec|FaultDrop' "$@")
    echo "service gate: OK"
    exit 0
    ;;
  telemetry)
    # Service telemetry gate (DESIGN.md § Service telemetry plane): the
    # time-series and telemetry unit suites, the off-path contract (fig8
    # and the quick soak bit-identical with the plane disabled vs a plain
    # run; the soak's service tables unchanged when the plane is attached),
    # byte-determinism of every export (reqlog, windows JSON, interference
    # report, chrome trace) across reruns, the threads backend and --jobs
    # (the three paper presets as parallel points), and the SLO gate
    # self-test proving the monitor can fail.
    scripts/lint_flags.sh
    cmake -B build -S .
    cmake --build build -j "$(nproc)"
    (cd build && ctest --output-on-failure -j "$(nproc)" \
      -R 'Obs|SvcTelemetry|Hist|Metrics|TelemetryGateSelfTest' "$@")
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    echo "== off-path contract: quick tables with and without telemetry =="
    base=(build/bench/bench_loadgen --quick --preset=mini8 --csv --jobs=0)
    "${base[@]}" > "$tmp/soak.plain"
    # With the plane attached, the service tables (everything before the
    # interference report) must be byte-identical: recording never charges.
    "${base[@]}" --windows=0.01 --reqlog="$tmp/req.json" \
      --windows-out="$tmp/win.json" \
      | sed '/^== Interference/,$d' | awk 'NF' > "$tmp/soak.tele"
    diff <(awk 'NF' "$tmp/soak.plain") "$tmp/soak.tele"
    echo "loadgen: service tables identical with the plane attached"
    build/bench/bench_fig8_bcast --quick --preset=mini8 --csv --jobs=0 \
      > "$tmp/f8.plain"
    build/bench/bench_fig8_bcast --quick --preset=mini8 --csv --jobs=0 \
      --trace-out="$tmp/f8.trace.json" \
      | grep -v '^trace written' > "$tmp/f8.traced"
    diff "$tmp/f8.plain" "$tmp/f8.traced"
    echo "fig8: tables identical with tracing on (trace line stripped)"
    echo "== export byte-determinism: rerun + threads backend =="
    tele=(build/bench/bench_loadgen --quick --preset=mini8 --csv --jobs=0
          --windows=0.01 --slo='*:p99=5s' --metrics --hist --critpath)
    run_tele() {  # $1 = tag; exports land in a per-tag dir so names match
      mkdir -p "$tmp/$1"
      "${tele[@]}" --reqlog="$tmp/$1/req.json" \
        --windows-out="$tmp/$1/win.json" \
        --trace-out="$tmp/$1/trace.json" > "$tmp/$1/stdout"
      # Drop the export confirmation lines (their paths embed the tag).
      grep -v 'written: ' "$tmp/$1/stdout" > "$tmp/$1/stdout.cmp"
      rm "$tmp/$1/stdout"
    }
    run_tele a
    run_tele b
    (export XHC_SIM_BACKEND=threads; run_tele t)
    diff -r "$tmp/a" "$tmp/b"
    diff -r "$tmp/a" "$tmp/t"
    echo "exports: byte-deterministic (rerun + threads backend)"
    echo "== loadgen on the paper presets: --jobs=1 vs --jobs=3 =="
    for jobs in 1 3; do
      mkdir -p "$tmp/j$jobs"
      build/bench/bench_loadgen --quick --jobs="$jobs" --windows=0.01 \
        --metrics --hist --critpath --trace-out="$tmp/j$jobs/trace.json" \
        --windows-out="$tmp/j$jobs/win.json" --reqlog="$tmp/j$jobs/req.json" \
        | grep -v 'written: ' > "$tmp/j$jobs/stdout"
    done
    diff -r "$tmp/j1" "$tmp/j3"
    echo "loadgen: stdout and every export identical at --jobs=1 and --jobs=3"
    scripts/telemetry_gate_selftest.sh build
    echo "telemetry gate: OK"
    exit 0
    ;;
  lint)
    # Full static pass: the flag-protocol lints (plus their self-test, so a
    # broken rule 5 can't silently pass), every target (library, tests,
    # benches, examples) built with the compiler's -Wall -Wextra findings
    # promoted to errors, and run-clang-tidy over all of src/ with every
    # finding promoted to an error. The tidy pass needs a compilation
    # database, so configure the plain build first; when the tool itself
    # is absent the pass is skipped with a note (lint_flags.sh already ran
    # its narrower clang-tidy core pass the same way).
    scripts/lint_flags.sh --selftest
    scripts/lint_flags.sh
    echo "== -Werror build (build-werror/) =="
    cmake -B build-werror -S . -DXHC_WERROR=ON > /dev/null
    cmake --build build-werror -j "$(nproc)"
    cmake -B build -S . > /dev/null
    tidy=""
    for t in run-clang-tidy run-clang-tidy.py; do
      if command -v "$t" > /dev/null 2>&1; then
        tidy="$t"
        break
      fi
    done
    if [ -n "$tidy" ]; then
      echo "== run-clang-tidy over src/ (warnings-as-errors) =="
      "$tidy" -p build -quiet -warnings-as-errors='*' "^$(pwd)/src/"
    else
      echo "note: run-clang-tidy not installed; skipping the enforced" >&2
      echo "tidy pass over src/ (grep lints above still gate)" >&2
    fi
    echo "lint gate: OK"
    exit 0
    ;;
  timing)
    cmake -B build -S .
    cmake --build build -j "$(nproc)"
    run_timing_gate build
    echo "timing gate: OK"
    exit 0
    ;;
  analyze)
    # Schedule verification (DESIGN.md § Static analysis): build the
    # analyzer driver, record every preset x op x size class (and the
    # steady-state sequences) from the real collectives, and verify
    # single-writer discipline, monotonicity, threshold reachability,
    # deadlock-freedom (acyclicity), and the race check: every pair of
    # conflicting payload accesses is ordered by happens-before. Extra args
    # are forwarded to the driver (e.g. --preset=mini8 --op=bcast --json).
    cmake -B build -S .
    cmake --build build -j "$(nproc)" --target analyze_protocol
    build/bench/analyze_protocol "$@"
    exit $?
    ;;
  *)
    echo "usage: $0" \
         "[thread|address|undefined|fault|bench|largemsg|coherence|" \
         "service|telemetry|lint|analyze|timing] [ctest args...]" >&2
    exit 2
    ;;
esac

# Static pass first: raw atomic accesses on flags outside the mach layer are
# protocol escapes the runtime ledger can't see.
scripts/lint_flags.sh

cmake -B "$build_dir" -S . "${cmake_args[@]}"
cmake --build "$build_dir" -j "$(nproc)"
cd "$build_dir"
ctest --output-on-failure -j "$(nproc)" "$@"

# The virtual-time engine has two backends (fiber default; threads is the
# condvar reference). TSan builds now run the fiber backend natively via
# annotated switches, so re-run the simulation tests under the thread
# backend in both the plain and TSan modes to keep both handoff mechanisms
# covered by every check run. (ASan forces threads at compile time already;
# a UBSan rerun would only repeat identical single-threaded logic.)
if [ "$mode" = "" ] || [ "$mode" = thread ]; then
  echo "== re-running sim tests under XHC_SIM_BACKEND=threads =="
  XHC_SIM_BACKEND=threads ctest --output-on-failure -j "$(nproc)" \
    -R 'Sim|Backend|Sched|Collectives|Fault|Check|Svc|TimingOnly|CacheTree|LineModel|RegCache|Verify|Obs|Hist' "$@"
fi

# The default full run also walks the quick sweeps through the perf gate
# and the timing-only data plane proof.
if [ "$mode" = "" ]; then
  cd ..
  echo "== bench regression gate =="
  run_bench_gate "$build_dir"
  echo "== timing-only data plane: tables identical with --verify =="
  run_timing_gate "$build_dir"
fi
