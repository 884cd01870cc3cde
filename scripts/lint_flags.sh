#!/usr/bin/env bash
# Static companion to the runtime protocol verifier (src/verify/): the
# ledger can only judge flag traffic that flows through the Machine flag
# API, so this pass rejects code that touches mach::Flag's atomic directly
# or reaches for seq_cst (the paper's protocol is release/acquire plus
# whitelisted acq_rel RMW — a seq_cst access is always a smell here). It
# also keeps src/ to one splitmix64 mixer, the one every payload byte and
# every payload check derives from, and keeps the components' payload
# traffic on the mach::Ctx data operations.
#
#   scripts/lint_flags.sh             # grep passes + clang-tidy (if installed)
#   scripts/lint_flags.sh --selftest  # prove rules 4, 5, 6 and 7 can fail:
#                                     # a seeded control-block flag missing
#                                     # from the field list, a seeded
#                                     # unregistered wait and await, a
#                                     # seeded mixer copy and a seeded
#                                     # memcpy in a component must be
#                                     # rejected
#
# Exits nonzero on any violation.
set -euo pipefail
shopt -s inherit_errexit
cd "$(dirname "$0")/.."

# --- rule 4 machinery (defined early so --selftest can reuse it) -----------
#
# The XHC control blocks are described by one field list per block kind in
# src/core/ctl.cpp (`f(c.seq, {"seq", ...})` entries in fields_of), which
# sizes, places, names and lints every block CtlArena builds. Prints the
# listed fields.
ctl_list_fields() {
  local root="$1"
  { grep -oE '\bf\(c\.[A-Za-z_]+,' "$root/src/core/ctl.cpp" 2> /dev/null \
      || true; } | sed -E 's/^f\(c\.([A-Za-z_]+),$/\1/' | sort -u
}

# Every mach::Flag field declared in the shared control blocks
# (src/core/ctl.h) must be in the field list: a flag the list never names
# is invisible to both the protocol ledger and the false-sharing lint, so
# adding a field without listing it silently shrinks verification coverage.
check_ctl_fields() {
  local root="$1"
  local declared listed f unlisted=""
  declared=$(grep -oE \
      '(util::CachePadded<mach::Flag>|mach::Flag)\* *[A-Za-z_]+' \
      "$root/src/core/ctl.h" | awk '{print $NF}' | sort -u)
  listed=$(ctl_list_fields "$root")
  for f in $declared; do
    if ! grep -qxF "$f" <<< "$listed"; then
      unlisted+=" $f"
    fi
  done
  if [ -n "$unlisted" ]; then
    echo "error: mach::Flag fields in src/core/ctl.h missing from the field" >&2
    echo "lists in src/core/ctl.cpp:$unlisted" >&2
    return 1
  fi
  return 0
}

# --- rule 5 machinery -------------------------------------------------------
#
# Registered flag fields: the control-block fields of the field lists
# (rule 4), which CtlArena registers, plus every identifier that appears as
# the flag operand of a verify::Ledger::register_flag call (the shm/p2p
# components' and the service layer's own registrations).
reg_fields=$( {
  ctl_list_fields .
  grep -RhoE 'register_flag\(&\*?[A-Za-z_][A-Za-z0-9_>.-]*' \
      src/core src/base src/p2p src/smsc src/svc 2> /dev/null \
    | sed -E 's/.*[.>]([A-Za-z_][A-Za-z0-9_]*)$/\1/' \
    | grep -vE '[(&*]'
} | sort -u)
fields_re=$(echo "$reg_fields" | paste -sd'|' -)

# Every blocking wait site must name a ledger-registered flag: the wait's
# flag operand has to reference one of the registered control-block fields.
# A wait site is a `flag_wait_ge(<flag>, ...)` call or a call of XHC's wait
# step `await(ctx, <flag>, ...)`. A wait on a scratch flag is invisible to
# the runtime ledger and carries no name or writer policy into the schedule
# analyzer (src/check/), so the deadlock/threshold analyses would silently
# lose coverage. Excluded: src/mach + src/sim (the machine implementations
# the API bottoms out in), src/check (the interpreter replays recorded flag
# events on fresh flags it registers itself at runtime), and two forwarding
# layers whose flag operand is a parameter, linted at their call sites
# instead: the tenant shims in src/svc/tenant.h (pure pass-throughs to the
# parent machine) and the one flag_wait_ge inside XhcComponent::await.
check_wait_sites() {
  local root="$1"
  local sites bad=""
  local await_body="^$root/src/core/xhc_component\.cpp:[0-9]+:"
  await_body+=" *ctx\.flag_wait_ge\(flag, value\);$"
  sites=$(grep -RnE 'flag_wait_ge\(|\bawait\(ctx,' "$root/src" 2> /dev/null \
    | grep -vE "^$root/src/(mach|sim|check)/" \
    | grep -vE "^$root/src/svc/tenant\.h:" \
    | grep -vE "$await_body" \
    | grep -vE ':[0-9]+: *(//|\*|///)' || true)
  while IFS= read -r line; do
    [ -z "$line" ] && continue
    if ! echo "$line" \
        | grep -qE "(flag_wait_ge\(|\bawait\(ctx, *)[^,]*\b($fields_re)\b"
    then
      bad+="$line"$'\n'
    fi
  done <<< "$sites"
  if [ -n "$bad" ]; then
    echo "error: blocking wait on a flag that is never registered with the" >&2
    echo "verify ledger (register it so the protocol ledger and the static" >&2
    echo "schedule analyzer can see it):" >&2
    printf '%s' "$bad" >&2
    return 1
  fi
  return 0
}

# --- rule 6 machinery -------------------------------------------------------
#
# Every payload generator and checker derives from util::splitmix_word
# (src/util/prng.h, DESIGN.md § Host data plane). A private copy of the
# mixer elsewhere in src/ would be a second definition of the payload bytes,
# free to drift from the one the checkers use, so the mixer's multipliers
# may appear only in prng.h.
check_mixer_copies() {
  local root="$1"
  local hits
  hits=$(grep -RniE '0xbf58476d1ce4e5b9|0x94d049bb133111eb' "$root/src" \
      2> /dev/null | grep -vE "^$root/src/util/prng\.h:" || true)
  if [ -n "$hits" ]; then
    echo "error: splitmix64 mixer outside src/util/prng.h (derive payloads" >&2
    echo "and their checks from util::splitmix_word / fill_pattern /" >&2
    echo "fill_operands):" >&2
    echo "$hits" >&2
    return 1
  fi
  return 0
}

# --- rule 7 machinery -------------------------------------------------------
#
# Components move payload only through mach::Ctx (copy, reduce,
# write_payload). The machine then sees every byte it prices, and the
# simulator's timing-only data plane may skip the bytes themselves
# (DESIGN.md § Host data plane): no component code reads or writes payload
# behind the machine's back. A direct memcpy, memset, std::copy or host
# fold/fill helper in a component breaks both. Comment lines are prose.
check_payload_bypass() {
  local root="$1"
  local calls='\b(memcpy|memmove|memset|memcmp|std::copy|copy_payload'
  calls+='|reduce_apply|fill_pattern|fill_operands)\b'
  local dirs=() d hits
  for d in core base p2p smsc coll; do
    [ -d "$root/src/$d" ] && dirs+=("$root/src/$d")
  done
  hits=$(grep -RnE "$calls" "${dirs[@]}" 2> /dev/null \
    | grep -vE ':[0-9]+: *(//|\*)' || true)
  if [ -n "$hits" ]; then
    echo "error: payload moved outside mach::Ctx in a component (use" >&2
    echo "ctx.copy / ctx.reduce / ctx.write_payload so the machine prices" >&2
    echo "the bytes and the timing-only data plane stays sound):" >&2
    echo "$hits" >&2
    return 1
  fi
  return 0
}

if [ "${1:-}" = "--selftest" ]; then
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  mkdir -p "$tmp/src/core" "$tmp/src/svc" "$tmp/src/util"
  cp src/core/ctl.h src/core/ctl.cpp "$tmp/src/core/"
  check_ctl_fields "$tmp"
  sed -i 's|^struct GroupCtl {$|&\n  util::CachePadded<mach::Flag>* seeded = nullptr;|' \
      "$tmp/src/core/ctl.h"
  if ! grep -q 'seeded = nullptr' "$tmp/src/core/ctl.h" \
      || check_ctl_fields "$tmp" > /dev/null 2>&1; then
    echo "lint_flags --selftest: FAILED (seeded unlisted ctl flag passed)" >&2
    exit 1
  fi
  rm "$tmp/src/core/ctl.h" "$tmp/src/core/ctl.cpp"
  cat > "$tmp/src/core/seeded.cpp" << 'EOF'
void seeded(xhc::mach::Ctx& ctx, xhc::mach::Flag& scratch) {
  ctx.flag_wait_ge(scratch, 1);  // seeded violation: unregistered flag
}
EOF
  if check_wait_sites "$tmp" > /dev/null 2>&1; then
    echo "lint_flags --selftest: FAILED (seeded unregistered wait passed)" >&2
    exit 1
  fi
  cat > "$tmp/src/core/seeded.cpp" << 'EOF'
void XhcComponent::seeded(xhc::mach::Ctx& ctx, xhc::mach::Flag& scratch) {
  await(ctx, scratch, 1, "seeded", 0, 0);  // seeded: unregistered await
}
EOF
  if check_wait_sites "$tmp" > /dev/null 2>&1; then
    echo "lint_flags --selftest: FAILED (seeded unregistered await passed)" >&2
    exit 1
  fi
  cat > "$tmp/src/core/seeded.cpp" << 'EOF'
void fine(xhc::mach::Ctx& ctx, xhc::core::GroupCtl& ctl) {
  ctx.flag_wait_ge(*ctl.seq[0], 1);
  await(ctx, *ctl.announce[0], 1, "fine", 0, 0);
}
EOF
  check_wait_sites "$tmp"
  cat > "$tmp/src/svc/seeded.cpp" << 'EOF'
std::uint64_t private_mix(std::uint64_t z) {  // seeded violation: a copy
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
EOF
  if check_mixer_copies "$tmp" > /dev/null 2>&1; then
    echo "lint_flags --selftest: FAILED (seeded mixer copy passed)" >&2
    exit 1
  fi
  mv "$tmp/src/svc/seeded.cpp" "$tmp/src/util/prng.h"
  check_mixer_copies "$tmp"
  cat > "$tmp/src/core/seeded.cpp" << 'EOF'
void seeded(void* dst, const void* src, std::size_t n) {
  std::memcpy(dst, src, n);  // seeded violation: payload behind the machine
}
EOF
  if check_payload_bypass "$tmp" > /dev/null 2>&1; then
    echo "lint_flags --selftest: FAILED (seeded component memcpy passed)" >&2
    exit 1
  fi
  cat > "$tmp/src/core/seeded.cpp" << 'EOF'
void fine(xhc::mach::Ctx& ctx, void* dst, const void* src, std::size_t n) {
  ctx.copy(dst, src, n);  // the machine prices (and moves) these bytes
}
EOF
  check_payload_bypass "$tmp"
  echo "lint_flags --selftest: OK (seeded violations caught; the listed" \
       "ctl fields, registered waits, the mixer in prng.h and Ctx copies" \
       "pass)"
  exit 0
fi

fail=0

# 1. Raw atomic accesses on Flag::v are legal only inside the two Machine
#    implementations (and the Flag definition itself) — everywhere else
#    they bypass the verifier hooks.
allow='^src/mach/real_machine\.cpp|^src/mach/flag\.h|^src/sim/sim_machine\.cpp'
raw=$(grep -RnE '\.v\.(store|load|fetch_add|exchange|compare_exchange)' \
        src tests bench examples | grep -vE "$allow" || true)
if [ -n "$raw" ]; then
  echo "error: raw Flag atomic access outside the mach API (use" >&2
  echo "Ctx::flag_store/flag_read/flag_wait_ge/fetch_add so the protocol" >&2
  echo "verifier sees it):" >&2
  echo "$raw" >&2
  fail=1
fi

# 2. seq_cst has no place in the single-writer protocol: stores are
#    release, loads are acquire, RMW is acq_rel (paper §III-E).
seq=$(grep -Rn 'memory_order_seq_cst' src tests bench examples || true)
if [ -n "$seq" ]; then
  echo "error: memory_order_seq_cst found (the flag protocol is" >&2
  echo "release/acquire; see DESIGN.md § Verification):" >&2
  echo "$seq" >&2
  fail=1
fi

# 3. The coherence models' state is simulator-internal: consumers read it
#    through the Machine virtuals (set_coh_tracking / coh_report /
#    publish_coh_counters), whose delta-publishing keeps repeated publishes
#    and metrics resets double-count free. Direct LineModel / CacheModel /
#    CohStats access is legal only inside src/sim/, the layout lint's
#    private replay (src/verify/layout.*), and the models' own unit tests.
allow_coh='^src/sim/|^src/verify/layout\.(h|cpp):'
allow_coh+='|^tests/test_line_model\.cpp:|^tests/test_sim_core\.cpp:'
allow_coh+='|^[^:]+:[0-9]+: *(//|\*)'  # prose mentions in comments
coh=$(grep -RnE '\b(LineModel|CacheModel|CohStats)\b|\bcoh_stats\(' \
        src tests bench examples | grep -vE "$allow_coh" || true)
if [ -n "$coh" ]; then
  echo "error: direct coherence-model access outside the simulator (use" >&2
  echo "mach::Machine::set_coh_tracking/coh_report/publish_coh_counters" >&2
  echo "so delta publishing stays double-count free):" >&2
  echo "$coh" >&2
  fail=1
fi

# 4. Every mach::Flag field of the shared control blocks is in the field
#    lists (machinery above; self-testable via --selftest).
if ! check_ctl_fields .; then
  fail=1
fi

# 5. Blocking wait sites name ledger-registered flags (machinery above;
#    self-testable via --selftest).
if ! check_wait_sites .; then
  fail=1
fi

# 6. One splitmix64 mixer in src/ (machinery above; self-testable via
#    --selftest).
if ! check_mixer_copies .; then
  fail=1
fi

# 7. Components move payload only through mach::Ctx (machinery above;
#    self-testable via --selftest).
if ! check_payload_bypass .; then
  fail=1
fi

# 8. clang-tidy (.clang-tidy: bugprone-*, concurrency-*, performance-*)
#    over the verifier and machine layers, when the tool and a compilation
#    database are available. `scripts/check.sh lint` widens this to all of
#    src/ via run-clang-tidy with -warnings-as-errors.
tidy_db=""
for d in build build-tsan; do
  if [ -f "$d/compile_commands.json" ]; then
    tidy_db="$d"
    break
  fi
done
if command -v clang-tidy > /dev/null 2>&1 && [ -n "$tidy_db" ]; then
  echo "== clang-tidy (db: $tidy_db) =="
  if ! clang-tidy -p "$tidy_db" --quiet \
      src/verify/ledger.cpp src/verify/layout.cpp \
      src/mach/real_machine.cpp src/sim/sim_machine.cpp; then
    fail=1
  fi
elif ! command -v clang-tidy > /dev/null 2>&1; then
  echo "note: clang-tidy not installed; skipping the .clang-tidy pass" >&2
else
  echo "note: no compile_commands.json yet (configure a build first);" >&2
  echo "skipping the .clang-tidy pass" >&2
fi

if [ "$fail" -ne 0 ]; then
  echo "lint_flags: FAILED" >&2
  exit 1
fi
echo "lint_flags: OK"
