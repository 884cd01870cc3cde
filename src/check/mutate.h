// Mutation self-test harness: seeded protocol defects for the analyzer.
//
// Confidence in a verifier comes from watching it fail things. Each
// mutation below injects one classic synchronization bug into a recorded
// Schedule — the kind a refactor of core/ could realistically introduce —
// and reports exactly which Finding the analyzer must produce (property,
// flag, rank). The mutation tests (tests/test_check.cpp) then
// assert a 100% kill score: every applied mutant yields the predicted
// finding. Several of these bugs are invisible to the runtime suite under
// the default schedule (an off-by-one threshold that the default
// interleaving happens to tolerate); the static pass must catch them
// anyway.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/analyzer.h"
#include "check/record.h"

namespace xhc::verify {
class Ledger;
}

namespace xhc::check {

enum class MutationKind {
  /// Lower a wait threshold to the flag's first published value: the wait
  /// releases before the payload it reads is written (off-by-one /
  /// premature-read bug), or before a reader of the waiter's buffer is done
  /// with it (premature return). Candidates are chosen by data dependence
  /// alone: between the new and the old satisfier — past any publish of the
  /// writer an earlier wait of the waiting rank already synchronizes with —
  /// the flag's writer accesses bytes the waiting rank accesses after the
  /// wait and before its next one, one of the two a write. Expected: race
  /// on the waiting rank, named after the lowered flag.
  kThresholdLow,
  /// Raise a wait threshold past every publish: the wait can never be
  /// satisfied (forgotten final publish / wrong count). Expected:
  /// unreachable-threshold.
  kThresholdHigh,
  /// Delete every publish that satisfies a chosen wait (dropped release
  /// store). Expected: unreachable-threshold.
  kDroppedPublish,
  /// Move a publish that another rank's wait uniquely depends on to the end
  /// of its writer's stream, after a wait of the writer that transitively
  /// depends back on the stalled rank (stage reordering). Expected:
  /// wait-cycle (deadlock).
  kSwappedStageOrder,
  /// Duplicate a publish into a second rank's stream (writer-discipline
  /// breach). Expected: single-writer, attributed to the minority writer.
  kWidenedWriter,
};
const char* to_string(MutationKind k) noexcept;

/// What the analyzer is expected to report for one applied mutant.
struct MutantInfo {
  MutationKind kind = MutationKind::kThresholdLow;
  bool applied = false;  ///< false: the schedule offers no candidate site
  /// Expected finding coordinates; empty flag / rank -1 mean "any"
  /// (kSwappedStageOrder: the cycle's anchor wait is schedule-dependent).
  std::string flag;
  int rank = -1;
  /// Acceptable properties for the kill, primary first.
  std::vector<Property> expect;
  std::string detail;  ///< human-readable description of the injected bug

  /// True when `f` matches this mutant's expectation.
  bool killed_by(const Finding& f) const;
};

/// Applies one seeded mutation of `kind` to `m` in place. Candidate sites
/// are enumerated in deterministic (rank, program-index) order and the
/// seed selects among them, so every (schedule, kind, seed) triple names
/// one reproducible bug. `names` resolves flag names/policies for candidate
/// filtering and the expectation. Returns applied=false (schedule
/// untouched) when the schedule has no site for this bug class.
MutantInfo apply_mutation(Schedule& m, MutationKind kind,
                          std::uint64_t seed, const verify::Ledger& names);

}  // namespace xhc::check
