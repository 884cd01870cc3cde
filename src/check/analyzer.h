// Schedule analyzer: proves protocol properties on a recorded Schedule.
//
// Checked properties (one Finding per violation):
//   single-writer           at most one rank publishes each non-kShared flag
//                           within the schedule; RMW only on kShared flags
//   monotonicity            each writer's publish values never decrease
//   unreachable-threshold   every wait threshold is reached by some publish
//                           (for kShared: by the sum of RMW deltas)
//   wait-cycle              the happens-before graph is acyclic, which
//                           implies deadlock-freedom (DESIGN.md § Static
//                           analysis)
//   race                    any two payload accesses by different ranks to
//                           overlapping bytes, at least one a write, are
//                           ordered by happens-before
//
// Happens-before is program order plus an edge into each wait from its
// earliest satisfying publish (kShared: from every RMW the threshold cannot
// be reached without). The race check orders accesses with vector clocks
// over that graph. A race is reported on the rank whose access came second
// in the recorded run, naming the flag of that rank's last wait before it —
// the wait that should have ordered the pair.
//
// Reports are byte-deterministic: findings are ordered, flags are named via
// the verify ledger's registration, allocations by first access, and the
// JSON rendering is hand-built with no environment-dependent content.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "check/record.h"

namespace xhc::verify {
class Ledger;
}

namespace xhc::check {

enum class Property {
  kSingleWriter,
  kMonotonicity,
  kUnreachableThreshold,
  kWaitCycle,
  kRace,
};
const char* to_string(Property p) noexcept;

struct Finding {
  Property property = Property::kSingleWriter;
  std::string flag;    ///< registered flag name ("-": a race before any wait)
  int rank = -1;       ///< offending rank
  std::string detail;  ///< one-line human-readable diagnostic
};

struct AnalysisReport {
  std::vector<OpCall> ops;
  int n_ranks = 0;
  std::size_t n_events = 0;
  std::size_t n_flags = 0;
  std::size_t n_waits = 0;
  std::size_t n_edges = 0;
  std::size_t n_accesses = 0;
  std::size_t n_pairs = 0;  ///< conflicting cross-rank access pairs checked
  std::vector<Finding> findings;  ///< sorted (flag, property, rank, detail)

  bool clean() const noexcept { return findings.empty(); }
  /// Deterministic plain-text report (two header lines, one line per
  /// finding).
  std::string text() const;
  /// Deterministic machine-readable JSON object.
  std::string json() const;
};

/// Runs every check on `s`. `ledger` resolves flag names and writer
/// policies (the same registration the runtime verifier uses), so the
/// analyzer enforces exactly the declared discipline.
AnalysisReport analyze(const Schedule& s, const verify::Ledger& ledger);

}  // namespace xhc::check
