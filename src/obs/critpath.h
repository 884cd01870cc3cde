#pragma once

// Critical-path analyzer (observability layer, DESIGN.md § Observatory).
//
// Consumes the span Recorder after a run and reconstructs, per collective
// operation, where the end-to-end latency went: which rank finished last,
// the chain of blocking waits that rank was transitively stalled on
// (member → leader → ... → root), per-rank self vs. wait time, per-level
// wait aggregates, and a per-phase (span category) breakdown. On SimMachine
// the span timestamps are exact virtual time, so every number here is
// deterministic and byte-for-byte testable.
//
// Operations are identified as spans with cat == "collective". Because each
// rank's ring may drop its oldest spans independently, ops are aligned from
// the END of every ring: the last collective span of every rank belongs to
// the same (latest) operation, and so on backwards for as many ops as every
// rank retains.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/table.h"

namespace xhc::obs {

// --- wait-span argument encoding -------------------------------------------
//
// "wait" spans pack the hierarchy level and the peer rank whose publication
// the waiter is blocked on into Span::arg, so the analyzer can follow the
// blocking edge. Both are biased by one so that "unknown" (-1) encodes as 0
// and an arg of 0 (spans recorded before this encoding existed) decodes
// back to unknown. Bit 31 marks a wait whose flag was already published
// when it began: it blocked on nobody, so the chain walk steps over it.

inline constexpr std::uint64_t kWaitSatisfied = std::uint64_t{1} << 31;

constexpr std::uint64_t wait_arg(int level, int peer,
                                 bool blocked = true) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(level + 1))
          << 32) |
         (blocked ? 0 : kWaitSatisfied) |
         static_cast<std::uint32_t>(peer + 1);
}

struct WaitArg {
  int level;     ///< hierarchy level of the wait site, -1 when unknown
  int peer;      ///< rank whose flag publication was awaited, -1 when unknown
  bool blocked;  ///< false when the flag was published before the wait
};

constexpr WaitArg unpack_wait_arg(std::uint64_t a) noexcept {
  return {static_cast<int>(a >> 32) - 1,
          static_cast<int>(a & (kWaitSatisfied - 1)) - 1,
          (a & kWaitSatisfied) == 0};
}

// --- analysis results ------------------------------------------------------

/// One edge of the blocking chain, from the latency-bound rank backwards.
struct ChainStep {
  int rank = -1;          ///< the waiting rank
  const char* site = "";  ///< wait-span name ("announce_wait", ...)
  int level = -1;         ///< hierarchy level of the wait (-1 unknown)
  int peer = -1;          ///< rank waited upon (-1 unknown: chain root)
  double t_end = 0.0;     ///< when the wait was satisfied (s)
  double wait_s = 0.0;    ///< how long this rank blocked there (s)
};

struct RankBreakdown {
  double total_s = 0.0;  ///< rank's span of the op [t0, t1)
  double wait_s = 0.0;   ///< summed "wait" spans inside the op
  double self_s() const noexcept { return total_s - wait_s; }
};

struct LevelWait {
  double wait_s = 0.0;
  std::uint64_t waits = 0;
};

struct OpReport {
  std::string name;          ///< collective span name ("xhc.bcast", ...)
  std::uint64_t arg = 0;     ///< collective span arg (message bytes)
  double t_start = 0.0;      ///< min t0 over ranks
  double t_end = 0.0;        ///< max t1 over ranks
  int bound_rank = -1;       ///< rank whose finish time is t_end
  double latency_s() const noexcept { return t_end - t_start; }

  std::vector<ChainStep> chain;        ///< blocking chain from bound_rank
  std::vector<RankBreakdown> ranks;    ///< indexed by rank
  std::map<int, LevelWait> levels;     ///< level -> aggregate wait, all ranks
  std::map<std::string, double> phases;  ///< cat -> nested span seconds, all
                                         ///< ranks (waits excluded)
};

/// Reconstructs per-op reports from the retained spans, oldest op first.
/// Only ops every rank still retains are returned (ring wrap drops the
/// oldest); ranks that recorded no collective spans at all are treated as
/// non-participants and simply contribute nothing.
std::vector<OpReport> analyze_critical_paths(const Recorder& rec);
/// The same over each rank's retained spans, oldest first (Snapshot::spans).
std::vector<OpReport> analyze_critical_paths(
    const std::vector<std::vector<Span>>& spans);

/// Summary table: one row per op (name, bytes, latency, bound rank, wait
/// share of the bound rank, chain rendered as "r3<-r1<-r0").
util::Table critpath_table(const std::vector<OpReport>& ops);

/// Detailed tables for one op.
util::Table critpath_chain_table(const OpReport& op);
util::Table critpath_level_table(const OpReport& op);
util::Table critpath_phase_table(const OpReport& op);

/// Human-readable report: the summary table plus a detailed breakdown of
/// the slowest op. Deterministic given a deterministic Recorder.
void write_critpath_report(std::ostream& os, const std::vector<OpReport>& ops);

}  // namespace xhc::obs
