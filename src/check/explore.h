// Systematic interleaving exploration over the simulated machine.
//
// The virtual-time scheduler normally runs one canonical schedule (minimal
// (vtime, rank) at every decision). explore() drives the same program
// through MANY schedules: a bounded-depth DFS over the scheduler's
// runnable-candidate choices — stateless-model-checking style, the program
// is re-executed from scratch for every branch — with sleep-set pruning
// (a sibling branch is skipped when its first step is independent, in the
// access-conflict sense, of the steps already explored from that node),
// followed by a seeded random-walk fallback once the DFS budget is spent.
//
// The unit of exploration is a Runner: one full execution of the program
// under a given PickHook, reporting pass/fail. Tests wrap either a real
// collective (payload + ledger checks inside) or the replay of a mutated
// schedule (interp.h) in a Runner, so the explorer itself stays ignorant of
// what it is scheduling. Decision points beyond max_branch_depth fall back
// to the default deterministic policy, which bounds the tree while still
// driving every execution to termination — on the <= 4-rank topologies the
// smoke tests use, the DFS typically exhausts the whole tree.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mach/event_sink.h"
#include "sim/scheduler.h"

namespace xhc::check {

/// Result of one execution under a forced schedule.
struct RunOutcome {
  bool failed = false;
  std::string diag;  ///< one-line description when failed
};

/// One full program execution under `hook`; `sink` (never null) must be
/// attached to the machine (mach::ScopedSink) so the explorer sees per-step
/// accesses. The runner must make a fresh program state per call
/// (exploration replays from scratch).
using Runner = std::function<RunOutcome(const sim::VirtualScheduler::PickHook&,
                                        mach::EventSink*)>;

struct ExploreOptions {
  int max_branch_depth = 6;    ///< decision points explored per execution
  int max_executions = 2000;   ///< DFS budget before the fallback kicks in
  int random_walks = 64;       ///< seeded random schedules after the DFS
  std::uint64_t seed = 1;      ///< random-walk seed
};

struct ExploreStats {
  int executions = 0;     ///< total program executions (DFS + walks)
  int branch_points = 0;  ///< distinct decision nodes materialized
  int pruned = 0;         ///< sibling branches skipped by sleep sets
  int divergences = 0;    ///< replays that fell off the recorded prefix
  int failures = 0;       ///< executions whose outcome failed
  bool exhausted = false; ///< DFS covered the whole bounded tree
  std::vector<std::string> witnesses;  ///< first failing diags (capped)
};

/// Explores `run` and returns the coverage/failure statistics. Every
/// failure is counted; the first few diagnostics are kept as witnesses.
ExploreStats explore(const Runner& run, const ExploreOptions& opts = {});

}  // namespace xhc::check
