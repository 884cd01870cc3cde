// Schedule interpreter: replays a Schedule's flag events on the simulated
// machine.
//
// Each rank replays its program-order flag events — release-publish,
// blocking wait, RMW — against a fresh set of flags allocated for the run,
// so a mutated schedule (mutate.h) never touches a live component's control
// blocks. Payload accesses are skipped: the analyzer's race check covers
// them. A private verify::Ledger (abort-off), attached to the machine's
// event stream for the run, collects the violations the run exhibits.
//
// This is the bridge between the analyzer and the interleaving explorer:
// run_model() under a PickHook turns one mutated schedule into as many
// concrete executions as the explorer asks for, and the mutation tests use
// it to demonstrate which seeded bugs a runtime execution under the DEFAULT
// schedule cannot observe — the static pass must catch those.
#pragma once

#include <string>
#include <vector>

#include "check/record.h"
#include "mach/event_sink.h"
#include "sim/scheduler.h"
#include "verify/verify.h"

namespace xhc::sim {
class SimMachine;
}

namespace xhc::check {

struct InterpResult {
  bool completed = false;  ///< every rank drained its event stream
  bool deadlock = false;   ///< the scheduler reported a blocked machine
  /// Violations from the run's private ledger.
  std::vector<verify::Violation> violations;
  /// The abort diagnostic, when the run did not complete.
  std::vector<std::string> errors;

  bool ok() const noexcept {
    return completed && !deadlock && violations.empty() && errors.empty();
  }
};

/// Replays the flag events of `m` on `machine` (one simulated rank per
/// schedule rank; the machine must have exactly m.n_ranks ranks). `names`
/// is the ledger the schedule's flags were registered with — names and
/// writer policies carry over to the run's fresh flags. `hook` perturbs the
/// schedule (null: the engine's default deterministic order); `sink`, when
/// not null, is attached for the run and observes every flag access. The
/// machine's pick hook is restored to null on return.
InterpResult run_model(const Schedule& m, sim::SimMachine& machine,
                       const verify::Ledger& names,
                       sim::VirtualScheduler::PickHook hook = nullptr,
                       mach::EventSink* sink = nullptr);

}  // namespace xhc::check
