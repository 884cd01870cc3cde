#include "check/interp.h"

#include <map>
#include <new>
#include <utility>

#include "sim/sim_machine.h"
#include "util/check.h"

namespace xhc::check {

InterpResult run_model(const Schedule& m, sim::SimMachine& machine,
                       const verify::Ledger& names,
                       sim::VirtualScheduler::PickHook hook,
                       mach::EventSink* sink) {
  XHC_REQUIRE(machine.n_ranks() == m.n_ranks, "machine has ",
              machine.n_ranks(), " ranks, schedule needs ", m.n_ranks);

  // Fresh flags, one cache line each, in first-appearance order — the run
  // must not touch whatever component the schedule was recorded from
  // (mutants would corrupt live protocol state).
  std::map<const mach::Flag*, mach::Flag*> fresh;
  std::vector<const mach::Flag*> order;
  for (const auto& stream : m.per_rank) {
    for (const Event& e : stream) {
      if (e.is_flag() && fresh.emplace(e.flag, nullptr).second) {
        order.push_back(e.flag);
      }
    }
  }
  // SimMachine::free scrubs a block's flag history, so no crossing from a
  // previous run_model at a reused address can satisfy this run's waits.
  mach::Buffer lines(machine, 0, order.size() * 64);
  for (std::size_t i = 0; i < order.size(); ++i) {
    fresh[order[i]] = new (lines.bytes() + i * 64) mach::Flag();
  }

  // The run's own discipline ledger carries the original registration over
  // to the fresh addresses, records instead of throwing and judges the run
  // from the machine's event stream. The machine's built-in ledger gets the
  // fresh flags whitelisted as kShared so a machine with its ledger switched
  // on doesn't abort mid-run on a deliberately broken schedule; violations
  // are this ledger's job here.
  verify::Ledger own;
  own.set_abort_on_violation(false);
  for (const auto& [old_f, new_f] : fresh) {
    const std::string name = names.flag_name(old_f);
    const auto policy =
        names.flag_policy(old_f).value_or(verify::WriterPolicy::kFixed);
    own.register_flag(new_f, name.empty() ? "interp" : name, policy);
    machine.verify_ledger().register_flag(new_f, "interp.shadow",
                                          verify::WriterPolicy::kShared);
  }

  InterpResult res;
  machine.set_pick_hook(std::move(hook));
  try {
    const mach::ScopedSink judge(machine, &own);
    const mach::ScopedSink attach(machine, sink);
    machine.run([&](mach::Ctx& ctx) {
      for (const Event& e : m.per_rank[static_cast<std::size_t>(ctx.rank())]) {
        if (!e.is_flag()) continue;
        mach::Flag& f = *fresh[e.flag];
        switch (e.kind) {
          case EvKind::kPublish:
            ctx.flag_store(f, e.value);
            break;
          case EvKind::kWait:
            ctx.flag_wait_ge(f, e.value);
            break;
          default:
            ctx.fetch_add(f, e.value);
            break;
        }
      }
    });
    res.completed = true;
  } catch (const std::exception& e) {
    const std::string what = e.what();
    res.deadlock = what.find("deadlock") != std::string::npos;
    res.errors.push_back(what);
  }
  machine.set_pick_hook(nullptr);

  res.violations = own.violations();
  machine.verify_ledger().forget_range(lines.get(), order.size() * 64);
  return res;
}

}  // namespace xhc::check
