#include "check/interp.h"

#include <map>
#include <mutex>
#include <new>
#include <utility>

#include "sim/sim_machine.h"
#include "util/check.h"

namespace xhc::check {

namespace {

constexpr std::size_t kMaxErrors = 32;

/// Coverage published so far, shared across simulated ranks. The mutex
/// covers the threads backend; under fibers it is uncontended.
struct Coverage {
  std::mutex mu;
  std::map<int, std::vector<DataRange>> by_buf;
  std::vector<std::string> errors;

  void publish(const std::vector<DataRange>& writes) {
    std::lock_guard<std::mutex> lock(mu);
    for (const DataRange& w : writes) by_buf[w.buf].push_back(w);
  }

  void require(const ScheduleModel& m, int rank, const Event& e) {
    std::lock_guard<std::mutex> lock(mu);
    for (const DataRange& need : e.needs) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
      auto it = by_buf.find(need.buf);
      if (it != by_buf.end()) {
        for (const DataRange& w : it->second) {
          if (w.epoch >= need.epoch) got.emplace_back(w.lo, w.hi);
        }
      }
      std::sort(got.begin(), got.end());
      std::uint64_t pos = need.lo;
      for (const auto& [lo, hi] : got) {
        if (lo > pos) break;
        pos = std::max(pos, hi);
      }
      if (pos < need.hi && errors.size() < kMaxErrors) {
        errors.push_back(
            "r" + std::to_string(rank) + " " + e.site + " resumed needing " +
            m.buf_name(need.buf) + " [" + std::to_string(need.lo) + "," +
            std::to_string(need.hi) + ") epoch " + std::to_string(need.epoch) +
            "; published coverage reaches " + std::to_string(pos));
      }
    }
  }
};

}  // namespace

InterpResult run_model(const ScheduleModel& m, sim::SimMachine& machine,
                       const verify::Ledger& names,
                       sim::VirtualScheduler::PickHook hook,
                       sim::AccessSink* sink) {
  XHC_REQUIRE(machine.n_ranks() == m.n_ranks, "machine has ",
              machine.n_ranks(), " ranks, model needs ", m.n_ranks);

  // Fresh flags, one cache line each, in first-appearance order — the run
  // must not touch whatever component the model was extracted from
  // (mutants would corrupt live protocol state).
  std::map<const mach::Flag*, mach::Flag*> fresh;
  std::vector<const mach::Flag*> order;
  for (const auto& stream : m.per_rank) {
    for (const Event& e : stream) {
      if (fresh.emplace(e.flag, nullptr).second) order.push_back(e.flag);
    }
  }
  // SimMachine::free scrubs a block's flag history, so no crossing from a
  // previous run_model at a reused address can satisfy this run's waits.
  mach::Buffer lines(machine, 0, order.size() * 64);
  for (std::size_t i = 0; i < order.size(); ++i) {
    fresh[order[i]] = new (lines.bytes() + i * 64) mach::Flag();
  }

  // The run's own discipline ledger carries the original registration over
  // to the fresh addresses and records instead of throwing. The machine's
  // built-in ledger gets the fresh flags whitelisted as kShared so a machine
  // with its ledger switched on doesn't abort mid-run on a deliberately
  // broken model; violations are this ledger's job here.
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

  Coverage cov;
  InterpResult res;
  machine.set_pick_hook(std::move(hook));
  machine.set_access_sink(sink);
  try {
    machine.run([&](mach::Ctx& ctx) {
      const int r = ctx.rank();
      for (const Event& e : m.per_rank[static_cast<std::size_t>(r)]) {
        mach::Flag& f = *fresh[e.flag];
        switch (e.kind) {
          case EvKind::kPublish:
            cov.publish(e.writes);
            own.on_store(&f, r, e.value);
            ctx.flag_store(f, e.value);
            break;
          case EvKind::kWait:
            ctx.flag_wait_ge(f, e.value);
            cov.require(m, r, e);
            break;
          case EvKind::kRmw:
            own.on_rmw(&f, r, ctx.fetch_add(f, e.value));
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
  machine.set_access_sink(nullptr);

  res.violations = own.violations();
  for (std::string& err : cov.errors) res.errors.push_back(std::move(err));
  machine.verify_ledger().forget_range(lines.get(), order.size() * 64);
  return res;
}

}  // namespace xhc::check
