// SimMachine — deterministic virtual-time execution over a modeled node.
//
// Runs the same rank functions as RealMachine (data operations move real
// bytes outside the timing-only data plane), but each operation also
// advances a virtual clock priced by the node model: topology-dependent
// copy costs with congestion (Fig. 1),
// cache residency (Fig. 7), cache-line service for flags (Fig. 4, Fig. 10),
// and explicit charges for mechanism overheads (XPMEM attach, syscalls —
// charged by the smsc layer). The virtual clock is continuous across run()
// calls, so warmup iterations populate caches and registration state exactly
// like a long-lived MPI job.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mach/machine.h"
#include "sim/cache_model.h"
#include "sim/coh_stats.h"
#include "sim/line_model.h"
#include "sim/params.h"
#include "sim/resources.h"
#include "sim/scheduler.h"

namespace xhc::sim {

class SimMachine final : public mach::Machine {
 public:
  SimMachine(topo::Topology topo, int n_ranks,
             topo::MapPolicy policy = topo::MapPolicy::kCore);
  SimMachine(topo::Topology topo, int n_ranks, topo::MapPolicy policy,
             SimParams params);
  ~SimMachine() override;

  const topo::Topology& topology() const noexcept override { return topo_; }
  const topo::RankMap& map() const noexcept override { return map_; }
  const SimParams& params() const noexcept { return params_; }

  void* alloc(int owner_rank, std::size_t bytes, std::size_t align = 64,
              bool zero = true) override;
  void free(void* p) override;

  mach::RunResult run(const std::function<void(mach::Ctx&)>& fn) override;

  /// Virtual time at which the last run() completed (the clock is
  /// continuous across runs).
  double epoch() const noexcept { return epoch_; }

  /// Host execution backend of the virtual-time engine (fiber vs threads;
  /// virtual timestamps are identical either way). Defaults to the
  /// XHC_SIM_BACKEND environment variable, kFiber when unset. May be
  /// changed between runs, never during one.
  SimBackend backend() const noexcept { return backend_; }
  void set_backend(SimBackend b) noexcept { backend_ = b; }

  /// Coherence observatory (mach::Machine hooks). Tracking gates the
  /// accounting inside LineModel/CacheModel plus the wait-window spin-
  /// refetch attribution; virtual timestamps are identical either way.
  void set_coh_tracking(bool on) override { coh_.set_enabled(on); }
  bool coh_tracking() const noexcept override { return coh_.enabled(); }
  bool coh_report(obs::CohReport* out) const override;
  void publish_coh_counters(obs::Metrics& m) override;

  /// Timing-only data plane (mach::Machine hook): write_payload, copy and
  /// reduce skip the byte work and nothing else — pricing, cache model,
  /// resource ledger, events and scheduler advance are unchanged, so
  /// virtual timestamps are identical either way. Honoured; set between
  /// runs only.
  bool set_timing_only(bool on) override {
    timing_only_ = on;
    return true;
  }
  bool timing_only() const noexcept override { return timing_only_; }

  /// Exploration hook (src/check/): perturbs the scheduler's run order.
  /// Null by default (zero behavioral change) and installed on the per-run
  /// scheduler by run(), so set it before run() and clear it —
  /// set_pick_hook(nullptr) — when done. The explorer observes the accesses
  /// through the machine's event stream (mach::Machine::attach).
  void set_pick_hook(VirtualScheduler::PickHook hook) {
    pick_hook_ = std::move(hook);
  }

  /// Test hooks.
  const mach::AllocRegistry& registry() const noexcept { return registry_; }
  CacheModel& cache_model() noexcept { return cache_; }
  LineModel& line_model() noexcept { return lines_; }
  ResourceLedger& ledger() noexcept { return ledger_; }
  CohStats& coh_stats() noexcept { return coh_; }
  const CohStats& coh_stats() const noexcept { return coh_; }

  /// Publish history of one flag: (value, virtual time) pairs, pruned.
  /// Values are non-decreasing (monotone counters / fetch-adds). Public for
  /// tests.
  struct FlagHist {
    std::vector<std::pair<std::uint64_t, double>> entries;
    std::uint64_t floor_value = 0;  ///< value before the retained window
    double floor_time = 0.0;
    /// Next flag of the same allocation block (see SimMachine::hist).
    const mach::Flag* next_in_block = nullptr;

    void append(std::uint64_t value, double t);
    /// Earliest retained time at which the value was >= v; nullopt if the
    /// value has not reached v yet.
    std::optional<double> crossing(std::uint64_t v) const;
    /// Value visible at time t (latest entry with time <= t).
    std::uint64_t value_at(double t) const;
    std::uint64_t last_value() const;
  };

 private:
  class SimCtx;
  friend class SimCtx;

  /// The history of `f`, created empty on first use and then linked into
  /// the list of the allocation block holding `f`, so free() scrubs exactly
  /// that block's flags. A flag outside every block keeps its history for
  /// the machine's lifetime.
  FlagHist& hist(const mach::Flag& f);
  void setup_ledger();
  /// Prices a bulk read of `n` bytes of block id `block` (or unregistered
  /// memory when block == 0) by `core` starting at `t`; books resources;
  /// returns the duration. `bw_divisor` scales throughput (reductions are
  /// slower).
  double price_read(std::uint64_t block, int core, std::size_t n, double t,
                    double bw_divisor);

  topo::Topology topo_;
  topo::RankMap map_;
  SimParams params_;
  mach::AllocRegistry registry_;
  CohStats coh_;  ///< declared before the models that point into it
  CacheModel cache_;
  LineModel lines_;
  ResourceLedger ledger_;
  // Hashed on the flag's address; looked up on every simulated flag op
  // (hot path), so unordered lookup cost wins. Never iterated.
  std::unordered_map<const mach::Flag*, FlagHist> flag_hist_;
  /// Per block id, the first flag of its FlagHist::next_in_block list.
  std::unordered_map<std::uint64_t, const mach::Flag*> block_flags_;
  /// Bumped by every free(): a SimCtx's cached blocks are valid only while
  /// it has not moved.
  std::uint64_t frees_ = 0;
  std::unique_ptr<VirtualScheduler> sched_;  // alive during run()
  VirtualScheduler::PickHook pick_hook_;     // exploration; usually null
  SimBackend backend_ = backend_from_env();
  // Fills the padding after backend_. sizeof(SimMachine) (1424 B) sizes its
  // heap block, so a layout change moves host heap placement, and with it
  // the regcache hits keyed on host addresses.
  bool timing_only_ = false;
  double epoch_ = 0.0;
};

}  // namespace xhc::sim
