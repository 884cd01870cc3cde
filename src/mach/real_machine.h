// RealMachine — native thread-per-rank execution.
//
// Ranks are host threads sharing one address space, which gives peer memory
// exactly the load/store accessibility XPMEM gives MPI processes; all data
// operations execute natively and `now()` is wall-clock time. This machine
// backs the functional test suite and the host-native benchmarks.
//
// Flag waits and barriers run under a watchdog: a rank stalled longer than
// the wait timeout throws util::Error carrying a dump of every rank's wait
// state (mirroring the simulator's deadlock report) plus the verifier's
// record of the blocked flag — so a dropped publication surfaces as a
// diagnostic naming rank and flag, never as a hang. The first failing rank
// also aborts its peers' waits, so one exception ends the whole run.
#pragma once

#include "mach/machine.h"

namespace xhc::mach {

class RealMachine final : public Machine {
 public:
  /// Hosts `n_ranks` ranks mapped onto `topo` (mapping affects hierarchy
  /// construction only; threads are not pinned — the host is typically far
  /// smaller than the modeled node).
  RealMachine(topo::Topology topo, int n_ranks,
              topo::MapPolicy policy = topo::MapPolicy::kCore);
  ~RealMachine() override;

  const topo::Topology& topology() const noexcept override { return topo_; }
  const topo::RankMap& map() const noexcept override { return map_; }

  void* alloc(int owner_rank, std::size_t bytes, std::size_t align = 64,
              bool zero = true) override;
  void free(void* p) override;

  RunResult run(const std::function<void(Ctx&)>& fn) override;

  /// Watchdog deadline for flag waits and barriers, in seconds. Defaults to
  /// 60 s (override at construction with the XHC_WAIT_TIMEOUT environment
  /// variable); chaos tests tighten it to fail fast.
  void set_wait_timeout(double seconds) noexcept { wait_timeout_ = seconds; }
  double wait_timeout() const noexcept { return wait_timeout_; }

 private:
  class RealCtx;

  topo::Topology topo_;
  topo::RankMap map_;
  AllocRegistry registry_;
  double wait_timeout_;
};

}  // namespace xhc::mach
