// Per-rank shared-memory single-copy endpoint (OpenMPI's SMSC component).
//
// Components obtain peer-buffer access through an Endpoint: `attach` charges
// the mechanism's mapping costs (amortized by the registration cache) and
// returns a pointer usable with Ctx::copy / Ctx::reduce; `charge_op` prices
// the per-operation kernel path of CMA/KNEM. On the thread-backed machines
// the returned pointer is the peer's actual buffer — precisely the
// load/store visibility XPMEM provides between processes.
//
// Fault tolerance: when the fault layer reports a persistent attach failure
// for an owner, the endpoint degrades that owner along the
// XPMEM -> CMA -> CICO chain (DESIGN.md § Fault injection & degradation).
// Degraded owners remain correct — the pointer sharing the thread machines
// provide never fails — but pay the cheaper mechanism's per-operation costs
// and lose their cached mappings.
#pragma once

#include "mach/machine.h"
#include "obs/observer.h"
#include "smsc/mechanism.h"
#include "smsc/reg_cache.h"

namespace xhc::fault {
class Injector;
}

namespace xhc::smsc {

class Endpoint {
 public:
  /// `use_reg_cache=false` reproduces the paper's Fig. 3 dashed variant:
  /// XPMEM pays attach+detach on every operation. `cache_capacity` bounds
  /// the registration cache (LRU beyond it).
  explicit Endpoint(Mechanism mech, bool use_reg_cache = true,
                    std::size_t cache_capacity = RegCache::kDefaultCapacity);

  Mechanism mechanism() const noexcept { return mech_; }

  /// Mechanism actually in use for `owner`'s buffers, after any fault-driven
  /// degradation.
  Mechanism effective_mechanism(int owner) const noexcept;
  bool degraded(int owner) const noexcept {
    return degraded_.find(owner) != degraded_.end();
  }

  /// Owner-side: expose [buf, buf+len). Charged once per buffer (the owner
  /// keeps its own bookkeeping of exposed ranges).
  void expose(mach::Ctx& ctx, const void* buf, std::size_t len);

  /// Reader-side: make the peer's buffer accessible. Returns `buf` (threads
  /// share the address space) after charging mapping costs.
  const void* attach(mach::Ctx& ctx, int owner, const void* buf,
                     std::size_t len);
  void* attach_mut(mach::Ctx& ctx, int owner, void* buf, std::size_t len);

  /// Per-operation kernel cost for copy-through mechanisms (CMA/KNEM);
  /// no-op for XPMEM/CICO. `node_ranks` scales the mm-lock contention.
  /// Pass the buffer owner's rank so a degraded owner is charged its
  /// fallback mechanism's per-op costs instead (-1: no owner context, use
  /// the endpoint's base mechanism).
  void charge_op(mach::Ctx& ctx, std::size_t bytes, int node_ranks,
                 int owner = -1);

  /// Detaches everything (communicator teardown); charges detach costs.
  void detach_all(mach::Ctx& ctx);

  const RegCache::Stats& cache_stats() const noexcept {
    return cache_.stats();
  }
  void reset_stats() { cache_.reset_stats(); }

  /// Live observability sink: registration-cache hits / misses / evictions
  /// and attach traffic are booked against `rank` (the rank this endpoint
  /// belongs to). Pass nullptr to detach.
  void set_observer(obs::Observer* observer, int rank) noexcept {
    obs_ = observer;
    obs_rank_ = rank;
  }

  /// Fault source consulted on expose/attach. Pass nullptr (the default)
  /// for the zero-cost healthy path.
  void set_fault_injector(fault::Injector* injector) noexcept {
    fault_ = injector;
  }

 private:
  void charge_attach(mach::Ctx& ctx, std::size_t len);
  void book(obs::Counter c, std::uint64_t n);
  void degrade(mach::Ctx& ctx, int owner, int chain_depth, std::size_t len);

  Mechanism mech_;
  MechanismCosts costs_;
  bool use_reg_cache_;
  RegCache cache_;
  std::map<std::pair<int, const void*>, std::size_t> exposed_;
  std::map<int, Mechanism> degraded_;
  obs::Observer* obs_ = nullptr;
  int obs_rank_ = 0;
  fault::Injector* fault_ = nullptr;
};

}  // namespace xhc::smsc
