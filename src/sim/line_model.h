// Cache-line service model for control flags (paper §III-E, Fig. 4, Fig. 10).
//
// Models a MESI-like life cycle per 64-byte line:
//  * a store makes the writer's core the owner and invalidates all sharers;
//  * the first read after a store is serviced by the owner core — concurrent
//    first-reads of lines owned by one core serialize on that core's port
//    (this is the fan-out hot spot of flat trees);
//  * on shared-LLC machines the line then lives in the provider's LLC group:
//    group peers hit locally, other groups fetch via the LLC port;
//  * on SLC machines the line lives at a single SLC location: every core's
//    fetch serializes on that line's bank — there is no peer-assist, which is
//    why flat fan-out collapses on ARM-N1 (paper §V-D1);
//  * atomic RMW always transfers exclusive ownership: N concurrent RMWs cost
//    ~N ownership transfers (Fig. 4's 23x).
//
// Operations take the flag's address (the line id is derived internally) so
// an attached CohStats can attribute events back to registered flag names.
// Stats recording is purely observational: completion times are identical
// whether or not a CohStats is attached/enabled.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/coh_stats.h"
#include "sim/params.h"
#include "topo/topology.h"

namespace xhc::sim {

class LineModel {
 public:
  LineModel(const topo::Topology* topo, const SimParams* params);

  /// A read of the line holding `addr` by `core` issued at time `t`; returns
  /// the completion time (>= t) and updates sharer state. `pipelined` models
  /// a read whose value is already available (a scan over set flags): the
  /// miss latency overlaps with neighbouring reads (memory-level
  /// parallelism) and only a quarter of it is exposed; occupancy /
  /// serialization costs still apply.
  double read(const void* addr, int core, double t, bool pipelined = false);

  /// A store by `core` at time `t`; returns completion time.
  double write(const void* addr, int core, double t);

  /// An atomic read-modify-write by `core` at `t`; returns completion time.
  double rmw(const void* addr, int core, double t);

  /// Attaches the coherence-event accumulator (may be null). Not owned.
  void set_stats(CohStats* stats) noexcept { stats_ = stats; }

  /// Monotone count of stores+RMWs to `addr`'s line. SimMachine's wait path
  /// differences it across a blocked window to count the invalidation
  /// re-fetches a real spinner would have paid (the false-sharing signal of
  /// the packed Fig. 10 layout).
  std::uint64_t store_seq(const void* addr) const noexcept;
  /// Current owning core of `addr`'s line (-1 when never written).
  int owner_of(const void* addr) const noexcept;

  void reset();

 private:
  struct Line {
    int owner_core = -1;        ///< last writer
    bool dirty = false;         ///< no shared-cache copy yet
    bool in_slc = false;
    std::uint32_t sharers = 0;  ///< offset of the line's LLC-group bitmask
                                ///< (groups holding it) in sharer_words_
    double line_free = 0.0;     ///< serialization point for this line's
                                ///< fetches (SLC bank / providing LLC)
    std::uint64_t store_seq = 0;  ///< stores+RMWs so far (accounting only)
  };

  Line& line(std::uintptr_t id);
  bool shared_by(const Line& l, int llc) const noexcept {
    return (sharer_words_[l.sharers + llc / 64] >> (llc % 64)) & 1u;
  }
  void add_sharer(Line& l, int llc) noexcept {
    sharer_words_[l.sharers + llc / 64] |= std::uint64_t{1} << (llc % 64);
  }
  /// Clears the line's sharers; returns whether it had any.
  bool drop_sharers(Line& l) noexcept;
  bool tracking() const noexcept {
    return stats_ != nullptr && stats_->enabled();
  }

  const topo::Topology* topo_;
  const SimParams* params_;
  CohStats* stats_ = nullptr;
  // Keyed by line id, a host address: looked up, never iterated.
  std::unordered_map<std::uintptr_t, Line> lines_;
  /// words_ words per line: bit g of a line's mask is LLC group g.
  std::vector<std::uint64_t> sharer_words_;
  std::uint32_t words_;
  /// Serialization queue of each provider core's port (first reads of dirty
  /// lines owned by that core, across *all* lines — Fig. 10 separated-flags).
  std::vector<double> core_port_free_;
};

}  // namespace xhc::sim
