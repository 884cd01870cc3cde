// Exploration instrumentation tap for the simulated machine.
//
// The interleaving explorer (src/check/) needs to know, per scheduling
// step, which shared objects the running rank touched: flag operations
// (with their values, for schedule-conformance checking) and payload byte
// ranges (for the sleep-set independence relation). SimMachine forwards
// every SimCtx flag/data operation to the installed sink; a null sink —
// the default — costs one pointer test per operation.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xhc::mach {
struct Flag;
}

namespace xhc::sim {

class AccessSink {
 public:
  enum class FlagOp : unsigned char {
    kStore,      ///< flag_store; value = stored value
    kRmw,        ///< fetch_add; value = delta
    kRead,       ///< flag_read; value = observed value
    kWaitEnter,  ///< flag_wait_ge entry; value = threshold
  };

  virtual ~AccessSink() = default;

  /// One flag operation by `rank` on `f`. Called on the simulated rank's
  /// context while it holds the scheduler token, so implementations need
  /// no locking under the fiber backend; under the threads backend calls
  /// are still serialized by the token but migrate across host threads.
  virtual void on_flag(int rank, const mach::Flag* f, FlagOp op,
                       std::uint64_t value) = 0;

  /// One payload access by `rank` over [p, p + n). Reduce operands are
  /// reported as a read of the source and a write of the destination.
  virtual void on_data(int rank, const void* p, std::size_t n,
                       bool write) = 0;
};

}  // namespace xhc::sim
