// The machines' one event stream: a run's contexts report their flag and
// payload events to the sinks attached to the machine (Machine::attach).
// Each run() fixes the list at its start, with the machine's protocol
// ledger in front while that is enabled; every context event site then
// dispatches once, and costs one test when no sink listens. SimMachine
// reports every kind; RealMachine, which runs natively, reports stores,
// fetch-adds and blocked wait ends, which is what its subscribers use.
// Subscribers: verify::Ledger, the schedule recorder and the interleaving
// explorer (src/check/), obs::WaitRecorder.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace xhc::mach {

struct Flag;

/// Event::vtime of a machine without a virtual clock (RealMachine).
inline constexpr double kNoTime = -1.0;

/// One operation of one rank.
struct Event {
  enum class Kind : unsigned char {
    kStore,      ///< flag_store; value = stored value
    kRmw,        ///< fetch_add; value = result, delta = addend
    kRead,       ///< flag_read; value = observed value
    kWaitStart,  ///< flag_wait_ge entry; value = threshold
    kWaitEnd,    ///< flag_wait_ge return; value = threshold
    kDataRead,   ///< payload read of [data, data + bytes)
    kDataWrite,  ///< payload write of [data, data + bytes)
  };

  Kind kind = Kind::kStore;
  bool blocked = false;  ///< kWaitEnd: the value was not there at entry
  int rank = 0;
  const Flag* flag = nullptr;
  std::uint64_t value = 0;
  std::uint64_t delta = 0;
  const void* data = nullptr;
  std::size_t bytes = 0;
  /// Flag events on SimMachine: the virtual time the line model priced the
  /// access at (a store's publish, a read's or a wait's fetch), which the
  /// ledger's read-side cross-check compares. kNoTime on RealMachine.
  double vtime = kNoTime;
  /// Blocked kWaitEnd: seconds blocked and the resume time, on the
  /// machine's clock (virtual; wall-clock since the run started on
  /// RealMachine).
  double waited = 0.0;
  double resumed = 0.0;
};

class EventSink {
 public:
  virtual ~EventSink() = default;
  /// Called on the rank's own context: serialized by the scheduler token on
  /// SimMachine, from concurrent rank threads on RealMachine.
  virtual void on_event(const Event& e) = 0;
};

/// Most sinks attached to one machine at once (the ledger aside).
inline constexpr int kMaxSinks = 3;

/// The sinks a run reports to, fixed at its start (Machine::run_sinks),
/// and the rank whose events a context reports.
class EventSinks {
 public:
  /// This snapshot, for rank `rank`'s context.
  EventSinks of_rank(int rank) const noexcept {
    EventSinks s = *this;
    s.rank_ = rank;
    return s;
  }
  bool empty() const noexcept { return n_ == 0; }
  /// Reports `e` as this rank's; callers test empty() first.
  void emit(Event e) const {
    e.rank = rank_;
    for (int i = 0; i < n_; ++i) at_[static_cast<std::size_t>(i)]->on_event(e);
  }
  /// A copy or a reduce: a read of `src`, then a write of `dst`.
  void read_write(const void* src, const void* dst, std::size_t n) const {
    emit({.kind = Event::Kind::kDataRead, .data = src, .bytes = n});
    emit({.kind = Event::Kind::kDataWrite, .data = dst, .bytes = n});
  }

 private:
  friend class Machine;
  void add(EventSink* s) noexcept { at_[static_cast<std::size_t>(n_++)] = s; }

  std::array<EventSink*, kMaxSinks + 1> at_{};
  int n_ = 0;
  int rank_ = 0;
};

}  // namespace xhc::mach
