#include "mach/real_machine.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "mach/host_alloc.h"
#include "util/cacheline.h"
#include "util/check.h"
#include "util/prng.h"

namespace xhc::mach {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Backoff tiers for watchdogged waits: pure pause while the wait is likely
// short, then yield (the host is oversubscribed — many rank threads per
// hardware core — so writers must not be starved), then sleep once the wait
// is clearly long. Deadline/abort checks piggyback on the tier boundaries.
constexpr std::uint64_t kSpinIters = 64;
constexpr std::uint64_t kYieldIters = 4096;
constexpr std::chrono::microseconds kSleepQuantum{50};
constexpr std::uint64_t kCheckMask = 63;  // abort/deadline check cadence

// Sentinel wait channel for barriers (any stable non-flag address works).
const int kBarrierChanToken = 0;

/// Per-rank published wait state, read by whichever rank times out first to
/// build the all-ranks stall dump.
struct alignas(util::kCacheLine) WaitSlot {
  std::atomic<const void*> chan{nullptr};  ///< flag address / barrier token
  std::atomic<std::uint64_t> need{0};
};

struct WaitShared {
  explicit WaitShared(int n) : slots(static_cast<std::size_t>(n)) {}
  std::atomic<int> abort_rank{-1};  ///< first rank whose run failed
  std::vector<WaitSlot> slots;
};

/// Sense-reversing central barrier usable by oversubscribed threads. Split
/// into arrive / released so the caller owns the wait loop (watchdog).
class CentralBarrier {
 public:
  static constexpr std::uint64_t kReleased = ~std::uint64_t{0};

  explicit CentralBarrier(int n) : n_(n) {}

  /// Returns kReleased when this arrival released the barrier, else the
  /// generation to poll with released().
  std::uint64_t arrive() {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_acq_rel);
      return kReleased;
    }
    return gen;
  }

  bool released(std::uint64_t gen) const {
    return generation_.load(std::memory_order_acquire) != gen;
  }

 private:
  const int n_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace

class RealMachine::RealCtx final : public Ctx {
 public:
  RealCtx(int rank, int size, int core, Clock::time_point t0,
          CentralBarrier* barrier, verify::Ledger* ledger, WaitShared* wait,
          double wait_timeout, const EventSinks& sinks)
      : rank_(rank),
        size_(size),
        core_(core),
        t0_(t0),
        barrier_(barrier),
        ledger_(ledger),
        wait_(wait),
        wait_timeout_(wait_timeout),
        sinks_(sinks.of_rank(rank)) {}

  int rank() const noexcept override { return rank_; }
  int size() const noexcept override { return size_; }
  int core() const noexcept override { return core_; }

  double now() override { return seconds_since(t0_); }

  void charge(double) override {
    // Modeled costs do not apply to wall-clock execution.
  }

  void stall(double seconds) override {
    // Injected straggler latency must be real here: sleep, so peers
    // observably wait on this rank.
    if (seconds > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    }
  }

  void copy(void* dst, const void* src, std::size_t n) override {
    std::memcpy(dst, src, n);
  }

  void reduce(void* dst, const void* src, std::size_t count, DType dtype,
              ROp op) override {
    reduce_apply(dst, src, count, dtype, op);
  }

  void write_payload(void* dst, std::size_t n, std::uint64_t seed) override {
    util::fill_pattern(dst, n, seed);
  }

  void flag_store(Flag& f, std::uint64_t v) override {
    // Reported before the store so a reader can never see a value whose
    // legality the ledger has not yet judged.
    if (!sinks_.empty()) {
      sinks_.emit({.kind = Kind::kStore, .flag = &f, .value = v});
    }
    f.v.store(v, std::memory_order_release);
  }

  std::uint64_t flag_read(const Flag& f) override {
    return f.v.load(std::memory_order_acquire);
  }

  void flag_wait_ge(const Flag& f, std::uint64_t v) override {
    if (f.v.load(std::memory_order_acquire) >= v) return;
    // Blocking path: sinks get the wall-clock seconds blocked and the resume
    // time since the run started.
    const bool observed = !sinks_.empty();
    const double wait_t0 = observed ? seconds_since(t0_) : 0.0;
    WaitSlot& slot = wait_->slots[static_cast<std::size_t>(rank_)];
    slot.need.store(v, std::memory_order_relaxed);
    slot.chan.store(&f, std::memory_order_release);
    const Clock::time_point deadline = wait_deadline();
    std::uint64_t iter = 0;
    while (f.v.load(std::memory_order_acquire) < v) {
      ++wait_spins_;
      ++iter;
      if (iter <= kSpinIters) {
        cpu_relax();
      } else if (iter <= kYieldIters) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(kSleepQuantum);
      }
      if ((iter & kCheckMask) == 0) check_watchdog(&f, v, deadline);
    }
    slot.chan.store(nullptr, std::memory_order_release);
    if (observed) {
      const double resumed = seconds_since(t0_);
      sinks_.emit({.kind = Kind::kWaitEnd, .blocked = true, .flag = &f,
                   .value = v, .waited = resumed - wait_t0,
                   .resumed = resumed});
    }
  }

  std::uint64_t fetch_add(Flag& f, std::uint64_t delta) override {
    const std::uint64_t prev = f.v.fetch_add(delta, std::memory_order_acq_rel);
    if (!sinks_.empty()) {
      sinks_.emit({.kind = Kind::kRmw, .flag = &f, .value = prev + delta,
                   .delta = delta});
    }
    return prev;
  }

  void barrier() override {
    const std::uint64_t gen = barrier_->arrive();
    if (gen == CentralBarrier::kReleased) return;
    WaitSlot& slot = wait_->slots[static_cast<std::size_t>(rank_)];
    slot.need.store(0, std::memory_order_relaxed);
    slot.chan.store(&kBarrierChanToken, std::memory_order_release);
    const Clock::time_point deadline = wait_deadline();
    std::uint64_t iter = 0;
    while (!barrier_->released(gen)) {
      ++iter;
      if (iter <= kYieldIters) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(kSleepQuantum);
      }
      if ((iter & kCheckMask) == 0) check_watchdog(nullptr, 0, deadline);
    }
    slot.chan.store(nullptr, std::memory_order_release);
  }

 private:
  using Kind = Event::Kind;

  Clock::time_point wait_deadline() const {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(wait_timeout_));
  }

  std::string chan_desc(const void* chan, std::uint64_t need) const {
    if (chan == &kBarrierChanToken) return "barrier";
    std::string name = ledger_->flag_name(chan);
    if (name.empty()) {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%p", chan);
      name = buf;
    } else {
      name = "'" + name + "'";
    }
    return "flag " + name + " >= " + std::to_string(need);
  }

  /// Throws when a peer already failed or when this rank's own deadline
  /// passed. The dump mirrors the sim scheduler's deadlock report.
  void check_watchdog(const Flag* f, std::uint64_t need,
                      Clock::time_point deadline) {
    const int aborter = wait_->abort_rank.load(std::memory_order_acquire);
    if (aborter >= 0 && aborter != rank_) {
      throw util::Error("rank " + std::to_string(rank_) +
                        " wait aborted after failure on rank " +
                        std::to_string(aborter));
    }
    if (Clock::now() < deadline) return;
    int expected = -1;
    wait_->abort_rank.compare_exchange_strong(expected, rank_,
                                              std::memory_order_acq_rel);
    std::string msg = "watchdog: rank " + std::to_string(rank_) +
                      " stalled > " + std::to_string(wait_timeout_) +
                      "s waiting " +
                      (f != nullptr ? chan_desc(f, need) : "barrier");
    if (f != nullptr) {
      const std::string snap = ledger_->flag_snapshot(f);
      if (!snap.empty()) msg += " [ledger: " + snap + "]";
    }
    msg += "; rank states: [";
    for (int r = 0; r < size_; ++r) {
      const WaitSlot& s = wait_->slots[static_cast<std::size_t>(r)];
      const void* chan = s.chan.load(std::memory_order_acquire);
      msg += std::to_string(r) + ":";
      msg += chan == nullptr
                 ? "running"
                 : "blocked@" +
                       chan_desc(chan, s.need.load(std::memory_order_relaxed));
      if (r + 1 < size_) msg += " ";
    }
    msg += "]";
    throw util::Error(msg);
  }

  const int rank_;
  const int size_;
  const int core_;
  const Clock::time_point t0_;
  CentralBarrier* const barrier_;
  verify::Ledger* const ledger_;
  WaitShared* const wait_;
  const double wait_timeout_;
  const EventSinks sinks_;
};

RealMachine::RealMachine(topo::Topology topo, int n_ranks,
                         topo::MapPolicy policy)
    : topo_(std::move(topo)), map_(topo_, n_ranks, policy), wait_timeout_(60.0) {
  if (const char* env = std::getenv("XHC_WAIT_TIMEOUT"); env != nullptr) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && *end == '\0' && v > 0.0) wait_timeout_ = v;
  }
}

RealMachine::~RealMachine() = default;

void* RealMachine::alloc(int owner_rank, std::size_t bytes, std::size_t align,
                         bool zero) {
  XHC_REQUIRE(owner_rank >= 0 && owner_rank < n_ranks(), "owner rank ",
              owner_rank, " out of range");
  const HostBlock b = host_alloc(bytes, align, zero, /*hint=*/true);
  registry_.insert(b.p, b.bytes, owner_rank);
  return b.p;
}

void RealMachine::free(void* p) {
  if (p == nullptr) return;
  if (const auto* block = registry_.find(p); block != nullptr) {
    // A reused address must start with a clean ledger record.
    verify_ledger().forget_range(block->base, block->bytes);
  }
  registry_.erase(p);
  std::free(p);
}

RunResult RealMachine::run(const std::function<void(Ctx&)>& fn) {
  const int n = n_ranks();
  CentralBarrier barrier(n);
  WaitShared wait(n);
  RunResult result;
  result.rank_time.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));

  const EventSinks sinks = run_sinks();
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      RealCtx ctx(r, n, map_.core_of(r), t0, &barrier, &verify_ledger(), &wait,
                  wait_timeout_, sinks);
      try {
        fn(ctx);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Unblock peers stuck in flag waits / barriers: they observe the
        // abort at their next watchdog check instead of spinning to the
        // full timeout.
        int expected = -1;
        wait.abort_rank.compare_exchange_strong(expected, r,
                                                std::memory_order_acq_rel);
      }
      result.rank_time[static_cast<std::size_t>(r)] = ctx.now();
    });
  }
  for (auto& t : threads) t.join();
  // Prefer the root-cause error: the rank that failed first aborted the
  // others, whose "aborted after failure on rank X" exceptions are noise.
  if (const int aborter = wait.abort_rank.load(); aborter >= 0) {
    if (auto& e = errors[static_cast<std::size_t>(aborter)]; e) {
      std::rethrow_exception(e);
    }
  }
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (const double t : result.rank_time) {
    result.max_time = std::max(result.max_time, t);
  }
  return result;
}

}  // namespace xhc::mach
