// Outside-in host-time attribution for the benchmark's traced run.
//
// Nothing in the library is instrumented for this. Instead the benchmark
// hands decorator objects to the same public calls the untraced run makes:
// a Machine whose run() wraps every rank's Ctx, and a Component whose
// collective entry points mark the core layer. This is the pattern
// svc::TenantMachine / svc::TenantCtx use to re-export a machine.
//
// Attribution rule. Host time between two consecutive layer boundaries
// belongs to the layer the earlier boundary opened. A boundary is the entry
// to or the exit from a decorated call. Every simulated Ctx operation ends
// in the scheduler's advance(), which may switch to another rank's fiber;
// the switch and whatever the resumed rank does until its next boundary are
// therefore charged to the operation that yielded. Each boundary adds
// (now - last boundary) to exactly one layer, so the layer times of a
// traced interval sum to that interval's wall time with no gap and no
// double count.
//
// The clock is single-threaded: it is only valid on the simulator's fiber
// backend, where every rank of a machine runs on one host thread.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "coll/component.h"
#include "mach/machine.h"

namespace perfbench {

namespace coll = xhc::coll;
namespace mach = xhc::mach;
namespace obs = xhc::obs;
namespace p2p = xhc::p2p;
namespace smsc = xhc::smsc;
namespace topo = xhc::topo;
namespace verify = xhc::verify;

enum class Layer : int {
  kOuter = 0,  ///< the driving harness: osu sweep or svc loadgen code
  kCore,       ///< inside a component call, outside any Ctx call
  kFill,       ///< Ctx::write_payload
  kCopy,       ///< Ctx::copy
  kReduce,     ///< Ctx::reduce
  kFlag,       ///< Ctx::flag_store / flag_read / fetch_add
  kWait,       ///< Ctx::flag_wait_ge
  kBarrier,    ///< Ctx::barrier (harness synchronization)
  kClock,      ///< Ctx::now / charge / stall
  kAlloc,      ///< Machine::alloc / free
  kCount_,
};
inline constexpr int kNumLayers = static_cast<int>(Layer::kCount_);

struct LayerStats {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  std::uint64_t blocked = 0;  ///< wait layer: Ctx::wait_spins delta
  std::int64_t ns = 0;        ///< attributed host time
};

/// Collective entry points counted by the component decorator.
enum class CoreOp : int { kBcast = 0, kAllreduce, kReduce, kBarrier, kCount_ };
inline constexpr int kNumCoreOps = static_cast<int>(CoreOp::kCount_);

class LayerClock {
 public:
  /// Opens the outer layer and starts accumulating; layer times accumulate
  /// across start/stop pairs.
  void start();
  void stop();
  bool running() const noexcept { return running_; }

  /// Boundary: charges the elapsed time to the current layer and makes
  /// `next` current. Returns the layer that was current. No-op (returning
  /// `next`) while stopped.
  Layer cross(Layer next);

  LayerStats& stats(Layer l) noexcept {
    return stats_[static_cast<std::size_t>(l)];
  }
  const LayerStats& stats(Layer l) const noexcept {
    return stats_[static_cast<std::size_t>(l)];
  }
  std::uint64_t& core_calls(CoreOp op) noexcept {
    return core_calls_[static_cast<std::size_t>(op)];
  }
  std::uint64_t core_calls(CoreOp op) const noexcept {
    return core_calls_[static_cast<std::size_t>(op)];
  }
  std::int64_t layer_sum_ns() const noexcept;

 private:
  std::array<LayerStats, kNumLayers> stats_{};
  std::array<std::uint64_t, kNumCoreOps> core_calls_{};
  Layer cur_ = Layer::kOuter;
  std::int64_t last_ = 0;
  bool running_ = false;
};

/// RAII boundary pair: opens `layer` on construction and reopens the
/// previously current layer on destruction. The previous layer is read at
/// entry, when the calling rank's fiber is the one running, so it is that
/// rank's own enclosing layer even if other ranks ran in between.
class LayerScope {
 public:
  LayerScope(LayerClock& clock, Layer layer, std::uint64_t bytes = 0)
      : clock_(clock.running() ? &clock : nullptr) {
    if (clock_ == nullptr) return;
    LayerStats& s = clock_->stats(layer);
    ++s.calls;
    s.bytes += bytes;
    prev_ = clock_->cross(layer);
  }
  ~LayerScope() {
    if (clock_ != nullptr) clock_->cross(prev_);
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  LayerClock* clock_;
  Layer prev_ = Layer::kOuter;
};

/// Ctx that forwards every operation to `inner`. Decorators override the
/// operations they observe or alter.
class ForwardCtx : public mach::Ctx {
 public:
  explicit ForwardCtx(mach::Ctx& inner) : in_(inner) {
    wait_spins_ = inner.wait_spins();
  }

  int rank() const noexcept override { return in_.rank(); }
  int size() const noexcept override { return in_.size(); }
  int core() const noexcept override { return in_.core(); }
  double now() override { return in_.now(); }
  void charge(double s) override { in_.charge(s); }
  void stall(double s) override { in_.stall(s); }
  void copy(void* dst, const void* src, std::size_t n) override {
    in_.copy(dst, src, n);
  }
  void reduce(void* dst, const void* src, std::size_t count, mach::DType dt,
              mach::ROp op) override {
    in_.reduce(dst, src, count, dt, op);
  }
  void write_payload(void* dst, std::size_t n, std::uint64_t seed) override {
    in_.write_payload(dst, n, seed);
  }
  void flag_store(mach::Flag& f, std::uint64_t v) override {
    in_.flag_store(f, v);
  }
  std::uint64_t flag_read(const mach::Flag& f) override {
    return in_.flag_read(f);
  }
  void flag_wait_ge(const mach::Flag& f, std::uint64_t v) override {
    in_.flag_wait_ge(f, v);
    // Observers difference wait_spins() around waits on this context.
    wait_spins_ = in_.wait_spins();
  }
  std::uint64_t fetch_add(mach::Flag& f, std::uint64_t d) override {
    return in_.fetch_add(f, d);
  }
  void barrier() override { in_.barrier(); }

 protected:
  mach::Ctx& in_;
};

/// Machine that forwards everything to `inner`; run() hands each rank's
/// context to wrap_rank(), which must call `fn` exactly once.
class ForwardMachine : public mach::Machine {
 public:
  explicit ForwardMachine(mach::Machine& inner) : in_(inner) {}

  const topo::Topology& topology() const noexcept override {
    return in_.topology();
  }
  const topo::RankMap& map() const noexcept override { return in_.map(); }
  void* alloc(int owner, std::size_t bytes, std::size_t align = 64,
              bool zero = true) override {
    return in_.alloc(owner, bytes, align, zero);
  }
  void free(void* p) override { in_.free(p); }
  mach::RunResult run(const std::function<void(mach::Ctx&)>& fn) override {
    return in_.run([&](mach::Ctx& ctx) { wrap_rank(ctx, fn); });
  }
  verify::Ledger& verify_ledger() noexcept override {
    return in_.verify_ledger();
  }
  const verify::Ledger& verify_ledger() const noexcept override {
    return in_.verify_ledger();
  }
  void set_coh_tracking(bool on) override { in_.set_coh_tracking(on); }
  bool coh_tracking() const noexcept override { return in_.coh_tracking(); }
  bool coh_report(obs::CohReport* out) const override {
    return in_.coh_report(out);
  }
  void publish_coh_counters(obs::Metrics& m) override {
    in_.publish_coh_counters(m);
  }

 protected:
  virtual void wrap_rank(mach::Ctx& ctx,
                         const std::function<void(mach::Ctx&)>& fn) = 0;

  mach::Machine& in_;
};

/// Decorated machine of the traced run: every rank's Ctx operations and
/// every allocation become layer boundaries.
class TracedMachine final : public ForwardMachine {
 public:
  TracedMachine(mach::Machine& inner, LayerClock& clock)
      : ForwardMachine(inner), clock_(clock) {}

  void* alloc(int owner, std::size_t bytes, std::size_t align = 64,
              bool zero = true) override;
  void free(void* p) override;

 private:
  void wrap_rank(mach::Ctx& ctx,
                 const std::function<void(mach::Ctx&)>& fn) override;

  LayerClock& clock_;
};

/// Component that forwards everything to `inner` (not owned).
class ForwardComponent : public coll::Component {
 public:
  explicit ForwardComponent(coll::Component& inner) : in_(inner) {}

  std::string_view name() const noexcept override { return in_.name(); }
  void bcast(mach::Ctx& ctx, void* buf, std::size_t bytes, int root) override {
    in_.bcast(ctx, buf, bytes, root);
  }
  void allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                 std::size_t count, mach::DType dtype, mach::ROp op) override {
    in_.allreduce(ctx, sbuf, rbuf, count, dtype, op);
  }
  void reduce(mach::Ctx& ctx, const void* sbuf, void* rbuf, std::size_t count,
              mach::DType dtype, mach::ROp op, int root) override {
    in_.reduce(ctx, sbuf, rbuf, count, dtype, op, root);
  }
  void barrier(mach::Ctx& ctx) override { in_.barrier(ctx); }
  void set_traffic_counter(p2p::TrafficCounter* c) noexcept override {
    in_.set_traffic_counter(c);
  }
  std::optional<smsc::RegCache::Stats> reg_cache_stats() const override {
    return in_.reg_cache_stats();
  }
  void set_observer(obs::Observer* o) noexcept override {
    in_.set_observer(o);
  }

 protected:
  coll::Component& in_;
};

/// Decorated component of the traced run: collective calls open the core
/// layer. The Ctx it receives is already a traced one, so Ctx calls made by
/// the inner component close the core layer again.
class TracedComponent final : public ForwardComponent {
 public:
  TracedComponent(coll::Component& inner, LayerClock& clock)
      : ForwardComponent(inner), clock_(clock) {}

  void bcast(mach::Ctx& ctx, void* buf, std::size_t bytes, int root) override;
  void allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                 std::size_t count, mach::DType dtype, mach::ROp op) override;
  void reduce(mach::Ctx& ctx, const void* sbuf, void* rbuf, std::size_t count,
              mach::DType dtype, mach::ROp op, int root) override;
  void barrier(mach::Ctx& ctx) override;

 private:
  LayerClock& clock_;
};

/// Verification decorators. The machine side rewrites every payload
/// host-side as bounded floats (the operand family of osu::Config::verify)
/// and remembers each rank's last payload seed; the component side checks
/// every bcast and float-sum allreduce result on exit from the collective,
/// at sampled elements. Both are host-side only and allocate nothing, so a
/// verification pass keeps the timed pass's allocation history and hence
/// its modeled numbers bit for bit (Config::verify allocates reference
/// buffers between sizes, which moves later buffers and with them regcache
/// hits). Valid for the osu harness, which separates ops by a barrier.
class CheckMachine final : public ForwardMachine {
 public:
  static constexpr int kMaxRanks = 256;
  static constexpr int kMaxBadSizes = 16;

  explicit CheckMachine(mach::Machine& inner);

  /// Payload sizes (bytes) whose results failed a check since clear_bad().
  bool is_bad(std::size_t bytes) const noexcept;
  void clear_bad() noexcept { n_bad_ = 0; }

 private:
  friend class CheckCtx;
  friend class CheckComponent;

  struct RankState {
    const void* buf = nullptr;     ///< last write_payload destination
    std::uint64_t seed = 0;        ///< ... and its seed
    std::uint64_t op_seed = 0;     ///< allreduce: operand seed of this op
    std::uint64_t ops = 0;         ///< allreduce calls made by this rank
  };

  void wrap_rank(mach::Ctx& ctx,
                 const std::function<void(mach::Ctx&)>& fn) override;
  void record_bad(std::size_t bytes) noexcept;

  std::array<RankState, kMaxRanks> ranks_{};
  std::uint64_t bcast_seed_ = 0;  ///< root's payload seed of the current bcast
  std::uint64_t expect_op_ = 0;   ///< allreduce op the cache below is for
  std::array<double, 65> expect_{};
  std::array<std::size_t, kMaxBadSizes> bad_{};
  int n_bad_ = 0;
};

class CheckComponent final : public ForwardComponent {
 public:
  CheckComponent(coll::Component& inner, CheckMachine& machine)
      : ForwardComponent(inner), m_(machine) {}

  void bcast(mach::Ctx& ctx, void* buf, std::size_t bytes, int root) override;
  void allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                 std::size_t count, mach::DType dtype, mach::ROp op) override;

 private:
  CheckMachine& m_;
};

/// Seeded corruption for the benchmark's self-test: rank `victim` flips
/// one byte of the destination after every copy and reduction it performs.
/// The verification decorators must then report failed sizes.
class FlipMachine final : public ForwardMachine {
 public:
  FlipMachine(mach::Machine& inner, int victim)
      : ForwardMachine(inner), victim_(victim) {}

 private:
  void wrap_rank(mach::Ctx& ctx,
                 const std::function<void(mach::Ctx&)>& fn) override;

  int victim_;
};

}  // namespace perfbench
