#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "util/check.h"

namespace perfbench {

namespace {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Bounded verification operand: an exact multiple of 1/256 in [-1, 1)
/// from (seed, element), the same family osu::Config::verify uses, so a
/// double reference sum is exact whatever the reduction order.
float operand(std::uint64_t seed, std::size_t i) noexcept {
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(i) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<float>(static_cast<int>(z & 511u) - 256) *
         (1.0f / 256.0f);
}

/// Checked element k of `count`: all of them up to 64, otherwise 64 evenly
/// strided ones plus the last (index 64).
constexpr std::size_t kSamples = 64;
std::size_t n_samples(std::size_t count) {
  return count <= kSamples ? count : kSamples + 1;
}
std::size_t sample(std::size_t count, std::size_t k) {
  if (count <= kSamples) return k;
  return k == kSamples ? count - 1 : k * (count / kSamples);
}

/// Ctx of the traced run: each operation is one boundary pair.
class TracedCtx final : public ForwardCtx {
 public:
  TracedCtx(mach::Ctx& inner, LayerClock& clock)
      : ForwardCtx(inner), clock_(clock) {}

  double now() override {
    LayerScope s(clock_, Layer::kClock);
    return in_.now();
  }
  void charge(double sec) override {
    LayerScope s(clock_, Layer::kClock);
    in_.charge(sec);
  }
  void stall(double sec) override {
    LayerScope s(clock_, Layer::kClock);
    in_.stall(sec);
  }
  void copy(void* dst, const void* src, std::size_t n) override {
    LayerScope s(clock_, Layer::kCopy, n);
    in_.copy(dst, src, n);
  }
  void reduce(void* dst, const void* src, std::size_t count, mach::DType dt,
              mach::ROp op) override {
    LayerScope s(clock_, Layer::kReduce, count * mach::dtype_size(dt));
    in_.reduce(dst, src, count, dt, op);
  }
  void write_payload(void* dst, std::size_t n, std::uint64_t seed) override {
    LayerScope s(clock_, Layer::kFill, n);
    in_.write_payload(dst, n, seed);
  }
  void flag_store(mach::Flag& f, std::uint64_t v) override {
    LayerScope s(clock_, Layer::kFlag);
    in_.flag_store(f, v);
  }
  std::uint64_t flag_read(const mach::Flag& f) override {
    LayerScope s(clock_, Layer::kFlag);
    return in_.flag_read(f);
  }
  std::uint64_t fetch_add(mach::Flag& f, std::uint64_t d) override {
    LayerScope s(clock_, Layer::kFlag);
    return in_.fetch_add(f, d);
  }
  void flag_wait_ge(const mach::Flag& f, std::uint64_t v) override {
    {
      LayerScope s(clock_, Layer::kWait);
      in_.flag_wait_ge(f, v);
    }
    if (clock_.running()) {
      clock_.stats(Layer::kWait).blocked += in_.wait_spins() - wait_spins_;
    }
    wait_spins_ = in_.wait_spins();
  }
  void barrier() override {
    LayerScope s(clock_, Layer::kBarrier);
    in_.barrier();
  }

 private:
  LayerClock& clock_;
};

/// Ctx of the self-test: the victim rank corrupts what it copies/reduces.
class FlipCtx final : public ForwardCtx {
 public:
  FlipCtx(mach::Ctx& inner, bool victim) : ForwardCtx(inner), victim_(victim) {}

  void copy(void* dst, const void* src, std::size_t n) override {
    in_.copy(dst, src, n);
    if (victim_ && n > 0) flip(dst);
  }
  void reduce(void* dst, const void* src, std::size_t count, mach::DType dt,
              mach::ROp op) override {
    in_.reduce(dst, src, count, dt, op);
    // Flip a high exponent bit: a low-order flip could stay inside the
    // float verification tolerance.
    if (victim_ && count > 0) static_cast<unsigned char*>(dst)[3] ^= 0x40;
  }

 private:
  static void flip(void* p) { *static_cast<unsigned char*>(p) ^= 0xff; }

  bool victim_;
};

}  // namespace

/// Ctx of the verification pass: payloads become bounded floats.
class CheckCtx final : public ForwardCtx {
 public:
  CheckCtx(mach::Ctx& inner, CheckMachine& m) : ForwardCtx(inner), m_(m) {}

  void write_payload(void* dst, std::size_t n, std::uint64_t seed) override {
    in_.write_payload(dst, n, seed);
    // Host-side rewrite after the modeled write: timing is unchanged.
    auto* f = static_cast<float*>(dst);
    for (std::size_t i = 0; i < n / sizeof(float); ++i) f[i] = operand(seed, i);
    auto& r = m_.ranks_[static_cast<std::size_t>(rank())];
    r.buf = dst;
    r.seed = seed;
  }

 private:
  CheckMachine& m_;
};

CheckMachine::CheckMachine(mach::Machine& inner) : ForwardMachine(inner) {
  XHC_REQUIRE(inner.n_ranks() <= kMaxRanks, "verification supports at most ",
              kMaxRanks, " ranks, got ", inner.n_ranks());
}

bool CheckMachine::is_bad(std::size_t bytes) const noexcept {
  return std::find(bad_.begin(), bad_.begin() + n_bad_, bytes) !=
         bad_.begin() + n_bad_;
}

void CheckMachine::record_bad(std::size_t bytes) noexcept {
  if (!is_bad(bytes) && n_bad_ < kMaxBadSizes) bad_[n_bad_++] = bytes;
}

void CheckMachine::wrap_rank(mach::Ctx& ctx,
                             const std::function<void(mach::Ctx&)>& fn) {
  CheckCtx checked(ctx, *this);
  fn(checked);
}

void CheckComponent::bcast(mach::Ctx& ctx, void* buf, std::size_t bytes,
                           int root) {
  const auto& r = m_.ranks_[static_cast<std::size_t>(ctx.rank())];
  if (ctx.rank() == root) m_.bcast_seed_ = r.buf == buf ? r.seed : 0;
  in_.bcast(ctx, buf, bytes, root);
  const std::size_t count = bytes / sizeof(float);
  const auto* f = static_cast<const float*>(buf);
  for (std::size_t k = 0; k < n_samples(count); ++k) {
    const std::size_t i = sample(count, k);
    const float want = operand(m_.bcast_seed_, i);
    if (std::memcmp(&f[i], &want, sizeof want) != 0) {
      m_.record_bad(bytes);
      return;
    }
  }
}

void CheckComponent::allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                               std::size_t count, mach::DType dtype,
                               mach::ROp op) {
  auto& r = m_.ranks_[static_cast<std::size_t>(ctx.rank())];
  r.op_seed = r.buf == sbuf ? r.seed : 0;
  const std::uint64_t op_id = ++r.ops;
  in_.allreduce(ctx, sbuf, rbuf, count, dtype, op);
  if (dtype != mach::DType::kF32 || op != mach::ROp::kSum) return;
  // Every rank has entered by the time any rank leaves, so the first rank
  // out computes the reference once for all.
  if (m_.expect_op_ != op_id) {
    for (std::size_t k = 0; k < n_samples(count); ++k) {
      double sum = 0.0;
      for (int q = 0; q < ctx.size(); ++q) {
        sum += static_cast<double>(operand(
            m_.ranks_[static_cast<std::size_t>(q)].op_seed, sample(count, k)));
      }
      m_.expect_[k] = sum;
    }
    m_.expect_op_ = op_id;
  }
  const auto* got = static_cast<const float*>(rbuf);
  for (std::size_t k = 0; k < n_samples(count); ++k) {
    const double want = m_.expect_[k];
    if (!(std::abs(static_cast<double>(got[sample(count, k)]) - want) <=
          1e-4 * std::max(1.0, std::abs(want)))) {
      m_.record_bad(count * sizeof(float));
      return;
    }
  }
}

void LayerClock::start() {
  running_ = true;
  cur_ = Layer::kOuter;
  last_ = now_ns();
}

void LayerClock::stop() {
  cross(Layer::kOuter);
  running_ = false;
}

Layer LayerClock::cross(Layer next) {
  if (!running_) return next;
  const std::int64_t t = now_ns();
  stats_[static_cast<std::size_t>(cur_)].ns += t - last_;
  last_ = t;
  const Layer prev = cur_;
  cur_ = next;
  return prev;
}

std::int64_t LayerClock::layer_sum_ns() const noexcept {
  std::int64_t sum = 0;
  for (const auto& s : stats_) sum += s.ns;
  return sum;
}

void* TracedMachine::alloc(int owner, std::size_t bytes, std::size_t align,
                           bool zero) {
  LayerScope s(clock_, Layer::kAlloc, bytes);
  return in_.alloc(owner, bytes, align, zero);
}

void TracedMachine::free(void* p) {
  LayerScope s(clock_, Layer::kAlloc);
  in_.free(p);
}

void TracedMachine::wrap_rank(mach::Ctx& ctx,
                              const std::function<void(mach::Ctx&)>& fn) {
  // A rank's fiber starts and ends in the harness, whatever the previously
  // running fiber had open.
  clock_.cross(Layer::kOuter);
  TracedCtx traced(ctx, clock_);
  fn(traced);
  clock_.cross(Layer::kOuter);
}

void TracedComponent::bcast(mach::Ctx& ctx, void* buf, std::size_t bytes,
                            int root) {
  if (clock_.running()) ++clock_.core_calls(CoreOp::kBcast);
  LayerScope s(clock_, Layer::kCore);
  in_.bcast(ctx, buf, bytes, root);
}

void TracedComponent::allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                                std::size_t count, mach::DType dtype,
                                mach::ROp op) {
  if (clock_.running()) ++clock_.core_calls(CoreOp::kAllreduce);
  LayerScope s(clock_, Layer::kCore);
  in_.allreduce(ctx, sbuf, rbuf, count, dtype, op);
}

void TracedComponent::reduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                             std::size_t count, mach::DType dtype,
                             mach::ROp op, int root) {
  if (clock_.running()) ++clock_.core_calls(CoreOp::kReduce);
  LayerScope s(clock_, Layer::kCore);
  in_.reduce(ctx, sbuf, rbuf, count, dtype, op, root);
}

void TracedComponent::barrier(mach::Ctx& ctx) {
  if (clock_.running()) ++clock_.core_calls(CoreOp::kBarrier);
  LayerScope s(clock_, Layer::kCore);
  in_.barrier(ctx);
}

void FlipMachine::wrap_rank(mach::Ctx& ctx,
                            const std::function<void(mach::Ctx&)>& fn) {
  FlipCtx flip(ctx, ctx.rank() == victim_);
  fn(flip);
}

}  // namespace perfbench
