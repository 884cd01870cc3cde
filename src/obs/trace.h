// Per-rank span tracer (observability layer, DESIGN.md § Observability).
//
// Collective code marks regions of interest with XHC_TRACE RAII spans; each
// span records [enter, exit) against Ctx::now(), so the identical
// instrumentation yields wall-clock traces on RealMachine and virtual-time
// traces on SimMachine. Spans land in fixed-capacity per-rank ring buffers:
// each ring has exactly one writer (its rank's thread), recording is a few
// stores with no locks and no allocation, and a full ring overwrites its
// oldest entries (the most recent window survives). Readers (exporters,
// tests) run after Machine::run has joined the rank threads.
//
// Category and name must be string literals (or otherwise outlive the
// Recorder): spans store the pointers, never copies.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mach/machine.h"
#include "util/cacheline.h"

namespace xhc::obs {

/// One closed span. `cat` is the coarse phase class ("copy", "reduce",
/// "wait", "collective", "smsc"); `name` the specific site
/// ("bcast.pull_chunk"); `arg` an optional payload (bytes, level, ...).
struct Span {
  const char* cat;
  const char* name;
  double t0;  ///< seconds since run start (wall or virtual)
  double t1;
  std::uint64_t arg;
};

/// Lock-free per-rank span sink. Constructed (and sized) off the hot path;
/// `record` is wait-free for the owning rank thread.
class Recorder {
 public:
  /// `capacity` is the per-rank ring size, rounded up to a power of two.
  explicit Recorder(int n_ranks, std::size_t capacity = 1u << 14);

  int n_ranks() const noexcept { return static_cast<int>(rings_.size()); }
  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Collection master switch; checked by every span site. Flip only
  /// outside parallel regions.
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends a span to `rank`'s ring. Must be called from the thread
  /// executing `rank` (single-writer discipline).
  void record(int rank, const char* cat, const char* name, double t0,
              double t1, std::uint64_t arg = 0) noexcept {
    Ring& ring = rings_[static_cast<std::size_t>(rank)];
    ring.slots[ring.head & mask_] = Span{cat, name, t0, t1, arg};
    ++ring.head;
  }

  // --- post-run readers (require the rank threads to have joined) ----------

  /// Retained spans of `rank`, oldest first.
  std::vector<Span> spans(int rank) const;
  /// Spans ever recorded by `rank` (retained + overwritten).
  std::uint64_t recorded(int rank) const noexcept {
    return rings_[static_cast<std::size_t>(rank)].head;
  }
  /// Spans lost to ring wrap-around for `rank`.
  std::uint64_t dropped(int rank) const noexcept;
  /// Totals over all ranks.
  std::uint64_t recorded() const noexcept {
    std::uint64_t sum = 0;
    for (const Ring& ring : rings_) sum += ring.head;
    return sum;
  }
  std::uint64_t dropped() const noexcept {
    std::uint64_t sum = 0;
    for (int r = 0; r < n_ranks(); ++r) sum += dropped(r);
    return sum;
  }

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

 private:
  /// Line-aligned so neighbouring ranks' heads never share a cache line.
  /// Slots are left unwritten (Span has no member defaults) until recorded.
  struct alignas(util::kCacheLine) Ring {
    std::unique_ptr<Span[]> slots;
    std::uint64_t head = 0;  ///< total spans recorded; slot index = head&mask
  };

  std::size_t mask_;
  std::vector<Ring> rings_;
  std::atomic<bool> enabled_{true};
};

/// RAII span: opens at construction, records at scope exit. A null recorder
/// (or a disabled one) reduces the whole guard to two branches.
class SpanGuard {
 public:
  SpanGuard(Recorder* rec, mach::Ctx& ctx, const char* cat, const char* name,
            std::uint64_t arg = 0) noexcept {
    if (rec != nullptr && rec->enabled()) {
      rec_ = rec;
      ctx_ = &ctx;
      cat_ = cat;
      name_ = name;
      arg_ = arg;
      t0_ = ctx.now();
    }
  }

  ~SpanGuard() {
    if (rec_ != nullptr) {
      rec_->record(ctx_->rank(), cat_, name_, t0_, ctx_->now(), arg_);
    }
  }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Recorder* rec_ = nullptr;
  mach::Ctx* ctx_ = nullptr;
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  double t0_ = 0.0;
  std::uint64_t arg_ = 0;
};

}  // namespace xhc::obs

#define XHC_OBS_CONCAT2(a, b) a##b
#define XHC_OBS_CONCAT(a, b) XHC_OBS_CONCAT2(a, b)

/// Scoped span: XHC_TRACE(recorder_ptr, ctx, "copy", "bcast.pull_chunk",
/// bytes). `cat`/`name` must be string literals; the optional trailing
/// argument is stored in Span::arg.
#define XHC_TRACE(rec, ctx, cat, name, ...)                             \
  ::xhc::obs::SpanGuard XHC_OBS_CONCAT(xhc_trace_, __LINE__)(           \
      (rec), (ctx), (cat), (name)__VA_OPT__(, ) __VA_ARGS__)
