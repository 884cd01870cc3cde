// Shared-resource arbiter of the multi-tenant collective service
// (DESIGN.md § Multi-tenant service).
//
// One Arbiter guards the shared-memory economy of a whole node: every
// communicator the CommRegistry instantiates charges its CICO pools,
// control planes and registration-cache entries against the arbiter's
// global budget at creation time, and every in-flight collective holds one
// of a bounded number of operation tokens while it runs. When a charge
// cannot be satisfied the arbiter degrades the request along the same
// chain the fault layer uses — segment halving down to the CICO floor,
// then XPMEM→CMA (per-operation kernel copies hold no cached mappings) —
// and only once the chain is exhausted sheds the request with a named,
// typed AdmissionError instead of deadlocking or over-committing.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>

#include "coll/tuning.h"
#include "util/check.h"

namespace xhc::svc {

/// Named, typed admission rejection: names the owning communicator, the
/// operation that was refused and why. Derived from util::Error so existing
/// catch sites (guarded_main, tests) keep working.
class AdmissionError : public util::Error {
 public:
  AdmissionError(std::string comm, std::string op, std::string reason)
      : util::Error("admission rejected: comm '" + comm + "' op " + op +
                    ": " + reason),
        comm_(std::move(comm)),
        op_(std::move(op)),
        reason_(std::move(reason)) {}

  const std::string& comm() const noexcept { return comm_; }
  const std::string& op() const noexcept { return op_; }
  const std::string& reason() const noexcept { return reason_; }

 private:
  std::string comm_;
  std::string op_;
  std::string reason_;
};

/// Global resource budget one Arbiter enforces.
struct Budget {
  /// Shared-segment bytes available to all communicators together: CICO
  /// pools plus the control-plane overhead estimate (kCtlBytesPerRank).
  std::size_t segment_bytes = 64u << 20;
  /// Registration-cache entries available across all endpoints.
  std::size_t regcache_entries = 1u << 20;
  /// Collectives allowed in flight at once, service-wide. Leaders acquire a
  /// token before starting an operation and back off (Ctx::stall) while none
  /// is free.
  int inflight_ops = 8;
  /// Pending-request backlog a communicator may accumulate before its
  /// admission leader starts shedding.
  std::size_t queue_capacity = 64;
  /// Seconds a request may wait past its arrival (backoff + backlog) before
  /// the admission leader sheds it. Virtual time on SimMachine.
  double deadline = 0.05;
  /// Exponential backoff while waiting for an operation token: first stall
  /// `backoff_base` seconds, doubling up to `backoff_max`.
  double backoff_base = 2e-6;
  double backoff_max = 512e-6;
};

class Arbiter {
 public:
  /// Control-plane overhead charged per communicator rank on top of the
  /// CICO segment: group ctl blocks (a dozen padded lines per membership),
  /// the shard/stripe plane (4 lines) and the admission plane. Generous by
  /// design — the arbiter must never under-charge.
  static constexpr std::size_t kCtlBytesPerRank = 8u << 10;
  /// reg_cache_entries is not degraded below this before the mechanism
  /// itself is downgraded.
  static constexpr std::size_t kMinRegEntries = 16;

  explicit Arbiter(Budget budget)
      : budget_(budget),
        seg_free_(budget.segment_bytes),
        reg_free_(budget.regcache_entries),
        ops_free_(budget.inflight_ops) {
    XHC_REQUIRE(budget.inflight_ops > 0, "need at least one op token");
  }

  const Budget& budget() const noexcept { return budget_; }

  /// Creation-time admission of a communicator named `comm` with `n_ranks`
  /// ranks. Returns the (possibly degraded) tuning whose cost fit the
  /// remaining budget, charging it; appends a one-line note per degradation
  /// step to `*trail` (when non-null). Throws AdmissionError when even the
  /// fully degraded configuration does not fit.
  coll::Tuning admit(const std::string& comm, int n_ranks, coll::Tuning t,
                     std::string* trail = nullptr);

  /// Returns a communicator's creation-time charge to the pool.
  void release(const std::string& comm);

  /// Operation tokens. try_acquire_op is safe from concurrent rank threads
  /// (RealMachine); on SimMachine exactly one rank executes at a time, so
  /// the token sequence is deterministic.
  bool try_acquire_op() noexcept {
    int cur = ops_free_.load(std::memory_order_relaxed);
    while (cur > 0) {
      if (ops_free_.compare_exchange_weak(cur, cur - 1,
                                          std::memory_order_acq_rel)) {
        return true;
      }
    }
    return false;
  }
  void release_op() noexcept {
    ops_free_.fetch_add(1, std::memory_order_acq_rel);
  }

  std::size_t segment_bytes_free() const;

  Arbiter(const Arbiter&) = delete;
  Arbiter& operator=(const Arbiter&) = delete;

 private:
  struct Charge {
    std::size_t seg = 0;
    std::size_t reg = 0;
  };

  Budget budget_;
  mutable std::mutex mu_;          ///< guards the creation-time pools
  std::size_t seg_free_;
  std::size_t reg_free_;
  std::map<std::string, Charge> charges_;
  std::atomic<int> ops_free_;      ///< op tokens, touched inside runs
};

}  // namespace xhc::svc
