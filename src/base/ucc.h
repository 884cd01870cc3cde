// `ucc` baseline — a model of the Unified Collective Communication library
// (paper §V-C): a competent conventional design with XPMEM single-copy
// transfers and static socket-level trees, but
//   * no NUMA/L3 awareness below the socket level (its static schedules are
//     "not the best fit to the underlying physical topology", §V-D1),
//   * coarser pipelining, and
//   * a per-operation library dispatch overhead.
//
// Implemented as a socket-sensitivity configuration of the shared hierarchy
// machinery plus the dispatch constant, which gives UCC exactly the paper's
// relative standing: strong at medium/large sizes (it is the closest
// competitor to XHC between 128 KB and 1 MB, Fig. 11), weaker for small
// messages and on the SLC-based ARM system.
//
// Size classes are UCC's own, not XHC's: above kLargeThreshold allreduce
// takes the reduce-scatter + allgather path and bcast stripes, standing for
// UCC's switch to its scatter-reduce-allgather algorithms (the point the
// paper's Fig. 11 comparison was measured at). Both thresholds are fixed
// here, so XHC's tuned thresholds and `--tune=xhc_*_threshold` leave the
// ucc column alone. Its reduce-scatter shards follow the same socket-level
// tree, not XHC's LLC-deep shard nest, and its one-chunk bcasts keep that
// tree instead of XHC's cache tree (Tuning::llc_aware off). Below the
// thresholds, the inner component folds every allreduce
// that fits its 64 KiB chunk through XHC's binomial fan-in per group
// (DESIGN.md § Allreduce fan-in), standing for UCC's knomial reduce; this
// is a modeling choice, not a side effect.
#pragma once

#include <memory>

#include "coll/component.h"
#include "core/xhc_component.h"

namespace xhc::base {

class UccComponent final : public coll::Component {
 public:
  UccComponent(mach::Machine& machine, coll::Tuning tuning);

  std::string_view name() const noexcept override { return "ucc"; }

  void bcast(mach::Ctx& ctx, void* buf, std::size_t bytes, int root) override;
  void allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                 std::size_t count, mach::DType dtype, mach::ROp op) override;

  std::optional<smsc::RegCache::Stats> reg_cache_stats() const override;

  void set_traffic_counter(p2p::TrafficCounter* counter) noexcept override {
    inner_->set_traffic_counter(counter);
  }
  /// The inner component records (and applies Tuning::trace's gate).
  void set_observer(obs::Observer* observer) noexcept override {
    inner_->set_observer(observer);
  }

  core::XhcComponent& inner() noexcept { return *inner_; }

 private:
  /// Per-operation library dispatch cost (team lookup, task scheduling).
  static constexpr double kDispatchOverhead = 1.2e-6;
  /// Payloads strictly above this take the bandwidth paths.
  static constexpr std::size_t kLargeThreshold = 128 * 1024;

  std::unique_ptr<core::XhcComponent> inner_;
};

}  // namespace xhc::base
