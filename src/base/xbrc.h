// XBRC — XPMEM-Based Reduction Collectives, the re-implementation of
// Hashmi et al., IPDPS'18 [5] (paper §V-C).
//
// A *flat* shared-address-space allreduce: the payload is partitioned across
// ranks; each rank reduces its own partition by reading every peer's send
// buffer directly through XPMEM (truly single-copy reduction), then all
// ranks gather the finished partitions by reading each owner's result
// buffer. No topology awareness — the reason it trails XHC-tree on large
// multi-NUMA systems (Fig. 11).
//
// A flat single-copy broadcast is provided for API completeness (the
// original design covers Reduce/Allreduce only; the paper's bcast figures
// accordingly exclude XBRC).
#pragma once

#include <memory>
#include <vector>

#include "coll/component.h"
#include "core/comm_tree.h"
#include "smsc/endpoint.h"

namespace xhc::base {

class XbrcComponent final : public coll::Component {
 public:
  XbrcComponent(mach::Machine& machine, coll::Tuning tuning);
  ~XbrcComponent() override;

  std::string_view name() const noexcept override { return "xbrc"; }

  void bcast(mach::Ctx& ctx, void* buf, std::size_t bytes, int root) override;
  void allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                 std::size_t count, mach::DType dtype, mach::ROp op) override;

  std::optional<smsc::RegCache::Stats> reg_cache_stats() const override;

  core::CommTree& tree() noexcept { return tree_; }

 private:
  struct RankState {
    std::uint64_t op_seq = 0;
    std::uint64_t bytes_base = 0;  ///< cumulative payload bytes
    std::unique_ptr<smsc::Endpoint> endpoint;
  };
  RankState& state(int rank) { return *ranks_[static_cast<std::size_t>(rank)]; }

  /// Element range of partition `i` over `count` elements.
  static std::pair<std::size_t, std::size_t> partition(std::size_t count,
                                                       int n, int i);

  mach::Machine* machine_;
  coll::Tuning tuning_;
  core::CommTree tree_;  ///< flat: one group holding every rank
  std::vector<std::unique_ptr<RankState>> ranks_;
};

}  // namespace xhc::base
