#include "base/ucc.h"

namespace xhc::base {

UccComponent::UccComponent(mach::Machine& machine, coll::Tuning tuning) {
  // Static socket-level schedule, coarse chunks, no finer topology levels —
  // also none in the reduce-scatter shard plan, and no cache tree.
  // Multi-socket: static socket-level trees. Single socket: UCC still
  // builds one-level trees (knomial teams), modeled as a NUMA-level
  // hierarchy rather than a flat fan-out.
  tuning.sensitivity =
      machine.topology().n_sockets() > 1 ? "socket" : "numa";
  tuning.chunk_bytes = {64 * 1024};
  tuning.flag_layout = coll::FlagLayout::kSingle;
  tuning.sync = coll::SyncMethod::kSingleWriter;
  tuning.rs_ag_threshold = kLargeThreshold;
  tuning.stripe_threshold = kLargeThreshold;
  tuning.llc_aware = false;
  inner_ = std::make_unique<core::XhcComponent>(machine, std::move(tuning),
                                                "ucc-inner");
}

void UccComponent::bcast(mach::Ctx& ctx, void* buf, std::size_t bytes,
                         int root) {
  ctx.charge(kDispatchOverhead);
  inner_->bcast(ctx, buf, bytes, root);
}

void UccComponent::allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                             std::size_t count, mach::DType dtype,
                             mach::ROp op) {
  ctx.charge(kDispatchOverhead);
  inner_->allreduce(ctx, sbuf, rbuf, count, dtype, op);
}

std::optional<smsc::RegCache::Stats> UccComponent::reg_cache_stats() const {
  return inner_->reg_cache_stats();
}

}  // namespace xhc::base
