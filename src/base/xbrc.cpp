#include "base/xbrc.h"

#include <algorithm>

#include "util/check.h"

namespace xhc::base {

XbrcComponent::XbrcComponent(mach::Machine& machine, coll::Tuning tuning)
    : machine_(&machine),
      tuning_(std::move(tuning)),
      // Group 0's seq, announce and info carry the bcast, its member_seq,
      // minfo and reduce_done the allreduce, and its acks close both.
      tree_(machine, /*sensitivity=*/{},
            {.groups = true, .announce = true, .ack = true}) {
  ranks_.reserve(static_cast<std::size_t>(machine.n_ranks()));
  for (int r = 0; r < machine.n_ranks(); ++r) {
    auto rs = std::make_unique<RankState>();
    rs->endpoint = std::make_unique<smsc::Endpoint>(tuning_.mechanism,
                                                    tuning_.reg_cache);
    ranks_.push_back(std::move(rs));
  }
}

XbrcComponent::~XbrcComponent() = default;

std::optional<smsc::RegCache::Stats> XbrcComponent::reg_cache_stats() const {
  smsc::RegCache::Stats total;
  for (const auto& rs : ranks_) {
    total.hits += rs->endpoint->cache_stats().hits;
    total.misses += rs->endpoint->cache_stats().misses;
  }
  return total;
}

std::pair<std::size_t, std::size_t> XbrcComponent::partition(
    std::size_t count, int n, int i) {
  const std::size_t q = count / static_cast<std::size_t>(n);
  const std::size_t rem = count % static_cast<std::size_t>(n);
  const auto ui = static_cast<std::size_t>(i);
  const std::size_t lo = q * ui + std::min<std::size_t>(ui, rem);
  return {lo, lo + q + (ui < rem ? 1 : 0)};
}

void XbrcComponent::allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                              std::size_t count, mach::DType dtype,
                              mach::ROp op) {
  const std::size_t elem = mach::dtype_size(dtype);
  const std::size_t bytes = count * elem;
  if (count == 0) return;
  const bool in_place = (sbuf == rbuf || sbuf == nullptr);
  if (in_place) sbuf = rbuf;
  if (ctx.size() == 1) {
    if (!in_place) ctx.copy(rbuf, sbuf, bytes);
    return;
  }

  const int r = ctx.rank();
  const int n = ctx.size();
  RankState& rs = state(r);
  const std::uint64_t s = ++rs.op_seq;
  core::GroupCtl& ctl = tree_.ctl(0);
  const auto* sp = static_cast<const std::byte*>(sbuf);
  auto* rp = static_cast<std::byte*>(rbuf);

  // Publish buffer addresses (guarded by member_seq).
  rs.endpoint->expose(ctx, sbuf, bytes);
  rs.endpoint->expose(ctx, rbuf, bytes);
  ctl.minfo[r]->contrib = sbuf;
  ctl.minfo[r]->result = rbuf;
  ctx.flag_store(*ctl.member_seq[r], s);

  // Reduce this rank's partition, reading every peer's sbuf directly.
  const auto [plo, phi] = partition(count, n, r);
  const std::size_t lo = plo * elem;
  const std::size_t len = (phi - plo) * elem;
  if (len > 0) {
    if (!in_place) ctx.copy(rp + lo, sp + lo, len);
    for (int j = 0; j < n; ++j) {
      if (j == r) continue;
      ctx.flag_wait_ge(*ctl.member_seq[j], s);
      const auto* peer = static_cast<const std::byte*>(rs.endpoint->attach(
          ctx, j, ctl.minfo[j]->contrib, bytes));
      rs.endpoint->charge_op(ctx, len, n);
      ctx.reduce(rp + lo, peer + lo, phi - plo, dtype, op);
      record_traffic(j, r);
    }
  }
  ctx.flag_store(*ctl.reduce_done[r], s);

  // All-gather: read every finished partition from its owner's rbuf.
  for (int j = 0; j < n; ++j) {
    if (j == r) continue;
    const auto [qlo, qhi] = partition(count, n, j);
    if (qlo == qhi) continue;
    ctx.flag_wait_ge(*ctl.reduce_done[j], s);
    const auto* peer = static_cast<const std::byte*>(rs.endpoint->attach(
        ctx, j, ctl.minfo[j]->result, bytes));
    rs.endpoint->charge_op(ctx, (qhi - qlo) * elem, n);
    ctx.copy(rp + qlo * elem, peer + qlo * elem, (qhi - qlo) * elem);
  }

  // Completion: nobody may reuse buffers until all peers finished reading.
  ctx.flag_store(*ctl.ack[r], s);
  for (int j = 0; j < n; ++j) {
    if (j != r) ctx.flag_wait_ge(*ctl.ack[j], s);
  }
  rs.bytes_base += bytes;
}

void XbrcComponent::bcast(mach::Ctx& ctx, void* buf, std::size_t bytes,
                          int root) {
  if (bytes == 0 || ctx.size() == 1) return;
  const int r = ctx.rank();
  const int n = ctx.size();
  RankState& rs = state(r);
  const std::uint64_t s = ++rs.op_seq;
  core::GroupCtl& ctl = tree_.ctl(0);

  // The mailbox is the root's own slot (flat group: slot index == rank), so
  // rotating roots never share one: root N+1 publishing cannot clobber the
  // pointer a straggler of root N's bcast has yet to read, and every slot
  // keeps a single fixed writer for the ledger.
  if (r == root) {
    rs.endpoint->expose(ctx, buf, bytes);
    ctl.info[root]->buf = buf;
    ctx.flag_store(*ctl.seq[root], s);
    ctx.flag_store(*ctl.announce[root], rs.bytes_base + bytes);
    for (int j = 0; j < n; ++j) {
      if (j != root) ctx.flag_wait_ge(*ctl.ack[j], s);
    }
  } else {
    ctx.flag_wait_ge(*ctl.seq[root], s);
    ctx.flag_wait_ge(*ctl.announce[root], rs.bytes_base + bytes);
    const void* src =
        rs.endpoint->attach(ctx, root, ctl.info[root]->buf, bytes);
    rs.endpoint->charge_op(ctx, bytes, n);
    ctx.copy(buf, src, bytes);
    record_traffic(root, r);
    ctx.flag_store(*ctl.ack[r], s);
  }
  rs.bytes_base += bytes;
}

}  // namespace xhc::base
