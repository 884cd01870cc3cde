// XHC MPI_Bcast (paper §IV-A): hierarchical, pipelined, pull-based.
//
// The root exposes its buffer and, once it is complete, releases it in every
// group it leads (under the single-flag layout by its `seq` alone). Each
// other rank waits on its leader, pulls chunks into its own buffer (single-
// copy via XPMEM, or via the leader's CICO result area for small messages),
// and — when it leads lower groups — republishes each chunk to its children.
// Once the payload no longer stays in a cache, a rank whose member level is
// above the leaf pulls from its predecessor in that group's chain instead
// (the leader, then the other members ascending) and republishes to its
// successor, so no node's memory serves every upper-level child. A
// hierarchical acknowledgement closes the operation so buffers and flags
// can be reused. On a shared-LLC node a one-chunk bcast skips the
// republishing: every rank pulls from the root through the cache tree, and
// only the acknowledgement climbs through the LLC groups. One-chunk
// allreduces, reduces and barriers finish their downward phase the same way
// (core/allreduce.cpp, XhcComponent::barrier).
#include "core/xhc_component.h"

#include <algorithm>

#include "core/shard_schedule.h"
#include "util/check.h"

namespace xhc::core {

namespace {

/// Largest bcast that every rank still pulls from its group leader: on a
/// shared-LLC node the cost model keeps a payload LLC-resident only up to
/// 1.6 MiB (sim::CacheModel::fits_llc); without a shared LLC (armn1) the
/// chain stays within 3% of the tree up to 208 KiB and wins by 8-17% from
/// 224 KiB (EXPERIMENTS.md § Bcast chain).
constexpr std::size_t kChainAboveLlc = std::size_t{2} << 20;
constexpr std::size_t kChainAboveNoLlc = std::size_t{128} << 10;

}  // namespace

bool XhcComponent::one_chunk(std::size_t bytes, std::size_t elem) const {
  for (int l = 0; l < tree_.n_levels(); ++l) {
    if (bytes > aligned_chunk(tuning_.chunk_for_level(l), elem)) return false;
  }
  return true;
}

void XhcComponent::pull_bcast(mach::Ctx& ctx, const CommView::Membership& from,
                              const std::vector<CommView::Membership>& acks,
                              void* user_buf, std::size_t bytes, bool cico,
                              std::uint64_t s, bool relay, bool from_root,
                              bool chain) {
  const int r = ctx.rank();
  XHC_CHECK(from.leader != r, "pull_bcast called on the root");
  RankState& rs = state(r);
  GroupCtl& from_ctl = tree_.ctl(from.ctl_id);
  const GroupShape& from_shape = tree_.shape(from.ctl_id);

  // The source: the leader, or on the chain this rank's predecessor in
  // chain order (the leader, then the other members ascending). The
  // successor, if any, pulls from this rank's slot of `from` in turn.
  int src = from.leader;
  int next = -1;
  if (chain) {
    for (const int j : from.members) {
      if (j == from.leader) continue;
      if (j < r) src = j;
      if (j > r) {
        next = j;
        break;
      }
    }
  }
  const int src_slot = from_shape.slot_of(src);

  // Wait for the source to join this op and publish its buffer. The wait is
  // exact: seq/info are indexed by the publisher's slot, so a later op under
  // a different leader can never satisfy it or clobber the pointer
  // (GroupCtl).
  await(ctx, *from_ctl.seq[src_slot], s, "seq_wait", from.level, src);
  // A bcast root stores seq only once its buffer (or CICO copy) is complete,
  // so under the single-flag layout that store releases every chunk.
  const bool whole = from_root && src == from.leader &&
                     tuning_.flag_layout == coll::FlagLayout::kSingle;
  const void* src_buf;
  if (cico) {
    src_buf = cico_[static_cast<std::size_t>(src)].result;
  } else {
    src_buf = rs.endpoint->attach(ctx, src, from_ctl.info[src_slot]->buf,
                                  bytes);
  }

  // Destination this rank copies into: relaying leaders stage into their own
  // CICO result area (their children read it); everyone else receives in
  // place.
  const std::size_t n_led = relay ? acks.size() - 1 : 0;
  std::byte* dst = (cico && n_led > 0)
                       ? cico_[static_cast<std::size_t>(r)].result
                       : static_cast<std::byte*>(user_buf);

  const std::size_t chunk = std::max<std::size_t>(
      tuning_.chunk_for_level(from.level), 1);
  const std::uint64_t base = rs.base;

  for (std::size_t lo = 0; lo < bytes;) {
    const std::size_t hi = std::min(bytes, lo + chunk);
    maybe_stall(ctx, from.level);
    if (!whole && chain) {
      await(ctx, *from_ctl.announce[src_slot], base + hi, "announce_wait",
            from.level, src);
    } else if (!whole) {
      announce_wait(ctx, from, base + hi);
    }
    pull_chunk(ctx, dst + lo, static_cast<const std::byte*>(src_buf) + lo,
               hi - lo, from.level, cico ? -1 : src, "bcast.pull_chunk");
    // Republish to led groups (pipelining across levels, §III-B), and on
    // the chain to the successor, in this rank's slot of `from`.
    if (chain) announce_publish(ctx, from, base + hi);
    for (std::size_t i = 0; i < n_led; ++i) {
      announce_publish(ctx, acks[i], base + hi);
    }
    lo = hi;
  }
  record_traffic(src, r);

  if (cico && n_led > 0) {
    // Copy-out from the staged result into the user buffer.
    XHC_TRACE(trace_sink(), ctx, "copy", "bcast.cico_copy_out", bytes);
    ctx.copy(user_buf, dst, bytes);
  }

  // ack_up, except that on the chain this rank acks only once its
  // successor, which reads its buffer, shows the last chunk pulled.
  collect_acks(ctx, acks, s);
  if (next >= 0) {
    await(ctx, *from_ctl.announce[from_shape.slot_of(next)], base + bytes,
          "chain_ack_wait", from.level, next);
  }
  ack_publish(ctx, acks.back(), s);
}

void XhcComponent::ack_up(mach::Ctx& ctx,
                          const std::vector<CommView::Membership>& acks,
                          std::uint64_t s) {
  // Hierarchical acknowledgement: collect children's acks, then ack upward.
  collect_acks(ctx, acks, s);
  ack_publish(ctx, acks.back(), s);
}

void XhcComponent::root_release(mach::Ctx& ctx, const CommView::Membership& m,
                                const void* src, std::uint64_t s,
                                std::size_t bytes) {
  GroupCtl& ctl = tree_.ctl(m.ctl_id);
  ctl.info[m.my_slot]->buf = src;
  if (tuning_.flag_layout != coll::FlagLayout::kSingle) {
    ctx.flag_store(*ctl.seq[m.my_slot], s);
    announce_publish(ctx, m, state(ctx.rank()).base + bytes);
  } else if (fault_allows_publish(ctx)) {
    ctx.flag_store(*ctl.seq[m.my_slot], s);
  }
}

void XhcComponent::bcast(mach::Ctx& ctx, void* buf, std::size_t bytes,
                         int root) {
  if (bytes == 0 || ctx.size() == 1) return;
  XHC_REQUIRE(root >= 0 && root < ctx.size(), "bad root ", root);

  Timed op_region(*this, ctx, "collective", "xhc.bcast", obs::HistKind::kOp,
                  bytes);
  maybe_stall(ctx, -1);  // operation-entry straggler opportunity (any level)
  const int r = ctx.rank();
  RankState& rs = state(r);
  const std::uint64_t s = ++rs.op_seq;
  const WindowGuard advance{rs, window(bytes)};
  const bool cico = bytes <= tuning_.cico_threshold;
  XHC_REQUIRE(!cico || bytes <= cico_[0].half_bytes,
              "CICO threshold exceeds segment half");

  // Size-class dispatch (DESIGN.md § Large-message paths): top-level group
  // members stripe payloads strictly above the threshold across the whole
  // top group; everyone below the top level pulls through the unchanged
  // pipeline against the announces the striping leaders relay. Gated on
  // kSingleWriter: the root publishes an extra ack in the striped barrier,
  // which the fetch-add variant's (members-1)*s arithmetic cannot absorb.
  const CommView& flag_view = tree_.view(root);
  await_prev_acks(ctx, rs, flag_view.memberships(r), s);
  const bool stripe = !cico && tuning_.stripe_threshold > 0 &&
                      bytes > tuning_.stripe_threshold &&
                      tuning_.sync == coll::SyncMethod::kSingleWriter;
  const CommView::Membership& outer = flag_view.memberships(r).back();
  if (stripe && outer.level == tree_.n_levels() - 1 &&
      outer.members.size() >= 2) {
    bcast_striped(ctx, flag_view, buf, bytes, root, s);
    return;
  }

  // One-chunk dispatch (DESIGN.md § Cache tree): a payload that fits one
  // chunk at every level has nothing to pipeline, so on a shared-LLC node
  // every rank pulls straight from the root's slot of the cache tree's top
  // group and acks climb through the LLC groups. Striping is tested first,
  // so a stripe threshold below one chunk keeps striping. Every rank
  // derives both from size, tuning and topology.
  const bool cache = !stripe && tree_.has_cache_tree() && one_chunk(bytes, 1);
  const CommView& view = cache ? tree_.cache_view(root) : flag_view;
  const auto& ms = view.memberships(r);

  // Chain dispatch (DESIGN.md § Large-message paths): once the payload
  // leaves the cache, a rank whose member level is above the leaf pulls
  // from its predecessor in that group's chain, so each node's memory
  // serves its own members and one successor instead of the root's serving
  // every upper-level child. Single-flag, single-writer flag tree only.
  const bool chain =
      !stripe && !cache && !cico && ms.back().level > 0 &&
      tuning_.flag_layout == coll::FlagLayout::kSingle &&
      tuning_.sync == coll::SyncMethod::kSingleWriter &&
      bytes > (machine_->topology().has_shared_llc() ? kChainAboveLlc
                                                      : kChainAboveNoLlc);

  if (r == root) {
    const void* src = buf;
    if (cico) {
      // Copy-in: stage the payload in the root's CICO result area.
      XHC_TRACE(trace_sink(), ctx, "copy", "bcast.cico_copy_in", bytes);
      ctx.copy(cico_[static_cast<std::size_t>(r)].result, buf, bytes);
      book(ctx, obs::Counter::kCicoBytes, bytes);
      src = cico_[static_cast<std::size_t>(r)].result;
    } else {
      rs.endpoint->expose(ctx, buf, bytes);
    }
    // The root's data is fully available up front: release it in every led
    // group at once (children still pull chunk-wise). On the cache tree
    // only the top group carries data; the LLC groups just gather acks.
    for (std::size_t i = cache ? ms.size() - 1 : 0; i < ms.size(); ++i) {
      root_release(ctx, ms[i], src, s, bytes);
    }
    collect_acks(ctx, ms, s);
  } else if (cache) {
    // Nobody reads a non-root's buffer here: no expose, no join, no relay.
    pull_bcast(ctx, view.memberships(root).back(), ms, buf, bytes, cico, s,
               /*relay=*/false, /*from_root=*/true, /*chain=*/false);
  } else {
    // Join led groups first so children can start as soon as data flows,
    // and on the chain the member group too, for the successor.
    const void* my_pub =
        cico ? static_cast<const void*>(
                   cico_[static_cast<std::size_t>(r)].result)
             : static_cast<const void*>(buf);
    if (!cico && ms.size() > 1) {
      rs.endpoint->expose(ctx, buf, bytes);
    }
    for (std::size_t i = 0; i + (chain ? 0 : 1) < ms.size(); ++i) {
      GroupCtl& ctl = tree_.ctl(ms[i].ctl_id);
      ctl.info[ms[i].my_slot]->buf = my_pub;
      ctx.flag_store(*ctl.seq[ms[i].my_slot], s);
    }
    pull_bcast(ctx, ms.back(), ms, buf, bytes, cico, s, /*relay=*/true,
               /*from_root=*/ms.back().leader == root, chain);
  }
}

void XhcComponent::bcast_striped(mach::Ctx& ctx, const CommView& view,
                                 void* buf, std::size_t bytes, int root,
                                 std::uint64_t s) {
  const int r = ctx.rank();
  RankState& rs = state(r);
  ShardCtl& sc = tree_.shard_ctl();
  const auto& ms = view.memberships(r);
  const CommView::Membership& top = ms.back();
  const std::size_t width = top.members.size();
  const std::uint64_t base = rs.base;
  const std::size_t chunk =
      std::max<std::size_t>(tuning_.large_chunk_for_level(top.level), 1);
  const auto stripe_of = [&](std::size_t w) {
    return partition(ElemRange{0, bytes}, width, w);
  };

  rs.endpoint->expose(ctx, buf, bytes);

  if (r == root) {
    // The root's payload is fully available up front: join every led group
    // (lower groups get the pull path's release), publish the buffer on the
    // stripe plane, and mark the whole stripe timeline done — owners pull
    // their stripes without further handshakes.
    for (const auto& m : ms) {
      if (m.ctl_id != top.ctl_id) {
        root_release(ctx, m, buf, s, bytes);
        continue;
      }
      GroupCtl& ctl = tree_.ctl(m.ctl_id);
      ctl.info[m.my_slot]->buf = buf;
      ctx.flag_store(*ctl.seq[m.my_slot], s);
    }
    sc.sinfo[r]->result = buf;
    ctx.flag_store(*sc.shard_seq[r], s);
    ctx.flag_store(*sc.stripe_ready[r], base + bytes);
    // Ack the top group early — the root has no stripes to pull, and the
    // peers' all-to-all barrier below waits on every member's slot.
    ack_publish(ctx, top, s);
    collect_acks(ctx, ms, s);
    return;
  }

  // Non-root top-group member: publish the buffer to led groups and the
  // stripe plane first, so children and stripe readers can start as soon
  // as bytes land.
  for (std::size_t i = 0; i + 1 < ms.size(); ++i) {
    GroupCtl& ctl = tree_.ctl(ms[i].ctl_id);
    ctl.info[ms[i].my_slot]->buf = buf;
    ctx.flag_store(*ctl.seq[ms[i].my_slot], s);
  }
  sc.sinfo[r]->result = buf;
  ctx.flag_store(*sc.shard_seq[r], s);

  std::byte* dst = static_cast<std::byte*>(buf);
  std::size_t my_pos = width;
  for (std::size_t w = 0; w < width; ++w) {
    if (top.members[w] == r) my_pos = w;
  }
  XHC_CHECK(my_pos < width, "rank missing from top group");

  await(ctx, *sc.shard_seq[root], s, "shard_seq_wait", top.level, root);
  const std::byte* root_src = static_cast<const std::byte*>(
      rs.endpoint->attach(ctx, root, sc.sinfo[root]->result, bytes));

  // Announce relay: led children pull contiguous prefixes, so republish
  // the longest fully-assembled prefix whenever it grows.
  std::vector<std::size_t> done(width, 0);
  std::size_t announced = 0;
  const auto relay = [&]() {
    std::size_t prefix = 0;
    for (std::size_t w = 0; w < width; ++w) {
      prefix = stripe_of(w).lo + done[w];
      if (done[w] < stripe_of(w).size()) break;
    }
    if (prefix <= announced) return;
    announced = prefix;
    release_led(ctx, ms, 0, base + prefix);
  };

  // Own stripe first — other members are waiting to read it from here.
  const ElemRange own = stripe_of(my_pos);
  for (std::size_t lo = own.lo; lo < own.hi;) {
    const std::size_t hi = std::min(own.hi, lo + chunk);
    maybe_stall(ctx, top.level);
    pull_chunk(ctx, dst + lo, root_src + lo, hi - lo, top.level, root,
               "bcast.stripe_pull");
    ctx.flag_store(*sc.stripe_ready[r], base + (hi - own.lo));
    done[my_pos] = hi - own.lo;
    relay();
    lo = hi;
  }
  record_traffic(root, r);

  // Remaining stripes, ascending owner order, each from its owner (the
  // member that republished it) — spreading the load the pull path would
  // put entirely on the root's links.
  for (std::size_t w = 0; w < width; ++w) {
    if (w == my_pos) continue;
    const int owner = top.members[w];
    const ElemRange sw = stripe_of(w);
    if (sw.size() == 0) continue;
    const std::byte* src = root_src;
    if (owner != root) {
      await(ctx, *sc.shard_seq[owner], s, "shard_seq_wait", top.level, owner);
      src = static_cast<const std::byte*>(
          rs.endpoint->attach(ctx, owner, sc.sinfo[owner]->result, bytes));
    }
    for (std::size_t lo = sw.lo; lo < sw.hi;) {
      const std::size_t hi = std::min(sw.hi, lo + chunk);
      maybe_stall(ctx, top.level);
      await(ctx, *sc.stripe_ready[owner], base + (hi - sw.lo),
            "stripe_ready_wait", top.level, owner);
      pull_chunk(ctx, dst + lo, src + lo, hi - lo, top.level, owner,
                 "bcast.stripe_pull");
      done[w] = hi - sw.lo;
      relay();
      lo = hi;
    }
    record_traffic(owner, r);
  }

  // Completion: collect the led subtrees, then the top-group all-to-all
  // barrier — this rank's buffer is read by its children *and* by every
  // top peer assembling this rank's stripe.
  ack_up(ctx, ms, s);
  wait_acks(ctx, top, s);
}

}  // namespace xhc::core
