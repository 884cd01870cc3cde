// XHC MPI_Allreduce (paper §IV-B): hierarchical reduce to an internal root,
// overlapped (per chunk) with a broadcast of the result.
//
// Every member publishes its contribution buffer. A payload that fits one
// pipeline chunk at every level folds through a binomial fan-in per group:
// each member folds its children's partials into its own result buffer and
// then signals its parent through its reduce_ready slot, so the group
// partial reaches the leader's result buffer in log2(k) rounds. Larger
// payloads split the group's work by chunk instead: non-leader members take
// chunk ranges round-robin and reduce all peers' data into the leader's
// result buffer, bumping their reduce_done counter, while leaders scan
// completion in chunk order and republish availability one level up through
// their reduce_ready slot. When the reduction reaches the top it is
// broadcast down the same hierarchy via the pull machinery shared with
// MPI_Bcast — or, for a one-chunk payload on a shared-LLC node, straight
// from the internal root through the cache tree, with acks per LLC group.
// MPI_Reduce shares the reduction and drops the broadcast: above the
// bandwidth threshold it runs the allreduce's reduce-scatter and a gather
// bound for the root, and every rank returns once the readers of its
// buffers are done.
#include <algorithm>

#include "core/shard_schedule.h"
#include "core/xhc_component.h"
#include "util/check.h"

namespace xhc::core {

namespace {

// Binomial fan-in order of a group: the leader at position 0, the other
// members after it in `members` (ascending) order.

std::size_t fan_in_pos(const CommView::Membership& m, int rank) {
  if (rank == m.leader) return 0;
  const auto it = std::find(m.members.begin(), m.members.end(), rank);
  XHC_CHECK(it != m.members.end(), "rank missing from its group");
  const auto i = static_cast<std::size_t>(it - m.members.begin());
  return rank < m.leader ? i + 1 : i;
}

int fan_in_rank(const CommView::Membership& m, std::size_t pos) {
  if (pos == 0) return m.leader;
  const int j = m.members[pos - 1];
  return j < m.leader ? j : m.members[pos];
}

}  // namespace

struct XhcComponent::ReducePlan {
  std::size_t bytes = 0;
  std::size_t elem = 0;
  mach::DType dtype{};
  mach::ROp op{};
  bool cico = false;
  /// Only the top group's announce is read: the downward phase runs on the
  /// cache tree, or a reduce is released without one.
  bool top_only = false;
  std::uint64_t s = 0;
  const std::byte* contrib0 = nullptr;
  std::byte* result = nullptr;
  std::vector<std::size_t> scanned;
};

void XhcComponent::pump_own(mach::Ctx& ctx, const CommView& view,
                            ReducePlan& plan, std::size_t target_bytes) {
  const int r = ctx.rank();
  const std::uint64_t base = state(r).base;
  const auto& ms = view.memberships(r);
  const std::size_t target = std::min(target_bytes, plan.bytes);

  for (std::size_t i = 0; i < ms.size(); ++i) {
    const CommView::Membership& m = ms[i];
    if (!m.is_leader) break;
    std::size_t& pos = plan.scanned[i];
    if (pos >= target) continue;

    GroupCtl& ctl = tree_.ctl(m.ctl_id);
    const GroupShape& shape = tree_.shape(m.ctl_id);
    const std::size_t chunk =
        aligned_chunk(tuning_.chunk_for_level(m.level), plan.elem);

    std::vector<int> reducers;
    reducers.reserve(m.members.size());
    for (const int j : m.members) {
      if (j != r) reducers.push_back(j);
    }

    while (pos < target) {
      const std::size_t lo = pos;
      const std::size_t hi = std::min(plan.bytes, lo + chunk);
      const std::size_t ci = lo / chunk;
      if (reducers.empty()) {
        // Singleton group: the group partial is the leader's own
        // contribution. At the leaf that means materializing it.
        if (m.level == 0) {
          ctx.copy(plan.result + lo, plan.contrib0 + lo, hi - lo);
        }
      } else {
        const int red = reducers[ci % reducers.size()];
        await(ctx, *ctl.reduce_done[shape.slot_of(red)], base + hi,
              "reduce_done", m.level, red);
      }
      pos = hi;

      if (i + 1 < ms.size()) {
        // Republish the subtree partial one level up (§IV-B step 2b).
        const CommView::Membership& pm = ms[i + 1];
        ctx.flag_store(*tree_.ctl(pm.ctl_id).reduce_ready[pm.my_slot],
                       base + pos);
      } else {
        // Internal root: the chunk is globally reduced — trigger the
        // broadcast at every level the root leads (§IV-B step 3).
        release_led(ctx, ms, 0, base + pos);
      }
    }
  }
}

void XhcComponent::allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                             std::size_t count, mach::DType dtype,
                             mach::ROp op) {
  // The internal root is rank 0 and everyone receives the result.
  reduce_impl(ctx, sbuf, rbuf, count, dtype, op, /*root=*/0,
              /*deliver_all=*/true);
}

void XhcComponent::reduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                          std::size_t count, mach::DType dtype, mach::ROp op,
                          int root) {
  XHC_REQUIRE(root >= 0 && root < ctx.size(), "bad root ", root);
  reduce_impl(ctx, sbuf, rbuf, count, dtype, op, root,
              /*deliver_all=*/false);
}

void XhcComponent::reduce_impl(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                               std::size_t count, mach::DType dtype,
                               mach::ROp op, int root, bool deliver_all) {
  const std::size_t elem = mach::dtype_size(dtype);
  const std::size_t bytes = count * elem;
  if (count == 0) return;
  const bool in_place = (sbuf == rbuf || sbuf == nullptr);
  if (ctx.size() == 1) {
    if (!in_place) ctx.copy(rbuf, sbuf, bytes);
    return;
  }
  if (in_place) sbuf = rbuf;

  Timed op_region(*this, ctx, "collective",
                  deliver_all ? "xhc.allreduce" : "xhc.reduce",
                  obs::HistKind::kOp, bytes);
  maybe_stall(ctx, -1);  // operation-entry straggler opportunity (any level)
  const int r = ctx.rank();
  RankState& rs = state(r);
  const std::uint64_t s = ++rs.op_seq;
  const WindowGuard advance{rs, window(bytes)};
  const CommView& view = tree_.view(root);
  const bool cico = bytes <= tuning_.cico_threshold;
  const auto& ms = view.memberships(r);
  await_prev_acks(ctx, rs, ms, s);
  const CicoSeg& my_seg = cico_[static_cast<std::size_t>(r)];

  // A reduce drops the allreduce's downward phase where the flags allow
  // it: every rank returns once the readers of its buffers are done. That
  // takes single-writer sync, since atomic sync counts one ack per member
  // per op, and the single-flag layout, whose announce_wait reads the
  // publisher's slot (a multi-flag one reads the waiter's own). Elsewhere a
  // reduce keeps the latency path and its completion release.
  const bool released =
      !deliver_all && tuning_.sync == coll::SyncMethod::kSingleWriter &&
      tuning_.flag_layout == coll::FlagLayout::kSingle;

  // Size-class dispatch (DESIGN.md § Large-message paths): payloads strictly
  // above the threshold take the bandwidth path. Below it, a payload that
  // fits one pipeline chunk at every level folds through the binomial
  // fan-in; longer ones keep the chunk-parallel reducers. The fan-in's
  // downward phase (result fan-out or release) then runs on the cache tree
  // where the component has one (DESIGN.md § Cache tree). Every rank
  // derives all of this from size, tuning and topology, so all ranks agree.
  if (!cico && tuning_.rs_ag_threshold > 0 &&
      bytes > tuning_.rs_ag_threshold && shard_plan_.uniform() &&
      (deliver_all || released)) {
    if (deliver_all) {
      allreduce_rs_ag(ctx, view, sbuf, rbuf, count, dtype, op, in_place, s);
    } else {
      reduce_rs_gather(ctx, sbuf, rbuf, count, dtype, op, root, in_place, s);
    }
    return;
  }

  // The allreduce's one-chunk result fan-out runs on the cache tree where
  // the component has one. A reduce never needs it: the cache tree exists
  // only under the tuning that releases a one-chunk reduce instead.
  const bool fan_in_path = one_chunk(bytes, elem);
  const bool cache = deliver_all && fan_in_path && tree_.has_cache_tree();
  const bool release = fan_in_path && released;
  // A fan-in position folds a child iff it is even and not the last; the
  // internal root always ends up holding the reduction.
  const CommView::Membership& top = ms.back();
  bool seeded = fan_in_path && top.is_leader;
  for (const auto& m : ms) {
    const std::size_t pos = fan_in_pos(m, r);
    seeded = seeded ||
             (fan_in_path && pos % 2 == 0 && pos + 1 < m.members.size());
  }

  ReducePlan plan;
  plan.bytes = bytes;
  plan.elem = elem;
  plan.dtype = dtype;
  plan.op = op;
  plan.cico = cico;
  plan.top_only = cache || release;
  plan.s = s;
  plan.scanned.assign(ms.size(), 0);
  if (cico) {
    // Copy-in (paper §IV-C): stage the contribution in the CICO segment —
    // straight into the result half when this rank folds a fan-in there.
    XHC_TRACE(trace_sink(), ctx, "copy", "allreduce.cico_copy_in", bytes);
    std::byte* stage = seeded ? my_seg.result : my_seg.contrib;
    ctx.copy(stage, sbuf, bytes);
    book(ctx, obs::Counter::kCicoBytes, bytes);
    plan.contrib0 = stage;
    plan.result = my_seg.result;
  } else {
    plan.contrib0 = static_cast<const std::byte*>(sbuf);
    plan.result = static_cast<std::byte*>(rbuf);
    rs.endpoint->expose(ctx, sbuf, bytes);
    rs.endpoint->expose(ctx, rbuf, bytes);
    if (seeded && !in_place) {
      // Seed the fan-in accumulator with this rank's own contribution.
      XHC_TRACE(trace_sink(), ctx, "copy", "allreduce.seed_copy", bytes);
      ctx.copy(rbuf, sbuf, bytes);
    }
  }
  // Where this rank's fan-in partial lives: a rank that folds accumulates in
  // its result buffer, any other hands over its contribution as is.
  const std::byte* partial = seeded ? plan.result : plan.contrib0;

  // Step 1 (preparation): publish addresses and leaf availability. Fan-in
  // partials become available when their owner's rounds are done instead.
  for (const auto& m : ms) {
    GroupCtl& ctl = tree_.ctl(m.ctl_id);
    ctl.minfo[m.my_slot]->contrib =
        fan_in_path      ? static_cast<const void*>(partial)
        : (m.level == 0) ? static_cast<const void*>(plan.contrib0)
                         : static_cast<const void*>(plan.result);
    ctx.flag_store(*ctl.member_seq[m.my_slot], s);
    if (m.level == 0 && !fan_in_path) {
      ctx.flag_store(*ctl.reduce_ready[m.my_slot], rs.base + bytes);
    }
    if (m.is_leader) {
      ctl.info[m.my_slot]->buf = plan.result;
      ctx.flag_store(*ctl.seq[m.my_slot], s);
    }
  }

  // Step 2 (reduction). At the internal root the announce is published as
  // data reaches the top.
  if (fan_in_path) {
    fan_in(ctx, view, plan);
  } else if (top.is_leader) {
    pump_own(ctx, view, plan, bytes);
  } else {
    reduce_chunks(ctx, view, plan);
  }

  // Step 3 (downward phase). On the cache tree every non-root waits on the
  // root's slot of the top group — the flag tree's top group, where the
  // root published seq/info in step 1 — and acks through its LLC group. A
  // released reduce has none: the root is done once it holds the result,
  // and any other rank once the parent that folds its partial has handed
  // off, since nobody reads its buffers after that.
  const CommView& down = cache ? tree_.cache_view(root) : view;
  const auto& acks = down.memberships(r);
  if (top.is_leader) {
    if (!release) collect_acks(ctx, acks, s);
    if (cico) {
      XHC_TRACE(trace_sink(), ctx, "copy", "allreduce.cico_copy_out", bytes);
      ctx.copy(rbuf, my_seg.result, bytes);
    }
  } else if (deliver_all) {
    // Broadcast of the result, shared with MPI_Bcast: relayed down the flag
    // tree, or pulled flat from the root on the cache tree.
    pull_bcast(ctx, cache ? down.memberships(root).back() : top, acks, rbuf,
               bytes, cico, s, /*relay=*/!cache, /*from_root=*/false,
               /*chain=*/false);
  } else if (release) {
    fan_in_handoff_wait(ctx, view, plan);
  } else {
    // Reduce: only a completion release flows down the flag tree — wait for
    // the root's announce, republish to led groups, then acknowledge upward.
    await_release(ctx, top, ms, rs.base + bytes, /*relay=*/true);
    ack_up(ctx, acks, s);
  }
}

void XhcComponent::fan_in(mach::Ctx& ctx, const CommView& view,
                          const ReducePlan& plan) {
  const int r = ctx.rank();
  RankState& rs = state(r);
  const auto& ms = view.memberships(r);
  const std::size_t n_elems = plan.bytes / plan.elem;
  const std::uint64_t ready = rs.base + plan.bytes;

  // Innermost level first: the partial this rank carries into a group
  // already holds everything below it. Position p folds p+1, p+2, p+4, ...
  // while p is divisible by twice the step, then hands off to its parent.
  for (const auto& m : ms) {
    GroupCtl& ctl = tree_.ctl(m.ctl_id);
    const GroupShape& shape = tree_.shape(m.ctl_id);
    const std::size_t pos = fan_in_pos(m, r);
    const std::size_t k = m.members.size();
    // Look up every child of this level first, so that each round below
    // waits only for its child's partial. CICO segments stay mapped for the
    // communicator's lifetime and need no attach.
    std::vector<int> children;
    std::vector<const std::byte*> src;
    for (std::size_t step = 1; pos % (2 * step) == 0 && pos + step < k;
         step *= 2) {
      const int child = fan_in_rank(m, pos + step);
      const int slot = shape.slot_of(child);
      await(ctx, *ctl.member_seq[slot], plan.s, "member_seq_wait", m.level,
            child);
      const void* partial = ctl.minfo[slot]->contrib;
      children.push_back(child);
      src.push_back(static_cast<const std::byte*>(
          plan.cico ? partial
                    : rs.endpoint->attach(ctx, child, partial, plan.bytes)));
    }
    for (std::size_t i = 0; i < children.size(); ++i) {
      const int child = children[i];
      maybe_stall(ctx, m.level);
      await(ctx, *ctl.reduce_ready[shape.slot_of(child)], ready,
            "reduce_ready_wait", m.level, child);
      {
        Timed chunk_region(*this, ctx, "reduce", "allreduce.reduce_chunk",
                           obs::HistKind::kChunk, plan.bytes, m.level);
        fold(ctx, plan.result, src[i], n_elems, plan.dtype, plan.op,
             plan.cico ? -1 : child);
      }
      record_traffic(child, r);
    }
  }

  const CommView::Membership& top = ms.back();
  if (!top.is_leader) {
    ctx.flag_store(*tree_.ctl(top.ctl_id).reduce_ready[top.my_slot], ready);
    return;
  }
  // Internal root: the payload is globally reduced — trigger the downward
  // phase (§IV-B step 3) at every level the root leads, or in the top group
  // alone on the cache tree and in a released reduce: nobody waits on the
  // lower announces there.
  release_led(ctx, ms, plan.top_only ? ms.size() - 1 : 0,
              rs.base + plan.bytes);
}

void XhcComponent::fan_in_handoff_wait(mach::Ctx& ctx, const CommView& view,
                                       const ReducePlan& plan) {
  // The parent sits at this rank's fan-in position with its lowest set bit
  // cleared, in this rank's outermost group. A parent that is the internal
  // root hands off through its top-group announce, any other through its
  // reduce_ready at its own outermost membership; both are published after
  // its last fold.
  const int r = ctx.rank();
  const std::uint64_t done = state(r).base + plan.bytes;
  const CommView::Membership& top = view.memberships(r).back();
  const std::size_t pos = fan_in_pos(top, r);
  const int parent = fan_in_rank(top, pos & (pos - 1));
  const CommView::Membership& pm = view.memberships(parent).back();
  if (pm.is_leader) {
    announce_wait(ctx, pm, done);
  } else {
    await(ctx, *tree_.ctl(pm.ctl_id).reduce_ready[pm.my_slot], done,
          "handoff_wait", pm.level, parent);
  }
}

void XhcComponent::reduce_chunks(mach::Ctx& ctx, const CommView& view,
                                 ReducePlan& plan) {
  // Step 2a (intra-group reduction) at this rank's member level,
  // interleaved with its leader duties.
  const int r = ctx.rank();
  RankState& rs = state(r);
  const CommView::Membership& top = view.memberships(r).back();
  GroupCtl& ctl = tree_.ctl(top.ctl_id);
  const GroupShape& shape = tree_.shape(top.ctl_id);
  const std::size_t bytes = plan.bytes;
  const std::uint64_t base = rs.base;
  std::vector<int> reducers;
  for (const int j : top.members) {
    if (j != top.leader) reducers.push_back(j);
  }
  const auto my_it = std::find(reducers.begin(), reducers.end(), r);
  XHC_CHECK(my_it != reducers.end(), "rank missing from reducer list");
  const auto my_idx = static_cast<std::size_t>(my_it - reducers.begin());

  // Leader's result buffer (destination of the group partial).
  await(ctx, *ctl.seq[top.leader_slot], plan.s, "seq_wait", top.level,
        top.leader);
  std::byte* dst;
  if (plan.cico) {
    dst = cico_[static_cast<std::size_t>(top.leader)].result;
  } else {
    dst = static_cast<std::byte*>(rs.endpoint->attach_mut(
        ctx, top.leader, const_cast<void*>(ctl.info[top.leader_slot]->buf),
        bytes));
  }
  // Source operands: every non-leader member's contribution (including
  // this rank's own), plus — at the leaf — the leader's contribution used
  // to initialize the destination.
  std::vector<const std::byte*> src(reducers.size(), nullptr);
  for (std::size_t i = 0; i < reducers.size(); ++i) {
    const int j = reducers[i];
    const int slot = shape.slot_of(j);
    await(ctx, *ctl.member_seq[slot], plan.s, "member_seq_wait", top.level, j);
    src[i] = static_cast<const std::byte*>(
        rs.endpoint->attach(ctx, j, ctl.minfo[slot]->contrib, bytes));
  }
  const std::byte* leader_contrib = nullptr;
  if (top.level == 0) {
    await(ctx, *ctl.member_seq[top.leader_slot], plan.s, "member_seq_wait",
          top.level, top.leader);
    leader_contrib = static_cast<const std::byte*>(rs.endpoint->attach(
        ctx, top.leader, ctl.minfo[top.leader_slot]->contrib, bytes));
  }

  const std::size_t chunk =
      aligned_chunk(tuning_.chunk_for_level(top.level), plan.elem);
  for (std::size_t lo = 0; lo < bytes;) {
    const std::size_t hi = std::min(bytes, lo + chunk);
    const std::size_t ci = lo / chunk;
    maybe_stall(ctx, top.level);
    // Keep this rank's own subtree partial flowing for the whole range —
    // peers reducing other chunks depend on it.
    pump_own(ctx, view, plan, hi);
    if (ci % reducers.size() == my_idx) {
      Timed chunk_region(*this, ctx, "reduce", "allreduce.reduce_chunk",
                         obs::HistKind::kChunk, hi - lo, top.level);
      if (top.level == 0) {
        // In-place at the internal root: dst may alias the leader's own
        // contribution, which is then already in place.
        if (dst != leader_contrib) {
          ctx.copy(dst + lo, leader_contrib + lo, hi - lo);
        }
      } else {
        // The destination must already hold the leader's subtree partial.
        await(ctx, *ctl.reduce_ready[top.leader_slot], base + hi,
              "reduce_ready_wait", top.level, top.leader);
      }
      const std::size_t n_elems = (hi - lo) / plan.elem;
      for (std::size_t i = 0; i < reducers.size(); ++i) {
        if (top.level > 0 && reducers[i] != r) {
          await(ctx, *ctl.reduce_ready[shape.slot_of(reducers[i])], base + hi,
                "reduce_ready_wait", top.level, reducers[i]);
        }
        fold(ctx, dst + lo, src[i] + lo, n_elems, plan.dtype, plan.op,
             plan.cico ? -1 : reducers[i]);
      }
      ctx.flag_store(*ctl.reduce_done[top.my_slot], base + hi);
      record_traffic(r, top.leader);
    }
    lo = hi;
  }
}

void XhcComponent::allreduce_rs_ag(mach::Ctx& ctx, const CommView& view,
                                   const void* sbuf, void* rbuf,
                                   std::size_t count, mach::DType dtype,
                                   mach::ROp op, bool in_place,
                                   std::uint64_t s) {
  const int r = ctx.rank();
  const ShardSchedule sched =
      shard_plan_.schedule(r, count, mach::dtype_size(dtype));
  reduce_scatter(ctx, sched, sbuf, rbuf, dtype, op, in_place, s);
  for (int u = sched.n_stages() - 1; u >= 0; --u) {
    allgather_stage(ctx, sched, rbuf, u);
  }

  // --- completion fence: this rank's rbuf stays readable by peers until
  // their own allgather finishes, so nobody may return (and hand rbuf back
  // to the user) before everyone is done. Reuses the hierarchical ack
  // gather + announce release, one ack per member per op, so both sync
  // methods stay correct.
  const std::uint64_t done = state(r).base + sched.bytes;
  const auto& ms = view.memberships(r);
  if (ms.back().is_leader) {
    collect_acks(ctx, ms, s);
    release_led(ctx, ms, 0, done);
  } else {
    ack_up(ctx, ms, s);
    await_release(ctx, ms.back(), ms, done, /*relay=*/true);
  }
}

void XhcComponent::reduce_rs_gather(mach::Ctx& ctx, const void* sbuf,
                                    void* rbuf, std::size_t count,
                                    mach::DType dtype, mach::ROp op, int root,
                                    bool in_place, std::uint64_t s) {
  const int r = ctx.rank();
  RankState& rs = state(r);
  ShardCtl& sc = tree_.shard_ctl();
  const ShardSchedule sched =
      shard_plan_.schedule(r, count, mach::dtype_size(dtype));
  const std::size_t elem = sched.elem;
  const std::size_t bytes = sched.bytes;
  const std::uint64_t base = rs.base;
  reduce_scatter(ctx, sched, sbuf, rbuf, dtype, op, in_place, s);

  // --- root-bound gather: the allgather's stages, outermost first, but
  // only the root needs the whole payload. Below the level K where this
  // rank's domain meets the root's, the root's chain of pullers never
  // reaches its pieces; at K exactly one stage-K peer needs this rank's
  // range, the one inside the root's child domain. Above the leaf that peer
  // pulls it, through the mapping of this rank's rbuf it made in the
  // reduce-scatter. At the leaf the root has mapped only its peers' sbufs,
  // so each leaf peer writes its range into the root's rbuf instead (one
  // mapping per peer, made in parallel, rather than one per piece on the
  // root's critical path). Nobody else touches that range of the root's
  // rbuf: the root reduces and pulls only inside its own leaf range. The
  // root's final shard is already in its rbuf, so no rank is remapped.
  const int meet = shard_plan_.meet_level(r, root);
  for (int u = sched.n_stages() - 1; u > std::max(meet, 0); --u) {
    allgather_stage(ctx, sched, rbuf, u);
  }
  if (meet < 0) {
    for (const int j : sched.stages.front().peers) {
      if (j == r) continue;
      await(ctx, *sc.prog[j], base + sched.ag_slot(0) + bytes,
            "gather_push_wait", 0, j);
    }
  } else if (meet == 0) {
    // shard_seq[root] was acquired during reduce-scatter stage 0.
    const ElemRange range = sched.stages.front().range;
    std::byte* dst = static_cast<std::byte*>(rs.endpoint->attach_mut(
        ctx, root, const_cast<void*>(sc.sinfo[root]->result), bytes));
    const std::byte* src = static_cast<const std::byte*>(rbuf);
    const std::size_t chunk_elems =
        std::max<std::size_t>(tuning_.large_chunk_for_level(0) / elem, 1);
    for (std::size_t lo = range.lo; lo < range.hi;) {
      const std::size_t hi = std::min(range.hi, lo + chunk_elems);
      maybe_stall(ctx, 0);
      pull_chunk(ctx, dst + lo * elem, src + lo * elem, (hi - lo) * elem, 0,
                 root, "reduce.gather_push");
      lo = hi;
    }
    record_traffic(r, root);
    ctx.flag_store(*sc.prog[r], base + sched.ag_slot(0) + bytes);
  } else {
    // This rank's buffers stay readable until its puller is done.
    const ShardStage& st = sched.stages[static_cast<std::size_t>(meet)];
    const int puller = st.peers[static_cast<std::size_t>(
        shard_plan_.child_index(meet, root))];
    await(ctx, *sc.prog[puller], base + sched.ag_slot(meet) + bytes,
          "gather_release_wait", meet, puller);
  }

  // --- release: this rank's buffers are read by its reduce-scatter peers
  // (stage k ends with a peer's prog snap to rs_slot(k+1)) and, above the
  // leaf, by its one gather puller (waited for above). Once they are past,
  // nobody reads them again this op, so the rank returns without the
  // allreduce's global fence.
  for (int k = 0; k < sched.n_stages(); ++k) {
    for (const int j : sched.stages[static_cast<std::size_t>(k)].peers) {
      if (j == r) continue;
      await(ctx, *sc.prog[j], base + sched.rs_slot(k + 1), "rs_release_wait",
            k, j);
    }
  }
}

void XhcComponent::reduce_scatter(mach::Ctx& ctx, const ShardSchedule& sched,
                                  const void* sbuf, void* rbuf,
                                  mach::DType dtype, mach::ROp op,
                                  bool in_place, std::uint64_t s) {
  const std::size_t elem = sched.elem;
  const std::size_t bytes = sched.bytes;
  const int r = ctx.rank();
  RankState& rs = state(r);
  ShardCtl& sc = tree_.shard_ctl();
  const int n_stages = sched.n_stages();
  const std::uint64_t base = rs.base;
  std::byte* dst = static_cast<std::byte*>(rbuf);
  const std::byte* own_contrib = static_cast<const std::byte*>(sbuf);

  // Peers read sbuf at stage 0 and rbuf everywhere after; publish both.
  rs.endpoint->expose(ctx, sbuf, bytes);
  rs.endpoint->expose(ctx, rbuf, bytes);
  sc.sinfo[r]->contrib = sbuf;
  sc.sinfo[r]->result = rbuf;
  ctx.flag_store(*sc.shard_seq[r], s);

  // Stage k reduces this rank's shard of the shared parent range, reading
  // one peer per sibling child domain. Stage 0 reads the peers' contribution
  // buffers (fully available once published, no progress wait); deeper
  // stages read the peers' receive buffers, gated chunk by chunk on the
  // peers' stage-(k-1) progress.
  for (int k = 0; k < n_stages; ++k) {
    const ShardStage& st = sched.stages[k];
    std::vector<const std::byte*> src(st.peers.size(), nullptr);
    for (std::size_t i = 0; i < st.peers.size(); ++i) {
      const int j = st.peers[i];
      if (j == r) continue;
      await(ctx, *sc.shard_seq[j], s, "shard_seq_wait", k, j);
      src[i] = static_cast<const std::byte*>(rs.endpoint->attach(
          ctx, j, k == 0 ? sc.sinfo[j]->contrib : sc.sinfo[j]->result,
          bytes));
    }
    const std::size_t chunk_elems = std::max<std::size_t>(
        tuning_.large_chunk_for_level(k) / elem, 1);
    for (std::size_t lo = st.range.lo; lo < st.range.hi;) {
      const std::size_t hi = std::min(st.range.hi, lo + chunk_elems);
      maybe_stall(ctx, k);
      if (k > 0) {
        // The threshold is exact: every stage-k peer shares `parent`, and a
        // peer's prog advances relative to parent.lo during its stage k-1.
        for (std::size_t i = 0; i < st.peers.size(); ++i) {
          const int j = st.peers[i];
          if (j == r) continue;
          await(ctx, *sc.prog[j],
                base + sched.rs_slot(k - 1) + (hi - st.parent.lo) * elem,
                "rs_src_wait", k, j);
        }
      }
      {
        Timed chunk_region(*this, ctx, "reduce", "allreduce.rs_chunk",
                           obs::HistKind::kChunk, (hi - lo) * elem, k);
        if (k == 0 && !in_place) {
          // Seed the shard with this rank's own contribution. In place the
          // bytes are already there, and stage-0 peers read disjoint ranges
          // of this buffer, so the in-place reduce below is race-free.
          ctx.copy(dst + lo * elem, own_contrib + lo * elem,
                   (hi - lo) * elem);
        }
        for (std::size_t i = 0; i < st.peers.size(); ++i) {
          const int j = st.peers[i];
          if (j == r) continue;
          fold(ctx, dst + lo * elem, src[i] + lo * elem, hi - lo, dtype, op,
               j);
        }
      }
      ctx.flag_store(*sc.prog[r],
                     base + sched.rs_slot(k) + (hi - st.range.lo) * elem);
      lo = hi;
    }
    // Slot-boundary snap: deeper partitions differ by remainders across
    // ranks, so peers wait on slot multiples, not on exact shard sizes.
    ctx.flag_store(*sc.prog[r], base + sched.rs_slot(k + 1));
    for (const int j : st.peers) {
      if (j != r) record_traffic(j, r);
    }
  }
}

void XhcComponent::allgather_stage(mach::Ctx& ctx, const ShardSchedule& sched,
                                   void* rbuf, int u) {
  // Outermost stage first, so each pulled byte is already fully reduced.
  // The outermost stage pipelines into the peers' final reduce-scatter stage
  // chunk by chunk; inner stages wait for the peer's previous allgather
  // slot to complete.
  const std::size_t elem = sched.elem;
  const std::size_t bytes = sched.bytes;
  const int r = ctx.rank();
  RankState& rs = state(r);
  ShardCtl& sc = tree_.shard_ctl();
  const int n_stages = sched.n_stages();
  const std::uint64_t base = rs.base;
  std::byte* dst = static_cast<std::byte*>(rbuf);
  const ShardStage& st = sched.stages[u];
  for (std::size_t i = 0; i < st.peers.size(); ++i) {
    const int j = st.peers[i];
    if (j == r) continue;
    const ElemRange pr = partition(st.parent, st.peers.size(), i);
    if (pr.size() == 0) continue;
    // shard_seq[j] was already acquired during reduce-scatter stage u
    // (same peer set), so the sinfo read needs no further wait.
    const std::byte* srcp = static_cast<const std::byte*>(
        rs.endpoint->attach(ctx, j, sc.sinfo[j]->result, bytes));
    const std::size_t chunk_elems = std::max<std::size_t>(
        tuning_.large_chunk_for_level(u) / elem, 1);
    if (u < n_stages - 1) {
      await(ctx, *sc.prog[j], base + sched.ag_slot(u), "ag_piece_wait", u, j);
    }
    for (std::size_t lo = pr.lo; lo < pr.hi;) {
      const std::size_t hi = std::min(pr.hi, lo + chunk_elems);
      maybe_stall(ctx, u);
      if (u == n_stages - 1) {
        await(ctx, *sc.prog[j], base + sched.rs_slot(u) + (hi - pr.lo) * elem,
              "ag_piece_wait", u, j);
      }
      pull_chunk(ctx, dst + lo * elem, srcp + lo * elem, (hi - lo) * elem, u,
                 j, "allreduce.ag_pull");
      lo = hi;
    }
    record_traffic(j, r);
  }
  ctx.flag_store(*sc.prog[r], base + sched.ag_slot(u) + bytes);
}

}  // namespace xhc::core
