#include "core/xhc_component.h"

#include <algorithm>

#include "topo/hierarchy.h"
#include "util/check.h"

namespace xhc::core {

XhcComponent::XhcComponent(mach::Machine& machine, coll::Tuning tuning,
                           std::string name)
    : machine_(&machine),
      tuning_(std::move(tuning)),
      name_(std::move(name)),
      tree_(machine, topo::parse_sensitivity(tuning_.sensitivity),
            tuning_.comm_name) {
  const int n = machine.n_ranks();
  fault_ = fault::make_injector(tuning_.faults, tuning_.fault_seed, n,
                                tuning_.comm_id);
  ranks_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto rs = std::make_unique<RankState>();
    rs->bcast_base.assign(static_cast<std::size_t>(tree_.n_groups()), 0);
    rs->reduce_base.assign(static_cast<std::size_t>(tree_.n_groups()), 0);
    rs->endpoint = std::make_unique<smsc::Endpoint>(
        tuning_.mechanism, tuning_.reg_cache, tuning_.reg_cache_entries);
    rs->endpoint->set_fault_injector(fault_.get());
    ranks_.push_back(std::move(rs));
  }
  // Copy-in-copy-out segments (paper §IV-C): one per rank, allocated at
  // communicator creation, attached (cached) for the communicator lifetime.
  // Under injected shm exhaustion each allocation is retried a bounded
  // number of times; when a rank's segment still cannot be allocated the
  // whole pool is rebuilt at half the size (threshold clamped to match),
  // down to a one-page floor — beyond that the failure is raised as a
  // diagnostic rather than silently degrading further.
  XHC_REQUIRE(tuning_.cico_segment_bytes >= 2 * tuning_.cico_threshold,
              "CICO segment must hold a contribution and a result area");
  constexpr std::size_t kMinSegment = 4096;
  std::size_t seg_bytes = tuning_.cico_segment_bytes;
  for (;;) {
    cico_bufs_.clear();
    cico_bufs_.reserve(static_cast<std::size_t>(n));
    bool ok = true;
    for (int r = 0; r < n && ok; ++r) {
      void* p = fault::alloc_with_retry(machine, fault_.get(), r, seg_bytes,
                                        /*zero=*/true, /*max_attempts=*/3,
                                        &shm_retries_);
      if (p == nullptr) {
        ok = false;
      } else {
        cico_bufs_.emplace_back(machine, p, seg_bytes);
      }
    }
    if (ok) break;
    XHC_CHECK(seg_bytes / 2 >= kMinSegment,
              name_, ": CICO segment allocation exhausted (failed even at ",
              seg_bytes, " bytes after ", shm_retries_, " retries)");
    cico_bufs_.clear();
    seg_bytes /= 2;
  }
  if (seg_bytes != tuning_.cico_segment_bytes) {
    tuning_.cico_segment_bytes = seg_bytes;
    tuning_.cico_threshold = std::min(tuning_.cico_threshold, seg_bytes / 2);
  }
  cico_.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    CicoSeg& seg = cico_[static_cast<std::size_t>(r)];
    seg.half_bytes = seg_bytes / 2;
    seg.contrib = cico_bufs_[static_cast<std::size_t>(r)].bytes();
    seg.result = seg.contrib + seg.half_bytes;
  }
}

XhcComponent::~XhcComponent() = default;

void XhcComponent::barrier(mach::Ctx& ctx) {
  if (ctx.size() == 1) return;
  XHC_TRACE(trace_sink(), ctx, "collective", "xhc.barrier");
  const int r = ctx.rank();
  RankState& rs = state(r);
  const std::uint64_t s = ++rs.op_seq;
  const CommView& view = tree_.view(0);
  const auto& ms = view.memberships(r);

  // Arrival gather, bottom-up: a leader joins its upper group only after
  // every member of its own group has arrived, so arrival is transitive.
  for (const auto& m : ms) {
    GroupCtl& ctl = tree_.ctl(m.ctl_id);
    const GroupShape& shape = tree_.shape(m.ctl_id);
    if (m.is_leader) {
      for (const int j : m.members) {
        if (j == r) continue;
        WaitObs obs(*this, ctx, "member_seq_wait", m.level, j);
        ctx.flag_wait_ge(*ctl.member_seq[shape.slot_of(j)], s);
      }
    } else {
      // Atomic sync gathers (members-1) acks per op of any kind
      // (wait_acks), so the barrier must count too.
      if (tuning_.sync == coll::SyncMethod::kAtomicFetchAdd) {
        ack_publish(ctx, m, s);
      }
      ctx.flag_store(*ctl.member_seq[m.my_slot], s);
    }
  }

  // Release, top-down through the announce counters (one "byte" per
  // barrier keeps them monotone).
  const CommView::Membership& top = ms.back();
  if (top.is_leader) {
    for (const auto& m : ms) {
      announce_publish(
          ctx, m, rs.bcast_base[static_cast<std::size_t>(m.ctl_id)] + 1);
    }
  } else {
    announce_wait(ctx, top,
                  rs.bcast_base[static_cast<std::size_t>(top.ctl_id)] + 1);
    for (std::size_t i = 0; i + 1 < ms.size(); ++i) {
      announce_publish(
          ctx, ms[i],
          rs.bcast_base[static_cast<std::size_t>(ms[i].ctl_id)] + 1);
    }
  }
  for (auto& b : rs.bcast_base) b += 1;
}

void XhcComponent::set_observer(obs::Observer* observer) noexcept {
  // Tuning::trace gates all collection: without it the pointer is dropped
  // and every span/counter site stays a null check.
  coll::Component::set_observer(tuning_.trace ? observer : nullptr);
  obs::Observer* effective = coll::Component::observer();
  // Histograms ride on the same Observer but have their own knob; without
  // it every HistTimer / WaitObs histogram site stays a null check.
  hist_ = effective != nullptr && tuning_.hist ? &effective->hists() : nullptr;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r]->endpoint->set_observer(effective, static_cast<int>(r));
  }
  if (effective != nullptr) {
    obs::Metrics& m = effective->metrics();
    m.set_gauge(obs::Gauge::kCtlBytes, tree_.arena().total_bytes());
    m.set_gauge(obs::Gauge::kCtlGroups,
                static_cast<std::uint64_t>(tree_.n_groups()));
    m.set_gauge(obs::Gauge::kCicoSegmentBytes, tuning_.cico_segment_bytes);
    if (shm_retries_ != 0) {
      // Setup-time retries happened before any observer existed; book them
      // against rank 0 now (called outside the parallel region).
      m.add(0, obs::Counter::kFaultShmRetries, shm_retries_);
      shm_retries_ = 0;
    }
  }
}

std::optional<smsc::RegCache::Stats> XhcComponent::reg_cache_stats() const {
  smsc::RegCache::Stats total;
  for (const auto& rs : ranks_) {
    total.hits += rs->endpoint->cache_stats().hits;
    total.misses += rs->endpoint->cache_stats().misses;
  }
  return total;
}

obs::Counter XhcComponent::pull_counter(const RankState& rs,
                                        int owner) const noexcept {
  switch (rs.endpoint->effective_mechanism(owner)) {
    case smsc::Mechanism::kXpmem:
      return obs::Counter::kSingleCopyBytes;
    case smsc::Mechanism::kCma:
    case smsc::Mechanism::kKnem:
      return obs::Counter::kCmaBytes;
    case smsc::Mechanism::kCico:
      break;
  }
  return obs::Counter::kCicoBytes;
}

void XhcComponent::announce_publish(mach::Ctx& ctx,
                                    const CommView::Membership& m,
                                    std::uint64_t value) {
  if (!fault_allows_publish(ctx)) return;
  GroupCtl& ctl = tree_.ctl(m.ctl_id);
  const GroupShape& shape = tree_.shape(m.ctl_id);
  switch (tuning_.flag_layout) {
    case coll::FlagLayout::kSingle:
      // The publisher is always m's current leader, so my_slot ==
      // leader_slot here; the slot index keeps the writer fixed across
      // root changes (see GroupCtl).
      ctx.flag_store(*ctl.announce[m.leader_slot], value);
      return;
    case coll::FlagLayout::kMultiSharedLine:
      for (const int j : m.members) {
        if (j == ctx.rank()) continue;
        ctx.flag_store(ctl.announce_shared[shape.slot_of(j)], value);
      }
      return;
    case coll::FlagLayout::kMultiSeparateLines:
      for (const int j : m.members) {
        if (j == ctx.rank()) continue;
        ctx.flag_store(*ctl.announce_sep[shape.slot_of(j)], value);
      }
      return;
  }
}

void XhcComponent::announce_wait(mach::Ctx& ctx,
                                 const CommView::Membership& m,
                                 std::uint64_t value) {
  WaitObs obs(*this, ctx, "announce_wait", m.level, m.leader);
  GroupCtl& ctl = tree_.ctl(m.ctl_id);
  switch (tuning_.flag_layout) {
    case coll::FlagLayout::kSingle:
      ctx.flag_wait_ge(*ctl.announce[m.leader_slot], value);
      return;
    case coll::FlagLayout::kMultiSharedLine:
      ctx.flag_wait_ge(ctl.announce_shared[m.my_slot], value);
      return;
    case coll::FlagLayout::kMultiSeparateLines:
      ctx.flag_wait_ge(*ctl.announce_sep[m.my_slot], value);
      return;
  }
}

void XhcComponent::ack_publish(mach::Ctx& ctx, const CommView::Membership& m,
                               std::uint64_t s) {
  if (!fault_allows_publish(ctx)) return;
  GroupCtl& ctl = tree_.ctl(m.ctl_id);
  if (tuning_.sync == coll::SyncMethod::kSingleWriter) {
    ctx.flag_store(*ctl.ack[m.my_slot], s);
  } else {
    ctx.fetch_add(*ctl.atomic_ctr[0], 1);
  }
}

void XhcComponent::wait_acks(mach::Ctx& ctx, const CommView::Membership& m,
                             std::uint64_t s) {
  GroupCtl& ctl = tree_.ctl(m.ctl_id);
  const GroupShape& shape = tree_.shape(m.ctl_id);
  if (tuning_.sync == coll::SyncMethod::kSingleWriter) {
    // One wait span per member so the critical-path analyzer sees which
    // straggler the leader actually blocked on.
    for (const int j : m.members) {
      if (j == ctx.rank()) continue;
      WaitObs obs(*this, ctx, "wait_acks", m.level, j);
      ctx.flag_wait_ge(*ctl.ack[shape.slot_of(j)], s);
    }
  } else {
    // Atomic counter: contributions are anonymous, no single peer to name.
    WaitObs obs(*this, ctx, "wait_acks", m.level, /*peer=*/-1);
    const std::uint64_t expected =
        static_cast<std::uint64_t>(m.members.size() - 1) * s;
    ctx.flag_wait_ge(*ctl.atomic_ctr[0], expected);
  }
}

}  // namespace xhc::core
