#include "core/xhc_component.h"

#include <algorithm>

#include "obs/critpath.h"
#include "topo/hierarchy.h"
#include "util/check.h"

namespace xhc::core {

XhcComponent::XhcComponent(mach::Machine& machine, coll::Tuning tuning,
                           std::string name)
    : machine_(&machine),
      tuning_(std::move(tuning)),
      name_(std::move(name)),
      // The cache tree carries the single-flag, single-writer protocol
      // only; the Fig. 10 layouts and Fig. 4's atomics keep the flag tree.
      tree_(machine, topo::parse_sensitivity(tuning_.sensitivity),
            tuning_.comm_name,
            tuning_.llc_aware &&
                tuning_.flag_layout == coll::FlagLayout::kSingle &&
                tuning_.sync == coll::SyncMethod::kSingleWriter),
      shard_plan_(machine,
                  shard_domains(topo::parse_sensitivity(tuning_.sensitivity),
                                tuning_.llc_aware)) {
  const int n = machine.n_ranks();
  fault_ = fault::make_injector(tuning_.faults, tuning_.fault_seed, n,
                                tuning_.comm_id);
  ranks_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto rs = std::make_unique<RankState>();
    rs->endpoint = std::make_unique<smsc::Endpoint>(
        tuning_.mechanism, tuning_.reg_cache, tuning_.reg_cache_entries);
    rs->endpoint->set_fault_injector(fault_.get());
    ranks_.push_back(std::move(rs));
  }
  // Copy-in-copy-out segments (paper §IV-C): one per rank, allocated at
  // communicator creation, attached (cached) for the communicator lifetime.
  // Not zero-filled: an op writes every segment byte before anyone reads
  // it, so like shared memory a segment faults in only the pages ops use.
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
                                        /*zero=*/false, /*max_attempts=*/3,
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
  const WindowGuard advance{rs, window(0)};
  const CommView& view = tree_.view(0);
  const auto& ms = view.memberships(r);
  await_prev_acks(ctx, rs, ms, s);

  // Arrival gather, bottom-up: a leader joins its upper group only after
  // every member of its own group has arrived, so arrival is transitive.
  for (const auto& m : ms) {
    GroupCtl& ctl = tree_.ctl(m.ctl_id);
    const GroupShape& shape = tree_.shape(m.ctl_id);
    if (m.is_leader) {
      for (const int j : m.members) {
        if (j == r) continue;
        await(ctx, *ctl.member_seq[shape.slot_of(j)], s, "member_seq_wait",
              m.level, j);
      }
    } else {
      ctx.flag_store(*ctl.member_seq[m.my_slot], s);
    }
  }

  // Release, top-down through the announce counters. With a cache tree
  // (DESIGN.md § Cache tree) rank 0 publishes its top-group announce once
  // and every other rank waits on it directly; nobody republishes.
  const bool cache = tree_.has_cache_tree();
  const CommView::Membership& top = ms.back();
  if (top.is_leader) {
    release_led(ctx, ms, cache ? ms.size() - 1 : 0, rs.base + 1);
  } else {
    await_release(ctx, cache ? view.memberships(0).back() : top, ms,
                  rs.base + 1, /*relay=*/!cache);
    // Atomic sync counts (members-1) acks per op of any kind; acking once
    // every rank has left the previous op keeps those counts exact.
    if (tuning_.sync == coll::SyncMethod::kAtomicFetchAdd) {
      ack_publish(ctx, top, s);
    }
  }
}

void XhcComponent::set_observer(obs::Observer* observer) noexcept {
  // Tuning::trace gates all collection: without it the pointer is dropped
  // and every span, counter and histogram site stays a null check.
  coll::Component::set_observer(tuning_.trace ? observer : nullptr);
  obs::Observer* effective = coll::Component::observer();
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

XhcComponent::Timed::Timed(const XhcComponent& c, mach::Ctx& ctx,
                           const char* cat, const char* name,
                           obs::HistKind kind, std::uint64_t arg,
                           int level) noexcept
    : o_(c.observer()),
      ctx_(&ctx),
      cat_(cat),
      name_(name),
      kind_(kind),
      arg_(arg),
      level_(level) {
  if (o_ != nullptr) t0_ = ctx.now();
}

XhcComponent::Timed::~Timed() {
  if (o_ == nullptr) return;
  const int r = ctx_->rank();
  const double t1 = ctx_->now();
  if (o_->trace().enabled()) o_->trace().record(r, cat_, name_, t0_, t1, arg_);
  o_->hists().record(r, kind_, t1 - t0_);
  if (kind_ == obs::HistKind::kChunk) {
    // kChunksLevel0..2 are contiguous; deeper levels share kChunksDeeper.
    const int l = level_ >= 0 && level_ < 3 ? level_ : 3;
    o_->metrics().add(r, static_cast<obs::Counter>(
                             static_cast<int>(obs::Counter::kChunksLevel0) + l),
                      1);
  }
}

void XhcComponent::await(mach::Ctx& ctx, const mach::Flag& flag,
                         std::uint64_t value, const char* site, int level,
                         int peer) {
  const std::uint64_t spins0 = ctx.wait_spins();
  {
    Timed wait(*this, ctx, "wait", site, obs::HistKind::kWaitSite,
               obs::wait_arg(level, peer));
    ctx.flag_wait_ge(flag, value);
    if (ctx.wait_spins() == spins0) {
      wait.set_arg(obs::wait_arg(level, peer, /*blocked=*/false));
    }
  }
  book(ctx, obs::Counter::kFlagWaits, 1);
  book(ctx, obs::Counter::kFlagSpinIters, ctx.wait_spins() - spins0);
}

void XhcComponent::pull_chunk(mach::Ctx& ctx, std::byte* dst,
                              const std::byte* src, std::size_t n, int level,
                              int owner, const char* name) {
  smsc::Endpoint& ep = *state(ctx.rank()).endpoint;
  {
    Timed chunk(*this, ctx, "copy", name, obs::HistKind::kChunk, n, level);
    ep.charge_op(ctx, n, ctx.size(), owner);
    ctx.copy(dst, src, n);
  }
  if (observer() == nullptr) return;
  const smsc::Mechanism mech =
      owner < 0 ? smsc::Mechanism::kCico : ep.effective_mechanism(owner);
  book(ctx,
       mech == smsc::Mechanism::kXpmem  ? obs::Counter::kSingleCopyBytes
       : mech == smsc::Mechanism::kCico ? obs::Counter::kCicoBytes
                                        : obs::Counter::kCmaBytes,
       n);
}

void XhcComponent::fold(mach::Ctx& ctx, std::byte* dst, const std::byte* src,
                        std::size_t n_elems, mach::DType dtype, mach::ROp op,
                        int owner) {
  const std::size_t n = n_elems * mach::dtype_size(dtype);
  state(ctx.rank()).endpoint->charge_op(ctx, n, ctx.size(), owner);
  ctx.reduce(dst, src, n_elems, dtype, op);
  book(ctx, obs::Counter::kReduceBytes, n);
}

std::uint64_t XhcComponent::window(std::size_t bytes) const {
  const auto levels =
      static_cast<std::uint64_t>(std::max(shard_plan_.n_stages(), 1));
  return std::max<std::uint64_t>(2 * levels * bytes, 1);
}

void XhcComponent::release_led(mach::Ctx& ctx,
                               const std::vector<CommView::Membership>& ms,
                               std::size_t first, std::uint64_t value) {
  for (std::size_t i = first; i < ms.size() && ms[i].is_leader; ++i) {
    announce_publish(ctx, ms[i], value);
  }
}

void XhcComponent::await_release(mach::Ctx& ctx,
                                 const CommView::Membership& from,
                                 const std::vector<CommView::Membership>& ms,
                                 std::uint64_t value, bool relay) {
  announce_wait(ctx, from, value);
  if (relay) release_led(ctx, ms, 0, value);
}

void XhcComponent::collect_acks(mach::Ctx& ctx,
                                const std::vector<CommView::Membership>& ms,
                                std::uint64_t s) {
  for (std::size_t i = 0; i < ms.size() && ms[i].is_leader; ++i) {
    wait_acks(ctx, ms[i], s);
  }
}

void XhcComponent::await_prev_acks(mach::Ctx& ctx, RankState& rs,
                                   const std::vector<CommView::Membership>& ms,
                                   std::uint64_t s) {
  const std::uint64_t prev = rs.led;
  rs.led = 0;
  for (const auto& m : ms) {
    if (!m.is_leader) return;
    rs.led |= std::uint64_t{1} << m.level;
    if (tuning_.sync == coll::SyncMethod::kAtomicFetchAdd && s > 1 &&
        (prev >> m.level & 1) == 0) {
      wait_acks(ctx, m, s - 1);
    }
  }
}

void XhcComponent::announce_publish(mach::Ctx& ctx,
                                    const CommView::Membership& m,
                                    std::uint64_t value) {
  if (!fault_allows_publish(ctx)) return;
  GroupCtl& ctl = tree_.ctl(m.ctl_id);
  const GroupShape& shape = tree_.shape(m.ctl_id);
  switch (tuning_.flag_layout) {
    case coll::FlagLayout::kSingle:
      // The publisher's own slot: m's current leader's, or on a bcast
      // chain a member's. The slot index keeps the writer fixed across
      // root changes (see GroupCtl).
      ctx.flag_store(*ctl.announce[m.my_slot], value);
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
  GroupCtl& ctl = tree_.ctl(m.ctl_id);
  switch (tuning_.flag_layout) {
    case coll::FlagLayout::kSingle:
      await(ctx, *ctl.announce[m.leader_slot], value, "announce_wait",
            m.level, m.leader);
      return;
    case coll::FlagLayout::kMultiSharedLine:
      await(ctx, ctl.announce_shared[m.my_slot], value, "announce_wait",
            m.level, m.leader);
      return;
    case coll::FlagLayout::kMultiSeparateLines:
      await(ctx, *ctl.announce_sep[m.my_slot], value, "announce_wait",
            m.level, m.leader);
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
      await(ctx, *ctl.ack[shape.slot_of(j)], s, "wait_acks", m.level, j);
    }
  } else {
    // Atomic counter: contributions are anonymous, no single peer to name.
    const std::uint64_t expected =
        static_cast<std::uint64_t>(m.members.size() - 1) * s;
    await(ctx, *ctl.atomic_ctr[0], expected, "wait_acks", m.level,
          /*peer=*/-1);
  }
}

}  // namespace xhc::core
