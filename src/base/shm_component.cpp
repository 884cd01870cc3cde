#include "base/shm_component.h"

#include <algorithm>
#include <string>

#include "topo/hierarchy.h"
#include "util/cacheline.h"
#include "util/check.h"
#include "verify/verify.h"

namespace xhc::base {

namespace {

constexpr std::size_t kCDepth = 4;  ///< contribution ring depth

std::size_t chunk_end(std::size_t bytes, std::size_t c, std::size_t slot_sz) {
  return std::min(bytes, (c + 1) * slot_sz);
}

}  // namespace

struct ShmComponent::GroupShm {
  // Result stream: leader → members.
  std::byte* ring = nullptr;  ///< kDepth * slot payload bytes
  util::CachePadded<mach::Flag>* announce = nullptr;  ///< leader: cumulative
                                                      ///< bytes streamed
  util::CachePadded<mach::Flag>* ring_ack = nullptr;  ///< [slots] member
                                                      ///< cumulative bytes
  util::CachePadded<mach::Flag>* slot_ctr = nullptr;  ///< [kDepth] atomic
                                                      ///< ack counters
  // Contribution streams: members → leader (allreduce).
  std::byte* contrib = nullptr;  ///< [slots][kCDepth][slot]
  util::CachePadded<mach::Flag>* ready = nullptr;     ///< [slots] member:
                                                      ///< bytes staged
  util::CachePadded<mach::Flag>* consumed = nullptr;  ///< leader: bytes
                                                      ///< reduced

  std::vector<void*> allocs;
  mach::Machine* machine = nullptr;
  std::size_t slot_bytes = 0;  ///< ring slot size the group was built with

  ~GroupShm() {
    for (void* p : allocs) machine->free(p);
  }

  std::byte* ring_slot(std::size_t c) {
    return ring + (c % ShmComponent::kDepth) * slot_bytes;
  }
  std::byte* contrib_slot(int slot, std::size_t c) {
    return contrib + (static_cast<std::size_t>(slot) * kCDepth +
                      c % kCDepth) *
                         slot_bytes;
  }
};

struct ShmComponent::RankState {
  std::vector<std::uint64_t> ring_base;     ///< per group, cumulative bytes
  std::vector<std::uint64_t> contrib_base;  ///< per group, cumulative bytes
  std::vector<std::uint64_t> ctr_base;      ///< per group*kDepth, atomic acks
};

ShmComponent::ShmComponent(mach::Machine& machine, coll::Tuning tuning,
                           std::string name)
    : machine_(&machine),
      tuning_(std::move(tuning)),
      name_(std::move(name)),
      // Shapes and views only: the rings carry every flag (build_groups).
      tree_(machine, topo::parse_sensitivity(tuning_.sensitivity), {}) {
  fault_ = fault::make_injector(tuning_.faults, tuning_.fault_seed,
                                machine.n_ranks());
  // Under injected shm exhaustion: retry each segment a bounded number of
  // times, then rebuild every ring with half-sized slots, down to a one-page
  // floor (every group must share one slot size — the mirrored base
  // arithmetic depends on it).
  constexpr std::size_t kMinSlot = 4096;
  for (;;) {
    if (build_groups()) break;
    XHC_CHECK(slot_ / 2 >= kMinSlot,
              name_, ": shared ring allocation exhausted (failed even with ",
              slot_, "-byte slots after ", shm_retries_, " retries)");
    groups_.clear();
    slot_ /= 2;
  }
  ranks_.reserve(static_cast<std::size_t>(machine.n_ranks()));
  for (int r = 0; r < machine.n_ranks(); ++r) {
    auto rs = std::make_unique<RankState>();
    rs->ring_base.assign(static_cast<std::size_t>(tree_.n_groups()), 0);
    rs->contrib_base.assign(static_cast<std::size_t>(tree_.n_groups()), 0);
    rs->ctr_base.assign(static_cast<std::size_t>(tree_.n_groups()) * kDepth,
                        0);
    ranks_.push_back(std::move(rs));
  }
}

ShmComponent::~ShmComponent() = default;

bool ShmComponent::build_groups() {
  mach::Machine& machine = *machine_;
  groups_.reserve(static_cast<std::size_t>(tree_.n_groups()));
  for (int g = 0; g < tree_.n_groups(); ++g) {
    const core::GroupShape& shape = tree_.shape(g);
    const auto slots = static_cast<std::size_t>(shape.domain_ranks.size());
    auto shm = std::make_unique<GroupShm>();
    shm->machine = machine_;
    shm->slot_bytes = slot_;
    auto padded_flags = [&](std::size_t count) {
      void* p = machine.alloc(shape.home_rank,
                              sizeof(util::CachePadded<mach::Flag>) * count);
      shm->allocs.push_back(p);
      auto* f = static_cast<util::CachePadded<mach::Flag>*>(p);
      for (std::size_t i = 0; i < count; ++i) {
        new (f + i) util::CachePadded<mach::Flag>();
      }
      return f;
    };
    // The payload areas are the realistic exhaustion target; the flag
    // arrays are a few cache lines and allocated directly.
    shm->ring = static_cast<std::byte*>(
        fault::alloc_with_retry(machine, fault_.get(), shape.home_rank,
                                kDepth * slot_, /*zero=*/true,
                                /*max_attempts=*/3, &shm_retries_));
    if (shm->ring == nullptr) return false;
    shm->allocs.push_back(shm->ring);
    shm->announce = padded_flags(1);
    shm->ring_ack = padded_flags(slots);
    shm->slot_ctr = padded_flags(kDepth);
    shm->contrib = static_cast<std::byte*>(
        fault::alloc_with_retry(machine, fault_.get(), shape.home_rank,
                                slots * kCDepth * slot_, /*zero=*/true,
                                /*max_attempts=*/3, &shm_retries_));
    if (shm->contrib == nullptr) return false;
    shm->allocs.push_back(shm->contrib);
    shm->ready = padded_flags(slots);
    shm->consumed = padded_flags(1);

    // Protocol verifier registration. The streaming flags follow the root
    // of the operation (kRotating); per-slot acks have a fixed writer; the
    // slot counters are this baseline's whitelisted multi-writer path.
    verify::Ledger& led = machine.verify_ledger();
    const std::string prefix = name_ + ".g" + std::to_string(g);
    led.register_flag(&*shm->announce[0], prefix + ".announce",
                      verify::WriterPolicy::kRotating);
    led.register_flag(&*shm->consumed[0], prefix + ".consumed",
                      verify::WriterPolicy::kRotating);
    for (std::size_t i = 0; i < slots; ++i) {
      led.register_flag(&*shm->ring_ack[i],
                        prefix + ".ring_ack[" + std::to_string(i) + "]",
                        verify::WriterPolicy::kFixed);
      led.register_flag(&*shm->ready[i],
                        prefix + ".ready[" + std::to_string(i) + "]",
                        verify::WriterPolicy::kFixed);
    }
    for (std::size_t d = 0; d < kDepth; ++d) {
      led.register_flag(&*shm->slot_ctr[d],
                        prefix + ".slot_ctr[" + std::to_string(d) + "]",
                        verify::WriterPolicy::kShared);
    }
    groups_.push_back(std::move(shm));
  }
  return true;
}

void ShmComponent::maybe_stall(mach::Ctx& ctx) {
  if (fault_ == nullptr) return;
  const double d = fault_->straggler_delay(ctx.rank(), -1);
  if (d <= 0.0) return;
  book(ctx, obs::Counter::kFaultStalls, 1);
  ctx.stall(d);
}

void ShmComponent::ring_wait_free(mach::Ctx& ctx, GroupShm& g,
                                  const core::CommView::Membership& m,
                                  std::uint64_t base, std::size_t lo,
                                  std::size_t bytes) {
  const std::size_t c = lo / slot_;
  if (c < kDepth) return;  // ring drained between ops; first uses are free
  const std::size_t prev_end = chunk_end(bytes, c - kDepth, slot_);
  if (tuning_.sync == coll::SyncMethod::kSingleWriter) {
    const core::GroupShape& shape = tree_.shape(m.ctl_id);
    for (const int j : m.members) {
      if (j == ctx.rank()) continue;
      ctx.flag_wait_ge(*g.ring_ack[shape.slot_of(j)], base + prev_end);
    }
  } else {
    const std::uint64_t members =
        static_cast<std::uint64_t>(m.members.size() - 1);
    RankState& rs = state(ctx.rank());
    const std::uint64_t slot_base =
        rs.ctr_base[static_cast<std::size_t>(m.ctl_id) * kDepth + c % kDepth];
    // Reuse `u = c / kDepth` of the slot needs use u-1 fully acknowledged.
    ctx.flag_wait_ge(*g.slot_ctr[c % kDepth],
                     slot_base + (c / kDepth) * members);
  }
}

void ShmComponent::ring_ack(mach::Ctx& ctx, GroupShm& g,
                            const core::CommView::Membership& m, std::uint64_t base,
                            std::size_t lo, std::size_t hi) {
  if (tuning_.sync == coll::SyncMethod::kSingleWriter) {
    ctx.flag_store(*g.ring_ack[m.my_slot], base + hi);
  } else {
    ctx.fetch_add(*g.slot_ctr[(lo / slot_) % kDepth], 1);
  }
}

void ShmComponent::advance_ctr_base(RankState& rs, const core::CommView& view,
                                    std::size_t n_chunks) {
  // Every group's per-slot counter grew by uses(slot) * (group size - 1);
  // each group is owned by exactly one leader in the view.
  for (int rr = 0; rr < machine_->n_ranks(); ++rr) {
    for (const auto& m : view.memberships(rr)) {
      if (!m.is_leader) continue;
      const std::uint64_t members =
          static_cast<std::uint64_t>(m.members.size() - 1);
      for (std::size_t slot = 0; slot < kDepth && slot < n_chunks; ++slot) {
        const std::uint64_t uses = (n_chunks - slot + kDepth - 1) / kDepth;
        rs.ctr_base[static_cast<std::size_t>(m.ctl_id) * kDepth + slot] +=
            uses * members;
      }
    }
  }
}

void ShmComponent::bcast(mach::Ctx& ctx, void* buf, std::size_t bytes,
                         int root) {
  if (bytes == 0 || ctx.size() == 1) return;
  maybe_stall(ctx);
  const int r = ctx.rank();
  RankState& rs = state(r);
  const core::CommView& view = tree_.view(root);
  const auto& ms = view.memberships(r);
  auto* p = static_cast<std::byte*>(buf);
  const std::size_t n_chunks = (bytes + slot_ - 1) / slot_;

  const core::CommView::Membership& top = ms.back();
  if (top.is_leader) {
    // Root: stream the payload into the ring of every led group.
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t lo = c * slot_;
      const std::size_t hi = chunk_end(bytes, c, slot_);
      for (const auto& m : ms) {
        GroupShm& g = shm(m.ctl_id);
        const std::uint64_t base =
            rs.ring_base[static_cast<std::size_t>(m.ctl_id)];
        ring_wait_free(ctx, g, m, base, lo, bytes);
        ctx.copy(g.ring_slot(c) , p + lo, hi - lo);
        ctx.flag_store(*g.announce[0], base + hi);
      }
    }
  } else {
    // Pull from the member-level leader's ring; leaders re-stream to their
    // own groups (two copies per level: ring→buf, buf→ring).
    GroupShm& gt = shm(top.ctl_id);
    const std::uint64_t base_t =
        rs.ring_base[static_cast<std::size_t>(top.ctl_id)];
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t lo = c * slot_;
      const std::size_t hi = chunk_end(bytes, c, slot_);
      ctx.flag_wait_ge(*gt.announce[0], base_t + hi);
      ctx.copy(p + lo, gt.ring_slot(c), hi - lo);
      ring_ack(ctx, gt, top, base_t, lo, hi);
      for (std::size_t i = 0; i + 1 < ms.size(); ++i) {
        GroupShm& g = shm(ms[i].ctl_id);
        const std::uint64_t base =
            rs.ring_base[static_cast<std::size_t>(ms[i].ctl_id)];
        ring_wait_free(ctx, g, ms[i], base, lo, bytes);
        ctx.copy(g.ring_slot(c), p + lo, hi - lo);
        ctx.flag_store(*g.announce[0], base + hi);
      }
    }
    record_traffic(top.leader, r);
  }

  // Drain: leaders wait for their groups before the rings can be reused.
  for (const auto& m : ms) {
    if (!m.is_leader) continue;
    GroupShm& g = shm(m.ctl_id);
    const std::uint64_t base = rs.ring_base[static_cast<std::size_t>(m.ctl_id)];
    if (tuning_.sync == coll::SyncMethod::kSingleWriter) {
      const core::GroupShape& shape = tree_.shape(m.ctl_id);
      for (const int j : m.members) {
        if (j == r) continue;
        ctx.flag_wait_ge(*g.ring_ack[shape.slot_of(j)], base + bytes);
      }
    } else {
      const std::uint64_t members =
          static_cast<std::uint64_t>(m.members.size() - 1);
      for (std::size_t slot = 0; slot < kDepth && slot < n_chunks; ++slot) {
        const std::uint64_t uses = (n_chunks - slot + kDepth - 1) / kDepth;
        const std::size_t idx =
            static_cast<std::size_t>(m.ctl_id) * kDepth + slot;
        ctx.flag_wait_ge(*g.slot_ctr[slot], rs.ctr_base[idx] + uses * members);
      }
    }
  }

  // Advance mirrored bases (identical on every rank: every rank executes
  // every collective and can recompute every group's traffic).
  for (int gid = 0; gid < tree_.n_groups(); ++gid) {
    rs.ring_base[static_cast<std::size_t>(gid)] += bytes;
  }
  if (tuning_.sync == coll::SyncMethod::kAtomicFetchAdd) {
    advance_ctr_base(rs, view, n_chunks);
  }
}

void ShmComponent::allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
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

  maybe_stall(ctx);
  const int r = ctx.rank();
  RankState& rs = state(r);
  const core::CommView& view = tree_.view(0);
  const auto& ms = view.memberships(r);
  const auto* sp = static_cast<const std::byte*>(sbuf);
  auto* rp = static_cast<std::byte*>(rbuf);
  const std::size_t n_chunks = (bytes + slot_ - 1) / slot_;
  const core::CommView::Membership& top = ms.back();

  // ---- pipelined reduce + broadcast ---------------------------------------
  // Each rank walks chunks in order, performing its reduce-side duties for
  // chunk `it` and its broadcast-side duties for chunk `it - kLag`. The lag
  // lets the top of the tree run ahead while the bounded rings stay
  // drainable (kLag < kDepth, so every ring-window wait can be satisfied by
  // broadcast progress at most kLag chunks behind).
  constexpr std::size_t kLag = 4;
  static_assert(kLag < kDepth && kLag <= kCDepth,
                "broadcast lag must fit inside the ring windows");
  GroupShm* gt = top.is_leader ? nullptr : &shm(top.ctl_id);
  const std::uint64_t base_t =
      rs.ring_base[static_cast<std::size_t>(top.ctl_id)];

  for (std::size_t it = 0; it < n_chunks + kLag; ++it) {
    if (it < n_chunks) {
      const std::size_t c = it;
      const std::size_t lo = c * slot_;
      const std::size_t hi = chunk_end(bytes, c, slot_);
      const std::size_t n_elems = (hi - lo) / elem;
      XHC_CHECK(n_elems * elem == hi - lo, "ring slot not element-aligned");

      // Leader duties, bottom-up: reduce the group's staged contributions
      // into this rank's rbuf (the subtree partial).
      for (const auto& m : ms) {
        if (!m.is_leader) break;
        GroupShm& g = shm(m.ctl_id);
        const core::GroupShape& shape = tree_.shape(m.ctl_id);
        const std::uint64_t cbase =
            rs.contrib_base[static_cast<std::size_t>(m.ctl_id)];
        if (m.level == 0 && !in_place) {
          ctx.copy(rp + lo, sp + lo, hi - lo);
        }
        for (const int j : m.members) {
          if (j == r) continue;
          const int slot = shape.slot_of(j);
          ctx.flag_wait_ge(*g.ready[slot], cbase + hi);
          ctx.reduce(rp + lo, g.contrib_slot(slot, c), n_elems, dtype, op);
        }
        ctx.flag_store(*g.consumed[0], cbase + hi);
      }

      if (top.is_leader) {
        // Internal root: stream the globally reduced chunk to every led
        // group's ring.
        for (const auto& m : ms) {
          GroupShm& g = shm(m.ctl_id);
          const std::uint64_t base =
              rs.ring_base[static_cast<std::size_t>(m.ctl_id)];
          ring_wait_free(ctx, g, m, base, lo, bytes);
          ctx.copy(g.ring_slot(c), rp + lo, hi - lo);
          ctx.flag_store(*g.announce[0], base + hi);
        }
      } else {
        // Stage this rank's contribution with its member-level leader:
        // leaf ranks stage sbuf, lower-level leaders the partial just
        // reduced into rbuf.
        GroupShm& g = *gt;
        const std::uint64_t cbase =
            rs.contrib_base[static_cast<std::size_t>(top.ctl_id)];
        const std::byte* src = ms.size() == 1 ? sp : rp;
        if (c >= kCDepth) {
          ctx.flag_wait_ge(*g.consumed[0],
                           cbase + chunk_end(bytes, c - kCDepth, slot_));
        }
        ctx.copy(g.contrib_slot(top.my_slot, c), src + lo, hi - lo);
        ctx.flag_store(*g.ready[top.my_slot], cbase + hi);
      }
    }

    // Broadcast-side duties for the chunk kLag behind.
    if (!top.is_leader && it >= kLag && it - kLag < n_chunks) {
      const std::size_t c = it - kLag;
      const std::size_t lo = c * slot_;
      const std::size_t hi = chunk_end(bytes, c, slot_);
      ctx.flag_wait_ge(*gt->announce[0], base_t + hi);
      ctx.copy(rp + lo, gt->ring_slot(c), hi - lo);
      ring_ack(ctx, *gt, top, base_t, lo, hi);
      for (std::size_t i = 0; i + 1 < ms.size(); ++i) {
        GroupShm& g = shm(ms[i].ctl_id);
        const std::uint64_t base =
            rs.ring_base[static_cast<std::size_t>(ms[i].ctl_id)];
        ring_wait_free(ctx, g, ms[i], base, lo, bytes);
        ctx.copy(g.ring_slot(c), rp + lo, hi - lo);
        ctx.flag_store(*g.announce[0], base + hi);
      }
    }
  }
  if (!top.is_leader) record_traffic(r, top.leader);

  // ---- drain & mirrored base advancement ---------------------------------
  for (const auto& m : ms) {
    if (!m.is_leader) {
      // The contribution area is reusable once fully consumed.
      GroupShm& g = shm(m.ctl_id);
      ctx.flag_wait_ge(*g.consumed[0],
                       rs.contrib_base[static_cast<std::size_t>(m.ctl_id)] +
                           bytes);
      continue;
    }
    GroupShm& g = shm(m.ctl_id);
    const std::uint64_t base = rs.ring_base[static_cast<std::size_t>(m.ctl_id)];
    if (tuning_.sync == coll::SyncMethod::kSingleWriter) {
      const core::GroupShape& shape = tree_.shape(m.ctl_id);
      for (const int j : m.members) {
        if (j == r) continue;
        ctx.flag_wait_ge(*g.ring_ack[shape.slot_of(j)], base + bytes);
      }
    } else {
      const std::uint64_t members =
          static_cast<std::uint64_t>(m.members.size() - 1);
      for (std::size_t slot = 0; slot < kDepth && slot < n_chunks; ++slot) {
        const std::uint64_t uses = (n_chunks - slot + kDepth - 1) / kDepth;
        const std::size_t idx =
            static_cast<std::size_t>(m.ctl_id) * kDepth + slot;
        ctx.flag_wait_ge(*g.slot_ctr[slot], rs.ctr_base[idx] + uses * members);
      }
    }
  }

  for (int gid = 0; gid < tree_.n_groups(); ++gid) {
    rs.ring_base[static_cast<std::size_t>(gid)] += bytes;
    rs.contrib_base[static_cast<std::size_t>(gid)] += bytes;
  }
  if (tuning_.sync == coll::SyncMethod::kAtomicFetchAdd) {
    advance_ctr_base(rs, view, n_chunks);
  }
}

}  // namespace xhc::base
