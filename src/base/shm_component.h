// Shared-memory copy-in-copy-out collectives — the common machinery behind
// two baselines from the paper:
//
//   * `sm`   — OpenMPI's shared-memory component: a flat tree whose ring
//     acknowledgements use atomic fetch-add, the synchronization style whose
//     collapse on dense nodes the paper demonstrates (Fig. 4, §V-D1).
//   * `smhc` — Shared-Memory Hierarchical Collectives, the re-implementation
//     of Jain et al. [18]: socket-aware trees (plus a flat variant), bounded
//     shared rings, single-writer flags.
//
// All payload moves copy-in-copy-out through bounded rings: the leader of a
// group streams chunks into its ring, members copy them out (two copies per
// hierarchy level — the overhead single-copy designs avoid, §I). Allreduce
// gathers members' contributions through per-member ring areas at the
// leader, which reduces them serially (the leader-based reduction of [18]).
#pragma once

#include <string>

#include "coll/component.h"
#include "core/comm_tree.h"
#include "fault/fault.h"

namespace xhc::base {

class ShmComponent final : public coll::Component {
 public:
  /// `sync` selects per-member single-writer acks vs shared fetch-add
  /// counters; `sensitivity` "" / "flat" builds the flat variant.
  ShmComponent(mach::Machine& machine, coll::Tuning tuning, std::string name);
  ~ShmComponent() override;

  std::string_view name() const noexcept override { return name_; }

  void bcast(mach::Ctx& ctx, void* buf, std::size_t bytes, int root) override;
  void allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                 std::size_t count, mach::DType dtype, mach::ROp op) override;

  /// Ring slot size actually in use. Equals the 32 KiB default unless
  /// injected shm exhaustion degraded the rings to smaller slots.
  std::size_t slot_bytes() const noexcept { return slot_; }

 private:
  static constexpr std::size_t kDefaultSlot = 32 * 1024;  ///< ring slot bytes
  static constexpr std::uint64_t kDepth = 8;      ///< ring slots per stream

  /// Shared state of one group's ring streams.
  struct GroupShm;
  /// Per-rank mirrored counters.
  struct RankState;

  GroupShm& shm(int ctl_id) { return *groups_[static_cast<std::size_t>(ctl_id)]; }
  RankState& state(int rank) { return *ranks_[static_cast<std::size_t>(rank)]; }

  /// Allocates every group's rings at the current slot_ size. Returns false
  /// when an allocation failed (injected exhaustion) so the caller can
  /// degrade to smaller slots and rebuild.
  bool build_groups();

  /// Operation-entry straggler opportunity (fault injection).
  void maybe_stall(mach::Ctx& ctx);

  /// Leader side: wait until ring slot for the chunk ending at `hi` is free.
  void ring_wait_free(mach::Ctx& ctx, GroupShm& g,
                      const core::CommView::Membership& m, std::uint64_t base,
                      std::size_t lo, std::size_t bytes);
  /// Member side: acknowledge consumption of the chunk [lo, hi).
  void ring_ack(mach::Ctx& ctx, GroupShm& g, const core::CommView::Membership& m,
                std::uint64_t base, std::size_t lo, std::size_t hi);
  /// Advances the mirrored per-slot atomic ack counters after an operation
  /// that streamed `n_chunks` chunks through every group ring.
  void advance_ctr_base(RankState& rs, const core::CommView& view,
                        std::size_t n_chunks);

  mach::Machine* machine_;
  coll::Tuning tuning_;
  std::string name_;
  core::CommTree tree_;
  std::unique_ptr<fault::Injector> fault_;
  std::size_t slot_ = kDefaultSlot;
  std::uint64_t shm_retries_ = 0;
  std::vector<std::unique_ptr<GroupShm>> groups_;
  std::vector<std::unique_ptr<RankState>> ranks_;
};

}  // namespace xhc::base
