// Shared control blocks of the XHC framework (paper §III-E, §IV).
//
// One GroupCtl exists per hierarchy group. All synchronization state follows
// the single-writer / multiple-readers paradigm: every flag has exactly one
// writer (the group leader, or one specific member), and flags with distinct
// writers live on distinct cache lines to avoid false sharing. The only
// exceptions are the deliberately mis-laid-out variants used by the paper's
// experiments: the packed `announce_shared` array (Fig. 10, "shared") and
// the `atomic_ctr` counter (Fig. 4, atomics-based sync).
//
// All counters are monotone across operations (cumulative bytes / operation
// sequence numbers), so flags never need to be reset — reuse is governed by
// the hierarchical acknowledgement step alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mach/flag.h"
#include "mach/machine.h"
#include "util/cacheline.h"

namespace xhc::core {

/// Leader-published per-operation metadata; guarded by `seq` (release on
/// store, acquire on wait).
struct LeaderInfo {
  const void* buf = nullptr;  ///< leader's exposed buffer for this op
};

/// Member-published per-operation metadata; guarded by `member_seq`.
struct MemberInfo {
  const void* contrib = nullptr;  ///< member's contribution buffer (on the
                                  ///< allreduce fan-in: its partial's)
  const void* result = nullptr;   ///< member's result buffer (XBRC allgather)
};

/// Typed view over one group's shared control block. The pointers target a
/// single machine allocation owned by the group's home rank; constructed by
/// CtlArena.
///
/// Leadership is root-dependent (the root leads every group it belongs to,
/// paper §IV), so the leader-published plane is indexed by the *leader's*
/// member slot rather than being a single rotating mailbox. With a single
/// mailbox, op N's leader can overwrite the buffer pointer while a straggler
/// member of op N-1 — whose own leader is still collecting acks — has not
/// read it yet: the straggler's `seq >= s` wait passes on the newer value and
/// it pulls from the wrong (possibly unwritten) buffer. Per-slot mailboxes
/// close that window without extra synchronization: a rank reuses its own
/// slot only after collecting its previous op's acks, and a stale slot value
/// is always below the waiter's threshold (bases are cumulative), so waits
/// are exact.
struct GroupCtl {
  // --- leader-written, indexed by the leader's slot ------------------------
  util::CachePadded<mach::Flag>* seq = nullptr;       ///< [slots] op sequence
  util::CachePadded<mach::Flag>* announce = nullptr;  ///< [slots] cumulative
                                                      ///< bytes published
                                                      ///< (single-flag layout)
  util::CachePadded<LeaderInfo>* info = nullptr;      ///< [slots]

  // --- per-member slots (each member writes only its own slot) -------------
  util::CachePadded<mach::Flag>* ack = nullptr;          ///< [slots]
  util::CachePadded<mach::Flag>* member_seq = nullptr;   ///< [slots]
  util::CachePadded<MemberInfo>* minfo = nullptr;        ///< [slots]
  util::CachePadded<mach::Flag>* reduce_ready = nullptr; ///< [slots]
  util::CachePadded<mach::Flag>* reduce_done = nullptr;  ///< [slots]

  // --- experiment variants --------------------------------------------------
  /// Per-member announce flags, deliberately packed so neighbours share
  /// cache lines (Fig. 10 "shared"). Leader-written.
  mach::Flag* announce_shared = nullptr;  ///< [slots]
  /// Per-member announce flags, one line each (Fig. 10 "separated").
  util::CachePadded<mach::Flag>* announce_sep = nullptr;  ///< [slots]
  /// Shared atomic counter for the fetch-add sync variant (Fig. 4).
  util::CachePadded<mach::Flag>* atomic_ctr = nullptr;

  int slots = 0;
};

/// Per-communicator control plane of the large-message paths (DESIGN.md
/// § Large-message paths): one slot per *global rank*, so shard and stripe
/// owners can publish progress to any peer without a group indirection.
/// Every slot is written only by its own rank (WriterPolicy::kFixed):
///
///  - `shard_seq[r]`  — rank r has joined the op and published `sinfo[r]`
///                      (value: op sequence number, release/acquire guard).
///  - `prog[r]`       — cumulative bytes rank r has produced on the
///                      reduce-scatter + allgather timeline; stage
///                      boundaries snap to `base + stage_slot * bytes`, so
///                      peers compute exact chunk thresholds from the
///                      shared schedule alone.
///  - `stripe_ready[r]` — cumulative bytes of rank r's bcast stripe pulled
///                      from the root and republished.
struct ShardCtl {
  util::CachePadded<mach::Flag>* shard_seq = nullptr;     ///< [slots]
  util::CachePadded<MemberInfo>* sinfo = nullptr;         ///< [slots]
  util::CachePadded<mach::Flag>* prog = nullptr;          ///< [slots]
  util::CachePadded<mach::Flag>* stripe_ready = nullptr;  ///< [slots]
  int slots = 0;
};

/// Allocates and owns the control blocks for a set of groups.
class CtlArena {
 public:
  CtlArena() = default;
  ~CtlArena();
  CtlArena(const CtlArena&) = delete;
  CtlArena& operator=(const CtlArena&) = delete;

  /// Builds a control block for a group with `slots` member slots; the
  /// allocation is owned by `home_rank` (placed on its NUMA node). `scope`
  /// prefixes the ledger names of every flag in the block — empty (the
  /// default, single-communicator case) keeps the historical "ctlN/hM"
  /// names; multi-tenant service communicators pass "comm<id>'<name>'/" so
  /// watchdog and deadlock diagnostics name the owning communicator.
  GroupCtl add_group(mach::Machine& m, int home_rank, int slots,
                     const std::string& scope = {});

  /// Builds the per-communicator shard/stripe plane with one slot per rank
  /// (owned by rank 0's NUMA node; every slot is cache-line padded, so home
  /// placement only affects line-fetch distance, not sharing).
  ShardCtl add_shard_plane(mach::Machine& m, int slots,
                           const std::string& scope = {});

  /// Observability accessors (obs::Gauge::kCtlBytes / kCtlGroups).
  std::size_t total_bytes() const noexcept { return total_bytes_; }
  std::size_t n_groups() const noexcept { return allocations_.size(); }

 private:
  struct Allocation {
    mach::Machine* machine = nullptr;
    void* p = nullptr;
  };
  std::vector<Allocation> allocations_;
  std::size_t total_bytes_ = 0;
};

/// Per-rank copy-in-copy-out segment (paper §IV-C): the first half stages a
/// rank's outgoing contribution, the second half stages a leader's result.
struct CicoSeg {
  std::byte* contrib = nullptr;
  std::byte* result = nullptr;
  std::size_t half_bytes = 0;
};

}  // namespace xhc::core
