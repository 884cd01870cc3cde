// XHC — XPMEM-based Hierarchical Collectives (the paper's contribution).
//
// Implements MPI_Bcast (paper §IV-A) and MPI_Allreduce (§IV-B) directly over
// shared memory, with:
//   * an n-level topology-aware hierarchy (§III-A) or a flat tree,
//   * single-copy data movement through the smsc/XPMEM endpoint with a
//     registration cache (§III-C),
//   * a copy-in-copy-out path below a size threshold (§III-D, §IV-C),
//   * per-level chunked pipelining (§III-B),
//   * single-writer/multiple-readers control flags (§III-E), with the
//     alternative flag layouts and the atomic-fetch-add variant used by the
//     paper's Fig. 10 and Fig. 4 experiments.
#pragma once

#include <memory>
#include <string>

#include "coll/component.h"
#include "core/comm_tree.h"
#include "core/shard_schedule.h"
#include "fault/fault.h"
#include "smsc/endpoint.h"

namespace xhc::core {

class XhcComponent final : public coll::Component {
 public:
  /// `name` distinguishes configured variants ("xhc", "xhc-flat", ...).
  XhcComponent(mach::Machine& machine, coll::Tuning tuning,
               std::string name = "xhc");
  ~XhcComponent() override;

  std::string_view name() const noexcept override { return name_; }

  void bcast(mach::Ctx& ctx, void* buf, std::size_t bytes, int root) override;
  void allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                 std::size_t count, mach::DType dtype, mach::ROp op) override;

  /// Native MPI_Reduce (paper §VII, "ongoing work"): the allreduce's
  /// reduction rooted at `root`, without its broadcast phase. On the
  /// bandwidth path it runs the allreduce's nested reduce-scatter, then a
  /// gather that brings the shards to the root alone, each rank going only
  /// as deep into the allgather's stages as the root needs its piece; the
  /// root's leaf peers write theirs into its rbuf. A one-chunk payload
  /// folds through the binomial fan-in. Under single-writer sync and the
  /// single-flag layout every rank returns as soon as the readers of its
  /// buffers are done: the root once it holds the result, any other rank
  /// once its fan-in parent has handed off, or once its reduce-scatter
  /// peers and its one gather puller have passed it and its push, if any,
  /// has landed (DESIGN.md § Large-message paths, § Allreduce fan-in).
  /// Elsewhere a flag-only completion release follows the reduction.
  /// `rbuf` must be valid on every rank: ranks that fold a fan-in, leaders
  /// of multi-chunk reductions and reduce-scatter shard owners accumulate
  /// partials in it.
  void reduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
              std::size_t count, mach::DType dtype, mach::ROp op,
              int root) override;

  /// Native MPI_Barrier (paper §VII): hierarchical arrival gather through
  /// the member_seq flags, release through the announce counters — down the
  /// flag tree, or flat from rank 0's top-group slot where the component
  /// has a cache tree. No data movement, no atomics.
  void barrier(mach::Ctx& ctx) override;

  std::optional<smsc::RegCache::Stats> reg_cache_stats() const override;

  /// Attaches the observability sink (gated by Tuning::trace; spans,
  /// counters and histograms all follow it): plumbs it into every rank's
  /// smsc endpoint and publishes the control-plane gauges (control-block
  /// bytes, group count, CICO segment size).
  void set_observer(obs::Observer* observer) noexcept override;

  const coll::Tuning& tuning() const noexcept { return tuning_; }
  CommTree& tree() noexcept { return tree_; }
  /// The reduce-scatter + allgather shard plan, built once over the
  /// machine's domain nest (shard_domains of the sensitivity).
  const ShardPlan& shard_plan() const noexcept { return shard_plan_; }

 private:
  /// Per-rank private state; one line-padded entry per rank.
  struct RankState {
    /// Op sequence number, sharing its word with `led` so the state keeps
    /// its size: modeled time follows heap placement (ROADMAP item 8(a)).
    std::uint64_t op_seq : 56 = 0;
    std::uint64_t led : 8 = 0;  ///< levels led in the previous op, a bit each
    /// Base of the current op's window on this rank's counter timeline
    /// (DESIGN.md § Counter timeline).
    std::uint64_t base = 0;
    std::unique_ptr<smsc::Endpoint> endpoint;
  };

  RankState& state(int rank) {
    return *ranks_[static_cast<std::size_t>(rank)];
  }

  // --- counter timeline (DESIGN.md § Counter timeline) ---------------------
  /// Width of an op's window: every counter value an op publishes lies in
  /// (base, base + window(bytes)], which the shard timeline's 2L slots of
  /// `bytes` bound. Every rank derives it from the same size and plan.
  std::uint64_t window(std::size_t bytes) const;
  /// Declared at each op's entry: moves the rank's base past the op's
  /// window when the op returns, whichever path it took.
  struct WindowGuard {
    RankState& rs;
    std::uint64_t width;
    ~WindowGuard() { rs.base += width; }
  };

  // --- step kinds: the protocol loops' only instrumented sites -------------
  /// RAII region: one span (cat, name, arg) and one `kind` histogram sample
  /// over the same interval; a kChunk region also counts one pipeline chunk
  /// at `level`. One null check when no observer is attached.
  class Timed {
   public:
    Timed(const XhcComponent& c, mach::Ctx& ctx, const char* cat,
          const char* name, obs::HistKind kind, std::uint64_t arg,
          int level = -1) noexcept;
    ~Timed();
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

    /// Replaces the span's arg before it is recorded.
    void set_arg(std::uint64_t arg) noexcept { arg_ = arg; }

   private:
    obs::Observer* o_;
    mach::Ctx* ctx_;
    const char* cat_;
    const char* name_;
    obs::HistKind kind_;
    std::uint64_t arg_;
    int level_;
    double t0_ = 0.0;
  };

  /// Blocks until `flag` reaches `value`: a "wait" span named `site` whose
  /// arg packs (level, peer) — which rank's publication is awaited — and
  /// whether the wait blocked at all, so the critical-path analyzer
  /// (obs/critpath.h) can follow the blocking edge, a kWaitSite sample, and
  /// the spin delta into kFlagWaits/kFlagSpinIters.
  void await(mach::Ctx& ctx, const mach::Flag& flag, std::uint64_t value,
             const char* site, int level, int peer);

  /// One pipeline chunk pulled from `owner`'s buffer (or, in the rooted
  /// gather's leaf stage, pushed into it): a "copy" chunk region around the
  /// mechanism's per-op charge and the copy, then the bytes
  /// booked against the mechanism that carried them — the owner's, after
  /// any fault-driven degradation (XPMEM→CMA→CICO, DESIGN.md § Fault
  /// injection & degradation). Owner -1 is a CICO segment.
  void pull_chunk(mach::Ctx& ctx, std::byte* dst, const std::byte* src,
                  std::size_t n, int level, int owner, const char* name);

  /// One reducer operand folded into `dst`: the per-op charge of reading
  /// `owner`'s buffer (-1: a CICO segment), the reduce, kReduceBytes.
  void fold(mach::Ctx& ctx, std::byte* dst, const std::byte* src,
            std::size_t n_elems, mach::DType dtype, mach::ROp op, int owner);

  // --- fault injection (Tuning::faults; null injector when unconfigured) ---
  /// Straggler opportunity at a (rank, hierarchy-level) boundary: books the
  /// stall and loses the injected time (virtual on Sim, real sleep on Real).
  void maybe_stall(mach::Ctx& ctx, int level) {
    if (fault_ == nullptr) return;
    const double d = fault_->straggler_delay(ctx.rank(), level);
    if (d <= 0.0) return;
    book(ctx, obs::Counter::kFaultStalls, 1);
    XHC_TRACE(trace_sink(), ctx, "fault", "straggler");
    ctx.stall(d);
  }

  /// Consults the injector before a flag publication. Returns false when the
  /// publication must be dropped (the caller skips the store); an injected
  /// delay has already been lost by then. Monotone cumulative counters make
  /// mid-operation drops survivable — a later, larger publication satisfies
  /// the same waiters; a dropped final publication leaves readers blocked
  /// until the watchdog (Real) or deadlock report (Sim) names the flag.
  bool fault_allows_publish(mach::Ctx& ctx) {
    if (fault_ == nullptr) return true;
    const fault::FlagAction a = fault_->on_publish(ctx.rank());
    if (a.delay > 0.0) {
      book(ctx, obs::Counter::kFaultFlagDelays, 1);
      XHC_TRACE(trace_sink(), ctx, "fault", "flag.delay");
      ctx.stall(a.delay);
    }
    if (a.drop) {
      book(ctx, obs::Counter::kFaultFlagDrops, 1);
      XHC_TRACE(trace_sink(), ctx, "fault", "flag.drop");
      return false;
    }
    return true;
  }

  // --- flag helpers (layout / sync variants) -------------------------------
  void announce_publish(mach::Ctx& ctx, const CommView::Membership& m,
                        std::uint64_t value);
  void announce_wait(mach::Ctx& ctx, const CommView::Membership& m,
                     std::uint64_t value);
  void ack_publish(mach::Ctx& ctx, const CommView::Membership& m,
                   std::uint64_t s);
  void wait_acks(mach::Ctx& ctx, const CommView::Membership& m,
                 std::uint64_t s);

  // --- downward release (DESIGN.md § Counter timeline) ---------------------
  // `ms` is a rank's memberships, innermost first: it leads a prefix of
  // them, and is a member in the rest (the last, unless it is the root).
  /// Leader side: publishes `value` on the announce of every group this
  /// rank leads in `ms`, from membership `first` on.
  void release_led(mach::Ctx& ctx, const std::vector<CommView::Membership>& ms,
                   std::size_t first, std::uint64_t value);
  /// Member side: waits until `from`'s leader has announced `value`, then
  /// with `relay` republishes it in every group this rank leads in `ms`.
  void await_release(mach::Ctx& ctx, const CommView::Membership& from,
                     const std::vector<CommView::Membership>& ms,
                     std::uint64_t value, bool relay);
  /// Waits for the members' acks of op `s` in every group this rank leads
  /// in `ms`.
  void collect_acks(mach::Ctx& ctx, const std::vector<CommView::Membership>& ms,
                    std::uint64_t s);
  /// Records in `rs.led` the levels at which this rank leads in `ms` (its
  /// flag-tree memberships for op `s`). Under atomic sync it first waits in
  /// each group it did not lead in its previous op for that op's anonymous
  /// acks, which op-`s` acks could otherwise complete early (DESIGN.md
  /// § Counter timeline).
  void await_prev_acks(mach::Ctx& ctx, RankState& rs,
                       const std::vector<CommView::Membership>& ms,
                       std::uint64_t s);

  // --- broadcast machinery (shared by bcast and the allreduce fan-out) -----
  /// True when `bytes` fit one `elem`-aligned pipeline chunk at every level
  /// of the flag tree, so there is nothing to pipeline: reductions fold
  /// through the binomial fan-in, and every op's downward phase takes the
  /// cache tree where the component has one.
  bool one_chunk(std::size_t bytes, std::size_t elem) const;

  /// Non-root side: waits for `from`'s leader to publish, pulls `bytes` from
  /// it, then acknowledges through `acks` (this rank's memberships,
  /// innermost first): collects the acks of the groups it leads there and
  /// acks in the last. With `relay` the rank republishes each chunk to the
  /// groups it leads — the flag tree's pipeline, where `from` is acks.back();
  /// on the cache tree `from` is the root's top-group slot and nobody reads
  /// a non-root's buffer. With `from_root` (the leader is a bcast root, see
  /// root_release) and the single-flag layout no chunk waits on an announce.
  /// With `chain` (flag tree, relaying) the source is this rank's
  /// predecessor in `from`'s chain order — the leader, then the other
  /// members ascending — and the rank republishes each chunk in its own
  /// slot of `from` too, then acks only once its successor has pulled the
  /// last chunk.
  void pull_bcast(mach::Ctx& ctx, const CommView::Membership& from,
                  const std::vector<CommView::Membership>& acks,
                  void* user_buf, std::size_t bytes, bool cico,
                  std::uint64_t s, bool relay, bool from_root, bool chain);
  /// A bcast root's release in a group `m` it leads, once `src` (its buffer
  /// or CICO copy) holds all `bytes`: under the single-flag layout `seq`
  /// alone, through the fault plane; under the Fig. 10 layouts `seq` and
  /// then the full-range announce.
  void root_release(mach::Ctx& ctx, const CommView::Membership& m,
                    const void* src, std::uint64_t s, std::size_t bytes);
  /// A non-root's acknowledgement through `acks` (its memberships, innermost
  /// first): collect_acks, then an ack in the last.
  void ack_up(mach::Ctx& ctx, const std::vector<CommView::Membership>& acks,
              std::uint64_t s);

  /// Large-message bcast among top-level group members (DESIGN.md § Large-
  /// message paths): the payload is striped across the top group; each
  /// member pulls its own stripe from the root and republishes it, then
  /// assembles the others from their owners, relaying contiguous coverage
  /// to its led groups through the ordinary announce counters. Only ranks
  /// whose outermost membership is the top group call this; every other
  /// rank runs the unchanged pull path.
  void bcast_striped(mach::Ctx& ctx, const CommView& view, void* buf,
                     std::size_t bytes, int root, std::uint64_t s);

  // --- allreduce machinery --------------------------------------------------
  struct ReducePlan;
  /// Shared implementation of allreduce (deliver_all) and reduce.
  void reduce_impl(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                   std::size_t count, mach::DType dtype, mach::ROp op,
                   int root, bool deliver_all);
  /// Single-chunk reduction (DESIGN.md § Allreduce fan-in): a binomial
  /// fan-in per group, innermost level first. Ends by publishing this
  /// rank's reduce_ready at its member level, or, at the internal root, the
  /// announce of every level it leads (of the top group alone when the
  /// cache tree carries the downward phase).
  void fan_in(mach::Ctx& ctx, const CommView& view, const ReducePlan& plan);
  /// A released one-chunk reduce's only wait after its fan-in: until the
  /// binomial parent that folds this rank's partial has handed off.
  void fan_in_handoff_wait(mach::Ctx& ctx, const CommView& view,
                           const ReducePlan& plan);
  /// Multi-chunk reduction at a non-root rank's member level: every
  /// non-leader member reduces its round-robin share of chunks into the
  /// leader's result buffer, pumping its own leader duties as it goes.
  void reduce_chunks(mach::Ctx& ctx, const CommView& view, ReducePlan& plan);
  /// Advances this rank's leader duties (completion scans of led groups) far
  /// enough that its subtree partial covers [0, target_bytes).
  void pump_own(mach::Ctx& ctx, const CommView& view, ReducePlan& plan,
                std::size_t target_bytes);

  /// Large-message allreduce (DESIGN.md § Large-message paths): nested
  /// reduce-scatter along the hierarchy (every rank ends up owning a fully
  /// reduced shard) followed by the mirrored allgather, synchronized
  /// through the per-rank cumulative `prog` flags of the shard plane.
  void allreduce_rs_ag(mach::Ctx& ctx, const CommView& view, const void* sbuf,
                       void* rbuf, std::size_t count, mach::DType dtype,
                       mach::ROp op, bool in_place, std::uint64_t s);
  /// Large-message reduce: the same reduce-scatter, then a gather bound for
  /// `root`. A rank runs the allgather's stages only above the level where
  /// its domain meets the root's (at the leaf, the root's peers push their
  /// range to it), and returns once its readers are done.
  void reduce_rs_gather(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                        std::size_t count, mach::DType dtype, mach::ROp op,
                        int root, bool in_place, std::uint64_t s);
  /// The nested reduce-scatter both call: publishes the rank's buffers on
  /// the shard plane, then leaves its fully reduced final shard in `rbuf`.
  void reduce_scatter(mach::Ctx& ctx, const ShardSchedule& sched,
                      const void* sbuf, void* rbuf, mach::DType dtype,
                      mach::ROp op, bool in_place, std::uint64_t s);
  /// Allgather stage `u`: pulls every stage-u peer's shard of the stage's
  /// parent range into `rbuf`, then marks the stage done on `prog`.
  void allgather_stage(mach::Ctx& ctx, const ShardSchedule& sched,
                       void* rbuf, int u);

  mach::Machine* machine_;
  coll::Tuning tuning_;
  std::string name_;
  CommTree tree_;
  ShardPlan shard_plan_;
  std::unique_ptr<fault::Injector> fault_;
  std::uint64_t shm_retries_ = 0;  ///< CICO pool allocation retries at setup
  std::vector<std::unique_ptr<RankState>> ranks_;
  std::vector<mach::Buffer> cico_bufs_;
  std::vector<CicoSeg> cico_;
};

/// Chunk size aligned down to the element size (at least one element).
inline std::size_t aligned_chunk(std::size_t chunk, std::size_t elem) {
  if (chunk < elem) return elem;
  return chunk - chunk % elem;
}

}  // namespace xhc::core
