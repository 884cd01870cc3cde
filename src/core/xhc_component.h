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

#include <algorithm>
#include <memory>
#include <string>

#include "coll/component.h"
#include "core/comm_tree.h"
#include "fault/fault.h"
#include "obs/critpath.h"
#include "obs/hist.h"
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
  /// hierarchical reduction rooted at `root`, with the broadcast phase
  /// replaced by a flag-only completion release. `rbuf` must be valid on
  /// every rank (leaders accumulate subtree partials in it on the
  /// single-copy path).
  void reduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
              std::size_t count, mach::DType dtype, mach::ROp op,
              int root) override;

  /// Native MPI_Barrier (paper §VII): hierarchical arrival gather through
  /// the member_seq flags, release through the announce counters — no data
  /// movement, no atomics.
  void barrier(mach::Ctx& ctx) override;

  std::optional<smsc::RegCache::Stats> reg_cache_stats() const override;

  /// Attaches the observability sink (gated by Tuning::trace): plumbs it
  /// into every rank's smsc endpoint and publishes the control-plane gauges
  /// (control-block bytes, group count, CICO segment size).
  void set_observer(obs::Observer* observer) noexcept override;

  const coll::Tuning& tuning() const noexcept { return tuning_; }
  CommTree& tree() noexcept { return tree_; }

 private:
  /// Per-rank private state; one line-padded entry per rank.
  struct RankState {
    std::uint64_t op_seq = 0;
    std::vector<std::uint64_t> bcast_base;   ///< per group: cumulative bytes
                                             ///< published via announce
    std::vector<std::uint64_t> reduce_base;  ///< per group: cumulative bytes
                                             ///< through the reduce counters
    /// Base of the shard `prog` timeline; advances by 2 * levels * bytes
    /// per reduce-scatter+allgather op (mirrors agree because every rank
    /// takes the dispatch decision from the same size and tuning).
    std::uint64_t shard_base = 0;
    /// Base of the `stripe_ready` counters; advances by `bytes` on *every*
    /// bcast so the mirrors agree even though top-group membership (and so
    /// the set of striping ranks) changes with the root.
    std::uint64_t stripe_base = 0;
    std::unique_ptr<smsc::Endpoint> endpoint;
  };

  RankState& state(int rank) {
    return *ranks_[static_cast<std::size_t>(rank)];
  }

  // --- observability helpers -----------------------------------------------
  /// RAII around a blocking wait site: opens a "wait" span and differences
  /// the machine's spin counter into kFlagWaits / kFlagSpinIters. The span
  /// arg packs (level, peer) — which rank's publication is awaited — so the
  /// critical-path analyzer (obs/critpath.h) can follow the blocking edge;
  /// when histograms are on, the wait duration is also recorded into the
  /// kWaitSite histogram. Costs two branches when no observer is attached.
  class WaitObs {
   public:
    WaitObs(const XhcComponent& c, mach::Ctx& ctx, const char* name,
            int level = -1, int peer = -1) noexcept
        : o_(c.observer()),
          h_(c.hist_),
          ctx_(&ctx),
          guard_(o_ != nullptr ? &o_->trace() : nullptr, ctx, "wait", name,
                 obs::wait_arg(level, peer)),
          spins0_(o_ != nullptr ? ctx.wait_spins() : 0),
          t0_(h_ != nullptr ? ctx.now() : 0.0) {}
    ~WaitObs() {
      if (o_ != nullptr) {
        o_->metrics().add(ctx_->rank(), obs::Counter::kFlagWaits, 1);
        o_->metrics().add(ctx_->rank(), obs::Counter::kFlagSpinIters,
                          ctx_->wait_spins() - spins0_);
      }
      if (h_ != nullptr) {
        h_->record(ctx_->rank(), obs::HistKind::kWaitSite,
                   ctx_->now() - t0_);
      }
    }
    WaitObs(const WaitObs&) = delete;
    WaitObs& operator=(const WaitObs&) = delete;

   private:
    obs::Observer* o_;
    obs::HistSet* h_;
    mach::Ctx* ctx_;
    obs::SpanGuard guard_;
    std::uint64_t spins0_;
    double t0_;
  };

  /// RAII latency sample: records scope duration into one histogram kind of
  /// the attached HistSet. A null set reduces the guard to one branch.
  class HistTimer {
   public:
    HistTimer(obs::HistSet* h, mach::Ctx& ctx, obs::HistKind k) noexcept
        : h_(h), ctx_(&ctx), k_(k), t0_(h != nullptr ? ctx.now() : 0.0) {}
    ~HistTimer() {
      if (h_ != nullptr) h_->record(ctx_->rank(), k_, ctx_->now() - t0_);
    }
    HistTimer(const HistTimer&) = delete;
    HistTimer& operator=(const HistTimer&) = delete;

   private:
    obs::HistSet* h_;
    mach::Ctx* ctx_;
    obs::HistKind k_;
    double t0_;
  };

  /// Histogram sink; null unless an Observer is attached AND Tuning::hist
  /// is set (see set_observer).
  obs::HistSet* hist_sink() const noexcept { return hist_; }

  /// Books one pipeline chunk against the per-level chunk counters.
  void count_chunk(mach::Ctx& ctx, int level) const noexcept {
    switch (level) {
      case 0:
        book(ctx, obs::Counter::kChunksLevel0, 1);
        break;
      case 1:
        book(ctx, obs::Counter::kChunksLevel1, 1);
        break;
      case 2:
        book(ctx, obs::Counter::kChunksLevel2, 1);
        break;
      default:
        book(ctx, obs::Counter::kChunksDeeper, 1);
    }
  }

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

  /// Counter a single-copy pull from `owner` belongs to, honoring any
  /// fault-driven mechanism degradation (XPMEM→CMA→CICO).
  obs::Counter pull_counter(const RankState& rs, int owner) const noexcept;

  // --- broadcast machinery (shared by bcast and the allreduce fan-out) -----
  /// Non-root side: pulls `bytes` from the member-level leader into the
  /// rank's destination, republishing to led groups chunk by chunk.
  void pull_bcast(mach::Ctx& ctx, const CommView& view, void* user_buf,
                  std::size_t bytes, bool cico, std::uint64_t s);

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
  /// Advances this rank's leader duties (completion scans of led groups) far
  /// enough that its subtree partial covers [0, target_bytes).
  void pump_own(mach::Ctx& ctx, const CommView& view, ReducePlan& plan,
                std::size_t target_bytes);
  /// Shared implementation of allreduce (deliver_all) and reduce.
  void reduce_impl(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                   std::size_t count, mach::DType dtype, mach::ROp op,
                   int root, bool deliver_all);

  /// Large-message allreduce (DESIGN.md § Large-message paths): nested
  /// reduce-scatter along the hierarchy (every rank ends up owning a fully
  /// reduced shard) followed by the mirrored allgather, synchronized
  /// through the per-rank cumulative `prog` flags of the shard plane.
  void allreduce_rs_ag(mach::Ctx& ctx, const CommView& view, const void* sbuf,
                       void* rbuf, std::size_t count, mach::DType dtype,
                       mach::ROp op, bool in_place, std::uint64_t s);

  mach::Machine* machine_;
  coll::Tuning tuning_;
  std::string name_;
  CommTree tree_;
  obs::HistSet* hist_ = nullptr;  ///< see hist_sink()
  std::unique_ptr<fault::Injector> fault_;
  std::uint64_t shm_retries_ = 0;  ///< CICO pool allocation retries at setup
  std::vector<std::unique_ptr<RankState>> ranks_;
  std::vector<mach::Buffer> cico_bufs_;
  std::vector<CicoSeg> cico_;
};

// The allreduce's reducer split.

/// Number of members that actually reduce, honoring the per-member minimum
/// workload (paper §IV-B step 2a: with little data only one member reduces).
inline std::size_t active_reducers(std::size_t bytes, std::size_t n_nonleader,
                                   std::size_t min_bytes) {
  if (n_nonleader == 0) return 0;
  if (min_bytes == 0) return n_nonleader;
  const std::size_t by_min = (bytes + min_bytes - 1) / min_bytes;
  return std::clamp<std::size_t>(by_min, 1, n_nonleader);
}

/// Chunk size aligned down to the element size (at least one element).
inline std::size_t aligned_chunk(std::size_t chunk, std::size_t elem) {
  if (chunk < elem) return elem;
  return chunk - chunk % elem;
}

}  // namespace xhc::core
