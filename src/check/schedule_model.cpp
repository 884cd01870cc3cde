// Schedule extraction: mirrors the six protocol paths of core/ (plain and
// striped bcast, latency reduce/allreduce, reduce-scatter+allgather,
// barrier) over the same comm tree / control blocks / shard plan the
// runtime uses, emitting flag events instead of executing operations. The
// conformance test (tests/test_check.cpp) pins this mirror to the real
// implementation event for event, so a drift in either is a test failure,
// not a silent analyzer blind spot.
#include "check/schedule_model.h"

#include <algorithm>

#include "coll/tuning.h"
#include "core/shard_schedule.h"
#include "core/xhc_component.h"
#include "util/check.h"

namespace xhc::check {

const char* to_string(Op op) noexcept {
  switch (op) {
    case Op::kBcast:
      return "bcast";
    case Op::kAllreduce:
      return "allreduce";
    case Op::kReduce:
      return "reduce";
    case Op::kBarrier:
      return "barrier";
  }
  return "?";
}

std::string ScheduleModel::buf_name(int id) const {
  static const char* kKind[] = {"user", "contrib", "cico_contrib",
                                "cico_result"};
  if (id < 0 || n_ranks <= 0) return "?";
  const int kind = id / n_ranks;
  const int rank = id % n_ranks;
  if (kind < 0 || kind > 3) return "?";
  return std::string(kKind[kind]) + "[" + std::to_string(rank) + "]";
}

namespace {

using core::active_reducers;
using core::aligned_chunk;
using core::CommView;
using core::ElemRange;
using core::GroupCtl;
using core::ShardCtl;
using core::ShardSchedule;

class Extractor {
 public:
  Extractor(core::XhcComponent& comp, Op op, std::size_t bytes, int root)
      : tree_(comp.tree()), tun_(comp.tuning()) {
    m_.op = op;
    m_.bytes = bytes;
    m_.root = (op == Op::kAllreduce || op == Op::kBarrier) ? 0 : root;
    m_.n_ranks = tree_.n_ranks();
    XHC_REQUIRE(m_.n_ranks >= 2, "schedule model needs >= 2 ranks");
    XHC_REQUIRE(m_.root >= 0 && m_.root < m_.n_ranks, "bad root ", m_.root);
    if (op != Op::kBarrier) {
      XHC_REQUIRE(bytes > 0, "schedule model needs a non-empty payload");
    }
    if (op == Op::kAllreduce || op == Op::kReduce) {
      XHC_REQUIRE(bytes % kElem == 0, "reduction payload must be f64-sized");
    }
    m_.per_rank.resize(static_cast<std::size_t>(m_.n_ranks));
  }

  ScheduleModel run() {
    const CommView& view = tree_.view(m_.root);
    cico_ = m_.bytes <= tun_.cico_threshold;
    switch (m_.op) {
      case Op::kBcast: {
        const bool striped =
            !cico_ && tun_.stripe_threshold > 0 &&
            m_.bytes > tun_.stripe_threshold &&
            tun_.sync == coll::SyncMethod::kSingleWriter;
        m_.final_epoch = 1;
        for (int r = 0; r < m_.n_ranks; ++r) model_bcast(view, r, striped);
        break;
      }
      case Op::kAllreduce:
      case Op::kReduce: {
        const bool deliver_all = m_.op == Op::kAllreduce;
        const bool rs_ag = deliver_all && !cico_ &&
                           tun_.rs_ag_threshold > 0 &&
                           m_.bytes > tun_.rs_ag_threshold &&
                           tree_.shard_plan().uniform();
        m_.final_epoch =
            rs_ag ? tree_.shard_plan().n_stages() : view.n_levels();
        for (int r = 0; r < m_.n_ranks; ++r) {
          if (rs_ag) {
            model_rs_ag(view, r);
          } else {
            model_reduce(view, r, deliver_all);
          }
        }
        break;
      }
      case Op::kBarrier:
        m_.final_epoch = 1;
        cico_ = false;
        for (int r = 0; r < m_.n_ranks; ++r) model_barrier(view, r);
        break;
    }
    return std::move(m_);
  }

 private:
  static constexpr std::size_t kElem = 8;  // f64, fixed by the model
  static constexpr std::uint64_t kSeq = 1;  // first op on a fresh component

  // --- emission ------------------------------------------------------------
  std::vector<Event>& stream(int r) {
    return m_.per_rank[static_cast<std::size_t>(r)];
  }
  void publish(int r, mach::Flag& f, std::uint64_t v, const char* site,
               std::vector<DataRange> writes = {}) {
    Event e;
    e.kind = EvKind::kPublish;
    e.flag = &f;
    e.value = v;
    e.site = site;
    e.writes = std::move(writes);
    stream(r).push_back(std::move(e));
  }
  void wait(int r, mach::Flag& f, std::uint64_t v, const char* site,
            std::vector<DataRange> needs = {}) {
    Event e;
    e.kind = EvKind::kWait;
    e.flag = &f;
    e.value = v;
    e.site = site;
    e.needs = std::move(needs);
    stream(r).push_back(std::move(e));
  }
  void rmw(int r, mach::Flag& f, std::uint64_t delta, const char* site) {
    Event e;
    e.kind = EvKind::kRmw;
    e.flag = &f;
    e.value = delta;
    e.site = site;
    stream(r).push_back(std::move(e));
  }

  DataRange range(BufKind kind, int rank, std::uint64_t lo, std::uint64_t hi,
                  int epoch) const {
    return DataRange{m_.buf_id(kind, rank), lo, hi, epoch};
  }
  /// The buffer a rank's announce/seq chain exposes (pull_bcast src/dst and
  /// the latency reduction's accumulation target).
  BufKind result_kind(bool leads_any) const {
    return (cico_ && leads_any) ? BufKind::kCicoResult : BufKind::kUser;
  }
  BufKind contrib_kind() const {
    return cico_ ? BufKind::kCicoContrib : BufKind::kContrib;
  }

  // --- flag helper mirrors (xhc_component.cpp) -----------------------------
  void announce_publish(int r, const CommView::Membership& m, std::uint64_t v,
                        const char* site, std::vector<DataRange> writes = {}) {
    GroupCtl& ctl = tree_.ctl(m.ctl_id);
    const core::GroupShape& shape = tree_.shape(m.ctl_id);
    switch (tun_.flag_layout) {
      case coll::FlagLayout::kSingle:
        publish(r, *ctl.announce[m.leader_slot], v, site,
                std::move(writes));
        return;
      case coll::FlagLayout::kMultiSharedLine:
        for (const int j : m.members) {
          if (j == r) continue;
          publish(r, ctl.announce_shared[shape.slot_of(j)], v, site, writes);
        }
        return;
      case coll::FlagLayout::kMultiSeparateLines:
        for (const int j : m.members) {
          if (j == r) continue;
          publish(r, *ctl.announce_sep[shape.slot_of(j)], v, site, writes);
        }
        return;
    }
  }
  void announce_wait(int r, const CommView::Membership& m, std::uint64_t v,
                     const char* site, std::vector<DataRange> needs = {}) {
    GroupCtl& ctl = tree_.ctl(m.ctl_id);
    switch (tun_.flag_layout) {
      case coll::FlagLayout::kSingle:
        wait(r, *ctl.announce[m.leader_slot], v, site, std::move(needs));
        return;
      case coll::FlagLayout::kMultiSharedLine:
        wait(r, ctl.announce_shared[m.my_slot], v, site, std::move(needs));
        return;
      case coll::FlagLayout::kMultiSeparateLines:
        wait(r, *ctl.announce_sep[m.my_slot], v, site, std::move(needs));
        return;
    }
  }
  void ack_publish(int r, const CommView::Membership& m) {
    GroupCtl& ctl = tree_.ctl(m.ctl_id);
    if (tun_.sync == coll::SyncMethod::kSingleWriter) {
      publish(r, *ctl.ack[m.my_slot], kSeq, "ack");
    } else {
      rmw(r, *ctl.atomic_ctr[0], 1, "ack.fetch_add");
    }
  }
  void wait_acks(int r, const CommView::Membership& m) {
    GroupCtl& ctl = tree_.ctl(m.ctl_id);
    const core::GroupShape& shape = tree_.shape(m.ctl_id);
    if (tun_.sync == coll::SyncMethod::kSingleWriter) {
      for (const int j : m.members) {
        if (j == r) continue;
        wait(r, *ctl.ack[shape.slot_of(j)], kSeq, "wait_acks");
      }
    } else {
      const auto expected =
          static_cast<std::uint64_t>(m.members.size() - 1) * kSeq;
      wait(r, *ctl.atomic_ctr[0], expected, "wait_acks.atomic");
    }
  }

  // --- bcast (core/bcast.cpp) ----------------------------------------------
  void model_pull_bcast(const CommView& view, int r, int epoch) {
    const auto& ms = view.memberships(r);
    const CommView::Membership& top = ms.back();
    GroupCtl& top_ctl = tree_.ctl(top.ctl_id);
    const bool leads_any = ms.size() > 1;
    const BufKind src = result_kind(true);  // leader always leads something
    const BufKind dst = result_kind(leads_any);

    wait(r, *top_ctl.seq[top.leader_slot], kSeq, "pull.seq_wait");
    const std::size_t chunk =
        std::max<std::size_t>(tun_.chunk_for_level(top.level), 1);
    for (std::size_t lo = 0; lo < m_.bytes;) {
      const std::size_t hi = std::min(m_.bytes, lo + chunk);
      announce_wait(r, top, hi, "pull.announce_wait",
                    {range(src, top.leader, lo, hi, epoch)});
      for (std::size_t i = 0; i + 1 < ms.size(); ++i) {
        announce_publish(r, ms[i], hi, "pull.relay",
                         {range(dst, r, 0, hi, epoch)});
      }
      lo = hi;
    }
    for (std::size_t i = 0; i + 1 < ms.size(); ++i) wait_acks(r, ms[i]);
    ack_publish(r, top);
  }

  void model_bcast(const CommView& view, int r, bool striped_op) {
    const auto& ms = view.memberships(r);
    const CommView::Membership& outer = ms.back();
    if (striped_op && outer.level == tree_.n_levels() - 1 &&
        outer.members.size() >= 2) {
      model_bcast_striped(view, r);
      return;
    }
    if (r == m_.root) {
      const BufKind src = result_kind(/*leads_any=*/true);
      for (const auto& m : ms) {
        GroupCtl& ctl = tree_.ctl(m.ctl_id);
        publish(r, *ctl.seq[m.my_slot], kSeq, "bcast.seq");
        announce_publish(r, m, m_.bytes, "bcast.announce",
                         {range(src, r, 0, m_.bytes, 1)});
      }
      for (const auto& m : ms) wait_acks(r, m);
    } else {
      for (std::size_t i = 0; i + 1 < ms.size(); ++i) {
        GroupCtl& ctl = tree_.ctl(ms[i].ctl_id);
        publish(r, *ctl.seq[ms[i].my_slot], kSeq, "bcast.seq");
      }
      model_pull_bcast(view, r, /*epoch=*/1);
    }
  }

  void model_bcast_striped(const CommView& view, int r) {
    const auto& ms = view.memberships(r);
    const CommView::Membership& top = ms.back();
    ShardCtl& sc = tree_.shard_ctl();
    const std::size_t width = top.members.size();
    const std::size_t chunk =
        std::max<std::size_t>(tun_.large_chunk_for_level(top.level), 1);
    const auto stripe_of = [&](std::size_t w) {
      return core::partition(ElemRange{0, m_.bytes}, width, w);
    };

    if (r == m_.root) {
      for (const auto& m : ms) {
        GroupCtl& ctl = tree_.ctl(m.ctl_id);
        publish(r, *ctl.seq[m.my_slot], kSeq, "stripe.seq");
        if (m.ctl_id != top.ctl_id) {
          announce_publish(r, m, m_.bytes, "stripe.root_announce",
                           {range(BufKind::kUser, r, 0, m_.bytes, 1)});
        }
      }
      publish(r, *sc.shard_seq[r], kSeq, "stripe.join",
              {range(BufKind::kUser, r, 0, m_.bytes, 1)});
      publish(r, *sc.stripe_ready[r], m_.bytes, "stripe.root_ready",
              {range(BufKind::kUser, r, 0, m_.bytes, 1)});
      ack_publish(r, top);
      for (const auto& m : ms) {
        if (m.ctl_id != top.ctl_id) wait_acks(r, m);
      }
      wait_acks(r, top);
      return;
    }

    for (std::size_t i = 0; i + 1 < ms.size(); ++i) {
      GroupCtl& ctl = tree_.ctl(ms[i].ctl_id);
      publish(r, *ctl.seq[ms[i].my_slot], kSeq, "stripe.seq");
    }
    publish(r, *sc.shard_seq[r], kSeq, "stripe.join");

    std::size_t my_pos = width;
    for (std::size_t w = 0; w < width; ++w) {
      if (top.members[w] == r) my_pos = w;
    }
    XHC_CHECK(my_pos < width, "rank missing from top group");
    const ElemRange own = stripe_of(my_pos);
    wait(r, *sc.shard_seq[m_.root], kSeq, "stripe.root_join_wait",
         {range(BufKind::kUser, m_.root, own.lo, own.hi, 1)});

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
      for (std::size_t i = 0; i + 1 < ms.size(); ++i) {
        announce_publish(r, ms[i], prefix, "stripe.relay",
                         {range(BufKind::kUser, r, 0, prefix, 1)});
      }
    };

    for (std::size_t lo = own.lo; lo < own.hi;) {
      const std::size_t hi = std::min(own.hi, lo + chunk);
      publish(r, *sc.stripe_ready[r], hi - own.lo, "stripe.ready",
              {range(BufKind::kUser, r, own.lo, hi, 1)});
      done[my_pos] = hi - own.lo;
      relay();
      lo = hi;
    }

    for (std::size_t w = 0; w < width; ++w) {
      if (w == my_pos) continue;
      const int owner = top.members[w];
      const ElemRange sw = stripe_of(w);
      if (sw.size() == 0) continue;
      if (owner != m_.root) {
        wait(r, *sc.shard_seq[owner], kSeq, "stripe.owner_join_wait");
      }
      for (std::size_t lo = sw.lo; lo < sw.hi;) {
        const std::size_t hi = std::min(sw.hi, lo + chunk);
        wait(r, *sc.stripe_ready[owner], hi - sw.lo, "stripe.ready_wait",
             {range(BufKind::kUser, owner, lo, hi, 1)});
        done[w] = hi - sw.lo;
        relay();
        lo = hi;
      }
    }
    publish(r, *sc.stripe_ready[r], m_.bytes, "stripe.snap",
            {range(BufKind::kUser, r, 0, m_.bytes, 1)});

    for (std::size_t i = 0; i + 1 < ms.size(); ++i) wait_acks(r, ms[i]);
    ack_publish(r, top);
    wait_acks(r, top);
  }

  // --- latency reduce / allreduce (core/allreduce.cpp) ---------------------
  struct PumpState {
    std::vector<std::size_t> scanned;
  };

  void model_pump_own(const CommView& view, int r, PumpState& ps,
                      std::size_t target_bytes) {
    const auto& ms = view.memberships(r);
    const std::size_t target = std::min(target_bytes, m_.bytes);
    const BufKind res = result_kind(/*leads_any=*/true);

    for (std::size_t i = 0; i < ms.size(); ++i) {
      const CommView::Membership& m = ms[i];
      if (!m.is_leader) break;
      std::size_t& pos = ps.scanned[i];
      if (pos >= target) continue;

      GroupCtl& ctl = tree_.ctl(m.ctl_id);
      const core::GroupShape& shape = tree_.shape(m.ctl_id);
      const std::size_t chunk =
          aligned_chunk(tun_.chunk_for_level(m.level), kElem);
      std::vector<int> reducers;
      for (const int j : m.members) {
        if (j != r) reducers.push_back(j);
      }
      const std::size_t n_red = active_reducers(m_.bytes, reducers.size(),
                                                tun_.min_reduce_bytes);
      while (pos < target) {
        const std::size_t lo = pos;
        const std::size_t hi = std::min(m_.bytes, lo + chunk);
        const std::size_t ci = lo / chunk;
        if (!reducers.empty()) {
          const int red = reducers[ci % n_red];
          wait(r, *ctl.reduce_done[shape.slot_of(red)], hi,
               "pump.reduce_done_wait",
               {range(res, r, lo, hi, m.level + 1)});
        }
        pos = hi;
        if (i + 1 < ms.size()) {
          const CommView::Membership& pm = ms[i + 1];
          GroupCtl& pctl = tree_.ctl(pm.ctl_id);
          publish(r, *pctl.reduce_ready[pm.my_slot], pos, "pump.republish",
                  {range(res, r, 0, pos, static_cast<int>(i) + 1)});
        } else {
          for (const auto& m2 : ms) {
            announce_publish(r, m2, pos, "pump.announce",
                             {range(res, r, 0, pos, m_.final_epoch)});
          }
        }
      }
    }
  }

  void model_reduce(const CommView& view, int r, bool deliver_all) {
    const auto& ms = view.memberships(r);
    PumpState ps;
    ps.scanned.assign(ms.size(), 0);
    const BufKind cn = contrib_kind();

    // Step 1: addresses + leaf availability.
    for (const auto& m : ms) {
      GroupCtl& ctl = tree_.ctl(m.ctl_id);
      std::vector<DataRange> avail;
      if (m.level == 0) avail.push_back(range(cn, r, 0, m_.bytes, 0));
      publish(r, *ctl.member_seq[m.my_slot], kSeq, "reduce.member_seq",
              std::move(avail));
      if (m.level == 0) {
        publish(r, *ctl.reduce_ready[m.my_slot], m_.bytes, "reduce.leaf_ready",
                {range(cn, r, 0, m_.bytes, 0)});
      }
      if (m.is_leader) {
        publish(r, *ctl.seq[m.my_slot], kSeq, "reduce.seq");
      }
    }

    const CommView::Membership& top = ms.back();
    if (top.is_leader) {
      model_pump_own(view, r, ps, m_.bytes);
      for (const auto& m : ms) wait_acks(r, m);
      return;
    }

    GroupCtl& ctl = tree_.ctl(top.ctl_id);
    const core::GroupShape& shape = tree_.shape(top.ctl_id);
    std::vector<int> reducers;
    for (const int j : top.members) {
      if (j != top.leader) reducers.push_back(j);
    }
    const std::size_t n_red =
        active_reducers(m_.bytes, reducers.size(), tun_.min_reduce_bytes);
    std::size_t my_idx = reducers.size();
    for (std::size_t i = 0; i < reducers.size(); ++i) {
      if (reducers[i] == r) my_idx = i;
    }
    XHC_CHECK(my_idx < reducers.size(), "rank missing from reducer list");
    const bool active = my_idx < n_red;
    const BufKind lres = result_kind(/*leads_any=*/true);  // leader's target

    wait(r, *ctl.seq[top.leader_slot], kSeq, "reduce.seq_wait");
    if (active) {
      for (std::size_t i = 0; i < reducers.size(); ++i) {
        const int j = reducers[i];
        std::vector<DataRange> needs;
        if (top.level == 0) needs.push_back(range(cn, j, 0, m_.bytes, 0));
        wait(r, *ctl.member_seq[shape.slot_of(j)], kSeq,
             "reduce.member_seq_wait", std::move(needs));
      }
      if (top.level == 0) {
        wait(r, *ctl.member_seq[top.leader_slot], kSeq,
             "reduce.member_seq_wait",
             {range(cn, top.leader, 0, m_.bytes, 0)});
      }
    }

    const std::size_t chunk =
        aligned_chunk(tun_.chunk_for_level(top.level), kElem);
    for (std::size_t lo = 0; lo < m_.bytes;) {
      const std::size_t hi = std::min(m_.bytes, lo + chunk);
      const std::size_t ci = lo / chunk;
      model_pump_own(view, r, ps, hi);
      if (active && ci % n_red == my_idx) {
        if (top.level > 0) {
          wait(r, *ctl.reduce_ready[top.leader_slot], hi,
               "reduce.ready_wait",
               {range(lres, top.leader, lo, hi, top.level)});
        }
        for (std::size_t i = 0; i < reducers.size(); ++i) {
          if (top.level > 0 && reducers[i] != r) {
            wait(r, *ctl.reduce_ready[shape.slot_of(reducers[i])], hi,
                 "reduce.ready_wait",
                 {range(result_kind(true), reducers[i], lo, hi, top.level)});
          }
        }
        publish(r, *ctl.reduce_done[top.my_slot], hi, "reduce.done",
                {range(lres, top.leader, lo, hi, top.level + 1)});
      }
      lo = hi;
    }

    if (deliver_all) {
      model_pull_bcast(view, r, m_.final_epoch);
    } else {
      announce_wait(r, top, m_.bytes, "reduce.release_wait");
      for (std::size_t i = 0; i + 1 < ms.size(); ++i) {
        announce_publish(r, ms[i], m_.bytes, "reduce.release");
      }
      for (std::size_t i = 0; i + 1 < ms.size(); ++i) wait_acks(r, ms[i]);
      ack_publish(r, top);
    }
  }

  // --- reduce-scatter + allgather (core/allreduce.cpp) ---------------------
  void model_rs_ag(const CommView& view, int r) {
    ShardCtl& sc = tree_.shard_ctl();
    const ShardSchedule sched =
        tree_.shard_plan().schedule(r, m_.bytes / kElem, kElem);
    const int n_stages = sched.n_stages();
    const int fin = m_.final_epoch;

    publish(r, *sc.shard_seq[r], kSeq, "rs.join",
            {range(BufKind::kContrib, r, 0, m_.bytes, 0)});

    for (int k = 0; k < n_stages; ++k) {
      const core::ShardStage& st = sched.stages[k];
      for (const int j : st.peers) {
        if (j == r) continue;
        std::vector<DataRange> needs;
        if (k == 0) {
          needs.push_back(range(BufKind::kContrib, j, 0, m_.bytes, 0));
        }
        wait(r, *sc.shard_seq[j], kSeq, "rs.peer_join_wait",
             std::move(needs));
      }
      const std::size_t chunk_elems =
          std::max<std::size_t>(tun_.large_chunk_for_level(k) / kElem, 1);
      for (std::size_t lo = st.range.lo; lo < st.range.hi;) {
        const std::size_t hi = std::min(st.range.hi, lo + chunk_elems);
        if (k > 0) {
          for (const int j : st.peers) {
            if (j == r) continue;
            wait(r, *sc.prog[j],
                 sched.rs_slot(k - 1) + (hi - st.parent.lo) * kElem,
                 "rs.src_wait",
                 {range(BufKind::kUser, j, lo * kElem, hi * kElem, k)});
          }
        }
        publish(r, *sc.prog[r],
                sched.rs_slot(k) + (hi - st.range.lo) * kElem, "rs.prog",
                {range(BufKind::kUser, r, st.range.lo * kElem, hi * kElem,
                       k + 1)});
        lo = hi;
      }
      publish(r, *sc.prog[r], sched.rs_slot(k + 1), "rs.snap",
              {range(BufKind::kUser, r, st.range.lo * kElem,
                     st.range.hi * kElem, k + 1)});
    }

    for (int u = n_stages - 1; u >= 0; --u) {
      const core::ShardStage& st = sched.stages[u];
      for (std::size_t i = 0; i < st.peers.size(); ++i) {
        const int j = st.peers[i];
        if (j == r) continue;
        const ElemRange pr = core::partition(st.parent, st.peers.size(), i);
        if (pr.size() == 0) continue;
        const std::size_t chunk_elems =
            std::max<std::size_t>(tun_.large_chunk_for_level(u) / kElem, 1);
        if (u < n_stages - 1) {
          wait(r, *sc.prog[j], sched.ag_slot(u), "ag.piece_wait",
               {range(BufKind::kUser, j, pr.lo * kElem, pr.hi * kElem, fin)});
        }
        for (std::size_t lo = pr.lo; lo < pr.hi;) {
          const std::size_t hi = std::min(pr.hi, lo + chunk_elems);
          if (u == n_stages - 1) {
            wait(r, *sc.prog[j],
                 sched.rs_slot(u) + (hi - pr.lo) * kElem, "ag.piece_wait",
                 {range(BufKind::kUser, j, lo * kElem, hi * kElem, fin)});
          }
          lo = hi;
        }
      }
      publish(r, *sc.prog[r], sched.ag_slot(u) + m_.bytes, "ag.prog",
              {range(BufKind::kUser, r, st.parent.lo * kElem,
                     st.parent.hi * kElem, fin)});
    }

    const auto& ms = view.memberships(r);
    const CommView::Membership& top = ms.back();
    if (top.is_leader) {
      for (const auto& m : ms) wait_acks(r, m);
      for (const auto& m : ms) {
        announce_publish(r, m, m_.bytes, "rs_ag.release",
                         {range(BufKind::kUser, r, 0, m_.bytes, fin)});
      }
    } else {
      for (std::size_t i = 0; i + 1 < ms.size(); ++i) wait_acks(r, ms[i]);
      ack_publish(r, top);
      announce_wait(r, top, m_.bytes, "rs_ag.release_wait");
      for (std::size_t i = 0; i + 1 < ms.size(); ++i) {
        announce_publish(r, ms[i], m_.bytes, "rs_ag.release",
                         {range(BufKind::kUser, r, 0, m_.bytes, fin)});
      }
    }
  }

  // --- barrier (core/xhc_component.cpp) ------------------------------------
  void model_barrier(const CommView& view, int r) {
    const auto& ms = view.memberships(r);
    for (const auto& m : ms) {
      GroupCtl& ctl = tree_.ctl(m.ctl_id);
      const core::GroupShape& shape = tree_.shape(m.ctl_id);
      if (m.is_leader) {
        for (const int j : m.members) {
          if (j == r) continue;
          wait(r, *ctl.member_seq[shape.slot_of(j)], kSeq,
               "barrier.arrive_wait");
        }
      } else {
        publish(r, *ctl.member_seq[m.my_slot], kSeq, "barrier.arrive");
      }
    }
    const CommView::Membership& top = ms.back();
    if (top.is_leader) {
      for (const auto& m : ms) {
        announce_publish(r, m, 1, "barrier.release");
      }
    } else {
      announce_wait(r, top, 1, "barrier.release_wait");
      for (std::size_t i = 0; i + 1 < ms.size(); ++i) {
        announce_publish(r, ms[i], 1, "barrier.release");
      }
    }
  }

  core::CommTree& tree_;
  const coll::Tuning& tun_;
  bool cico_ = false;
  ScheduleModel m_;
};

}  // namespace

ScheduleModel extract_schedule(core::XhcComponent& comp, Op op,
                               std::size_t bytes, int root) {
  return Extractor(comp, op, bytes, root).run();
}

}  // namespace xhc::check
