// White-box tests of the nested shard schedule behind the large-message
// allreduce (core/shard_schedule.h): partition arithmetic, peer symmetry,
// uniformity detection across the topology presets, the stage shapes of
// each component's domain nest, and the progress-flag slot timeline.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "coll/registry.h"
#include "core/comm_tree.h"
#include "core/shard_schedule.h"
#include "core/xhc_component.h"
#include "mach/real_machine.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"

namespace xhc::core {
namespace {

TEST(Partition, CoversParentDisjointly) {
  for (const std::size_t total : {1u, 7u, 64u, 1000u, 4097u}) {
    for (const std::size_t n : {1u, 2u, 3u, 4u, 8u}) {
      const ElemRange parent{0, total};
      std::size_t covered = 0;
      std::size_t prev_hi = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const ElemRange p = partition(parent, n, i);
        EXPECT_EQ(p.lo, prev_hi) << total << "/" << n << "#" << i;
        EXPECT_LE(p.lo, p.hi);
        prev_hi = p.hi;
        covered += p.size();
      }
      EXPECT_EQ(prev_hi, total);
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(Partition, RemainderGoesToLowPieces) {
  // 10 over 4: 3,3,2,2 — low pieces absorb the remainder, sizes are
  // monotone non-increasing and differ by at most one.
  const ElemRange parent{0, 10};
  EXPECT_EQ(partition(parent, 4, 0).size(), 3u);
  EXPECT_EQ(partition(parent, 4, 1).size(), 3u);
  EXPECT_EQ(partition(parent, 4, 2).size(), 2u);
  EXPECT_EQ(partition(parent, 4, 3).size(), 2u);
}

TEST(Partition, NestedSubrange) {
  const ElemRange outer = partition({0, 100}, 2, 1);  // [50, 100)
  const ElemRange inner = partition(outer, 4, 0);
  EXPECT_EQ(inner.lo, 50u);
  EXPECT_GE(inner.hi, inner.lo);
  EXPECT_LE(inner.hi, outer.hi);
}

/// Every stage partitions what the previous one produced, and every peer of
/// a stage lists the same peer set with itself at its own index — the
/// property that lets any rank compute exact wait thresholds for any other.
void expect_symmetric_and_self_resolving(const ShardPlan& plan, int ranks,
                                         const std::string& name) {
  ASSERT_TRUE(plan.uniform()) << name;
  constexpr std::size_t kCount = 4096;
  for (int r = 0; r < ranks; ++r) {
    const ShardSchedule sched = plan.schedule(r, kCount, 4);
    ASSERT_EQ(sched.n_stages(), plan.n_stages());
    ElemRange prev{0, kCount};
    for (int k = 0; k < sched.n_stages(); ++k) {
      const ShardStage& st = sched.stages[static_cast<std::size_t>(k)];
      EXPECT_EQ(st.parent.lo, prev.lo) << name << " rank " << r << " stage "
                                       << k;
      EXPECT_EQ(st.parent.hi, prev.hi);
      ASSERT_GE(st.peers.size(), 1u);
      ASSERT_LT(static_cast<std::size_t>(st.my_idx), st.peers.size());
      EXPECT_EQ(st.peers[static_cast<std::size_t>(st.my_idx)], r);
      const ElemRange want =
          partition(st.parent, st.peers.size(),
                    static_cast<std::size_t>(st.my_idx));
      EXPECT_EQ(st.range.lo, want.lo);
      EXPECT_EQ(st.range.hi, want.hi);
      for (std::size_t i = 0; i < st.peers.size(); ++i) {
        const ShardSchedule ps = plan.schedule(st.peers[i], kCount, 4);
        const ShardStage& pst = ps.stages[static_cast<std::size_t>(k)];
        EXPECT_EQ(pst.peers, st.peers) << name << " rank " << r << " stage "
                                       << k;
        EXPECT_EQ(pst.my_idx, static_cast<int>(i));
        EXPECT_EQ(pst.parent.lo, st.parent.lo);
        EXPECT_EQ(pst.parent.hi, st.parent.hi);
      }
      prev = st.range;
    }
  }
}

/// The flag tree's nest (the default sensitivity) and the shard nest xhc
/// builds over it (shard_domains with the LLC level).
std::vector<topo::Domain> flag_nest() {
  return topo::parse_sensitivity(coll::Tuning{}.sensitivity);
}
std::vector<topo::Domain> llc_nest() { return shard_domains(flag_nest(), true); }

/// Stage shapes of `plan` as "groups x domain ranks", innermost first: a
/// stage-k domain holds the product of the peer counts of stages 0..k.
std::vector<std::string> stage_shapes(const ShardPlan& plan, int n_ranks) {
  const ShardSchedule sched = plan.schedule(0, 64, 4);
  std::vector<std::string> shapes;
  std::size_t width = 1;
  for (const ShardStage& st : sched.stages) {
    width *= st.peers.size();
    shapes.push_back(std::to_string(static_cast<std::size_t>(n_ranks) / width) +
                     "x" + std::to_string(width));
  }
  return shapes;
}

TEST(ShardPlan, UniformOnAllPresets) {
  // Every preset grid is isomorphic level by level, so the nested schedule
  // must engage on all of them, over the flag tree's nest and the LLC nest.
  for (const char* name : {"mini8", "mini16", "epyc1p", "epyc2p", "armn1"}) {
    topo::Topology topo = topo::by_name(name);
    const int ranks = topo.n_cores();
    mach::RealMachine m(std::move(topo), ranks);
    const ShardPlan plan(m, flag_nest());
    EXPECT_TRUE(plan.uniform()) << name;
    EXPECT_EQ(plan.n_stages(), CommTree(m, flag_nest()).n_levels()) << name;
    EXPECT_TRUE(ShardPlan(m, llc_nest()).uniform()) << name;
  }
}

TEST(ShardPlan, XhcStagesFollowTheCacheHierarchy) {
  // The LLC stage is innermost on the Epycs and mini16; armn1 has no shared
  // LLC and mini8's LLC group is its NUMA node, so their plans keep the
  // flag tree's shape.
  const std::vector<std::pair<const char*, std::vector<std::string>>> want = {
      {"epyc1p", {"8x4", "4x8", "1x32"}},
      {"epyc2p", {"16x4", "8x8", "2x32", "1x64"}},
      {"mini16", {"8x2", "4x4", "2x8", "1x16"}},
      {"armn1", {"8x20", "2x80", "1x160"}},
      {"mini8", {"4x2", "2x4", "1x8"}},
  };
  for (const auto& [name, shapes] : want) {
    topo::Topology topo = topo::by_name(name);
    const int ranks = topo.n_cores();
    sim::SimMachine m(std::move(topo), ranks);
    XhcComponent xhc(m, coll::Tuning{});
    EXPECT_EQ(stage_shapes(xhc.shard_plan(), ranks), shapes) << name;
  }
}

TEST(ShardPlan, XhcFlatKeepsOneStage) {
  // xhc-flat's flat sensitivity gains no LLC level: one stage over every
  // rank. (ucc's plan is LargeMsgDispatch.UccIgnoresLlcShards'.)
  sim::SimMachine m(topo::epyc2p(), 64);
  const auto flat = coll::make_component("xhc-flat", m);
  EXPECT_EQ(stage_shapes(
                static_cast<const XhcComponent&>(*flat).shard_plan(), 64),
            (std::vector<std::string>{"1x64"}));
}

TEST(ShardPlan, PeersAreSymmetricAndSelfResolving) {
  for (const char* name : {"epyc2p", "epyc1p", "mini16"}) {
    for (const auto& nest : {flag_nest(), llc_nest()}) {
      topo::Topology topo = topo::by_name(name);
      const int ranks = topo.n_cores();
      mach::RealMachine m(std::move(topo), ranks);
      expect_symmetric_and_self_resolving(ShardPlan(m, nest), ranks, name);
    }
  }
}

TEST(ShardPlan, FinalShardsTileThePayload) {
  // After the last RS stage, the ranks' shards partition [0, count).
  for (const char* name : {"epyc2p", "epyc1p", "mini16"}) {
    for (const auto& nest : {flag_nest(), llc_nest()}) {
      topo::Topology topo = topo::by_name(name);
      const int ranks = topo.n_cores();
      mach::RealMachine m(std::move(topo), ranks);
      const ShardPlan plan(m, nest);
      constexpr std::size_t kCount = 100003;  // odd: exercises remainders
      std::set<std::size_t> edges;
      std::size_t covered = 0;
      for (int r = 0; r < ranks; ++r) {
        const ElemRange own = plan.schedule(r, kCount, 4).stages.back().range;
        covered += own.size();
        edges.insert(own.lo);
      }
      // No overlap, no gap (with the edge starts pairwise distinct).
      EXPECT_EQ(covered, kCount) << name;
      EXPECT_EQ(edges.size(), static_cast<std::size_t>(ranks)) << name;
    }
  }
}

TEST(ShardPlan, RootedGatherPullsEachPieceOnceTowardTheRoot) {
  // The reduce's gather (DESIGN.md § Large-message paths): rank x runs the
  // allgather's stages u > meet_level(x, root). Every other rank r must be
  // pulled exactly once, at stage meet_level(r, root), by its stage peer in
  // the root's child domain, and following pullers must reach the root.
  for (const char* name : {"epyc2p", "epyc1p", "mini16", "armn1"}) {
    topo::Topology topo = topo::by_name(name);
    const int ranks = topo.n_cores();
    mach::RealMachine m(std::move(topo), ranks);
    const ShardPlan plan(m, llc_nest());
    std::vector<ShardSchedule> sched;
    for (int r = 0; r < ranks; ++r) sched.push_back(plan.schedule(r, 64, 4));
    for (const int root : {0, 1, ranks / 2, ranks - 1}) {
      EXPECT_EQ(plan.meet_level(root, root), -1);
      std::vector<std::vector<std::pair<int, int>>> pulled_by(
          static_cast<std::size_t>(ranks));
      for (int x = 0; x < ranks; ++x) {
        for (int u = plan.n_stages() - 1; u > plan.meet_level(x, root); --u) {
          for (const int j : sched[static_cast<std::size_t>(x)]
                                 .stages[static_cast<std::size_t>(u)]
                                 .peers) {
            if (j != x) pulled_by[static_cast<std::size_t>(j)].push_back({x, u});
          }
        }
      }
      EXPECT_TRUE(pulled_by[static_cast<std::size_t>(root)].empty()) << name;
      for (int r = 0; r < ranks; ++r) {
        if (r == root) continue;
        const int k = plan.meet_level(r, root);
        ASSERT_GE(k, 0) << name;
        const int puller = sched[static_cast<std::size_t>(r)]
                               .stages[static_cast<std::size_t>(k)]
                               .peers[static_cast<std::size_t>(
                                   plan.child_index(k, root))];
        ASSERT_EQ(pulled_by[static_cast<std::size_t>(r)],
                  (std::vector<std::pair<int, int>>{{puller, k}}))
            << name << " root " << root << " rank " << r;
        EXPECT_LT(plan.meet_level(puller, root), k) << name;
      }
    }
  }
}

TEST(ShardSchedule, SlotTimeline) {
  mach::RealMachine m(topo::epyc2p(), 64);
  const ShardSchedule sched = ShardPlan(m, flag_nest()).schedule(0, 1024, 4);
  const std::size_t bytes = 1024 * 4;
  EXPECT_EQ(sched.bytes, bytes);
  ASSERT_EQ(sched.n_stages(), 3);
  // RS slots count up from 0; AG slots continue where RS ended, outermost
  // stage first (u = L-1 executes first).
  EXPECT_EQ(sched.rs_slot(0), 0u);
  EXPECT_EQ(sched.rs_slot(1), bytes);
  EXPECT_EQ(sched.rs_slot(2), 2 * bytes);
  EXPECT_EQ(sched.ag_slot(2), 3 * bytes);
  EXPECT_EQ(sched.ag_slot(1), 4 * bytes);
  EXPECT_EQ(sched.ag_slot(0), 5 * bytes);
  EXPECT_EQ(sched.total(), 6 * bytes);
}

TEST(ShardPlan, FlatHierarchyIsSingleStage) {
  mach::RealMachine m(topo::mini8(), 8);
  const ShardPlan plan(m, {});  // flat: one level holding all ranks
  ASSERT_TRUE(plan.uniform());
  const ShardSchedule sched = plan.schedule(3, 80, 4);
  ASSERT_EQ(sched.n_stages(), 1);
  EXPECT_EQ(sched.stages[0].peers.size(), 8u);
  EXPECT_EQ(sched.stages[0].peers[3], 3);
}

}  // namespace
}  // namespace xhc::core
