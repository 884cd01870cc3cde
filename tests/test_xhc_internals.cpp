// White-box tests of the XHC core: communicator tree shapes and per-root
// views, control-block layout (cache-line placement), flag layout variants,
// the CICO threshold, per-level chunk configuration, traffic patterns, and
// the cache tree that ends every one-chunk op.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "coll/registry.h"
#include "core/comm_tree.h"
#include "core/xhc_component.h"
#include "mach/real_machine.h"
#include "obs/critpath.h"
#include "obs/observer.h"
#include "p2p/counters.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/cacheline.h"
#include "util/prng.h"

namespace xhc::core {
namespace {

TEST(CommTree, ShapesMatchHierarchy) {
  mach::RealMachine m(topo::epyc2p(), 64);
  CommTree tree(m, topo::parse_sensitivity("numa+socket"));
  EXPECT_EQ(tree.n_levels(), 3);
  // 8 NUMA groups + 2 socket groups + 1 top group.
  EXPECT_EQ(tree.n_groups(), 11);
  EXPECT_EQ(tree.shape(0).level, 0);
  EXPECT_EQ(tree.shape(0).domain_ranks.size(), 8u);
  EXPECT_EQ(tree.shape(8).level, 1);
  EXPECT_EQ(tree.shape(8).domain_ranks.size(), 32u);  // any socket-0 rank
  EXPECT_EQ(tree.shape(10).level, 2);
  EXPECT_EQ(tree.shape(10).domain_ranks.size(), 64u);
}

TEST(CommTree, SlotLookup) {
  mach::RealMachine m(topo::mini8(), 8);
  CommTree tree(m, topo::parse_sensitivity("numa+socket"));
  const GroupShape& shape = tree.shape(0);
  EXPECT_EQ(shape.slot_of(shape.domain_ranks.front()), 0);
  EXPECT_EQ(shape.slot_of(9999), -1);
}

TEST(CommTree, ViewFollowsRoot) {
  mach::RealMachine m(topo::epyc2p(), 64);
  CommTree tree(m, topo::parse_sensitivity("numa+socket"));
  const CommView& v0 = tree.view(0);
  const CommView& v10 = tree.view(10);
  // Rank 10 (NUMA 1) becomes its NUMA leader, a socket member, and the top
  // leader under root 10.
  EXPECT_EQ(v0.memberships(10).size(), 1u);
  EXPECT_EQ(v10.memberships(10).size(), 3u);
  EXPECT_TRUE(v10.memberships(10).back().is_leader);
  // Rank 8 loses its leadership when 10 takes over NUMA 1.
  EXPECT_EQ(v10.memberships(8).size(), 1u);
  EXPECT_EQ(v10.memberships(8)[0].leader, 10);
  // Views are cached.
  EXPECT_EQ(&tree.view(10), &v10);
}

TEST(CommTree, MembershipSlotsConsistent) {
  mach::RealMachine m(topo::epyc1p(), 32);
  CommTree tree(m, topo::parse_sensitivity("numa+socket"));
  const CommView& v = tree.view(0);
  for (int r = 0; r < 32; ++r) {
    for (const auto& mb : v.memberships(r)) {
      const GroupShape& shape = tree.shape(mb.ctl_id);
      EXPECT_EQ(shape.slot_of(r), mb.my_slot);
      EXPECT_EQ(shape.slot_of(mb.leader), mb.leader_slot);
      EXPECT_TRUE(std::binary_search(mb.members.begin(), mb.members.end(), r));
    }
  }
}

TEST(CtlArena, PerWriterFlagsOnDistinctLines) {
  mach::RealMachine m(topo::mini8(), 8);
  CtlArena arena;
  GroupCtl ctl = arena.add_group(m, 0, 8);
  // Different members' single-writer flags must never share a line.
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) {
      EXPECT_NE(util::line_of(&ctl.ack[i]->v), util::line_of(&ctl.ack[j]->v));
      EXPECT_NE(util::line_of(&ctl.reduce_done[i]->v),
                util::line_of(&ctl.reduce_done[j]->v));
      EXPECT_NE(util::line_of(&ctl.announce_sep[i]->v),
                util::line_of(&ctl.announce_sep[j]->v));
    }
  }
  // Leader-written flags on lines distinct from member-written ones.
  EXPECT_NE(util::line_of(&ctl.seq[0]->v), util::line_of(&ctl.ack[0]->v));
  EXPECT_NE(util::line_of(&ctl.announce[0]->v),
            util::line_of(&ctl.seq[0]->v));
  // The deliberately packed variant *does* share lines (Fig. 10 "shared").
  EXPECT_EQ(util::line_of(&ctl.announce_shared[0].v),
            util::line_of(&ctl.announce_shared[7].v));
}

TEST(XhcTuning, FlagLayoutsAllCorrect) {
  for (const coll::FlagLayout layout :
       {coll::FlagLayout::kSingle, coll::FlagLayout::kMultiSharedLine,
        coll::FlagLayout::kMultiSeparateLines}) {
    mach::RealMachine m(topo::mini16(), 16);
    coll::Tuning tuning;
    tuning.flag_layout = layout;
    XhcComponent comp(m, tuning, "xhc-layout");
    constexpr std::size_t kBytes = 50000;
    std::vector<mach::Buffer> bufs;
    for (int r = 0; r < 16; ++r) bufs.emplace_back(m, r, kBytes);
    util::fill_pattern(bufs[0].get(), kBytes, 5);
    m.run([&](mach::Ctx& ctx) {
      comp.bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                 kBytes, 0);
    });
    std::vector<std::byte> expect(kBytes);
    util::fill_pattern(expect.data(), kBytes, 5);
    for (int r = 0; r < 16; ++r) {
      ASSERT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].get(),
                            expect.data(), kBytes),
                0)
          << "layout " << static_cast<int>(layout) << " rank " << r;
    }
  }
}

TEST(XhcTuning, AtomicSyncVariantCorrect) {
  mach::RealMachine m(topo::mini16(), 16);
  coll::Tuning tuning;
  tuning.sync = coll::SyncMethod::kAtomicFetchAdd;
  XhcComponent comp(m, tuning, "xhc-atomic");
  constexpr std::size_t kBytes = 9000;
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < 16; ++r) bufs.emplace_back(m, r, kBytes);
  m.run([&](mach::Ctx& ctx) {
    for (int round = 0; round < 3; ++round) {
      if (ctx.rank() == 0) {
        ctx.write_payload(bufs[0].get(), kBytes,
                          static_cast<std::uint64_t>(round));
      }
      ctx.barrier();
      comp.bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                 kBytes, 0);
    }
  });
  std::vector<std::byte> expect(kBytes);
  util::fill_pattern(expect.data(), kBytes, 2);
  for (int r = 0; r < 16; ++r) {
    ASSERT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].get(),
                          expect.data(), kBytes),
              0);
  }
}

// Under atomic sync a group's acks are anonymous fetch-adds, so a bcast
// leader's count is exact only if no member acks the next op first. Rank 0
// straggles before pulling op 1 (root 1) while the others go on to op 2: a
// bcast at root 2, which releases them at once, or a barrier. Had their
// op-2 acks completed rank 1's op-1 count, rank 1 would return and pull op
// 2's payload into, or the caller rewrite, the buffer rank 0 still reads.
TEST(XhcTuning, AtomicSyncAckCountsStayExactAcrossLeaders) {
  for (const bool barrier : {false, true}) {
    sim::SimMachine m(topo::flat(4), 4);
    coll::Tuning tuning;
    tuning.sync = coll::SyncMethod::kAtomicFetchAdd;
    tuning.sensitivity = "flat";
    tuning.faults = "straggler,rank=0,level=0,count=1,delay=1e-4";
    XhcComponent comp(m, tuning, "xhc-atomic");
    constexpr std::size_t kBytes = 4096;
    std::vector<mach::Buffer> bufs;
    for (int r = 0; r < 4; ++r) bufs.emplace_back(m, r, kBytes);
    std::array<int, 4> bad{};
    m.run([&](mach::Ctx& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      std::vector<std::byte> expect(kBytes);
      const auto check = [&](std::uint64_t seed) {
        util::fill_pattern(expect.data(), kBytes, seed);
        if (std::memcmp(bufs[r].get(), expect.data(), kBytes) != 0) ++bad[r];
      };
      if (ctx.rank() == 1) ctx.write_payload(bufs[r].get(), kBytes, 1);
      comp.bcast(ctx, bufs[r].get(), kBytes, 1);
      check(1);
      if (barrier) {
        if (ctx.rank() == 1) ctx.write_payload(bufs[r].get(), kBytes, 3);
        comp.barrier(ctx);
      } else {
        if (ctx.rank() == 2) ctx.write_payload(bufs[r].get(), kBytes, 2);
        comp.bcast(ctx, bufs[r].get(), kBytes, 2);
        check(2);
      }
    });
    EXPECT_EQ(bad, (std::array<int, 4>{})) << (barrier ? "barrier" : "bcast");
  }
}

TEST(XhcTuning, PerLevelChunkSizes) {
  // Distinct chunk sizes per level (paper §III-B / Fig. 5) must not affect
  // correctness.
  mach::RealMachine m(topo::mini16(), 16);
  coll::Tuning tuning;
  tuning.chunk_bytes = {512, 2048, 8192};
  XhcComponent comp(m, tuning, "xhc-chunks");
  EXPECT_EQ(tuning.chunk_for_level(0), 512u);
  EXPECT_EQ(tuning.chunk_for_level(2), 8192u);
  EXPECT_EQ(tuning.chunk_for_level(9), 8192u);  // last repeats
  constexpr std::size_t kBytes = 60000;
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < 16; ++r) bufs.emplace_back(m, r, kBytes);
  util::fill_pattern(bufs[0].get(), kBytes, 77);
  m.run([&](mach::Ctx& ctx) {
    comp.bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(), kBytes,
               0);
  });
  std::vector<std::byte> expect(kBytes);
  util::fill_pattern(expect.data(), kBytes, 77);
  for (int r = 0; r < 16; ++r) {
    ASSERT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].get(),
                          expect.data(), kBytes),
              0);
  }
}

TEST(XhcTuning, CicoThresholdIsRespected) {
  // Below the threshold no XPMEM attach happens (registration cache stays
  // empty); above it, attaches occur (paper §III-D).
  for (const std::size_t bytes : {std::size_t{512}, std::size_t{8192}}) {
    mach::RealMachine m(topo::mini8(), 8);
    coll::Tuning tuning;
    tuning.cico_threshold = 1024;
    XhcComponent comp(m, tuning, "xhc");
    std::vector<mach::Buffer> bufs;
    for (int r = 0; r < 8; ++r) bufs.emplace_back(m, r, bytes);
    m.run([&](mach::Ctx& ctx) {
      comp.bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(), bytes,
                 0);
    });
    const auto stats = comp.reg_cache_stats();
    ASSERT_TRUE(stats.has_value());
    if (bytes <= 1024) {
      EXPECT_EQ(stats->hits + stats->misses, 0u) << "CICO path attached";
    } else {
      EXPECT_GT(stats->hits + stats->misses, 0u) << "single-copy path idle";
    }
  }
}

TEST(XhcTraffic, TreePatternMatchesPaperTableII) {
  sim::SimMachine m(topo::epyc2p(), 64);
  coll::Tuning tuning;
  XhcComponent comp(m, tuning, "xhc");
  p2p::TrafficCounter counter(&m.topology(), &m.map());
  comp.set_traffic_counter(&counter);
  constexpr std::size_t kBytes = 1 << 16;
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < 64; ++r) bufs.emplace_back(m, r, kBytes);
  m.run([&](mach::Ctx& ctx) {
    comp.bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(), kBytes,
               0);
  });
  // Paper Table II, XHC row: 1 inter-socket, 6 inter-NUMA, 56 intra-NUMA.
  EXPECT_EQ(counter.inter_socket(), 1u);
  EXPECT_EQ(counter.inter_numa(), 6u);
  EXPECT_EQ(counter.intra_numa(), 56u);
}

TEST(XhcTraffic, PatternInvariantUnderRootAndMapping) {
  // 64 KiB, like Table II: one-chunk sizes take the cache tree instead
  // (CacheTree.FlatPatternForEveryRootAndMapping).
  constexpr std::size_t kBytes = 1 << 16;
  for (const topo::MapPolicy policy :
       {topo::MapPolicy::kCore, topo::MapPolicy::kNuma}) {
    for (const int root : {0, 10, 37}) {
      sim::SimMachine m(topo::epyc2p(), 64, policy);
      XhcComponent comp(m, {}, "xhc");
      p2p::TrafficCounter counter(&m.topology(), &m.map());
      comp.set_traffic_counter(&counter);
      std::vector<mach::Buffer> bufs;
      for (int r = 0; r < 64; ++r) bufs.emplace_back(m, r, kBytes);
      m.run([&](mach::Ctx& ctx) {
        comp.bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                   kBytes, root);
      });
      EXPECT_EQ(counter.inter_socket(), 1u)
          << to_string(policy) << " root " << root;
      EXPECT_EQ(counter.inter_numa(), 6u);
      EXPECT_EQ(counter.intra_numa(), 56u);
    }
  }
}

// --- cache tree (DESIGN.md § Cache tree) ------------------------------------

TEST(CacheTree, ShapesFollowTheLlc) {
  // The Epycs: 4-core LLC groups under a top group whose domain is every
  // rank; its members are the LLC leaders, the root leading its own.
  for (const char* name : {"epyc1p", "epyc2p"}) {
    const topo::Topology topo = topo::by_name(name);
    const int n = topo.n_cores();
    sim::SimMachine m(topo, n);
    XhcComponent comp(m, {}, "xhc");
    CommTree& tree = comp.tree();
    ASSERT_TRUE(tree.has_cache_tree()) << name;
    // Flag groups, then one group per LLC; the top group is the flag
    // tree's.
    const int flag_groups = CommTree(m, topo::parse_sensitivity(
                                            comp.tuning().sensitivity))
                                .n_groups();
    EXPECT_EQ(tree.n_groups(), flag_groups + n / 4) << name;
    const int top_level = tree.n_levels() - 1;
    for (const int root : {0, 6, n - 1}) {
      const CommView& v = tree.cache_view(root);
      const auto& root_ms = v.memberships(root);
      ASSERT_EQ(root_ms.size(), 2u) << name;
      EXPECT_GE(root_ms[0].ctl_id, flag_groups);
      EXPECT_EQ(root_ms[1].ctl_id,
                tree.view(root).memberships(root).back().ctl_id);
      EXPECT_EQ(root_ms[1].leader, root);
      EXPECT_EQ(root_ms[1].members.size(), static_cast<std::size_t>(n / 4));
      EXPECT_EQ(tree.shape(root_ms[1].ctl_id).domain_ranks.size(),
                static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) {
        const auto& ms = v.memberships(r);
        ASSERT_FALSE(ms.empty());
        // Level numbering: LLC groups report 0, the top group the flag
        // tree's top level.
        EXPECT_EQ(ms[0].level, 0);
        EXPECT_EQ(ms[0].members.size(), 4u) << name << " r" << r;
        for (const int j : ms[0].members) EXPECT_EQ(j / 4, r / 4);
        const bool leads = ms[0].leader == r;
        EXPECT_EQ(ms.size(), leads ? 2u : 1u) << name << " r" << r;
        if (leads) {
          EXPECT_EQ(ms[1].level, top_level);
          EXPECT_EQ(ms[1].leader, root);
        }
      }
    }
  }
  // mini8 and grid12: the LLC group is the NUMA node, the flag tree's
  // level-0 group.
  for (const topo::Topology& topo :
       {topo::mini8(), topo::grid("grid12", 2, 3, 2, 2)}) {
    sim::SimMachine m(topo, topo.n_cores());
    XhcComponent comp(m, {}, "xhc");
    ASSERT_TRUE(comp.tree().has_cache_tree()) << topo.name();
    for (int r = 0; r < topo.n_cores(); ++r) {
      EXPECT_EQ(comp.tree().cache_view(0).memberships(r)[0].members,
                comp.tree().view(0).memberships(r)[0].members);
    }
  }
  // No shared LLC (armn1), or a one-level flag tree: no cache tree.
  for (const topo::Topology& topo : {topo::armn1(), topo::flat(8)}) {
    sim::SimMachine m(topo, topo.n_cores());
    EXPECT_FALSE(XhcComponent(m, {}, "xhc").tree().has_cache_tree())
        << topo.name();
  }
}

/// Traffic of one bcast per root on a fresh epyc2p component, per root as
/// {inter-socket, inter-NUMA, intra-NUMA}.
std::vector<std::array<std::uint64_t, 3>> traffic_per_root(
    std::string_view comp_name, const coll::Tuning& tuning, std::size_t bytes,
    topo::MapPolicy policy, const std::vector<int>& roots) {
  sim::SimMachine m(topo::epyc2p(), 64, policy);
  auto comp = coll::make_component(comp_name, m, tuning);
  p2p::TrafficCounter counter(&m.topology(), &m.map());
  comp->set_traffic_counter(&counter);
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < 64; ++r) bufs.emplace_back(m, r, bytes);
  std::vector<std::array<std::uint64_t, 3>> out;
  m.run([&](mach::Ctx& ctx) {
    for (const int root : roots) {
      comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                  bytes, root);
      ctx.barrier();  // every rank has recorded its pulls
      if (ctx.rank() == 0) {
        out.push_back({counter.inter_socket(), counter.inter_numa(),
                       counter.intra_numa()});
        counter.reset();
      }
      ctx.barrier();
    }
  });
  return out;
}

TEST(CacheTree, FlatPatternForEveryRootAndMapping) {
  // Every rank pulls straight from the root: the 32 ranks of the other
  // socket, the 24 of the root's socket outside its NUMA node, and the 7
  // inside it, at every root, under both mappings, CICO or single-copy.
  std::vector<int> roots(64);
  for (int r = 0; r < 64; ++r) roots[static_cast<std::size_t>(r)] = r;
  for (const topo::MapPolicy policy :
       {topo::MapPolicy::kCore, topo::MapPolicy::kNuma}) {
    for (const std::size_t bytes : {std::size_t{4}, std::size_t{4096}}) {
      const auto got = traffic_per_root("xhc", {}, bytes, policy, roots);
      ASSERT_EQ(got.size(), roots.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], (std::array<std::uint64_t, 3>{32, 24, 7}))
            << to_string(policy) << " root " << roots[i] << " " << bytes
            << " B";
      }
    }
  }
}

TEST(CacheTree, AllreduceResultFansOutFlat) {
  // A one-chunk allreduce folds through the flag tree's fan-in, then every
  // non-root pulls the result straight from the internal root, rank 0: the
  // traffic it adds to a reduce at rank 0 (the same fan-in, released by
  // flags alone) is the bcast's flat {32, 24, 7} pattern, and the result
  // phase's 63 pulls each follow one seq_wait on rank 0 at the top level.
  constexpr std::size_t kCount = 512;  // 4 KiB of i64, single-copy
  for (const topo::MapPolicy policy :
       {topo::MapPolicy::kCore, topo::MapPolicy::kNuma}) {
    for (const std::size_t count : {std::size_t{1}, kCount}) {
      sim::SimMachine m(topo::epyc2p(), 64, policy);
      coll::Tuning tuning;
      tuning.trace = true;
      XhcComponent comp(m, tuning, "xhc");
      obs::Observer observer(64);
      comp.set_observer(&observer);
      p2p::TrafficCounter counter(&m.topology(), &m.map());
      comp.set_traffic_counter(&counter);
      std::vector<mach::Buffer> sbufs;
      std::vector<mach::Buffer> rbufs;
      for (int r = 0; r < 64; ++r) {
        sbufs.emplace_back(m, r, kCount * sizeof(std::int64_t));
        rbufs.emplace_back(m, r, kCount * sizeof(std::int64_t));
      }
      std::array<std::uint64_t, 3> reduce_traffic{};
      std::array<std::uint64_t, 3> allreduce_traffic{};
      m.run([&](mach::Ctx& ctx) {
        const auto r = static_cast<std::size_t>(ctx.rank());
        const auto snap = [&](std::array<std::uint64_t, 3>& out) {
          ctx.barrier();  // every rank has recorded its pulls
          if (ctx.rank() == 0) {
            out = {counter.inter_socket(), counter.inter_numa(),
                   counter.intra_numa()};
            counter.reset();
          }
          ctx.barrier();
        };
        comp.reduce(ctx, sbufs[r].get(), rbufs[r].get(), count,
                    mach::DType::kI64, mach::ROp::kSum, 0);
        snap(reduce_traffic);
        comp.allreduce(ctx, sbufs[r].get(), rbufs[r].get(), count,
                       mach::DType::kI64, mach::ROp::kSum);
        snap(allreduce_traffic);
      });
      const std::string where =
          std::string(to_string(policy)) + " " + std::to_string(count * 8) +
          " B";
      for (std::size_t k = 0; k < 3; ++k) {
        allreduce_traffic[k] -= reduce_traffic[k];
      }
      EXPECT_EQ(allreduce_traffic, (std::array<std::uint64_t, 3>{32, 24, 7}))
          << where;
      std::size_t pulls = 0;
      std::size_t seq_waits = 0;
      for (int r = 0; r < 64; ++r) {
        for (const obs::Span& sp : observer.trace().spans(r)) {
          if (std::strcmp(sp.name, "bcast.pull_chunk") == 0) ++pulls;
          if (std::strcmp(sp.name, "seq_wait") != 0) continue;
          ++seq_waits;
          const obs::WaitArg w = obs::unpack_wait_arg(sp.arg);
          EXPECT_EQ(w.peer, 0) << where << " r" << r;
          EXPECT_EQ(w.level, comp.tree().n_levels() - 1) << where;
        }
      }
      EXPECT_EQ(pulls, 63u) << where;
      EXPECT_EQ(seq_waits, 63u) << where;
    }
  }
}

/// Per-rank virtual clocks after each of a one-chunk bcast (root 37),
/// allreduce, reduce (root 37) and barrier on a fresh epyc2p simulator.
std::vector<double> one_chunk_times(std::string_view comp_name,
                                    const coll::Tuning& tuning) {
  sim::SimMachine m(topo::epyc2p(), 64);
  auto comp = coll::make_component(comp_name, m, tuning);
  constexpr std::size_t kCount = 512;
  constexpr std::size_t kBytes = kCount * sizeof(std::int64_t);
  std::vector<mach::Buffer> sbufs;
  std::vector<mach::Buffer> rbufs;
  for (int r = 0; r < 64; ++r) {
    sbufs.emplace_back(m, r, kBytes);
    rbufs.emplace_back(m, r, kBytes);
  }
  std::vector<double> t(4 * 64);
  m.run([&](mach::Ctx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    comp->bcast(ctx, rbufs[r].get(), kBytes, 37);
    t[r] = ctx.now();
    comp->allreduce(ctx, sbufs[r].get(), rbufs[r].get(), kCount,
                    mach::DType::kI64, mach::ROp::kSum);
    t[64 + r] = ctx.now();
    comp->reduce(ctx, sbufs[r].get(), rbufs[r].get(), kCount,
                 mach::DType::kI64, mach::ROp::kSum, 37);
    t[128 + r] = ctx.now();
    comp->barrier(ctx);
    t[192 + r] = ctx.now();
  });
  return t;
}

TEST(CacheTree, OtherVariantsKeepTheFlagTree) {
  // The LLC switch changes nothing for xhc-flat, the Fig. 10 multi-flag
  // layouts, Fig. 4's atomic sync and ucc: they build no cache tree, their
  // one-chunk traffic is the same with the switch on or off, and so is
  // every rank's virtual time through a bcast, an allreduce, a reduce and
  // a barrier.
  coll::Tuning off;
  off.llc_aware = false;
  EXPECT_NE(one_chunk_times("xhc", {}), one_chunk_times("xhc", off))
      << "the default xhc ends its one-chunk ops on the cache tree";
  for (const char* name : {"xhc-flat", "ucc"}) {
    EXPECT_EQ(one_chunk_times(name, {}), one_chunk_times(name, off)) << name;
  }
  const std::vector<int> roots = {0, 37};
  coll::Tuning shared_line;
  shared_line.flag_layout = coll::FlagLayout::kMultiSharedLine;
  coll::Tuning separate_lines;
  separate_lines.flag_layout = coll::FlagLayout::kMultiSeparateLines;
  coll::Tuning atomic;
  atomic.sync = coll::SyncMethod::kAtomicFetchAdd;
  for (const coll::Tuning& variant : {shared_line, separate_lines, atomic}) {
    sim::SimMachine m(topo::epyc2p(), 64);
    EXPECT_FALSE(XhcComponent(m, variant, "v").tree().has_cache_tree());
    coll::Tuning variant_off = variant;
    variant_off.llc_aware = false;
    const auto on = traffic_per_root("xhc", variant, 4096,
                                     topo::MapPolicy::kCore, roots);
    EXPECT_EQ(on, traffic_per_root("xhc", variant_off, 4096,
                                   topo::MapPolicy::kCore, roots));
    EXPECT_EQ(one_chunk_times("xhc", variant),
              one_chunk_times("xhc", variant_off));
    // Paper Table II: the flag tree's pattern.
    EXPECT_EQ(on[0], (std::array<std::uint64_t, 3>{1, 6, 56}));
  }
  {
    sim::SimMachine m(topo::epyc2p(), 64);
    coll::Tuning flat;
    flat.sensitivity = "flat";
    EXPECT_FALSE(XhcComponent(m, flat, "flat").tree().has_cache_tree());
  }
  // ucc keeps its socket tree: one pull crosses the socket link.
  for (const auto& t : traffic_per_root("ucc", {}, 4096,
                                        topo::MapPolicy::kCore, roots)) {
    EXPECT_EQ(t[0], 1u);
  }
}

TEST(CacheTree, StripeThresholdBelowOneChunkStillStripes) {
  // Striping is tested before the cache tree: with an explicit threshold
  // below one chunk, a one-chunk bcast stripes across the top group, and
  // the payload stays bit-exact.
  sim::SimMachine m(topo::mini16(), 16);
  coll::Tuning tuning;
  tuning.stripe_threshold = 4096;
  tuning.trace = true;
  XhcComponent comp(m, tuning, "stripe");
  ASSERT_TRUE(comp.tree().has_cache_tree());
  obs::Observer observer(16);
  comp.set_observer(&observer);
  constexpr std::size_t kBytes = 8192;
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < 16; ++r) bufs.emplace_back(m, r, kBytes);
  util::fill_pattern(bufs[5].get(), kBytes, 41);
  m.run([&](mach::Ctx& ctx) {
    comp.bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(), kBytes,
               5);
  });
  std::size_t stripe_pulls = 0;
  for (int r = 0; r < 16; ++r) {
    for (const obs::Span& sp : observer.trace().spans(r)) {
      if (std::strcmp(sp.name, "bcast.stripe_pull") == 0) ++stripe_pulls;
    }
  }
  EXPECT_GT(stripe_pulls, 0u);
  std::vector<std::byte> expect(kBytes);
  util::fill_pattern(expect.data(), kBytes, 41);
  for (int r = 0; r < 16; ++r) {
    EXPECT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].get(),
                          expect.data(), kBytes),
              0)
        << "rank " << r;
  }
}

TEST(XhcComponentApi, RegCacheAccumulatesHitsAcrossCalls) {
  mach::RealMachine m(topo::mini8(), 8);
  XhcComponent comp(m, {}, "xhc");
  constexpr std::size_t kBytes = 32768;
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < 8; ++r) bufs.emplace_back(m, r, kBytes);
  m.run([&](mach::Ctx& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.barrier();
      comp.bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                 kBytes, 0);
    }
  });
  const auto stats = comp.reg_cache_stats();
  ASSERT_TRUE(stats.has_value());
  // Same buffers every call: the steady state is all hits (paper §V-D3).
  EXPECT_GT(stats->hit_ratio(), 0.85);
}

}  // namespace
}  // namespace xhc::core
