// Model-behaviour regression tests: each test pins down one of the paper's
// qualitative findings as an executable property of the simulator, so the
// benchmark figures cannot silently drift away from the paper's shapes.
#include <gtest/gtest.h>

#include "coll/registry.h"
#include "core/xhc_component.h"
#include "osu/harness.h"
#include "p2p/fabric.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"

namespace xhc {
namespace {

double bcast_us(std::string_view system, std::string_view comp_name,
                std::size_t bytes, coll::Tuning tuning = {},
                bool modify = true, int iters = 2) {
  topo::Topology topo = topo::by_name(system);
  const int ranks = topo.n_cores();
  sim::SimMachine machine(std::move(topo), ranks);
  auto comp = coll::make_component(comp_name, machine, std::move(tuning));
  osu::Config cfg;
  cfg.warmup = 1;
  cfg.iters = iters;
  cfg.modify_buffer = modify;
  return osu::bcast_sweep(machine, *comp, {bytes}, cfg).front().avg_us;
}

double allreduce_us(std::string_view system, std::string_view comp_name,
                    std::size_t bytes, coll::Tuning tuning = {}) {
  topo::Topology topo = topo::by_name(system);
  const int ranks = topo.n_cores();
  sim::SimMachine machine(std::move(topo), ranks);
  auto comp = coll::make_component(comp_name, machine, std::move(tuning));
  osu::Config cfg;
  cfg.warmup = 1;
  cfg.iters = 2;
  return osu::allreduce_sweep(machine, *comp, {bytes}, cfg).front().avg_us;
}

// --- Fig. 1a: domain cost ordering -----------------------------------------

TEST(PaperShapes, DomainLatencyOrdering) {
  auto pair_latency = [](std::string_view system, int peer) {
    auto topo = topo::by_name(system);
    sim::SimMachine m(std::move(topo), topo::by_name(system).n_cores());
    p2p::Fabric fabric(m, {});
    osu::Config cfg;
    cfg.warmup = 1;
    cfg.iters = 1;
    return osu::pt2pt_latency_us(m, fabric, 0, peer, 1 << 20, cfg);
  };
  // Epyc-2P: cache-local < intra-NUMA < cross-NUMA < cross-socket.
  const double llc = pair_latency("epyc2p", 1);
  const double intra = pair_latency("epyc2p", 4);
  const double xnuma = pair_latency("epyc2p", 8);
  const double xsock = pair_latency("epyc2p", 32);
  EXPECT_LT(llc, intra);
  EXPECT_LT(intra, xnuma);
  EXPECT_LT(xnuma, xsock);
  // ARM-N1: intra- and cross-NUMA nearly identical (paper: "marginal").
  const double a_intra = pair_latency("armn1", 1);
  const double a_xnuma = pair_latency("armn1", 20);
  const double a_xsock = pair_latency("armn1", 80);
  EXPECT_LT(std::abs(a_xnuma - a_intra) / a_intra, 0.25);
  EXPECT_GT(a_xsock, 1.5 * a_xnuma);
}

// --- Fig. 1b: fan-out congestion --------------------------------------------

TEST(PaperShapes, FlatFanOutCongests) {
  // The same 1 MB bcast gets slower per-rank as more readers hit the root
  // concurrently; XHC's hierarchy keeps the growth much flatter.
  const double flat_small =
      bcast_us("epyc1p", "xhc-flat", 1 << 20, {}, true, 1);
  coll::Tuning tree;
  const double tree_small = bcast_us("epyc1p", "xhc", 1 << 20, tree, true, 1);
  EXPECT_LT(tree_small, flat_small);
}

// --- Fig. 3: mechanism ordering ---------------------------------------------

TEST(PaperShapes, MechanismOrderingAtLargeSizes) {
  auto tuned_with = [&](smsc::Mechanism mech, bool cache) {
    coll::Tuning t;
    t.mechanism = mech;
    t.reg_cache = cache;
    return bcast_us("epyc2p", "tuned", 1 << 20, t, true, 1);
  };
  const double xpmem = tuned_with(smsc::Mechanism::kXpmem, true);
  const double knem = tuned_with(smsc::Mechanism::kKnem, true);
  const double cma = tuned_with(smsc::Mechanism::kCma, true);
  const double cico = tuned_with(smsc::Mechanism::kCico, true);
  const double nocache = tuned_with(smsc::Mechanism::kXpmem, false);
  EXPECT_LT(xpmem, knem);
  EXPECT_LT(knem, cma);
  EXPECT_LT(xpmem, cico);
  // Without the registration cache XPMEM loses its edge (Fig. 3 dashed).
  EXPECT_GT(nocache, knem);
}

// --- Fig. 4: atomics collapse on dense nodes --------------------------------

TEST(PaperShapes, AtomicsCollapseOnArm) {
  coll::Tuning sw;
  sw.sensitivity = "flat";
  coll::Tuning at = sw;
  at.sync = coll::SyncMethod::kAtomicFetchAdd;
  const double single_writer = bcast_us("armn1", "xhc-flat", 4, sw, true, 3);
  const double atomics = bcast_us("armn1", "xhc-flat", 4, at, true, 3);
  // The paper measures 23x at 160 ranks; require at least a 4x collapse.
  EXPECT_GT(atomics, 4.0 * single_writer);
}

TEST(PaperShapes, AtomicsPenaltyGrowsWithRanks) {
  auto ratio_at = [](int ranks) {
    double lat[2];
    int i = 0;
    for (const auto sync : {coll::SyncMethod::kSingleWriter,
                            coll::SyncMethod::kAtomicFetchAdd}) {
      sim::SimMachine m(topo::armn1(), ranks);
      coll::Tuning t;
      t.sensitivity = "flat";
      t.sync = sync;
      core::XhcComponent comp(m, t, "v");
      osu::Config cfg;
      cfg.warmup = 1;
      cfg.iters = 2;
      lat[i++] = osu::bcast_sweep(m, comp, {4}, cfg).front().avg_us;
    }
    return lat[1] / lat[0];
  };
  EXPECT_GT(ratio_at(160), ratio_at(20));
}

// --- Fig. 7: cache-defeating benchmark variant -------------------------------

TEST(PaperShapes, StockBenchmarkFlattersTheFlatTree) {
  // Stock osu_bcast (no rewrite): flat looks better in the cached regime;
  // the _mb variant reveals the hierarchical tree as the faster one.
  const std::size_t bytes = 64 * 1024;  // in the 2 KB..1 MB window
  const double flat_stock = bcast_us("epyc2p", "xhc-flat", bytes, {}, false, 3);
  const double flat_mb = bcast_us("epyc2p", "xhc-flat", bytes, {}, true, 3);
  const double tree_mb = bcast_us("epyc2p", "xhc", bytes, {}, true, 3);
  // Caching makes the stock number optimistic by a wide margin...
  EXPECT_LT(flat_stock, 0.7 * flat_mb);
  // ...and under the honest benchmark the tree wins.
  EXPECT_LT(tree_mb, flat_mb);
}

TEST(PaperShapes, CicoRangeImmuneToBenchmarkVariant) {
  // Below the CICO threshold the copy-in rewrites the staging buffer either
  // way, so both benchmark variants agree (paper §V-A).
  const double stock = bcast_us("epyc2p", "xhc", 512, {}, false, 3);
  const double mb = bcast_us("epyc2p", "xhc", 512, {}, true, 3);
  EXPECT_NEAR(stock, mb, 0.35 * mb);
}

// --- Fig. 8: broadcast standings ---------------------------------------------

TEST(PaperShapes, TreeBeatsEverythingLargeOnArm) {
  const std::size_t bytes = 1 << 20;
  const double tree = bcast_us("armn1", "xhc", bytes, {}, true, 1);
  for (const char* other : {"xhc-flat", "tuned", "sm", "ucc", "smhc"}) {
    EXPECT_LT(tree, bcast_us("armn1", other, bytes, {}, true, 1)) << other;
  }
}

TEST(PaperShapes, FlatWinsTinyMessagesOnEpycOnly) {
  // Shared-LLC assist: flat beats the paper's tree at 4 B on Epyc-1P (paper
  // §V-D1). xhc's default sends such one-chunk bcasts over its cache tree,
  // which ties the flat tree, so the tree here has the LLC switch off...
  coll::Tuning paper_tree;
  paper_tree.llc_aware = false;
  EXPECT_LT(bcast_us("epyc1p", "xhc-flat", 4, {}, true, 3),
            bcast_us("epyc1p", "xhc", 4, paper_tree, true, 3));
  // ...but on SLC-based ARM-N1 the tree wins even at 4 B.
  EXPECT_LT(bcast_us("armn1", "xhc", 4, {}, true, 3),
            bcast_us("armn1", "xhc-flat", 4, {}, true, 3));
}

TEST(PaperShapes, SmhcPaysDoubleCopiesAtLargeSizes) {
  const std::size_t bytes = 1 << 20;
  const double xhc = bcast_us("epyc1p", "xhc", bytes, {}, true, 1);
  const double smhc = bcast_us("epyc1p", "smhc", bytes, {}, true, 1);
  EXPECT_GT(smhc, 2.0 * xhc);  // paper: up to 4x on Epyc-1P
}

// --- Fig. 9: mapping / root robustness ----------------------------------------

TEST(PaperShapes, TunedSwingsWithMappingXhcDoesNot) {
  auto run_with = [](std::string_view comp_name, topo::MapPolicy policy) {
    sim::SimMachine m(topo::epyc2p(), 64, policy);
    auto comp = coll::make_component(comp_name, m);
    osu::Config cfg;
    cfg.warmup = 1;
    cfg.iters = 1;
    return osu::bcast_sweep(m, *comp, {1u << 20}, cfg).front().avg_us;
  };
  const double tuned_core = run_with("tuned", topo::MapPolicy::kCore);
  const double tuned_numa = run_with("tuned", topo::MapPolicy::kNuma);
  const double xhc_core = run_with("xhc", topo::MapPolicy::kCore);
  const double xhc_numa = run_with("xhc", topo::MapPolicy::kNuma);
  const double tuned_swing =
      std::abs(tuned_numa - tuned_core) / std::min(tuned_core, tuned_numa);
  const double xhc_swing =
      std::abs(xhc_numa - xhc_core) / std::min(xhc_core, xhc_numa);
  EXPECT_GT(tuned_swing, 2.0 * xhc_swing);
  EXPECT_LT(xhc_swing, 0.30);
}

// --- Fig. 10: flag layout ------------------------------------------------------

TEST(PaperShapes, SeparatedFlagsInvertFlatVsTree) {
  // Completion time (slowest rank) is what the fan-out serialization
  // stretches; the rank-average is diluted by the early finishers.
  auto lat = [](const char* sens, coll::FlagLayout layout) {
    sim::SimMachine m(topo::epyc1p(), 32);
    coll::Tuning t;
    t.sensitivity = sens;
    t.flag_layout = layout;
    core::XhcComponent comp(m, t, "v");
    osu::Config cfg;
    cfg.warmup = 1;
    cfg.iters = 3;
    return osu::bcast_sweep(m, comp, {4}, cfg).front().avg_us;
  };
  const double flat_shared = lat("flat", coll::FlagLayout::kMultiSharedLine);
  const double flat_sep = lat("flat", coll::FlagLayout::kMultiSeparateLines);
  const double tree_shared =
      lat("numa+socket", coll::FlagLayout::kMultiSharedLine);
  const double tree_sep =
      lat("numa+socket", coll::FlagLayout::kMultiSeparateLines);
  // Separating the flags inflates the flat tree (every member's line is
  // serviced by the root core's port)...
  EXPECT_GT(flat_sep, 1.08 * flat_shared);
  // ...and under separated flags the flat tree is worse than the
  // hierarchical one (the paper's reversal)...
  EXPECT_GT(flat_sep, tree_sep);
  // ...while the hierarchical variant moves far less (paper §V-D1: "its
  // explicit handling of flags traversal leaves minimal margin for
  // implicit assistance").
  EXPECT_LT(tree_sep - tree_shared, 0.5 * (flat_sep - flat_shared));
}

// --- Fig. 11: allreduce standings ----------------------------------------------

TEST(PaperShapes, AllreduceTreeWinsLargeEverywhere) {
  for (const auto system : topo::paper_systems()) {
    const double tree = allreduce_us(system, "xhc", 1 << 20);
    for (const char* other : {"xhc-flat", "sm", "xbrc"}) {
      EXPECT_LT(tree, allreduce_us(system, other, 1 << 20))
          << system << " vs " << other;
    }
  }
}

TEST(PaperShapes, AllreduceRsAgWinsAboveDefaultThreshold) {
  // Where the default rs_ag_threshold (8 KiB) sits against the crossover
  // (EXPERIMENTS.md § Allreduce size-class crossover). Up to the threshold
  // the default (the binomial fan-in, its result pulled through the cache
  // tree on the Epycs) beats forcing reduce-scatter + allgather on every
  // paper system. Just above it, at 10 KiB, the dispatched RS+AG beats
  // forcing the fan-in on the Epycs, so their crossover sits between 8 and
  // 10 KiB; ARM-N1's lies above 16 KiB. From one pipeline chunk up, the
  // dispatched RS+AG beats forcing the latency path (chunk-parallel
  // reducers) everywhere.
  coll::Tuning rs_ag;
  rs_ag.rs_ag_threshold = 1;
  coll::Tuning latency;
  latency.rs_ag_threshold = 0;
  for (const auto system : topo::paper_systems()) {
    for (const std::size_t bytes : {4 * 1024, 8 * 1024}) {
      EXPECT_LT(allreduce_us(system, "xhc", bytes),
                allreduce_us(system, "xhc", bytes, rs_ag))
          << system << " at " << bytes << " B";
    }
    if (system != "armn1") {
      EXPECT_LT(allreduce_us(system, "xhc", 10 * 1024),
                allreduce_us(system, "xhc", 10 * 1024, latency))
          << system << " at 10 KiB";
    }
    for (const std::size_t bytes : {16388, 64 * 1024}) {
      EXPECT_LT(allreduce_us(system, "xhc", bytes),
                allreduce_us(system, "xhc", bytes, latency))
          << system << " at " << bytes << " B";
    }
  }
}

TEST(PaperShapes, ReduceNoSlowerThanAllreduce) {
  // A reduce does strictly less than an allreduce: no rank but the root
  // needs the result. At every size from 64 B to 1 MiB and at both ends of
  // the rank range, xhc's reduce must cost no more than its allreduce, on
  // average over ranks and at the root's completion (the slowest rank).
  const std::vector<std::size_t> sizes{64,    256,    1024,    4096,
                                       16384, 65536, 262144, 1 << 20};
  osu::Config cfg;
  cfg.verify = false;
  for (const auto system : topo::paper_systems()) {
    const int n = topo::by_name(system).n_cores();
    sim::SimMachine ma(topo::by_name(system), n);
    auto ca = coll::make_component("xhc", ma);
    const auto all = osu::allreduce_sweep(ma, *ca, sizes, cfg);
    for (const int root : {0, n - 1}) {
      sim::SimMachine mr(topo::by_name(system), n);
      auto cr = coll::make_component("xhc", mr);
      cfg.root = root;
      const auto red = osu::reduce_sweep(mr, *cr, sizes, cfg);
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        EXPECT_LE(red[k].avg_us, all[k].avg_us)
            << system << " root " << root << " at " << sizes[k] << " B";
        EXPECT_LE(red[k].max_us, all[k].max_us)
            << system << " root " << root << " at " << sizes[k] << " B";
      }
    }
  }
}

TEST(PaperShapes, XbrcTracksXhcFlat) {
  // The two flat single-copy reducers behave alike (paper §V-D2).
  const double flat = allreduce_us("epyc2p", "xhc-flat", 64 * 1024);
  const double xbrc = allreduce_us("epyc2p", "xbrc", 64 * 1024);
  EXPECT_LT(std::max(flat, xbrc) / std::min(flat, xbrc), 3.0);
}

// --- Determinism of the whole pipeline ------------------------------------------

TEST(PaperShapes, SweepsAreDeterministic) {
  const double a = bcast_us("epyc2p", "xhc", 65536);
  const double b = bcast_us("epyc2p", "xhc", 65536);
  EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace xhc
