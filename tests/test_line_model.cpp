// Coherence observatory tests: LineModel/CohStats event accounting, delta
// publishing, and SimMachine end-to-end attribution (ISSUE 6).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "mach/flag.h"
#include "obs/coh.h"
#include "obs/metrics.h"
#include "sim/coh_stats.h"
#include "sim/line_model.h"
#include "sim/params.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/cacheline.h"

namespace xhc::sim {
namespace {

/// Synthetic address on cache line `id` (the model keys on line_of(addr)).
const void* ln(int id) {
  return reinterpret_cast<const void*>(static_cast<std::uintptr_t>(id) * 64);
}

class LineModelCohTest : public ::testing::Test {
 protected:
  LineModelCohTest()
      : topo_(topo::epyc1p()), params_(epyc_like_params()),
        lines_(&topo_, &params_) {
    stats_.set_enabled(true);
    lines_.set_stats(&stats_);
  }
  std::uint64_t total(CohEvent e) const { return stats_.total(e); }

  topo::Topology topo_;
  SimParams params_;
  CohStats stats_;
  LineModel lines_;
};

TEST_F(LineModelCohTest, OwnerHandoffCountsTransferAndInval) {
  lines_.write(ln(1), 0, 0.0);
  EXPECT_EQ(lines_.owner_of(ln(1)), 0);
  EXPECT_EQ(total(CohEvent::kOwnershipTransfer), 0u);

  lines_.write(ln(1), 8, 1.0);  // foreign owner: transfer + invalidate
  EXPECT_EQ(lines_.owner_of(ln(1)), 8);
  EXPECT_EQ(total(CohEvent::kOwnershipTransfer), 1u);
  EXPECT_EQ(total(CohEvent::kInvalBroadcast), 1u);

  lines_.write(ln(1), 8, 2.0);  // same owner, no sharers: neither
  EXPECT_EQ(total(CohEvent::kOwnershipTransfer), 1u);
  EXPECT_EQ(total(CohEvent::kInvalBroadcast), 1u);
}

TEST_F(LineModelCohTest, ReadClassification) {
  (void)lines_.read(ln(1), 5, 0.0);  // never written
  EXPECT_EQ(total(CohEvent::kLocalHit), 1u);

  lines_.write(ln(1), 0, 1.0);
  (void)lines_.read(ln(1), 8, 2.0);  // dirty, remote: HITM at owner's port
  EXPECT_EQ(total(CohEvent::kHitm), 1u);
  EXPECT_EQ(stats_.hitm_pairs().at({0, 8}), 1u);

  (void)lines_.read(ln(1), 9, 3.0);  // 8 and 9 share an L3: peer assist
  EXPECT_EQ(total(CohEvent::kLlcHit), 1u);

  (void)lines_.read(ln(1), 12, 4.0);  // clean line, other LLC group
  EXPECT_EQ(total(CohEvent::kRemoteFill), 1u);

  (void)lines_.read(ln(1), 0, 5.0);  // owner reads its own line
  EXPECT_EQ(total(CohEvent::kLocalHit), 2u);
}

TEST(LineModelCohArm, SlcServiceInsteadOfLlcAssist) {
  topo::Topology arm = topo::armn1();
  SimParams params = armn1_params();
  LineModel lines(&arm, &params);
  CohStats st;
  st.set_enabled(true);
  lines.set_stats(&st);

  lines.write(ln(1), 0, 0.0);
  (void)lines.read(ln(1), 10, 1.0);  // dirty: HITM, then lives in the SLC
  (void)lines.read(ln(1), 11, 2.0);  // no peer assist on the SLC machine
  (void)lines.read(ln(1), 12, 3.0);
  EXPECT_EQ(st.total(CohEvent::kHitm), 1u);
  EXPECT_EQ(st.total(CohEvent::kSlcHit), 2u);
  EXPECT_EQ(st.total(CohEvent::kLlcHit), 0u);
}

TEST_F(LineModelCohTest, PipelinedReadOverlapsLatencyButSerializes) {
  lines_.write(ln(1), 0, 0.0);
  const double full = lines_.read(ln(1), 8, 1.0);

  LineModel fresh(&topo_, &params_);
  fresh.write(ln(1), 0, 0.0);
  const double piped = fresh.read(ln(1), 8, 1.0, /*pipelined=*/true);
  EXPECT_LT(piped, full);  // only a quarter of the miss latency is exposed

  // Occupancy still applies: a second pipelined read of another line owned
  // by the same core queues behind the first at the owner's port.
  fresh.write(ln(2), 0, 0.0);
  LineModel fresh2(&topo_, &params_);
  fresh2.write(ln(2), 0, 0.0);
  const double alone = fresh2.read(ln(2), 12, 1.0, /*pipelined=*/true);
  const double queued = fresh.read(ln(2), 12, 1.0, /*pipelined=*/true);
  EXPECT_GT(queued, alone);
}

TEST_F(LineModelCohTest, RmwSerializesAndTransfersOwnership) {
  const double t1 = lines_.rmw(ln(1), 0, 0.0);
  const double t2 = lines_.rmw(ln(1), 4, 0.0);
  const double t3 = lines_.rmw(ln(1), 8, 0.0);
  EXPECT_GT(t2, t1);
  EXPECT_GT(t3, t2);
  EXPECT_EQ(total(CohEvent::kRmw), 3u);
  // The first RMW finds the line unowned; the other two steal it.
  EXPECT_EQ(total(CohEvent::kOwnershipTransfer), 2u);
  EXPECT_EQ(stats_.lines().at(util::line_of(ln(1))).rmws, 3u);
}

TEST_F(LineModelCohTest, StoreSeqBumpsEvenWithTrackingOff) {
  stats_.set_enabled(false);
  EXPECT_EQ(lines_.store_seq(ln(1)), 0u);
  lines_.write(ln(1), 0, 0.0);
  lines_.rmw(ln(1), 4, 1.0);
  EXPECT_EQ(lines_.store_seq(ln(1)), 2u);  // accounting state, not stats
  EXPECT_EQ(stats_.total(CohEvent::kRmw), 0u);  // but no events recorded
  EXPECT_TRUE(stats_.lines().empty());
}

TEST_F(LineModelCohTest, TrackingIsTimingNeutral) {
  LineModel untracked(&topo_, &params_);
  auto drive = [](LineModel& lm) {
    std::vector<double> ts;
    ts.push_back(lm.write(ln(1), 0, 0.0));
    ts.push_back(lm.read(ln(1), 8, 1.0));
    ts.push_back(lm.read(ln(1), 9, 1.0));
    ts.push_back(lm.write(ln(1), 4, 2.0));
    ts.push_back(lm.rmw(ln(2), 3, 2.5));
    ts.push_back(lm.rmw(ln(2), 7, 2.5));
    ts.push_back(lm.read(ln(2), 12, 3.0, /*pipelined=*/true));
    return ts;
  };
  const auto tracked_ts = drive(lines_);
  const auto untracked_ts = drive(untracked);
  ASSERT_EQ(tracked_ts.size(), untracked_ts.size());
  for (std::size_t i = 0; i < tracked_ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(tracked_ts[i], untracked_ts[i]) << "op " << i;
  }
  EXPECT_GT(stats_.total(CohEvent::kHitm), 0u);  // tracking did record
}

TEST_F(LineModelCohTest, ResetClearsAllState) {
  lines_.write(ln(1), 0, 0.0);
  (void)lines_.read(ln(1), 8, 1.0);
  lines_.reset();
  EXPECT_EQ(lines_.owner_of(ln(1)), -1);
  EXPECT_EQ(lines_.store_seq(ln(1)), 0u);
  // A fresh read is a cold local hit again, with no port queue memory.
  const double r = lines_.read(ln(1), 8, 10.0);
  EXPECT_DOUBLE_EQ(r, 10.0 + params_.line_hit);

  stats_.reset();
  EXPECT_EQ(stats_.total(CohEvent::kHitm), 0u);
  EXPECT_TRUE(stats_.lines().empty());
  EXPECT_TRUE(stats_.hitm_pairs().empty());
  EXPECT_TRUE(stats_.active_cores().empty());
}

TEST_F(LineModelCohTest, PerCoreAttributionAndSpinRefetchHook) {
  lines_.write(ln(1), 0, 0.0);
  (void)lines_.read(ln(1), 8, 1.0);
  EXPECT_EQ(stats_.core_count(8, CohEvent::kHitm), 1u);
  EXPECT_EQ(stats_.core_count(0, CohEvent::kHitm), 0u);

  stats_.on_spin_refetch(ln(1), 8, 0, 3);
  stats_.on_spin_refetch(ln(1), 8, 0, 0);  // n == 0 records nothing
  EXPECT_EQ(stats_.core_count(8, CohEvent::kSpinRefetch), 3u);
  EXPECT_EQ(stats_.lines().at(util::line_of(ln(1))).spin_refetches, 3u);
  EXPECT_EQ(stats_.hitm_pairs().at({0, 8}), 4u);  // 1 HITM + 3 refetches
}

TEST_F(LineModelCohTest, PublishDeltaNeverDoubleCounts) {
  lines_.write(ln(1), 0, 0.0);
  (void)lines_.read(ln(1), 8, 1.0);

  auto d1 = stats_.publish_delta(8);
  EXPECT_EQ(d1[static_cast<int>(CohEvent::kHitm)], 1u);
  auto d2 = stats_.publish_delta(8);
  EXPECT_EQ(d2[static_cast<int>(CohEvent::kHitm)], 0u);  // already published

  lines_.write(ln(1), 0, 2.0);
  (void)lines_.read(ln(1), 8, 3.0);
  auto d3 = stats_.publish_delta(8);
  EXPECT_EQ(d3[static_cast<int>(CohEvent::kHitm)], 1u);  // only the new one

  auto dn = stats_.publish_delta(99);  // unseen core: all zeros
  for (const auto v : dn) EXPECT_EQ(v, 0u);
}

TEST(LineModelWide, LlcGroupsPastOneMaskWordShareAndInvalidate) {
  // 100 LLC groups of two cores: a line's sharer mask spans two words, and
  // cores 150 and 151 (group 75) and 198 and 199 (group 99) sit in the
  // second one.
  const topo::Topology wide = topo::grid("wide", 1, 1, 200, 2);
  ASSERT_EQ(wide.n_llc(), 100);
  const SimParams params = epyc_like_params();
  LineModel lines(&wide, &params);
  CohStats stats;
  stats.set_enabled(true);
  lines.set_stats(&stats);

  (void)lines.write(ln(1), 150, 0.0);
  (void)lines.read(ln(1), 199, 1.0);  // HITM: groups 75 and 99 now share
  EXPECT_EQ(stats.total(CohEvent::kHitm), 1u);
  EXPECT_DOUBLE_EQ(lines.read(ln(1), 198, 2.0), 2.0 + params.line_lat_llc);
  EXPECT_DOUBLE_EQ(lines.read(ln(1), 151, 3.0), 3.0 + params.line_lat_llc);
  (void)lines.read(ln(1), 0, 4.0);  // group 0, first word: a remote fill
  EXPECT_EQ(stats.total(CohEvent::kRemoteFill), 1u);
  EXPECT_DOUBLE_EQ(lines.read(ln(1), 1, 5.0), 5.0 + params.line_lat_llc);
  EXPECT_EQ(stats.total(CohEvent::kLlcHit), 3u);

  // The owner stores again: only the sharer mask makes it an invalidation.
  EXPECT_DOUBLE_EQ(lines.write(ln(1), 150, 6.0),
                   6.0 + params.store_cost + params.inval_cost);
  EXPECT_EQ(stats.total(CohEvent::kInvalBroadcast), 1u);
  EXPECT_EQ(stats.total(CohEvent::kOwnershipTransfer), 0u);
  (void)lines.read(ln(1), 198, 7.0);  // the store dropped group 99 ...
  (void)lines.read(ln(1), 1, 8.0);    // ... and group 0
  EXPECT_EQ(stats.total(CohEvent::kHitm), 2u);
  EXPECT_EQ(stats.total(CohEvent::kRemoteFill), 2u);
  EXPECT_EQ(stats.total(CohEvent::kLlcHit), 3u);
}

// ---------------------------------------------------------------------------
// SimMachine end-to-end: attribution, spin-refetch windows, publishing.

TEST(SimMachineCoh, FlagTrafficAttributedByName) {
  SimMachine m(topo::mini8(), 8);
  m.set_coh_tracking(true);
  auto* f = static_cast<mach::Flag*>(m.alloc(0, sizeof(mach::Flag)));
  m.verify_ledger().register_flag(f, "t.sig");
  m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      ctx.flag_store(*f, 1);
    } else {
      ctx.flag_wait_ge(*f, 1);
    }
  });
  obs::CohReport report;
  ASSERT_TRUE(m.coh_report(&report));
  ASSERT_FALSE(report.lines.empty());
  bool found = false;
  for (const auto& l : report.lines) found = found || l.name == "t.sig";
  EXPECT_TRUE(found) << "flag name not attributed in the line table";
  EXPECT_GT(report.totals.hitm_class() + report.totals.local_hits +
                report.totals.llc_hits + report.totals.remote_fills,
            0u);
  m.free(f);
}

TEST(SimMachineCoh, UnregisteredLinesFoldIntoOneRow) {
  SimMachine m(topo::mini8(), 8);
  m.set_coh_tracking(true);
  auto* f = static_cast<mach::Flag*>(m.alloc(0, sizeof(mach::Flag)));
  m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      ctx.flag_store(*f, 1);
    } else if (ctx.rank() == 1) {
      ctx.flag_wait_ge(*f, 1);
    }
  });
  obs::CohReport report;
  ASSERT_TRUE(m.coh_report(&report));
  int anon_rows = 0;
  for (const auto& l : report.lines) {
    anon_rows += (l.name == "(unregistered)") ? 1 : 0;
    EXPECT_EQ(l.name.find("0x"), std::string::npos)
        << "raw address leaked into report: " << l.name;
  }
  EXPECT_EQ(anon_rows, 1);
  m.free(f);
}

TEST(SimMachineCoh, SpinWindowCountsMidWaitStores) {
  SimMachine m(topo::mini8(), 8);
  m.set_coh_tracking(true);
  auto* f = static_cast<mach::Flag*>(m.alloc(0, sizeof(mach::Flag)));
  m.verify_ledger().register_flag(f, "t.spin");
  m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 1; i <= 3; ++i) {
        ctx.charge(1e-6);
        ctx.flag_store(*f, static_cast<std::uint64_t>(i));
      }
    } else if (ctx.rank() == 1) {
      ctx.flag_wait_ge(*f, 3);
    }
  });
  // Rank 1 blocks before the first store; stores 1 and 2 land mid-wait and
  // each invalidates its spinning copy — 2 modeled re-fetches, serviced by
  // the owner, on the spinner's core.
  EXPECT_EQ(m.coh_stats().total(CohEvent::kSpinRefetch), 2u);
  obs::CohReport report;
  ASSERT_TRUE(m.coh_report(&report));
  const obs::CohTotals t = obs::coh_sum_matching(report, "t.spin");
  EXPECT_EQ(t.spin_refetches, 2u);
  m.free(f);
}

TEST(SimMachineCoh, PublishIntoMetricsComposesWithReset) {
  SimMachine m(topo::mini8(), 8);
  m.set_coh_tracking(true);
  auto* f = static_cast<mach::Flag*>(m.alloc(0, sizeof(mach::Flag)));
  m.verify_ledger().register_flag(f, "t.pub");
  auto traffic = [&] {
    m.run([&](mach::Ctx& ctx) {
      if (ctx.rank() == 0) {
        ctx.flag_store(*f, ctx.flag_read(*f) + 1);
      } else {
        ctx.flag_wait_ge(*f, 1);
      }
    });
  };
  traffic();

  obs::Metrics metrics(8);
  m.publish_coh_counters(metrics);
  const std::uint64_t first = metrics.total(obs::Counter::kCohHitm) +
                              metrics.total(obs::Counter::kCohLocalHit) +
                              metrics.total(obs::Counter::kCohRemoteFill) +
                              metrics.total(obs::Counter::kCohSpinRefetch);
  EXPECT_GT(first, 0u);

  // Re-publishing with no new traffic adds nothing (delta semantics).
  m.publish_coh_counters(metrics);
  EXPECT_EQ(metrics.total(obs::Counter::kCohHitm) +
                metrics.total(obs::Counter::kCohLocalHit) +
                metrics.total(obs::Counter::kCohRemoteFill) +
                metrics.total(obs::Counter::kCohSpinRefetch),
            first);

  // reset_counters + republish does not resurrect already-published events.
  metrics.reset_counters();
  m.publish_coh_counters(metrics);
  EXPECT_EQ(metrics.total(obs::Counter::kCohHitm), 0u);
  EXPECT_EQ(metrics.total(obs::Counter::kCohLocalHit), 0u);

  // New traffic after a reset publishes only the new deltas.
  traffic();
  m.publish_coh_counters(metrics);
  const std::uint64_t second = metrics.total(obs::Counter::kCohHitm) +
                               metrics.total(obs::Counter::kCohLocalHit) +
                               metrics.total(obs::Counter::kCohRemoteFill) +
                               metrics.total(obs::Counter::kCohSpinRefetch);
  EXPECT_GT(second, 0u);
  EXPECT_LE(second, first);  // one round of traffic, not two
  m.free(f);
}

TEST(SimMachineCoh, TrackingOffIsBitIdenticalAndFree) {
  auto drive = [](bool track) {
    SimMachine m(topo::mini8(), 8);
    m.set_coh_tracking(track);
    auto* f = static_cast<mach::Flag*>(m.alloc(0, sizeof(mach::Flag)));
    m.verify_ledger().register_flag(f, "t.zero");
    const auto rr = m.run([&](mach::Ctx& ctx) {
      if (ctx.rank() == 0) {
        ctx.flag_store(*f, 1);
      } else {
        ctx.flag_wait_ge(*f, 1);
      }
    });
    m.free(f);
    return rr.rank_time;
  };
  const auto on = drive(true);
  const auto off = drive(false);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i) {
    EXPECT_DOUBLE_EQ(on[i], off[i]) << "rank " << i;
  }

  SimMachine idle(topo::mini8(), 8);
  obs::CohReport report;
  ASSERT_TRUE(idle.coh_report(&report));  // tracking off: empty, not absent
  EXPECT_TRUE(report.lines.empty());
}

TEST(SimMachineCoh, Fig4StyleRmwsTransferOwnershipPerBump) {
  SimMachine m(topo::mini8(), 8);
  m.set_coh_tracking(true);
  auto* f = static_cast<mach::Flag*>(m.alloc(0, sizeof(mach::Flag)));
  m.verify_ledger().register_flag(f, "t.atomic_ctr",
                                  verify::WriterPolicy::kShared);
  m.run([&](mach::Ctx& ctx) { (void)ctx.fetch_add(*f, 1); });
  obs::CohReport report;
  ASSERT_TRUE(m.coh_report(&report));
  const obs::CohTotals t = obs::coh_sum_matching(report, "t.atomic_ctr");
  EXPECT_EQ(t.rmws, 8u);
  // The first bump finds the line unowned; every later one steals it from
  // the previous bumper's core (paper Fig. 4's ~N transfers for N RMWs).
  EXPECT_EQ(t.transfers, 7u);
  m.free(f);
}

TEST(SimMachineCoh, Fig10StylePackedLayoutCostsMoreThanSeparated) {
  constexpr int kRounds = 3;
  struct Cost {
    std::uint64_t hitm_class = 0;
    std::uint64_t transfers = 0;
  };
  // One leader publishing per-member announce flags; members spin on their
  // own flag. `packed` places all 7 member flags on one cache line
  // (sizeof(Flag) == 8), `separated` pads each to a private line.
  auto drive = [&](bool packed) {
    SimMachine m(topo::mini8(), 8);
    m.set_coh_tracking(true);
    const int n = m.n_ranks();
    void* mem = m.alloc(0, packed ? sizeof(mach::Flag) * 8
                                  : sizeof(util::CachePadded<mach::Flag>) * 8);
    auto flag_at = [&](int i) -> mach::Flag& {
      if (packed) return static_cast<mach::Flag*>(mem)[i];
      return *static_cast<util::CachePadded<mach::Flag>*>(mem)[i];
    };
    for (int i = 1; i < n; ++i) {
      m.verify_ledger().register_flag(
          &flag_at(i), (packed ? "t.packed[" : "t.sep[") + std::to_string(i) +
                           "]",
          verify::WriterPolicy::kFixed);
    }
    m.run([&](mach::Ctx& ctx) {
      for (int round = 1; round <= kRounds; ++round) {
        if (ctx.rank() == 0) {
          for (int i = 1; i < ctx.size(); ++i) {
            ctx.flag_store(flag_at(i), static_cast<std::uint64_t>(round));
          }
        } else {
          ctx.flag_wait_ge(flag_at(ctx.rank()),
                           static_cast<std::uint64_t>(round));
        }
        ctx.barrier();
      }
    });
    obs::CohReport report;
    EXPECT_TRUE(m.coh_report(&report));
    const obs::CohTotals t =
        obs::coh_sum_matching(report, packed ? "t.packed" : "t.sep");
    m.free(mem);
    return Cost{t.hitm + t.spin_refetches, t.transfers};
  };
  const Cost packed = drive(true);
  const Cost sep = drive(false);
  // The packed line eats strictly more HITM-class traffic: every store to a
  // neighbour's flag invalidates all other members' spinning copies.
  EXPECT_GT(packed.hitm_class + packed.transfers,
            sep.hitm_class + sep.transfers);
  EXPECT_GT(packed.hitm_class, 0u);
}

TEST(SimMachineCoh, ReportIsDeterministicAcrossMachines) {
  auto render = [] {
    SimMachine m(topo::mini8(), 8);
    m.set_coh_tracking(true);
    auto* f = static_cast<mach::Flag*>(m.alloc(0, sizeof(mach::Flag)));
    m.verify_ledger().register_flag(f, "t.det");
    auto* g = static_cast<mach::Flag*>(m.alloc(1, sizeof(mach::Flag)));
    // g stays unregistered: exercises the "(unregistered)" fold.
    m.run([&](mach::Ctx& ctx) {
      if (ctx.rank() == 0) {
        ctx.flag_store(*f, 1);
      } else if (ctx.rank() == 1) {
        ctx.flag_wait_ge(*f, 1);
        ctx.flag_store(*g, 1);
      } else if (ctx.rank() == 2) {
        ctx.flag_wait_ge(*g, 1);
      }
    });
    obs::CohReport report;
    EXPECT_TRUE(m.coh_report(&report));
    std::ostringstream os;
    obs::write_coh_report(os, report);
    m.free(f);
    m.free(g);
    return std::move(os).str();
  };
  // Two machines allocate at different heap addresses; byte-identical
  // output proves no address-dependent content or ordering leaks through.
  EXPECT_EQ(render(), render());
}

}  // namespace
}  // namespace xhc::sim
