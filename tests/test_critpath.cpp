// Critical-path analyzer tests: wait-arg packing, hand-built recorder
// scenarios (chain walking, ring-wrap alignment, degenerate single-rank
// ops), and end-to-end determinism on the simulator including a seeded
// straggler whose rank must surface as the latency bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "coll/registry.h"
#include "obs/critpath.h"
#include "obs/observer.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/prng.h"

namespace xhc::obs {
namespace {

TEST(CritPath, WaitArgRoundTrip) {
  for (const int level : {-1, 0, 1, 3}) {
    for (const int peer : {-1, 0, 7, 127}) {
      const WaitArg w = unpack_wait_arg(wait_arg(level, peer));
      EXPECT_EQ(w.level, level);
      EXPECT_EQ(w.peer, peer);
    }
  }
  // Arg 0 (spans recorded without the encoding) decodes to unknown/unknown.
  const WaitArg w = unpack_wait_arg(0);
  EXPECT_EQ(w.level, -1);
  EXPECT_EQ(w.peer, -1);
}

TEST(CritPath, EmptyRecorderYieldsNoOps) {
  Recorder rec(4, 32);
  EXPECT_TRUE(analyze_critical_paths(rec).empty());
  // The report writer copes with an empty op list too.
  std::ostringstream os;
  write_critpath_report(os, analyze_critical_paths(rec));
  EXPECT_NE(os.str().find("0 op"), std::string::npos);
}

TEST(CritPath, SingleRankOp) {
  Recorder rec(1, 32);
  rec.record(0, "copy", "pull", 0.1, 0.4);
  rec.record(0, "collective", "solo.bcast", 0.0, 1.0, /*arg=*/64);
  const auto ops = analyze_critical_paths(rec);
  ASSERT_EQ(ops.size(), 1u);
  const OpReport& op = ops[0];
  EXPECT_EQ(op.name, "solo.bcast");
  EXPECT_EQ(op.arg, 64u);
  EXPECT_EQ(op.bound_rank, 0);
  EXPECT_DOUBLE_EQ(op.latency_s(), 1.0);
  // No waits: the chain is just the bound rank, all time is self time.
  EXPECT_TRUE(op.chain.empty());
  ASSERT_EQ(op.ranks.size(), 1u);
  EXPECT_DOUBLE_EQ(op.ranks[0].wait_s, 0.0);
  EXPECT_DOUBLE_EQ(op.ranks[0].self_s(), 1.0);
  ASSERT_TRUE(op.phases.count("copy"));
  EXPECT_DOUBLE_EQ(op.phases.at("copy"), 0.3);
}

// Three ranks: r2 waits on r1, r1 waits on r0. The analyzer must walk the
// chain r2 <- r1 <- r0 and attribute per-level waits.
TEST(CritPath, WalksBlockingChain) {
  Recorder rec(3, 32);
  // r0: root, finishes its part early.
  rec.record(0, "collective", "x.bcast", 0.0, 0.4, 128);
  // r1: leader waiting on the root at level 1 until 0.5.
  rec.record(1, "wait", "seq_wait", 0.1, 0.5, wait_arg(1, 0));
  rec.record(1, "collective", "x.bcast", 0.0, 0.7, 128);
  // r2: member waiting on its leader r1 at level 0 until 0.8; slowest.
  rec.record(2, "wait", "announce_wait", 0.2, 0.8, wait_arg(0, 1));
  rec.record(2, "collective", "x.bcast", 0.0, 1.0, 128);

  const auto ops = analyze_critical_paths(rec);
  ASSERT_EQ(ops.size(), 1u);
  const OpReport& op = ops[0];
  EXPECT_EQ(op.bound_rank, 2);
  EXPECT_DOUBLE_EQ(op.t_end, 1.0);

  ASSERT_EQ(op.chain.size(), 2u);
  EXPECT_EQ(op.chain[0].rank, 2);
  EXPECT_EQ(op.chain[0].peer, 1);
  EXPECT_EQ(op.chain[0].level, 0);
  EXPECT_STREQ(op.chain[0].site, "announce_wait");
  EXPECT_DOUBLE_EQ(op.chain[0].wait_s, 0.6);
  EXPECT_EQ(op.chain[1].rank, 1);
  EXPECT_EQ(op.chain[1].peer, 0);
  EXPECT_EQ(op.chain[1].level, 1);

  ASSERT_TRUE(op.levels.count(0));
  ASSERT_TRUE(op.levels.count(1));
  EXPECT_EQ(op.levels.at(0).waits, 1u);
  EXPECT_DOUBLE_EQ(op.levels.at(0).wait_s, 0.6);
  EXPECT_DOUBLE_EQ(op.ranks[2].wait_s, 0.6);
  EXPECT_DOUBLE_EQ(op.ranks[2].self_s(), 0.4);
}

// Rank 1's tiny ring dropped the older op; only the op every rank retains
// is reported, aligned from the end of each ring.
TEST(CritPath, RingWrapAlignsFromTheEnd) {
  Recorder rec(2, 2);  // capacity 2 spans per rank
  rec.record(0, "collective", "first", 0.0, 1.0);
  rec.record(0, "collective", "second", 2.0, 3.0);
  rec.record(1, "wait", "seq_wait", 2.0, 2.5, wait_arg(0, 0));
  rec.record(1, "collective", "second", 2.0, 3.5);
  // rank 1's ring holds only the second op (wait + collective); rank 0
  // still holds both collectives.
  const auto ops = analyze_critical_paths(rec);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].name, "second");
  EXPECT_EQ(ops[0].bound_rank, 1);
  ASSERT_EQ(ops[0].chain.size(), 1u);
  EXPECT_EQ(ops[0].chain[0].peer, 0);
}

/// Runs `iters` bcasts of `bytes` with component `comp_name` on mini8 with
/// tracing on (optionally with a fault plan) and leaves the spans in
/// `observer`.
void run_sim(const std::string& faults, int iters, Observer& observer,
             const char* comp_name = "xhc", std::size_t bytes = 16u << 10) {
  sim::SimMachine machine(topo::mini8(), 8);
  coll::Tuning tuning;
  tuning.trace = true;
  tuning.faults = faults;
  auto comp = coll::make_component(comp_name, machine, tuning);
  comp->set_observer(&observer);

  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < 8; ++r) bufs.emplace_back(machine, r, bytes);
  util::fill_pattern(bufs[0].get(), bytes, 3);
  machine.run([&](mach::Ctx& ctx) {
    for (int it = 0; it < iters; ++it) {
      comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                  bytes, 0);
    }
  });
}

std::string sim_report(const std::string& faults, int iters) {
  Observer observer(8);
  run_sim(faults, iters, observer);
  std::ostringstream os;
  write_critpath_report(os, analyze_critical_paths(observer.trace()));
  return os.str();
}

TEST(CritPath, SimReportIsDeterministic) {
  const std::string a = sim_report("", 3);
  EXPECT_NE(a.find("xhc.bcast"), std::string::npos);
  EXPECT_EQ(a, sim_report("", 3));  // byte-for-byte across runs
}

TEST(CritPath, StragglerInflatesTheCriticalPath) {
  // Rank 5 loses 100us before every flag publication; clean mini8 bcasts
  // finish in a few us. The injected stall must show up as op latency and
  // as blocking-wait time in the analysis.
  const std::string spec = "straggler,prob=1,rank=5,delay=1e-4";
  Observer clean_obs(8);
  Observer slow_obs(8);
  run_sim("", 2, clean_obs);
  run_sim(spec, 2, slow_obs);
  const auto clean = analyze_critical_paths(clean_obs.trace());
  const auto slow = analyze_critical_paths(slow_obs.trace());
  ASSERT_FALSE(clean.empty());
  ASSERT_EQ(clean.size(), slow.size());

  for (std::size_t k = 0; k < clean.size(); ++k) {
    EXPECT_GT(slow[k].latency_s(), clean[k].latency_s() + 5e-5) << k;
    // The added latency is blocking, not compute: total wait grows by at
    // least one injected delay, and the chain walk surfaces a wait that
    // long on the critical path.
    auto total_wait = [](const OpReport& op) {
      double w = 0.0;
      for (const RankBreakdown& rb : op.ranks) w += rb.wait_s;
      return w;
    };
    EXPECT_GT(total_wait(slow[k]), total_wait(clean[k]) + 5e-5) << k;
    ASSERT_FALSE(slow[k].chain.empty()) << k;
    double longest = 0.0;
    for (const ChainStep& step : slow[k].chain) {
      longest = std::max(longest, step.wait_s);
    }
    EXPECT_GT(longest, 5e-5) << k;
  }
  // Deterministic under a fixed seed as well.
  EXPECT_EQ(sim_report(spec, 2), sim_report(spec, 2));
}

TEST(CritPath, ChainNamesTheStraggler) {
  // xhc-flat at 64 KiB: the root's ack loop waits out straggler r5, then
  // finds r6's and r7's acks already published. The walk must follow the
  // wait that blocked (on r5), not the last one in the loop.
  Observer observer(8);
  run_sim("straggler,prob=1,rank=5,delay=1e-4", 2, observer, "xhc-flat",
          64u << 10);
  const auto ops = analyze_critical_paths(observer.trace());
  std::ostringstream report;
  write_critpath_report(report, ops);
  ASSERT_EQ(ops.size(), 2u);
  for (const OpReport& op : ops) {
    ASSERT_FALSE(op.chain.empty());
    EXPECT_EQ(op.chain.front().peer, 5) << report.str();
    EXPECT_GT(op.chain.front().wait_s, 5e-5) << report.str();
  }
}

TEST(CritPath, SatisfiedWaitsAreSteppedOver) {
  // r0 blocks on r1 until 0.5, then finds r2's flag already published: the
  // chain follows the blocking wait, though the satisfied one ends later.
  Recorder rec(3, 32);
  rec.record(1, "collective", "x.bcast", 0.0, 0.45, 128);
  rec.record(2, "collective", "x.bcast", 0.0, 0.1, 128);
  rec.record(0, "wait", "wait_acks", 0.1, 0.5, wait_arg(0, 1));
  rec.record(0, "wait", "wait_acks", 0.5, 0.51,
             wait_arg(0, 2, /*blocked=*/false));
  rec.record(0, "collective", "x.bcast", 0.0, 0.6, 128);
  const auto ops = analyze_critical_paths(rec);
  ASSERT_EQ(ops.size(), 1u);
  ASSERT_EQ(ops[0].chain.size(), 1u);
  EXPECT_EQ(ops[0].chain[0].peer, 1);
  const WaitArg satisfied = unpack_wait_arg(wait_arg(3, 7, false));
  EXPECT_EQ(satisfied.level, 3);
  EXPECT_EQ(satisfied.peer, 7);
  EXPECT_FALSE(satisfied.blocked);
  // Both waits still count toward level 0.
  EXPECT_EQ(ops[0].levels.at(0).waits, 2u);
}

}  // namespace
}  // namespace xhc::obs
