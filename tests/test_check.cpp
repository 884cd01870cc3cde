// Protocol checker tests (src/check/):
//   * recorder — a payload access outside every machine allocation, or a
//     flag_read inside an op, makes record_schedule throw instead of
//     returning a schedule with a blind spot,
//   * analyzer sweep — every target x op x size x tuning first-op schedule
//     and every steady-state sequence recorded from the real collectives is
//     clean, and reports are byte-identical across fresh machines,
//   * mutation kill score — every seeded protocol bug yields the predicted
//     finding (property, flag, rank), and the threshold bugs are killed
//     statically even though a default-schedule execution stays green,
//   * exploration — the sleep-set DFS exhausts the real collectives on the
//     tiny topologies with no failing interleaving, and finds the seeded
//     deadlock when one exists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <iostream>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "check/analyzer.h"
#include "check/explore.h"
#include "check/interp.h"
#include "check/mutate.h"
#include "check/record.h"
#include "coll/component.h"
#include "coll/tuning.h"
#include "core/xhc_component.h"
#include "mach/machine.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/check.h"
#include "util/prng.h"
#include "verify/verify.h"

namespace xhc {
namespace {

using check::Op;
using check::OpCall;

// ---------------------------------------------------------------------------
// Recorder: blind spots are errors
// ---------------------------------------------------------------------------

/// A bcast with one blind spot: it copies the payload from host memory no
/// machine allocation covers, or it polls a flag.
class BlindBcast final : public coll::Component {
 public:
  BlindBcast(mach::Machine& m, bool poll)
      : poll_(poll), line_(m, 0, 64), host_(1 << 16) {
    flag_ = new (line_.get()) mach::Flag();
  }
  std::string_view name() const noexcept override { return "blind"; }
  void bcast(mach::Ctx& ctx, void* buf, std::size_t bytes, int) override {
    if (poll_) {
      (void)ctx.flag_read(*flag_);
    } else {
      ctx.copy(buf, host_.data(), bytes);
    }
  }
  void allreduce(mach::Ctx&, const void*, void*, std::size_t, mach::DType,
                 mach::ROp) override {}

 private:
  bool poll_;
  mach::Buffer line_;
  mach::Flag* flag_ = nullptr;
  std::vector<unsigned char> host_;
};

std::string record_error(bool poll) {
  sim::SimMachine machine(topo::flat(4), 4);
  BlindBcast comp(machine, poll);
  try {
    (void)check::record_schedule(machine, comp, {{Op::kBcast, 512, 0}});
  } catch (const util::Error& e) {
    return e.what();
  }
  return "";
}

TEST(CheckRecorder, PayloadOutsideAllocationsThrows) {
  const std::string what = record_error(/*poll=*/false);
  EXPECT_NE(what.find("outside every machine allocation"), std::string::npos)
      << what;
}

TEST(CheckRecorder, FlagReadInsideOpThrows) {
  const std::string what = record_error(/*poll=*/true);
  EXPECT_NE(what.find("flag_read inside a recorded op"), std::string::npos)
      << what;
}

// The replay's ledger judges what the machine reports: an RMW on a
// single-writer flag is a violation carrying the RMW's result (5), not the
// value it read (0).
TEST(CheckInterp, RmwViolationCarriesTheResult) {
  sim::SimMachine machine(topo::flat(2), 2);
  mach::Buffer line(machine, 0, 64);
  const auto* f = new (line.get()) mach::Flag();
  machine.verify_ledger().register_flag(f, "test.single");
  check::Schedule s;
  s.ops = {{Op::kBarrier, 0, 0}};
  s.n_ranks = 2;
  s.per_rank.resize(2);
  s.per_rank[0].push_back({.kind = check::EvKind::kRmw, .flag = f, .value = 5});
  const check::InterpResult res =
      check::run_model(s, machine, machine.verify_ledger());
  EXPECT_TRUE(res.completed);
  ASSERT_EQ(res.violations.size(), 1u);
  EXPECT_EQ(res.violations[0].kind, verify::Kind::kRmwOnSingleWriter);
  EXPECT_EQ(res.violations[0].value, 5u);
}

// ---------------------------------------------------------------------------
// Analyzer sweep: every target x op x size x tuning is clean + deterministic
// ---------------------------------------------------------------------------

struct Target {
  std::string name;
  std::function<topo::Topology()> topo;
};

std::vector<Target> sweep_targets() {
  std::vector<Target> targets;
  for (const char* name : {"epyc1p", "epyc2p", "armn1", "mini8", "mini16"}) {
    targets.push_back({name, [name] { return topo::by_name(name); }});
  }
  targets.push_back({"flat4", [] { return topo::flat(4); }});
  targets.push_back({"flat8", [] { return topo::flat(8); }});
  targets.push_back(
      {"grid12", [] { return topo::grid("grid12", 2, 3, 2, 2); }});
  return targets;
}

/// The first-op cells: bcast and reduce at both end roots, allreduce, and
/// barrier, at one size per regime (CICO, pipelined, large-message; the
/// default tuning's allreduce takes rs+ag above 8 KiB).
std::vector<OpCall> first_op_cells(int n) {
  std::vector<OpCall> cells;
  for (const std::size_t bytes : {512, 32768, 262144}) {
    for (const int root : {0, n - 1}) {
      cells.push_back({Op::kBcast, bytes, root});
      cells.push_back({Op::kReduce, bytes, root});
    }
    cells.push_back({Op::kAllreduce, bytes, 0});
  }
  cells.push_back({Op::kBarrier, 0, 0});
  return cells;
}

/// Records `ops` on a fresh component over `machine` and analyzes them.
check::AnalysisReport record_and_analyze(sim::SimMachine& machine,
                                         const coll::Tuning& tuning,
                                         const std::vector<OpCall>& ops) {
  core::XhcComponent comp(machine, tuning, "sweep");
  return check::analyze(check::record_schedule(machine, comp, ops),
                        machine.verify_ledger());
}

/// Default tuning: the first-op cells and the steady-state sequences. Each
/// is recorded twice — on a machine whose clock and caches earlier cells
/// moved, and on a fresh one — and the reports must match byte for byte.
TEST(CheckAnalyzer, SweepAllPresetsClean) {
  for (const Target& tg : sweep_targets()) {
    const int n = tg.topo().n_cores();
    std::vector<std::vector<OpCall>> cells;
    for (const OpCall& c : first_op_cells(n)) cells.push_back({c});
    for (const std::size_t bytes : {512, 32768, 262144}) {
      cells.push_back(check::steady_state_ops(n, bytes));
    }
    sim::SimMachine machine(tg.topo(), n);
    for (const auto& ops : cells) {
      const check::AnalysisReport rep =
          record_and_analyze(machine, coll::Tuning{}, ops);
      EXPECT_TRUE(rep.clean()) << tg.name << "\n" << rep.text();
      sim::SimMachine fresh(tg.topo(), n);
      const check::AnalysisReport again =
          record_and_analyze(fresh, coll::Tuning{}, ops);
      EXPECT_EQ(rep.text(), again.text()) << tg.name;
      EXPECT_EQ(rep.json(), again.json()) << tg.name;
    }
  }
}

/// Nine-op steady-state sequences over the four-stage shard nests (LLC,
/// NUMA, socket, top) of epyc2p and mini16, at the first RS+AG size past the
/// default threshold and at a size with partition remainders at every stage.
TEST(CheckAnalyzer, RsAgFourStageNestsSteadyStateClean) {
  for (const char* name : {"epyc2p", "mini16"}) {
    const topo::Topology topo = topo::by_name(name);
    const int n = topo.n_cores();
    sim::SimMachine machine(topo, n);
    ASSERT_EQ(core::XhcComponent(machine, coll::Tuning{}, "nest")
                  .shard_plan()
                  .n_stages(),
              4)
        << name;
    for (const std::size_t bytes : {8200, 100008}) {
      const check::AnalysisReport rep = record_and_analyze(
          machine, coll::Tuning{}, check::steady_state_ops(n, bytes));
      EXPECT_TRUE(rep.clean()) << name << " " << bytes << " B\n"
                               << rep.text();
    }
  }
}

/// Nine-op sequences whose sizes alternate across a size class, so
/// consecutive bcasts switch between the cache tree and the flag tree, and
/// allreduces and reduces between the fan-in and their multi-chunk paths:
/// a CICO one-chunk size against a multi-chunk one, and exactly one chunk
/// against one chunk plus an element.
TEST(CheckAnalyzer, ThresholdStraddlingSequencesClean) {
  for (const char* name : {"epyc2p", "mini16", "grid12"}) {
    const topo::Topology topo = std::string(name) == "grid12"
                                    ? topo::grid("grid12", 2, 3, 2, 2)
                                    : topo::by_name(name);
    const int n = topo.n_cores();
    sim::SimMachine machine(topo, n);
    ASSERT_TRUE(core::XhcComponent(machine, coll::Tuning{}, "straddle")
                    .tree()
                    .has_cache_tree())
        << name;
    for (const auto& [bytes, alt] :
         {std::pair<std::size_t, std::size_t>{512, 32768},
          std::pair<std::size_t, std::size_t>{16384, 16392}}) {
      const check::AnalysisReport rep = record_and_analyze(
          machine, coll::Tuning{},
          check::straddling_ops(check::steady_state_ops(n, bytes), alt));
      EXPECT_TRUE(rep.clean()) << name << " " << bytes << "/" << alt
                               << " B\n"
                               << rep.text();
    }
  }
}

/// A reduce at every root in turn between allreduces, barriers and bcasts,
/// whose one-chunk downward phases all end on the cache tree here: at
/// 4 KiB (single-copy) and at 64 KiB, and alternating 512 B (CICO) with
/// 32 KiB and 4 KiB with 64 KiB, so consecutive reduces switch between the
/// early-released fan-in and the reduce-scatter + rooted gather, whose
/// ranks return once their readers are done, and the allreduces between
/// the fan-in and RS+AG.
TEST(CheckAnalyzer, RotatingRootReducesClean) {
  for (const char* name : {"epyc2p", "mini16", "grid12"}) {
    const topo::Topology topo = std::string(name) == "grid12"
                                    ? topo::grid("grid12", 2, 3, 2, 2)
                                    : topo::by_name(name);
    const int n = topo.n_cores();
    sim::SimMachine machine(topo, n);
    for (const auto& ops :
         {check::rotating_root_ops(n, 4096),
          check::straddling_ops(check::rotating_root_ops(n, 512), 32768),
          check::rotating_root_ops(n, 65536),
          check::straddling_ops(check::rotating_root_ops(n, 4096), 65536)}) {
      const check::AnalysisReport rep =
          record_and_analyze(machine, coll::Tuning{}, ops);
      EXPECT_TRUE(rep.clean()) << name << " " << ops.front().bytes << " B\n"
                               << rep.text();
    }
  }
}

/// A bcast at every root in turn on the flag tree (`llc_aware` off) of
/// mini16 and grid12, at 4 KiB, at 40000 B (three chunks) and alternating
/// 512 B (CICO) with 40000 B: the members of a root-led group pull on the
/// root's seq alone, and where the next root leads another domain they
/// become a relaying leader's children, which keep the announce wait.
TEST(CheckAnalyzer, RotatingRootBcastsOnTheFlagTreeClean) {
  coll::Tuning flag_tree;
  flag_tree.llc_aware = false;
  for (const char* name : {"mini16", "grid12"}) {
    const topo::Topology topo = std::string(name) == "grid12"
                                    ? topo::grid("grid12", 2, 3, 2, 2)
                                    : topo::by_name(name);
    const int n = topo.n_cores();
    sim::SimMachine machine(topo, n);
    ASSERT_FALSE(core::XhcComponent(machine, flag_tree, "flag")
                     .tree()
                     .has_cache_tree())
        << name;
    for (const auto& ops :
         {check::rotating_bcast_ops(n, 4096),
          check::rotating_bcast_ops(n, 40000),
          check::straddling_ops(check::rotating_bcast_ops(n, 512), 40000)}) {
      const check::AnalysisReport rep =
          record_and_analyze(machine, flag_tree, ops);
      EXPECT_TRUE(rep.clean()) << name << " " << ops.front().bytes << " B\n"
                               << rep.text();
    }
  }
}

/// A 12-rank grid without a shared LLC whose socket groups chain three NUMA
/// leaders: above 128 KiB its bcasts pull along the chain (DESIGN.md
/// § Large-message paths), where a member pulls from a member.
topo::Topology chain_grid() { return topo::grid("grid12n", 2, 3, 2, 0); }
constexpr std::size_t kChainBytes = (std::size_t{128} << 10) + 4;

/// A bcast at every root in turn on the chain, and alternating with a
/// tree-sized 64 KiB bcast, so a rank's member group switches between
/// pulling from the leader and pulling along the chain, and the chain's
/// order changes with the root.
TEST(CheckAnalyzer, RotatingRootChainBcastsClean) {
  const int n = chain_grid().n_cores();
  sim::SimMachine machine(chain_grid(), n);
  for (const auto& ops :
       {check::rotating_bcast_ops(n, kChainBytes),
        check::straddling_ops(check::rotating_bcast_ops(n, kChainBytes),
                              std::size_t{64} << 10)}) {
    const check::AnalysisReport rep =
        record_and_analyze(machine, coll::Tuning{}, ops);
    EXPECT_TRUE(rep.clean()) << ops[1].bytes << " B\n" << rep.text();
  }
}

/// Every other tuning whose flag protocol differs, by name.
coll::Tuning variant_tuning(const std::string& name) {
  coll::Tuning t;
  if (name == "MultiSharedLine") {
    t.flag_layout = coll::FlagLayout::kMultiSharedLine;
  } else if (name == "MultiSeparateLines") {
    t.flag_layout = coll::FlagLayout::kMultiSeparateLines;
  } else if (name == "AtomicSync") {
    t.sync = coll::SyncMethod::kAtomicFetchAdd;
  } else if (name == "Stripe4K") {
    t.stripe_threshold = 4096;
  } else if (name == "RsAg4K") {
    t.rs_ag_threshold = 4096;
  } else if (name == "LargePathsOff") {
    t.stripe_threshold = 0;
    t.rs_ag_threshold = 0;
  } else {
    ADD_FAILURE() << "unknown tuning variant " << name;
  }
  return t;
}

/// First-op cells only: the multi-flag layouts' rotating writers and atomic
/// sync's partial counts are outside what the analyzer models across ops
/// (DESIGN.md). LargePathsOff also records the 32 KiB steady-state sequence:
/// the default tuning sends that size through reduce-scatter + allgather, so
/// this is where a pipelined latency-path allreduce meets k-op schedules.
/// Stripe4K records it too: xhc stripes no bcast by default, so this is
/// where the striped bcast meets k-op schedules.
class CheckTunings : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckTunings, FirstOpCellsClean) {
  const coll::Tuning tuning = variant_tuning(GetParam());
  for (const Target& tg : sweep_targets()) {
    const int n = tg.topo().n_cores();
    std::vector<std::vector<OpCall>> cells;
    for (const OpCall& c : first_op_cells(n)) cells.push_back({c});
    if (GetParam() == "LargePathsOff" || GetParam() == "Stripe4K") {
      cells.push_back(check::steady_state_ops(n, 32768));
    }
    sim::SimMachine machine(tg.topo(), n);
    for (const auto& ops : cells) {
      const check::AnalysisReport rep =
          record_and_analyze(machine, tuning, ops);
      EXPECT_TRUE(rep.clean()) << tg.name << "\n" << rep.text();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, CheckTunings,
                         ::testing::Values("MultiSharedLine",
                                           "MultiSeparateLines", "AtomicSync",
                                           "Stripe4K", "RsAg4K",
                                           "LargePathsOff"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---------------------------------------------------------------------------
// Mutation harness: 100% kill score with precise expectations
// ---------------------------------------------------------------------------

struct MutSpec {
  const char* label;
  std::function<topo::Topology()> topo;
  std::function<void(coll::Tuning&)> tune;
  std::vector<OpCall> ops;
};

/// One op per spec, except where an op's return points are the subject. A
/// lowered wait can only be satisfied by an earlier value of its flag, and
/// a rank that returns early only races with a write that follows, so
/// those specs run the op twice — every flag of the second has an earlier
/// value to be lowered to — and then an op that rewrites the root's
/// buffers (the record rewrites every rank's buffers before each op). The
/// barrier moves no data: its spec has the next allreduce wait on the slot
/// its release published.
std::vector<MutSpec> mutation_specs() {
  return {
      // Rank 4 relays to its NUMA group at root 0 and is the root next, so
      // its members' seq_wait has an earlier value to be lowered to.
      {"bcast_lat", [] { return topo::mini8(); }, nullptr,
       {{Op::kBcast, 40000, 0},
        {Op::kBcast, 40000, 4},
        {Op::kBcast, 40000, 0}}},
      {"bcast_stripe", [] { return topo::mini8(); },
       [](coll::Tuning& t) { t.stripe_threshold = 4096; },
       {{Op::kBcast, 16384, 0}}},
      {"allreduce_lat", [] { return topo::mini8(); },
       [](coll::Tuning& t) { t.rs_ag_threshold = 0; },
       {{Op::kAllreduce, 40000, 0}}},
      {"allreduce_rs_ag", [] { return topo::flat(8); },
       [](coll::Tuning& t) { t.rs_ag_threshold = 4096; },
       {{Op::kAllreduce, 16384, 0}}},
      {"allreduce_tree", [] { return topo::mini8(); }, nullptr,
       {{Op::kAllreduce, 4096, 0}}},
      // The chunk-parallel reducers, which the default tuning's reduce
      // leaves above 8 KiB.
      {"reduce", [] { return topo::mini8(); },
       [](coll::Tuning& t) { t.rs_ag_threshold = 0; },
       {{Op::kReduce, 40000, 2}}},
      // Reduce-scatter + rooted gather: every rank returns once its readers
      // are done, then an allreduce rewrites every buffer.
      {"reduce_rs_gather", [] { return topo::mini16(); }, nullptr,
       {{Op::kReduce, 40000, 5},
        {Op::kReduce, 40000, 5},
        {Op::kAllreduce, 40000, 0}}},
      {"reduce_tree", [] { return topo::mini8(); }, nullptr,
       {{Op::kReduce, 512, 2}}},
      {"barrier", [] { return topo::mini8(); }, nullptr,
       {{Op::kBarrier, 0, 0}}},
      // The cache tree's downward phases on mini16, whose LLC groups (2
      // ranks) are smaller than its NUMA nodes (4).
      {"bcast_cache", [] { return topo::mini16(); }, nullptr,
       {{Op::kBcast, 4096, 5}, {Op::kBcast, 4096, 5}, {Op::kBcast, 4096, 5}}},
      {"allreduce_cache", [] { return topo::mini16(); }, nullptr,
       {{Op::kAllreduce, 4096, 0},
        {Op::kAllreduce, 4096, 0},
        {Op::kAllreduce, 4096, 0}}},
      {"reduce_cache", [] { return topo::mini16(); }, nullptr,
       {{Op::kReduce, 4096, 5},
        {Op::kReduce, 4096, 5},
        {Op::kAllreduce, 4096, 0}}},
      {"barrier_cache", [] { return topo::mini16(); }, nullptr,
       {{Op::kBarrier, 0, 0}, {Op::kAllreduce, 4096, 0}}},
      // The bcast chain: members pull from members and wait for their
      // successors before they ack.
      {"bcast_chain", chain_grid, nullptr,
       {{Op::kBcast, kChainBytes, 0}, {Op::kBcast, kChainBytes, 0}}},
  };
}

class CheckMutants : public ::testing::TestWithParam<check::MutationKind> {};

TEST_P(CheckMutants, EverySeededMutantIsKilled) {
  const check::MutationKind kind = GetParam();
  const std::uint64_t seeds[] = {1, 2, 3, 5, 8, 13};
  int applied = 0;
  int killed = 0;
  for (const MutSpec& spec : mutation_specs()) {
    topo::Topology t = spec.topo();
    const int n = t.n_cores();
    sim::SimMachine machine(std::move(t), n);
    coll::Tuning tuning;
    if (spec.tune) spec.tune(tuning);
    core::XhcComponent comp(machine, tuning, "mut");
    const check::Schedule base =
        check::record_schedule(machine, comp, spec.ops);
    ASSERT_TRUE(check::analyze(base, machine.verify_ledger()).clean())
        << spec.label << ": baseline schedule must be clean";
    int spec_applied = 0;
    for (const std::uint64_t seed : seeds) {
      check::Schedule m = base;
      const check::MutantInfo info =
          check::apply_mutation(m, kind, seed, machine.verify_ledger());
      if (!info.applied) continue;
      ++applied;
      ++spec_applied;
      const check::AnalysisReport rep =
          check::analyze(m, machine.verify_ledger());
      const bool hit =
          std::any_of(rep.findings.begin(), rep.findings.end(),
                      [&](const check::Finding& f) { return info.killed_by(f); });
      if (hit) ++killed;
      EXPECT_TRUE(hit) << spec.label << " seed=" << seed << " "
                       << check::to_string(kind) << ": " << info.detail
                       << "\nexpected flag=" << info.flag
                       << " rank=" << info.rank << "\n"
                       << rep.text();
    }
    if (kind == check::MutationKind::kThresholdLow && spec.ops.size() > 1) {
      EXPECT_GT(spec_applied, 0)
          << spec.label << ": no premature read or return to lower";
    }
  }
  std::cout << check::to_string(kind) << ": " << applied << " applied, "
            << killed << " killed\n";
  EXPECT_GT(applied, 0) << "no candidate site in any schedule for "
                        << check::to_string(kind);
  EXPECT_EQ(killed, applied) << "kill score below 100% for "
                             << check::to_string(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CheckMutants,
    ::testing::Values(check::MutationKind::kThresholdLow,
                      check::MutationKind::kThresholdHigh,
                      check::MutationKind::kDroppedPublish,
                      check::MutationKind::kSwappedStageOrder,
                      check::MutationKind::kWidenedWriter),
    [](const ::testing::TestParamInfo<check::MutationKind>& info) {
      switch (info.param) {
        case check::MutationKind::kThresholdLow:
          return "ThresholdLow";
        case check::MutationKind::kThresholdHigh:
          return "ThresholdHigh";
        case check::MutationKind::kDroppedPublish:
          return "DroppedPublish";
        case check::MutationKind::kSwappedStageOrder:
          return "SwappedStageOrder";
        case check::MutationKind::kWidenedWriter:
          return "WidenedWriter";
      }
      return "Unknown";
    });

/// The chain's two waits, each lowered to its flag's first published value
/// as kThresholdLow does, in the bcast_chain spec: at root 0 the socket
/// group chains NUMA leaders 0, 2 and 4, so rank 4 waits on rank 2's
/// announce slot before each pull (lowered, it reads a chunk rank 2 has not
/// written), and rank 2 waits on rank 4's for the last chunk before it acks
/// (lowered, its next op rewrites the buffer rank 4 still reads). Both must
/// be killed, as races on the waiting rank named after the lowered flag.
TEST(CheckMutants, ChainWaitsLoweredAreKilled) {
  sim::SimMachine machine(chain_grid(), chain_grid().n_cores());
  core::XhcComponent comp(machine, coll::Tuning{}, "chain");
  const check::Schedule base = check::record_schedule(
      machine, comp,
      {{Op::kBcast, kChainBytes, 0}, {Op::kBcast, kChainBytes, 0}});
  ASSERT_TRUE(check::analyze(base, machine.verify_ledger()).clean());
  const core::CommView::Membership& m =
      comp.tree().view(0).memberships(2).back();
  ASSERT_EQ(m.members, (std::vector<int>{0, 2, 4}));
  const core::GroupShape& shape = comp.tree().shape(m.ctl_id);
  struct Site {
    int waiter;
    int writer;
  };
  int killed = 0;
  for (const Site site : {Site{4, 2}, Site{2, 4}}) {
    const mach::Flag* flag =
        &*comp.tree().ctl(m.ctl_id).announce[shape.slot_of(site.writer)];
    const auto& pubs = base.per_rank[static_cast<std::size_t>(site.writer)];
    const auto first = std::find_if(
        pubs.begin(), pubs.end(), [&](const check::Event& e) {
          return e.kind == check::EvKind::kPublish && e.flag == flag;
        });
    ASSERT_NE(first, pubs.end());
    check::Schedule mut = base;
    check::Event* wait = nullptr;
    auto& waits = mut.per_rank[static_cast<std::size_t>(site.waiter)];
    for (check::Event& e : waits) {
      if (e.op == 0 && e.kind == check::EvKind::kWait && e.flag == flag &&
          e.value > first->value) {
        wait = &e;
      }
    }
    ASSERT_NE(wait, nullptr) << "rank " << site.waiter;
    wait->value = first->value;
    const std::string name = machine.verify_ledger().flag_name(flag);
    const check::AnalysisReport rep =
        check::analyze(mut, machine.verify_ledger());
    const bool hit = std::any_of(
        rep.findings.begin(), rep.findings.end(), [&](const check::Finding& f) {
          return f.property == check::Property::kRace && f.flag == name &&
                 f.rank == site.waiter;
        });
    killed += hit ? 1 : 0;
    EXPECT_TRUE(hit) << "rank " << site.waiter << "'s wait on " << name
                     << " lowered\n"
                     << rep.text();
  }
  std::cout << "chain waits lowered: 2 applied, " << killed << " killed\n";
}

/// The reason the static pass exists: a lowered wait threshold terminates
/// and keeps the writer discipline intact — every signal a flag-level
/// execution under the canonical schedule gates on stays green. The
/// analyzer must kill it anyway.
TEST(CheckMutants, StaticPassCatchesWhatDefaultRunMisses) {
  sim::SimMachine machine(topo::mini8(), 8);
  core::XhcComponent comp(machine, coll::Tuning{}, "blind");
  const check::Schedule base =
      check::record_schedule(machine, comp, {{Op::kBcast, 40000, 0}});

  const check::InterpResult good =
      check::run_model(base, machine, machine.verify_ledger());
  ASSERT_TRUE(good.ok()) << (good.errors.empty() ? "unexpected replay failure"
                                                 : good.errors.front());

  bool demonstrated = false;
  for (std::uint64_t seed = 1; seed <= 32 && !demonstrated; ++seed) {
    check::Schedule m = base;
    const check::MutantInfo info = check::apply_mutation(
        m, check::MutationKind::kThresholdLow, seed, machine.verify_ledger());
    if (!info.applied) continue;
    const check::AnalysisReport rep =
        check::analyze(m, machine.verify_ledger());
    const bool static_kill =
        std::any_of(rep.findings.begin(), rep.findings.end(),
                    [&](const check::Finding& f) { return info.killed_by(f); });
    EXPECT_TRUE(static_kill) << info.detail << "\n" << rep.text();
    const check::InterpResult run =
        check::run_model(m, machine, machine.verify_ledger());
    // Termination + ledger discipline — all the default execution can
    // observe of the flag protocol — stay green.
    if (static_kill && run.completed && !run.deadlock &&
        run.violations.empty()) {
      demonstrated = true;
    }
  }
  EXPECT_TRUE(demonstrated)
      << "no threshold-low mutant survived the default-schedule run";
}

// ---------------------------------------------------------------------------
// Interleaving exploration
// ---------------------------------------------------------------------------

/// Explorer runner over one real collective: every execution rewrites the
/// payload buffers, runs `call` under the explorer's hook and sink, and
/// checks every delivered byte (bcast payload, i64 sums).
class RealRunner {
 public:
  RealRunner(sim::SimMachine& machine, coll::Component& comp, OpCall call)
      : machine_(machine), comp_(comp), call_(call) {
    const int n = machine.n_ranks();
    const std::size_t words = call.bytes / 8;
    std::vector<std::uint64_t> in(words);
    expect_.assign(words, 0);
    for (int r = 0; r < n && call.bytes > 0; ++r) {
      sbuf_.emplace_back(machine, r, call.bytes);
      rbuf_.emplace_back(machine, r, call.bytes);
      util::fill_pattern(in.data(), call.bytes,
                         100 + static_cast<std::uint64_t>(r));
      for (std::size_t i = 0; i < words; ++i) expect_[i] += in[i];
    }
    if (call.op == Op::kBcast) {
      util::fill_pattern(expect_.data(), call.bytes, 7);
    }
  }

  check::RunOutcome operator()(const sim::VirtualScheduler::PickHook& hook,
                               mach::EventSink* sink) {
    const int n = machine_.n_ranks();
    const std::size_t bytes = call_.bytes;
    for (std::size_t ri = 0; ri < sbuf_.size(); ++ri) {
      util::fill_pattern(sbuf_[ri].get(), bytes,
                         100 + static_cast<std::uint64_t>(ri));
      std::memset(rbuf_[ri].get(), 0, bytes);
    }
    if (call_.op == Op::kBcast) {
      std::memcpy(rbuf_[static_cast<std::size_t>(call_.root)].get(),
                  expect_.data(), bytes);
    }
    machine_.set_pick_hook(hook);
    check::RunOutcome out;
    try {
      const mach::ScopedSink attach(machine_, sink);
      machine_.run([&](mach::Ctx& ctx) {
        const auto r = static_cast<std::size_t>(ctx.rank());
        switch (call_.op) {
          case Op::kBcast:
            comp_.bcast(ctx, rbuf_[r].get(), bytes, call_.root);
            break;
          case Op::kAllreduce:
            comp_.allreduce(ctx, sbuf_[r].get(), rbuf_[r].get(), bytes / 8,
                            mach::DType::kI64, mach::ROp::kSum);
            break;
          case Op::kReduce:
            comp_.reduce(ctx, sbuf_[r].get(), rbuf_[r].get(), bytes / 8,
                         mach::DType::kI64, mach::ROp::kSum, call_.root);
            break;
          case Op::kBarrier:
            comp_.barrier(ctx);
            break;
        }
      });
      for (int r = 0; r < n && call_.op != Op::kBarrier; ++r) {
        if (call_.op == Op::kReduce && r != call_.root) continue;
        if (std::memcmp(rbuf_[static_cast<std::size_t>(r)].get(),
                        expect_.data(), bytes) != 0) {
          out.failed = true;
          out.diag = "payload mismatch on rank " + std::to_string(r);
          break;
        }
      }
    } catch (const std::exception& e) {
      out.failed = true;
      out.diag = e.what();
    }
    machine_.set_pick_hook(nullptr);
    return out;
  }

 private:
  sim::SimMachine& machine_;
  coll::Component& comp_;
  OpCall call_;
  std::vector<mach::Buffer> sbuf_, rbuf_;
  std::vector<std::uint64_t> expect_;  ///< bcast payload or i64 sums
};

TEST(CheckExplorer, ExhaustsTinyModelTopologies) {
  for (const int n : {2, 3, 4}) {
    for (const OpCall call :
         {OpCall{Op::kBarrier, 0, 0}, OpCall{Op::kBcast, 512, 0},
          OpCall{Op::kAllreduce, 512, 0}, OpCall{Op::kReduce, 512, n - 1}}) {
      sim::SimMachine machine(topo::flat(n), n);
      core::XhcComponent comp(machine, coll::Tuning{}, "explore");
      RealRunner runner(machine, comp, call);
      check::ExploreOptions opts;
      opts.max_branch_depth = n < 4 ? 8 : 6;
      opts.max_executions = 6000;
      const check::ExploreStats st = check::explore(std::ref(runner), opts);
      EXPECT_TRUE(st.exhausted)
          << "flat(" << n << ") " << check::to_string(call)
          << ": executions=" << st.executions;
      EXPECT_EQ(st.failures, 0)
          << "flat(" << n << ") " << check::to_string(call) << ": "
          << (st.witnesses.empty() ? "" : st.witnesses.front());
      EXPECT_GE(st.executions, 1);
    }
  }
}

TEST(CheckExplorer, RealBcastPayloadUnderAllSchedules) {
  sim::SimMachine machine(topo::flat(4), 4);
  core::XhcComponent comp(machine, coll::Tuning{}, "explore-real");
  RealRunner runner(machine, comp, {Op::kBcast, 512, 0});

  check::ExploreOptions opts;
  opts.max_branch_depth = 4;
  opts.max_executions = 1200;
  const check::ExploreStats st = check::explore(std::ref(runner), opts);
  EXPECT_TRUE(st.exhausted) << "executions=" << st.executions;
  EXPECT_EQ(st.failures, 0)
      << (st.witnesses.empty() ? "" : st.witnesses.front());
  EXPECT_GT(st.branch_points, 0);
}

TEST(CheckExplorer, FindsSeededDeadlock) {
  sim::SimMachine origin(topo::flat(4), 4);
  core::XhcComponent comp(origin, coll::Tuning{}, "dead");
  const check::Schedule base =
      check::record_schedule(origin, comp, {{Op::kBcast, 40000, 0}});

  check::Schedule mutant;
  check::MutantInfo info;
  for (std::uint64_t seed = 1; seed <= 16 && !info.applied; ++seed) {
    check::Schedule m = base;
    const check::MutantInfo i2 =
        check::apply_mutation(m, check::MutationKind::kSwappedStageOrder, seed,
                              origin.verify_ledger());
    if (i2.applied) {
      mutant = std::move(m);
      info = i2;
    }
  }
  ASSERT_TRUE(info.applied) << "no stage-order site on flat(4) bcast";

  const check::AnalysisReport rep =
      check::analyze(mutant, origin.verify_ledger());
  EXPECT_TRUE(std::any_of(
      rep.findings.begin(), rep.findings.end(),
      [&](const check::Finding& f) { return info.killed_by(f); }))
      << info.detail << "\n" << rep.text();

  // A deadlocked machine is not reusable, so each execution gets a fresh
  // one; the origin's ledger still resolves the schedule's flag names.
  const check::Runner run = [&](const sim::VirtualScheduler::PickHook& hook,
                                mach::EventSink* sink) {
    sim::SimMachine fresh(topo::flat(4), 4);
    const check::InterpResult res =
        check::run_model(mutant, fresh, origin.verify_ledger(), hook, sink);
    check::RunOutcome out;
    if (!res.ok()) {
      out.failed = true;
      out.diag = res.errors.empty() ? "replay failed" : res.errors.front();
    }
    return out;
  };
  check::ExploreOptions opts;
  opts.max_branch_depth = 3;
  opts.max_executions = 24;
  opts.random_walks = 4;
  const check::ExploreStats st = check::explore(run, opts);
  EXPECT_GT(st.failures, 0) << "explorer missed the seeded deadlock";
}

}  // namespace
}  // namespace xhc
