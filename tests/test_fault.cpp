// Chaos suite for the deterministic fault-injection layer (DESIGN.md
// § Fault injection & degradation): spec parsing, per-rank decision
// streams, the XPMEM→CMA→CICO degradation chain, shm retry/exhaustion,
// straggler determinism on virtual time, and the two "never a hang"
// guarantees — the sim deadlock report and the RealMachine watchdog both
// naming the rank and flag a dropped publication stranded.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "coll/registry.h"
#include "core/xhc_component.h"
#include "fault/fault.h"
#include "mach/real_machine.h"
#include "obs/observer.h"
#include "osu/harness.h"
#include "sim/sim_machine.h"
#include "svc/arbiter.h"
#include "svc/registry.h"
#include "svc/tenant.h"
#include "topo/presets.h"
#include "util/check.h"
#include "util/prng.h"

namespace xhc {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing

TEST(FaultSpec, RoundTripsThroughCanonicalForm) {
  const std::string spec =
      "attach,rank=1,owner=0,count=1,chain=2;"
      "straggler,level=0,prob=0.25,delay=1e-05;"
      "flagdrop,rank=2,after=10,comm=3;regmiss,owner=3;expose;shm,count=4;"
      "flagdelay,delay=2e-06";
  const fault::Plan plan = fault::Plan::parse(spec);
  ASSERT_EQ(plan.clauses.size(), 7u);
  const std::string canon = plan.to_string();
  EXPECT_EQ(fault::Plan::parse(canon).to_string(), canon);
}

TEST(FaultSpec, CommFilterParsesAndRoundTrips) {
  const fault::Plan plan = fault::Plan::parse("flagdrop,comm=2,rank=1");
  ASSERT_EQ(plan.clauses.size(), 1u);
  EXPECT_EQ(plan.clauses[0].comm, 2);
  EXPECT_EQ(plan.clauses[0].rank, 1);
  const std::string canon = plan.to_string();
  EXPECT_NE(canon.find("comm=2"), std::string::npos) << canon;
  EXPECT_EQ(fault::Plan::parse(canon).to_string(), canon);
  // Default: no filter.
  EXPECT_EQ(fault::Plan::parse("flagdrop").clauses.at(0).comm, -1);
}

TEST(FaultSpec, CommFilterTargetsOneInjector) {
  fault::Plan plan = fault::Plan::parse("flagdrop,comm=1");
  fault::Injector hit(plan, 1, 2, /*comm_id=*/1);
  fault::Injector miss(plan, 1, 2, /*comm_id=*/0);
  fault::Injector unset(plan, 1, 2);  // single-communicator default (-1)
  EXPECT_TRUE(hit.on_publish(0).drop);
  EXPECT_FALSE(miss.on_publish(0).drop);
  EXPECT_FALSE(unset.on_publish(0).drop);
}

TEST(FaultSpec, ParsesFieldsIntoClauses) {
  const fault::Plan plan =
      fault::Plan::parse("attach,rank=1,owner=2,after=3,count=4,chain=2");
  ASSERT_EQ(plan.clauses.size(), 1u);
  const fault::Clause& c = plan.clauses[0];
  EXPECT_EQ(c.kind, fault::Kind::kAttach);
  EXPECT_EQ(c.rank, 1);
  EXPECT_EQ(c.owner, 2);
  EXPECT_EQ(c.after, 3u);
  EXPECT_EQ(c.count, 4u);
  EXPECT_EQ(c.chain, 2);
}

TEST(FaultSpec, EmptySpecsParseEmpty) {
  EXPECT_TRUE(fault::Plan::parse("").empty());
  EXPECT_TRUE(fault::Plan::parse("  ;  ; ").empty());
  EXPECT_EQ(fault::make_injector("", 1, 8), nullptr);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::Plan::parse("bogus"), util::Error);
  EXPECT_THROW(fault::Plan::parse("attach,zzz=1"), util::Error);
  EXPECT_THROW(fault::Plan::parse("attach,rank=notanumber"), util::Error);
  EXPECT_THROW(fault::Plan::parse("straggler,prob=1.5"), util::Error);
  EXPECT_THROW(fault::Plan::parse("straggler,prob=-0.1"), util::Error);
  EXPECT_THROW(fault::Plan::parse("straggler,delay=-1"), util::Error);
  EXPECT_THROW(fault::Plan::parse("attach,chain=3"), util::Error);
  EXPECT_THROW(fault::Plan::parse("attach,rank="), util::Error);
  EXPECT_THROW(fault::Plan::parse("attach,=1"), util::Error);
  EXPECT_THROW(fault::Plan::parse("flagdrop,comm=-1"), util::Error);
  EXPECT_THROW(fault::Plan::parse("flagdrop,comm=notanumber"), util::Error);
}

// ---------------------------------------------------------------------------
// Decision streams

TEST(FaultInjector, DecisionsAreAPureFunctionOfSeedAndRank) {
  const std::string spec = "straggler,prob=0.5,delay=1e-6";
  fault::Plan plan = fault::Plan::parse(spec);
  fault::Injector a(plan, 42, 4);
  fault::Injector b(plan, 42, 4);

  // Query `a` rank-major and `b` interleaved: per-rank streams must agree
  // regardless of the order other ranks' queries happen in.
  std::vector<std::vector<double>> seq_a(4), seq_b(4);
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 64; ++i) seq_a[r].push_back(a.straggler_delay(r, 0));
  }
  for (int i = 0; i < 64; ++i) {
    for (int r = 3; r >= 0; --r) seq_b[r].push_back(b.straggler_delay(r, 0));
  }
  for (int r = 0; r < 4; ++r) EXPECT_EQ(seq_a[r], seq_b[r]) << "rank " << r;

  // A different seed must produce a different schedule somewhere.
  fault::Injector c(plan, 43, 4);
  bool differs = false;
  for (int i = 0; i < 64 && !differs; ++i) {
    differs = (c.straggler_delay(0, 0) != seq_a[0][static_cast<size_t>(i)]);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, HonorsAfterCountAndFilters) {
  fault::Plan plan = fault::Plan::parse("attach,rank=1,after=2,count=3");
  fault::Injector inj(plan, 1, 4);
  EXPECT_EQ(inj.attach_failure_depth(0, 2), 0);  // wrong rank: never
  int fired = 0;
  std::vector<int> when;
  for (int i = 0; i < 10; ++i) {
    if (inj.attach_failure_depth(1, 2) != 0) {
      ++fired;
      when.push_back(i);
    }
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(when, (std::vector<int>{2, 3, 4}));  // skips 2, fires 3x
}

// ---------------------------------------------------------------------------
// Degradation chain, verified bit-for-bit through real collectives

struct ChaosRun {
  std::vector<std::string> bad;  ///< ranks with wrong payload, as messages
  obs::Observer observer;
  explicit ChaosRun(int n) : observer(n) {}
};

// Runs `iters` bcasts on sim/mini8 under `spec` and bit-verifies every
// rank's payload each time. Returns the observer for counter assertions.
std::unique_ptr<ChaosRun> chaos_bcast(const std::string& spec,
                                      std::uint64_t seed,
                                      std::size_t bytes = 100000,
                                      int iters = 3) {
  constexpr int kRanks = 8;
  sim::SimMachine machine(topo::mini8(), kRanks);
  coll::Tuning tuning;
  tuning.trace = true;
  tuning.faults = spec;
  tuning.fault_seed = seed;
  auto comp = coll::make_component("xhc", machine, tuning);
  auto out = std::make_unique<ChaosRun>(kRanks);
  comp->set_observer(&out->observer);

  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < kRanks; ++r) bufs.emplace_back(machine, r, bytes);
  for (int it = 0; it < iters; ++it) {
    const int root = it % kRanks;
    util::fill_pattern(bufs[static_cast<std::size_t>(root)].get(), bytes,
                       0xFA + static_cast<std::uint64_t>(it));
    machine.run([&](mach::Ctx& ctx) {
      comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                  bytes, root);
    });
    std::vector<std::byte> expect(bytes);
    util::fill_pattern(expect.data(), bytes,
                       0xFA + static_cast<std::uint64_t>(it));
    for (int r = 0; r < kRanks; ++r) {
      if (std::memcmp(bufs[static_cast<std::size_t>(r)].get(), expect.data(),
                      bytes) != 0) {
        out->bad.push_back("iter " + std::to_string(it) + " rank " +
                           std::to_string(r));
      }
    }
  }
  return out;
}

TEST(FaultChaos, AttachFailureDegradesAndStaysCorrect) {
  auto run = chaos_bcast("attach,owner=0,count=1", 7);
  EXPECT_TRUE(run->bad.empty()) << run->bad.front();
  const obs::Metrics& m = run->observer.metrics();
  EXPECT_GE(m.total(obs::Counter::kFaultAttachFails), 1u);
  EXPECT_GE(m.total(obs::Counter::kFaultFallbacks), 1u);
}

TEST(FaultChaos, ChainTwoFallsStraightToCicoAndStaysCorrect) {
  auto run = chaos_bcast("attach,chain=2,count=2", 11);
  EXPECT_TRUE(run->bad.empty()) << run->bad.front();
  EXPECT_GE(run->observer.metrics().total(obs::Counter::kFaultFallbacks), 1u);
}

TEST(FaultChaos, ForcedRegMissesAreCountedAndHarmless) {
  auto run = chaos_bcast("regmiss,prob=0.5", 13);
  EXPECT_TRUE(run->bad.empty()) << run->bad.front();
  EXPECT_GE(run->observer.metrics().total(obs::Counter::kFaultRegMissForced),
            1u);
}

TEST(FaultChaos, ExposeRetriesAreBoundedAndCounted) {
  auto run = chaos_bcast("expose,count=2", 17);
  EXPECT_TRUE(run->bad.empty()) << run->bad.front();
  EXPECT_GE(run->observer.metrics().total(obs::Counter::kFaultExposeFails),
            1u);
}

TEST(FaultChaos, StragglersAdvanceVirtualTimeDeterministically) {
  const std::string spec = "straggler,prob=0.3,delay=5e-6";
  double epochs[2];
  for (int pass = 0; pass < 2; ++pass) {
    constexpr int kRanks = 8;
    sim::SimMachine machine(topo::mini8(), kRanks);
    coll::Tuning tuning;
    tuning.faults = spec;
    tuning.fault_seed = 42;
    auto comp = coll::make_component("xhc", machine, tuning);
    std::vector<mach::Buffer> bufs;
    for (int r = 0; r < kRanks; ++r) bufs.emplace_back(machine, r, 65536);
    machine.run([&](mach::Ctx& ctx) {
      comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                  65536, 0);
    });
    epochs[pass] = machine.epoch();
  }
  EXPECT_EQ(epochs[0], epochs[1]);  // bit-identical virtual time

  // And the stalls actually cost virtual time vs a fault-free run.
  constexpr int kRanks = 8;
  sim::SimMachine clean(topo::mini8(), kRanks);
  auto comp = coll::make_component("xhc", clean);
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < kRanks; ++r) bufs.emplace_back(clean, r, 65536);
  clean.run([&](mach::Ctx& ctx) {
    comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(), 65536,
                0);
  });
  EXPECT_LT(clean.epoch(), epochs[0]);
}

TEST(FaultChaos, FlagDelaysPerturbButNeverCorrupt) {
  auto run = chaos_bcast("flagdelay,prob=0.25,delay=2e-6", 19);
  EXPECT_TRUE(run->bad.empty()) << run->bad.front();
  EXPECT_GE(run->observer.metrics().total(obs::Counter::kFaultFlagDelays),
            1u);
}

// ---------------------------------------------------------------------------
// Shm exhaustion: bounded retry, degraded segments, named failure

TEST(FaultShm, TransientFailuresAreRetriedAway) {
  sim::SimMachine machine(topo::mini8(), 8);
  coll::Tuning tuning;
  tuning.trace = true;
  tuning.faults = "shm,count=2";  // two failed attempts, then clean
  auto comp = coll::make_component("xhc", machine, tuning);
  obs::Observer obs(8);
  comp->set_observer(&obs);
  EXPECT_GE(obs.metrics().total(obs::Counter::kFaultShmRetries), 2u);
}

TEST(FaultShm, PersistentFailureDegradesSegmentsThenThrows) {
  // Every allocation attempt fails: retry, then halve, ... then give up
  // with a diagnostic instead of degrading below the floor.
  sim::SimMachine machine(topo::mini8(), 8);
  coll::Tuning tuning;
  tuning.faults = "shm";
  try {
    auto comp = coll::make_component("xhc", machine, tuning);
    FAIL() << "expected exhaustion to throw";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("exhausted"), std::string::npos)
        << e.what();
  }
}

TEST(FaultShm, SmhcRingsDegradeTheSameWay) {
  sim::SimMachine machine(topo::mini8(), 8);
  coll::Tuning tuning;
  tuning.faults = "shm";
  try {
    auto comp = coll::make_component("smhc", machine, tuning);
    FAIL() << "expected exhaustion to throw";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("exhausted"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Dropped publications: a diagnostic naming rank + flag, never a hang

TEST(FaultDrop, SimDeadlockReportNamesTheStrandedFlag) {
  constexpr int kRanks = 8;
  sim::SimMachine machine(topo::mini8(), kRanks);
  coll::Tuning tuning;
  tuning.faults = "flagdrop,rank=0";  // root drops every publication
  auto comp = coll::make_component("xhc", machine, tuning);
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < kRanks; ++r) bufs.emplace_back(machine, r, 65536);
  try {
    machine.run([&](mach::Ctx& ctx) {
      comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                  65536, 0);
    });
    FAIL() << "expected a deadlock report";
  } catch (const util::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    // The report names the ledger-registered flag the ranks block on.
    EXPECT_NE(msg.find("announce"), std::string::npos) << msg;
  }
}

TEST(FaultDrop, RealWatchdogNamesRankAndFlag) {
  constexpr int kRanks = 4;
  mach::RealMachine machine(topo::mini8(), kRanks);
  machine.set_wait_timeout(0.5);  // keep the suite fast
  coll::Tuning tuning;
  tuning.faults = "flagdrop,rank=0";
  auto comp = coll::make_component("xhc", machine, tuning);
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < kRanks; ++r) bufs.emplace_back(machine, r, 65536);
  try {
    machine.run([&](mach::Ctx& ctx) {
      comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                  65536, 0);
    });
    FAIL() << "expected the watchdog to abort the run";
  } catch (const util::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("watchdog"), std::string::npos) << msg;
    EXPECT_NE(msg.find("announce"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank"), std::string::npos) << msg;
  }
}

// A bcast root's release under the single-flag layout is its `seq` alone in
// every group it leads (DESIGN.md § Cache tree), published through the
// fault plane: dropping it strands every child that pulls from the root, on
// the cache tree (mini16) and on the flag tree (`llc_aware` off), and the
// report names the root's seq slot in each of those groups.
TEST(FaultDrop, RootSeqDropStrandsItsChildrenOnBothTrees) {
  constexpr int kRanks = 16;
  constexpr int kRoot = 5;
  constexpr std::size_t kBytes = 4096;  // one chunk, single-copy
  for (const bool llc_aware : {true, false}) {
    sim::SimMachine machine(topo::mini16(), kRanks);
    coll::Tuning tuning;
    tuning.llc_aware = llc_aware;
    tuning.faults = "flagdrop,rank=" + std::to_string(kRoot);
    core::XhcComponent comp(machine, tuning, "drop");
    ASSERT_EQ(comp.tree().has_cache_tree(), llc_aware);
    const core::CommView& view = llc_aware ? comp.tree().cache_view(kRoot)
                                           : comp.tree().view(kRoot);
    std::vector<std::string> released;
    for (const auto& m : view.memberships(kRoot)) {
      if (llc_aware && m.ctl_id != view.memberships(kRoot).back().ctl_id) {
        continue;  // the cache tree's LLC groups only gather acks
      }
      released.push_back(machine.verify_ledger().flag_name(
          &*comp.tree().ctl(m.ctl_id).seq[m.my_slot]));
    }
    ASSERT_EQ(released.size(), llc_aware ? 1u : 3u);
    std::vector<mach::Buffer> bufs;
    for (int r = 0; r < kRanks; ++r) bufs.emplace_back(machine, r, kBytes);
    try {
      machine.run([&](mach::Ctx& ctx) {
        comp.bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                   kBytes, kRoot);
      });
      FAIL() << "expected a deadlock report, llc_aware=" << llc_aware;
    } catch (const util::Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
      for (const std::string& name : released) {
        EXPECT_NE(msg.find("blocked@'" + name + "'"), std::string::npos)
            << "llc_aware=" << llc_aware << ": " << name << "\n"
            << msg;
      }
      // Nobody on the cache tree waits on an announce any more.
      if (llc_aware) {
        EXPECT_EQ(msg.find("announce"), std::string::npos) << msg;
      }
    }
  }
}

// On the bcast chain (DESIGN.md § Large-message paths) a member publishes
// each chunk in its own announce slot of its member group for its
// successor. At root 0 on a 12-rank grid without a shared LLC, rank 0's
// socket group chains NUMA leaders 0, 2 and 4: dropping rank 2's
// publications strands rank 4 on rank 2's announce slot there, and the
// report names it.
TEST(FaultDrop, ChainAnnounceDropStrandsItsSuccessor) {
  constexpr int kRanks = 12;
  constexpr int kMember = 2;
  constexpr std::size_t kBytes = (std::size_t{128} << 10) + 4;
  sim::SimMachine machine(topo::grid("grid12n", 2, 3, 2, 0), kRanks);
  coll::Tuning tuning;
  tuning.faults = "flagdrop,rank=" + std::to_string(kMember);
  core::XhcComponent comp(machine, tuning, "drop");
  const core::CommView::Membership& m =
      comp.tree().view(0).memberships(kMember).back();
  ASSERT_EQ(m.level, 1);
  ASSERT_EQ(m.members, (std::vector<int>{0, 2, 4}));
  const std::string announce = machine.verify_ledger().flag_name(
      &*comp.tree().ctl(m.ctl_id).announce[m.my_slot]);
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < kRanks; ++r) bufs.emplace_back(machine, r, kBytes);
  try {
    machine.run([&](mach::Ctx& ctx) {
      comp.bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                 kBytes, 0);
    });
    FAIL() << "expected a deadlock report";
  } catch (const util::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[4:blocked@'" + announce + "'"), std::string::npos)
        << announce << "\n"
        << msg;
  }
}

// A delayed release delays every child that pulls from the root: none can
// complete before the injected delay has passed, while without the fault
// the whole bcast takes a small fraction of it.
TEST(FaultChaos, RootSeqDelayHoldsBackItsChildren) {
  constexpr int kRanks = 16;
  constexpr int kRoot = 5;
  constexpr std::size_t kBytes = 4096;
  constexpr double kDelay = 1e-4;
  for (const bool llc_aware : {true, false}) {
    for (const bool faulty : {false, true}) {
      sim::SimMachine machine(topo::mini16(), kRanks);
      coll::Tuning tuning;
      tuning.llc_aware = llc_aware;
      if (faulty) {
        tuning.faults = "flagdelay,rank=" + std::to_string(kRoot) +
                        ",delay=" + std::to_string(kDelay);
      }
      core::XhcComponent comp(machine, tuning, "delay");
      std::vector<mach::Buffer> bufs;
      for (int r = 0; r < kRanks; ++r) bufs.emplace_back(machine, r, kBytes);
      util::fill_pattern(bufs[kRoot].get(), kBytes, 0xDE);
      std::vector<double> took(kRanks, 0.0);
      machine.run([&](mach::Ctx& ctx) {
        const double t0 = ctx.now();
        comp.bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                   kBytes, kRoot);
        took[static_cast<std::size_t>(ctx.rank())] = ctx.now() - t0;
      });
      std::vector<std::byte> expect(kBytes);
      util::fill_pattern(expect.data(), kBytes, 0xDE);
      for (int r = 0; r < kRanks; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        EXPECT_EQ(std::memcmp(bufs[ri].get(), expect.data(), kBytes), 0)
            << "llc_aware=" << llc_aware << " faulty=" << faulty << " rank "
            << r;
        if (r == kRoot) continue;
        if (faulty) {
          EXPECT_GE(took[ri], kDelay)
              << "llc_aware=" << llc_aware << ": rank " << r
              << " completed before the root's delayed release";
        } else {
          EXPECT_LT(took[ri], kDelay / 10)
              << "llc_aware=" << llc_aware << " rank " << r;
        }
      }
    }
  }
}

// Two-tenant registry helper: comm0 'wide' spans the node, comm1 'narrow'
// the first half; `faults` (typically with a comm= filter) reaches every
// tenant's injector, which filters by its own comm id.
template <typename MachineT>
std::unique_ptr<svc::CommRegistry> two_tenants(MachineT& machine,
                                               svc::Arbiter& arbiter,
                                               const std::string& faults) {
  auto reg = std::make_unique<svc::CommRegistry>(machine, arbiter);
  coll::Tuning tuning;
  tuning.faults = faults;
  svc::CommSpec wide;
  wide.name = "wide";
  wide.tuning = tuning;
  for (int r = 0; r < machine.n_ranks(); ++r) wide.ranks.push_back(r);
  svc::CommSpec narrow;
  narrow.name = "narrow";
  narrow.tuning = tuning;
  for (int r = 0; r < machine.n_ranks() / 2; ++r) narrow.ranks.push_back(r);
  reg->create(wide);
  reg->create(narrow);
  return reg;
}

TEST(FaultDrop, SimDeadlockReportNamesTheOwningCommunicator) {
  constexpr int kRanks = 8;
  constexpr std::size_t kBytes = 65536;
  sim::SimMachine machine(topo::mini8(), kRanks);
  svc::Arbiter arbiter(svc::Budget{});
  // Drop every publication of comm1's rank 0 — comm0 shares that rank but
  // must stay untouched (the clause is filtered by comm id).
  auto reg = two_tenants(machine, arbiter, "flagdrop,comm=1,rank=0");

  svc::Communicator& wide = reg->comm(0);
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < kRanks; ++r) bufs.emplace_back(machine, r, kBytes);
  util::fill_pattern(bufs[0].get(), kBytes, 0xAB);
  machine.run([&](mach::Ctx& ctx) {
    svc::TenantCtx tctx(ctx, wide.machine());
    wide.component().bcast(tctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                           kBytes, 0);
  });
  std::vector<std::byte> expect(kBytes);
  util::fill_pattern(expect.data(), kBytes, 0xAB);
  for (int r = 0; r < kRanks; ++r) {
    ASSERT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].get(),
                          expect.data(), kBytes),
              0)
        << "comm=1 fault leaked into comm0, rank " << r;
  }

  // The same collective on comm1 strands its members; the deadlock report
  // must name the stranded flag under the owning communicator's scope.
  svc::Communicator& narrow = reg->comm(1);
  try {
    machine.run([&](mach::Ctx& ctx) {
      if (narrow.local_rank(ctx.rank()) < 0) return;
      svc::TenantCtx tctx(ctx, narrow.machine());
      narrow.component().bcast(
          tctx, bufs[static_cast<std::size_t>(ctx.rank())].get(), kBytes, 0);
    });
    FAIL() << "expected a deadlock report";
  } catch (const util::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("comm1'narrow'"), std::string::npos) << msg;
  }
}

TEST(FaultDrop, RealWatchdogNamesTheOwningCommunicator) {
  constexpr int kRanks = 4;
  constexpr std::size_t kBytes = 65536;
  mach::RealMachine machine(topo::mini8(), kRanks);
  machine.set_wait_timeout(0.5);
  svc::Arbiter arbiter(svc::Budget{});
  auto reg = two_tenants(machine, arbiter, "flagdrop,comm=1,rank=0");
  svc::Communicator& narrow = reg->comm(1);
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < kRanks; ++r) bufs.emplace_back(machine, r, kBytes);
  try {
    machine.run([&](mach::Ctx& ctx) {
      if (narrow.local_rank(ctx.rank()) < 0) return;
      svc::TenantCtx tctx(ctx, narrow.machine());
      narrow.component().bcast(
          tctx, bufs[static_cast<std::size_t>(ctx.rank())].get(), kBytes, 0);
    });
    FAIL() << "expected the watchdog to abort the run";
  } catch (const util::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("watchdog"), std::string::npos) << msg;
    EXPECT_NE(msg.find("comm1'narrow'"), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// Seed sweep: every scenario terminates — degraded-but-correct or thrown

TEST(FaultChaos, SeedSweepTerminatesCorrectOrDiagnosed) {
  const std::string spec =
      "attach,prob=0.2;expose,prob=0.1;regmiss,prob=0.3;"
      "straggler,prob=0.2,delay=2e-6;flagdelay,prob=0.1,delay=1e-6;"
      "flagdrop,prob=0.02,count=2";
  for (const std::uint64_t seed :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{42},
        std::uint64_t{1337}, std::uint64_t{0xC0FFEE}}) {
    try {
      auto run = chaos_bcast(spec, seed, 65536, 4);
      EXPECT_TRUE(run->bad.empty())
          << "seed " << seed << ": " << run->bad.front();
    } catch (const util::Error& e) {
      // A dropped final publication surfaces as a deadlock report that
      // names the stranded channel — a diagnostic, not a hang.
      EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
          << "seed " << seed << ": " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Exit-code propagation (guarded_main)

TEST(GuardedMain, PassesThroughTheBodysExitCode) {
  EXPECT_EQ(osu::guarded_main([] { return 0; }), 0);
  EXPECT_EQ(osu::guarded_main([] { return 3; }), 3);
}

TEST(GuardedMain, ConvertsExceptionsToExitOne) {
  EXPECT_EQ(osu::guarded_main([]() -> int {
              throw util::Error("verification mismatch");
            }),
            1);
  EXPECT_EQ(osu::guarded_main([]() -> int { throw 42; }), 1);
}

}  // namespace
}  // namespace xhc
