// Protocol verifier tests (src/verify/): negative tests seed deliberate
// violations through the direct ledger API — second writer, decreasing
// sequence, stale publish — and assert each is reported with the offending
// rank and flag identity. The e2e section switches each machine's ledger on
// and routes the same violations through real Machine flag traffic.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/ctl.h"
#include "mach/flag.h"
#include "mach/real_machine.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/check.h"
#include "verify/verify.h"

namespace xhc {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Direct ledger API (works whatever the machine-hook switch says).

TEST(VerifyLedger, SecondWriterReportedWithRankAndFlag) {
  verify::Ledger ledger;
  ledger.set_abort_on_violation(false);
  mach::Flag f;
  ledger.register_flag(&f, "ctl0.seq");
  ledger.on_store(&f, /*rank=*/0, 1);
  ledger.on_store(&f, /*rank=*/1, 2);  // deliberate: not the owner
  const auto vs = ledger.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, verify::Kind::kSecondWriter);
  EXPECT_EQ(vs[0].rank, 1);
  EXPECT_EQ(vs[0].other_rank, 0);
  EXPECT_EQ(vs[0].flag, &f);
  const std::string d = vs[0].describe();
  EXPECT_TRUE(contains(d, "rank 1")) << d;
  EXPECT_TRUE(contains(d, "ctl0.seq")) << d;
  EXPECT_TRUE(contains(d, "owned by rank 0")) << d;
}

TEST(VerifyLedger, DecreasingSequenceReported) {
  verify::Ledger ledger;
  ledger.set_abort_on_violation(false);
  mach::Flag f;
  ledger.register_flag(&f, "p2p.ch0>1.send_seq");
  ledger.on_store(&f, 2, 5);
  ledger.on_store(&f, 2, 3);  // deliberate: cumulative counters never decrease
  const auto vs = ledger.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, verify::Kind::kNonMonotonic);
  EXPECT_EQ(vs[0].rank, 2);
  EXPECT_EQ(vs[0].value, 3u);
  EXPECT_EQ(vs[0].prior, 5u);
  const std::string d = vs[0].describe();
  EXPECT_TRUE(contains(d, "rank 2")) << d;
  EXPECT_TRUE(contains(d, "send_seq")) << d;
  EXPECT_TRUE(contains(d, "3 < prior 5")) << d;
}

TEST(VerifyLedger, RmwLegalOnlyOnSharedPolicy) {
  verify::Ledger ledger;
  ledger.set_abort_on_violation(false);
  mach::Flag fixed;
  mach::Flag shared;
  ledger.register_flag(&fixed, "ctl0.seq");
  ledger.register_flag(&shared, "ctl0.atomic_ctr", verify::WriterPolicy::kShared);
  ledger.on_rmw(&shared, 0, 1);
  ledger.on_rmw(&shared, 3, 2);  // multi-writer RMW is the whitelisted case
  EXPECT_TRUE(ledger.violations().empty());
  ledger.on_rmw(&fixed, 1, 1);  // deliberate: RMW outside the whitelist
  const auto vs = ledger.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, verify::Kind::kRmwOnSingleWriter);
  EXPECT_EQ(vs[0].rank, 1);
  EXPECT_TRUE(contains(vs[0].describe(), "kShared"));
}

TEST(VerifyLedger, RotatingAllowsHandoffOnlyWithIncreasingValue) {
  verify::Ledger ledger;
  ledger.set_abort_on_violation(false);
  mach::Flag f;
  ledger.register_flag(&f, "ctl0.announce", verify::WriterPolicy::kRotating);
  ledger.on_store(&f, 0, 10);
  ledger.on_store(&f, 0, 20);
  ledger.on_store(&f, 3, 30);  // legal: new leader at an operation boundary
  EXPECT_TRUE(ledger.violations().empty());
  ledger.on_store(&f, 1, 30);  // deliberate: handoff without progress
  const auto vs = ledger.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, verify::Kind::kSecondWriter);
  EXPECT_EQ(vs[0].rank, 1);
  EXPECT_EQ(vs[0].other_rank, 3);
}

TEST(VerifyLedger, StalePublishCaughtByTimedCrossCheck) {
  verify::Ledger ledger;
  ledger.set_abort_on_violation(false);
  mach::Flag f;
  ledger.register_flag(&f, "ctl0.seq");
  ledger.on_store(&f, 0, 1, /*vtime=*/1.0);
  ledger.on_observe(&f, 1, 1, /*vtime=*/2.0);  // after publish: fine
  ledger.on_observe(&f, 1, 0, /*vtime=*/0.1);  // initial value: always fine
  EXPECT_TRUE(ledger.violations().empty());
  ledger.on_observe(&f, 1, 1, /*vtime=*/0.5);  // deliberate: reads the future
  auto vs = ledger.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, verify::Kind::kStalePublish);
  EXPECT_EQ(vs[0].rank, 1);
  EXPECT_DOUBLE_EQ(vs[0].publish_vtime, 1.0);
  EXPECT_TRUE(contains(vs[0].describe(), "before its publish"));
  ledger.on_observe(&f, 1, 7, /*vtime=*/5.0);  // deliberate: never published
  vs = ledger.violations();
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_LT(vs[1].publish_vtime, 0.0);
  EXPECT_TRUE(contains(vs[1].describe(), "never published"));
  // wait_ge needs only a crossing publish, but by the resume time.
  ledger.on_wait_resume(&f, 1, 1, /*vtime=*/0.5);
  EXPECT_EQ(ledger.violations().size(), 3u);
  ledger.on_wait_resume(&f, 1, 1, /*vtime=*/1.0);
  EXPECT_EQ(ledger.violations().size(), 3u);
}

TEST(VerifyLedger, AbortModeThrowsWithDiagnostic) {
  verify::Ledger ledger;  // abort-on-violation is the default
  mach::Flag f;
  ledger.register_flag(&f, "ctl0.ack[2]");
  ledger.on_store(&f, 2, 1);
  try {
    ledger.on_store(&f, 0, 2);  // deliberate second writer
    FAIL() << "expected the verifier to throw";
  } catch (const util::Error& e) {
    EXPECT_TRUE(contains(e.what(), "second-writer")) << e.what();
    EXPECT_TRUE(contains(e.what(), "rank 0")) << e.what();
    EXPECT_TRUE(contains(e.what(), "ctl0.ack[2]")) << e.what();
  }
  EXPECT_EQ(ledger.summary().violations, 1u);
}

TEST(VerifyLedger, ForgetRangeResetsReusedAddresses) {
  verify::Ledger ledger;
  mach::Flag f;
  ledger.register_flag(&f, "old.owner");
  ledger.on_store(&f, 0, 9);
  ledger.forget_range(&f, sizeof(f));
  // Address reuse: a different rank may own the "new" flag.
  ledger.on_store(&f, 1, 1);
  EXPECT_TRUE(ledger.violations().empty());
  EXPECT_EQ(ledger.summary().flags_tracked, 1u);
}

TEST(VerifyLedger, SummaryCountsOperations) {
  verify::Ledger ledger;
  mach::Flag f;
  ledger.register_flag(&f, "s");
  ledger.on_store(&f, 0, 1, 1.0);
  ledger.on_store(&f, 0, 2, 2.0);
  ledger.on_observe(&f, 1, 2, 3.0);
  const verify::Summary s = ledger.summary();
  EXPECT_EQ(s.flags_tracked, 1u);
  EXPECT_EQ(s.stores_checked, 2u);
  EXPECT_EQ(s.loads_checked, 1u);
  EXPECT_EQ(s.violations, 0u);
}

// ---------------------------------------------------------------------------
// Layout registration over a real control block (registration and the lint
// are not gated by the switch).

TEST(VerifyLayout, GroupCtlRegistersCleanWithExpectedFig10Finding) {
  sim::SimMachine m(topo::mini8(), 8);
  core::CtlArena arena;
  // One block per announce layout; only the packed one may be flagged.
  for (const core::CtlReads& reads :
       {core::CtlReads{.groups = true, .announce = true, .ack = true},
        core::CtlReads{.groups = true, .announce_shared = true, .ack = true},
        core::CtlReads{.groups = true, .announce_sep = true, .ack = true}}) {
    (void)arena.add_group(m, /*home_rank=*/0, /*slots=*/8, reads);
  }
  const verify::Summary s = m.verify_ledger().summary();
  EXPECT_EQ(s.violations, 0u);           // the proper layout passes the lint
  EXPECT_GE(s.expected_findings, 1u);    // the packed Fig. 10 array is seen
  EXPECT_GE(s.flags_tracked, 3u + 6u * 8u);
  for (const auto& finding : m.verify_ledger().expected_findings()) {
    EXPECT_TRUE(contains(finding.flag_name, "announce_shared"))
        << finding.describe();
  }
}

TEST(VerifyLayout, ShardPlaneRegistersCleanPerRankSlots) {
  // The large-message shard/stripe plane: every slot flag is registered
  // under the "shards." prefix, cache-line padded, so the predictive lint
  // must stay silent and tracking must cover all three arrays.
  sim::SimMachine m(topo::mini8(), 8);
  core::CtlArena arena;
  core::ShardCtl ctl = arena.add_shard_plane(
      m, 8, {.shards = true, .stripe_ready = true});
  const verify::Summary s = m.verify_ledger().summary();
  EXPECT_EQ(s.violations, 0u);
  EXPECT_GE(s.flags_tracked, 3u * 8u);

  verify::Ledger& ledger = m.verify_ledger();
  ledger.set_abort_on_violation(false);
  // Slot ownership is per global rank: the owner may advance its own
  // progress flag, any other rank writing it is a protocol escape.
  ledger.on_store(&*ctl.prog[2], /*rank=*/2, 64);
  EXPECT_TRUE(ledger.violations().empty());
  ledger.on_store(&*ctl.prog[2], /*rank=*/3, 128);  // deliberate violation
  auto vs = ledger.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, verify::Kind::kSecondWriter);
  EXPECT_EQ(vs[0].rank, 3);
  EXPECT_TRUE(contains(vs[0].describe(), "shards.prog[2]"))
      << vs[0].describe();

  // The shard timeline is cumulative: a stage that "rewinds" a peer's
  // progress would un-publish bytes a waiter may already have consumed.
  ledger.on_store(&*ctl.stripe_ready[5], /*rank=*/5, 4096);
  ledger.on_store(&*ctl.stripe_ready[5], /*rank=*/5, 1024);  // deliberate
  vs = ledger.violations();
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[1].kind, verify::Kind::kNonMonotonic);
  EXPECT_TRUE(contains(vs[1].describe(), "shards.stripe_ready[5]"))
      << vs[1].describe();
}

// ---------------------------------------------------------------------------
// The switch: its XHC_VERIFY default, and what it gates.

TEST(VerifyLedger, EnabledFromEnvAcceptsOnlyZeroOrOne) {
  const char* raw = std::getenv("XHC_VERIFY");
  const std::optional<std::string> saved =
      raw != nullptr ? std::optional<std::string>(raw) : std::nullopt;
  unsetenv("XHC_VERIFY");
  EXPECT_FALSE(verify::enabled_from_env());
  setenv("XHC_VERIFY", "0", 1);
  EXPECT_FALSE(verify::enabled_from_env());
  EXPECT_FALSE(verify::Ledger().enabled());
  setenv("XHC_VERIFY", "1", 1);
  EXPECT_TRUE(verify::enabled_from_env());
  EXPECT_TRUE(verify::Ledger().enabled());
  setenv("XHC_VERIFY", "yes", 1);
  try {
    (void)verify::enabled_from_env();
    ADD_FAILURE() << "XHC_VERIFY=yes was accepted";
  } catch (const util::Error& e) {
    EXPECT_TRUE(contains(e.what(), "XHC_VERIFY")) << e.what();
    EXPECT_TRUE(contains(e.what(), "'yes'")) << e.what();
  }
  if (saved) {
    setenv("XHC_VERIFY", saved->c_str(), 1);
  } else {
    unsetenv("XHC_VERIFY");
  }
}

template <typename M>
class VerifySwitch : public ::testing::Test {};
using SwitchMachines = ::testing::Types<mach::RealMachine, sim::SimMachine>;
TYPED_TEST_SUITE(VerifySwitch, SwitchMachines);

TYPED_TEST(VerifySwitch, GatesEveryMachineStore) {
  constexpr int kRanks = 4;
  constexpr std::uint64_t kStores = 3;
  for (const bool on : {false, true}) {
    TypeParam m(topo::mini8(), kRanks);
    m.verify_ledger().set_enabled(on);
    std::vector<mach::Buffer> flags;
    for (int r = 0; r < kRanks; ++r) {
      flags.emplace_back(m, r, sizeof(mach::Flag));
      m.verify_ledger().register_flag(
          static_cast<mach::Flag*>(flags.back().get()),
          "switch.seq[" + std::to_string(r) + "]");
    }
    m.run([&](mach::Ctx& ctx) {
      auto* f = static_cast<mach::Flag*>(
          flags[static_cast<std::size_t>(ctx.rank())].get());
      for (std::uint64_t v = 1; v <= kStores; ++v) ctx.flag_store(*f, v);
    });
    EXPECT_EQ(m.verify_ledger().summary().stores_checked,
              on ? kRanks * kStores : 0u)
        << "ledger " << (on ? "on" : "off");
  }
}

// ---------------------------------------------------------------------------
// End-to-end through Machine flag traffic, with each machine's ledger on.

TEST(VerifyE2E, SimSecondWriterThrowsNamingRank) {
  sim::SimMachine m(topo::mini8(), 2);
  m.verify_ledger().set_enabled(true);
  auto* f = static_cast<mach::Flag*>(m.alloc(0, sizeof(mach::Flag)));
  m.verify_ledger().register_flag(f, "e2e.owned");
  try {
    m.run([&](mach::Ctx& ctx) {
      if (ctx.rank() == 0) ctx.flag_store(*f, 1);
      ctx.barrier();  // makes rank 0 the first (legitimate) writer
      if (ctx.rank() == 1) ctx.flag_store(*f, 2);  // deliberate violation
    });
    FAIL() << "expected the verifier to abort the run";
  } catch (const util::Error& e) {
    EXPECT_TRUE(contains(e.what(), "second-writer")) << e.what();
    EXPECT_TRUE(contains(e.what(), "rank 1")) << e.what();
    EXPECT_TRUE(contains(e.what(), "e2e.owned")) << e.what();
  }
  m.free(f);
}

TEST(VerifyE2E, RealNonMonotonicThrowsNamingRank) {
  mach::RealMachine m(topo::mini8(), 1);
  m.verify_ledger().set_enabled(true);
  auto* f = static_cast<mach::Flag*>(m.alloc(0, sizeof(mach::Flag)));
  m.verify_ledger().register_flag(f, "e2e.seq");
  try {
    m.run([&](mach::Ctx& ctx) {
      ctx.flag_store(*f, 5);
      ctx.flag_store(*f, 3);  // deliberate violation
    });
    FAIL() << "expected the verifier to abort the run";
  } catch (const util::Error& e) {
    EXPECT_TRUE(contains(e.what(), "non-monotonic")) << e.what();
    EXPECT_TRUE(contains(e.what(), "rank 0")) << e.what();
    EXPECT_TRUE(contains(e.what(), "e2e.seq")) << e.what();
  }
  m.free(f);
}

TEST(VerifyE2E, DisciplinedTrafficIsClean) {
  sim::SimMachine m(topo::mini8(), 4);
  m.verify_ledger().set_enabled(true);
  const int n = 4;
  std::vector<mach::Flag*> flags;
  for (int r = 0; r < n; ++r) {
    flags.push_back(static_cast<mach::Flag*>(m.alloc(r, sizeof(mach::Flag))));
    m.verify_ledger().register_flag(flags.back(),
                                    "e2e.seq[" + std::to_string(r) + "]");
  }
  m.run([&](mach::Ctx& ctx) {
    const int r = ctx.rank();
    for (std::uint64_t v = 1; v <= 3; ++v) {
      ctx.flag_store(*flags[static_cast<std::size_t>(r)], v);
      ctx.flag_wait_ge(*flags[static_cast<std::size_t>((r + 1) % n)], v);
    }
  });
  const verify::Summary s = m.verify_ledger().summary();
  EXPECT_EQ(s.violations, 0u);
  EXPECT_GE(s.stores_checked, 12u);  // 4 ranks x 3 stores
  EXPECT_GE(s.loads_checked, 12u);   // 4 ranks x 3 waits
  for (auto* f : flags) m.free(f);
}

}  // namespace
}  // namespace xhc
