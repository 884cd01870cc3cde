// Tests for the single-copy mechanism layer: cost tables, registration
// cache semantics, endpoint charging (paper §II-B, §III-C, Fig. 3).
#include <gtest/gtest.h>

#include "sim/sim_machine.h"
#include "smsc/endpoint.h"
#include "smsc/mechanism.h"
#include "smsc/reg_cache.h"
#include "topo/presets.h"
#include "util/check.h"

namespace xhc::smsc {
namespace {

TEST(Mechanism, Names) {
  EXPECT_STREQ(to_string(Mechanism::kXpmem), "xpmem");
  EXPECT_EQ(mechanism_from("knem"), Mechanism::kKnem);
  EXPECT_EQ(mechanism_from("none"), Mechanism::kCico);
  EXPECT_THROW(mechanism_from("bogus"), util::Error);
}

TEST(Mechanism, CostStructure) {
  const MechanismCosts xpmem = costs_for(Mechanism::kXpmem);
  EXPECT_TRUE(xpmem.mapping);
  EXPECT_GT(xpmem.attach_syscall, 0.0);
  EXPECT_GT(xpmem.page_fault, 0.0);
  EXPECT_EQ(xpmem.op_syscall, 0.0);  // no per-op kernel path

  const MechanismCosts cma = costs_for(Mechanism::kCma);
  EXPECT_FALSE(cma.mapping);
  EXPECT_GT(cma.op_syscall, 0.0);
  EXPECT_GT(cma.lock_coef, 0.0);

  const MechanismCosts knem = costs_for(Mechanism::kKnem);
  // KNEM's per-page cost sits below CMA's (paper §II-B).
  EXPECT_LT(knem.op_per_page, cma.op_per_page);

  const MechanismCosts cico = costs_for(Mechanism::kCico);
  EXPECT_FALSE(cico.mapping);
  EXPECT_EQ(cico.op_syscall, 0.0);
}

TEST(Mechanism, PageMath) {
  EXPECT_EQ(pages_of(1), 1u);
  EXPECT_EQ(pages_of(4096), 1u);
  EXPECT_EQ(pages_of(4097), 2u);
  EXPECT_EQ(pages_of(1 << 20), 256u);
}

TEST(RegCache, HitRequiresCoverage) {
  RegCache cache;
  char buf[256]{};
  EXPECT_FALSE(cache.lookup(1, buf, 256));  // cold
  cache.insert(1, buf, 256);
  EXPECT_TRUE(cache.lookup(1, buf, 256));       // exact
  EXPECT_TRUE(cache.lookup(1, buf + 16, 100));  // sub-range
  EXPECT_FALSE(cache.lookup(1, buf + 16, 256)); // runs past the end
  EXPECT_FALSE(cache.lookup(2, buf, 256));      // different owner
}

TEST(RegCache, StatsAccumulate) {
  RegCache cache;
  char buf[64]{};
  cache.insert(0, buf, 64);
  (void)cache.lookup(0, buf, 64);
  (void)cache.lookup(0, buf, 64);
  (void)cache.lookup(0, buf + 60, 64);  // miss
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_NEAR(cache.stats().hit_ratio(), 2.0 / 3.0, 1e-12);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(RegCache, ClearDropsMappings) {
  RegCache cache;
  char buf[64]{};
  cache.insert(0, buf, 64);
  EXPECT_EQ(cache.clear(), 1u);
  EXPECT_FALSE(cache.lookup(0, buf, 64));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(RegCache, CapacityBoundsEnforcedLru) {
  RegCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);
  char a[64], b[64], c[64];
  EXPECT_EQ(cache.insert(0, a, 64), 0u);
  EXPECT_EQ(cache.insert(0, b, 64), 0u);
  EXPECT_EQ(cache.insert(0, c, 64), 1u);  // evicts a (oldest)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.lookup(0, a, 64));
  EXPECT_TRUE(cache.lookup(0, b, 64));
  EXPECT_TRUE(cache.lookup(0, c, 64));
}

TEST(RegCache, LookupRefreshesRecency) {
  RegCache cache(2);
  char a[64]{}, b[64]{}, c[64]{};
  cache.insert(0, a, 64);
  cache.insert(0, b, 64);
  EXPECT_TRUE(cache.lookup(0, a, 64));  // a becomes most-recent
  cache.insert(0, c, 64);               // so b is the victim
  EXPECT_TRUE(cache.lookup(0, a, 64));
  EXPECT_FALSE(cache.lookup(0, b, 64));
  EXPECT_TRUE(cache.lookup(0, c, 64));
}

TEST(RegCache, ReinsertUpdatesLengthWithoutEviction) {
  RegCache cache(2);
  char a[256]{};
  cache.insert(0, a, 64);
  EXPECT_FALSE(cache.lookup(0, a, 256));    // cached range too short
  EXPECT_EQ(cache.insert(0, a, 256), 0u);   // grow in place
  EXPECT_TRUE(cache.lookup(0, a, 256));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RegCache, EraseOwnerInvalidatesOnlyThatOwner) {
  RegCache cache;
  char a[64]{}, b[64]{};
  cache.insert(1, a, 64);
  cache.insert(1, b, 64);
  cache.insert(2, a, 64);
  EXPECT_EQ(cache.erase_owner(1), 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_FALSE(cache.lookup(1, a, 64));
  EXPECT_TRUE(cache.lookup(2, a, 64));
  EXPECT_EQ(cache.erase_owner(7), 0u);  // unknown owner: no-op
}

TEST(RegCache, LruOrderSpansOwnersAtCapacityThree) {
  RegCache cache(3);
  char a[128]{}, b[64]{}, c[128]{}, d[64]{}, e[64]{};
  cache.insert(2, a, 64);
  cache.insert(0, b, 64);
  cache.insert(1, c, 64);                    // oldest first: 2a 0b 1c
  EXPECT_TRUE(cache.lookup(2, a, 64));       // 0b 1c 2a
  EXPECT_EQ(cache.insert(1, c, 128), 0u);    // 0b 2a 1c
  EXPECT_EQ(cache.insert(0, d, 64), 1u);     // evicts 0b: 2a 1c 0d
  EXPECT_EQ(cache.insert(2, e, 64), 1u);     // evicts 2a: 1c 0d 2e
  EXPECT_FALSE(cache.lookup(0, b, 64));
  EXPECT_FALSE(cache.lookup(2, a, 64));
  EXPECT_TRUE(cache.lookup(1, c, 128));
  EXPECT_TRUE(cache.lookup(0, d, 64));
  EXPECT_TRUE(cache.lookup(2, e, 64));       // 1c 0d 2e
  EXPECT_EQ(cache.erase_owner(0), 1u);       // 1c 2e
  cache.insert(3, a, 64);                    // 1c 2e 3a
  EXPECT_EQ(cache.insert(3, b, 64), 1u);     // evicts 1c: 2e 3a 3b
  EXPECT_FALSE(cache.lookup(1, c, 64));
  EXPECT_TRUE(cache.lookup(3, a, 64));
  EXPECT_TRUE(cache.lookup(3, b, 64));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 4u);
  EXPECT_EQ(cache.clear(), 3u);
  EXPECT_EQ(cache.stats().evictions, 7u);
}

TEST(RegCache, ForcedMissesCountAgainstHitRatio) {
  RegCache cache;
  char a[64]{};
  cache.insert(0, a, 64);
  EXPECT_TRUE(cache.lookup(0, a, 64));
  cache.count_forced_miss();
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_NEAR(cache.stats().hit_ratio(), 0.5, 1e-12);
}

TEST(RegCache, ZeroCapacityClampsToOne) {
  RegCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  char a[64], b[64];
  cache.insert(0, a, 64);
  cache.insert(0, b, 64);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// Endpoint charging, measured through the simulator's virtual clock.

double charge_of(const std::function<void(mach::Ctx&, Endpoint&)>& fn,
                 Mechanism mech, bool reg_cache) {
  sim::SimMachine m(topo::mini8(), 2);
  Endpoint ep(mech, reg_cache);
  double elapsed = 0.0;
  m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() != 0) return;
    const double t0 = ctx.now();
    fn(ctx, ep);
    elapsed = ctx.now() - t0;
  });
  return elapsed;
}

TEST(Endpoint, FirstAttachPaysFaultsThenCacheHits) {
  char buf[8192];
  const double first = charge_of(
      [&](mach::Ctx& ctx, Endpoint& ep) { ep.attach(ctx, 1, buf, 8192); },
      Mechanism::kXpmem, true);
  const double both = charge_of(
      [&](mach::Ctx& ctx, Endpoint& ep) {
        ep.attach(ctx, 1, buf, 8192);
        ep.attach(ctx, 1, buf, 8192);
      },
      Mechanism::kXpmem, true);
  const MechanismCosts costs = costs_for(Mechanism::kXpmem);
  EXPECT_NEAR(first, costs.attach_syscall + 2 * costs.page_fault, 1e-12);
  EXPECT_NEAR(both - first, costs.cache_lookup, 1e-12);
}

TEST(Endpoint, NoRegCachePaysEveryTime) {
  char buf[4096];
  const double once = charge_of(
      [&](mach::Ctx& ctx, Endpoint& ep) { ep.attach(ctx, 1, buf, 4096); },
      Mechanism::kXpmem, false);
  const double twice = charge_of(
      [&](mach::Ctx& ctx, Endpoint& ep) {
        ep.attach(ctx, 1, buf, 4096);
        ep.attach(ctx, 1, buf, 4096);
      },
      Mechanism::kXpmem, false);
  EXPECT_NEAR(twice, 2 * once, 1e-12);  // attach + detach per operation
  const MechanismCosts costs = costs_for(Mechanism::kXpmem);
  EXPECT_NEAR(once, costs.attach_syscall + costs.page_fault + costs.detach,
              1e-12);
}

TEST(Endpoint, AttachReturnsThePeerPointer) {
  char buf[64];
  sim::SimMachine m(topo::mini8(), 2);
  Endpoint ep(Mechanism::kXpmem, true);
  m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      EXPECT_EQ(ep.attach(ctx, 1, buf, 64), buf);
    }
  });
}

TEST(Endpoint, CmaChargesPerOperationWithContention) {
  char buf[1 << 20];
  const MechanismCosts costs = costs_for(Mechanism::kCma);
  const double op = charge_of(
      [&](mach::Ctx& ctx, Endpoint& ep) {
        ep.attach(ctx, 1, buf, sizeof(buf));  // free: no mapping concept
        ep.charge_op(ctx, sizeof(buf), /*node_ranks=*/2);
      },
      Mechanism::kCma, true);
  const double expected =
      costs.op_syscall +
      256.0 * costs.op_per_page * (1.0 + costs.lock_coef * 1.0);
  EXPECT_NEAR(op, expected, 1e-12);

  // More ranks in the node → more mm-lock contention per copy ([28]).
  const double crowded = charge_of(
      [&](mach::Ctx& ctx, Endpoint& ep) {
        ep.charge_op(ctx, sizeof(buf), /*node_ranks=*/64);
      },
      Mechanism::kCma, true);
  EXPECT_GT(crowded, op - costs.op_syscall);
}

TEST(Endpoint, XpmemChargesNothingPerOperation) {
  const double op = charge_of(
      [&](mach::Ctx& ctx, Endpoint& ep) { ep.charge_op(ctx, 1 << 20, 64); },
      Mechanism::kXpmem, true);
  EXPECT_EQ(op, 0.0);
}

TEST(Endpoint, ExposeChargedOncePerBuffer) {
  char buf[4096];
  const double once = charge_of(
      [&](mach::Ctx& ctx, Endpoint& ep) {
        ep.expose(ctx, buf, 4096);
        ep.expose(ctx, buf, 4096);  // idempotent
      },
      Mechanism::kXpmem, true);
  EXPECT_NEAR(once, costs_for(Mechanism::kXpmem).expose, 1e-12);
}

TEST(Endpoint, DetachAllChargesAndClears) {
  char a[64];
  char b[64];
  const MechanismCosts costs = costs_for(Mechanism::kXpmem);
  const double total = charge_of(
      [&](mach::Ctx& ctx, Endpoint& ep) {
        ep.attach(ctx, 1, a, 64);
        ep.attach(ctx, 1, b, 64);
        const double before = ctx.now();
        ep.detach_all(ctx);
        EXPECT_NEAR(ctx.now() - before, 2 * costs.detach, 1e-12);
      },
      Mechanism::kXpmem, true);
  (void)total;
}

}  // namespace
}  // namespace xhc::smsc
