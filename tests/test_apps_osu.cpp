// Tests for the OSU-style harness, its timing-only data plane, and the
// application proxies.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>

#include "apps/cntk.h"
#include "apps/miniamr.h"
#include "apps/pisvm.h"
#include "coll/registry.h"
#include "mach/real_machine.h"
#include "osu/harness.h"
#include "sim/sim_machine.h"
#include "svc/tenant.h"
#include "topo/presets.h"

namespace xhc {
namespace {

TEST(OsuHarness, DefaultSizesArePowersOfTwo) {
  const auto sizes = osu::default_sizes(4, 64);
  ASSERT_EQ(sizes.size(), 5u);
  EXPECT_EQ(sizes.front(), 4u);
  EXPECT_EQ(sizes.back(), 64u);
}

TEST(OsuHarness, BcastSweepProducesOrderedResults) {
  sim::SimMachine m(topo::mini16(), 16);
  auto comp = coll::make_component("xhc", m);
  osu::Config cfg;
  cfg.warmup = 1;
  cfg.iters = 2;
  const auto res = osu::bcast_sweep(m, *comp, {64, 4096, 262144}, cfg);
  ASSERT_EQ(res.size(), 3u);
  for (const auto& r : res) {
    EXPECT_GT(r.avg_us, 0.0);
    EXPECT_LE(r.min_us, r.avg_us);
    EXPECT_GE(r.max_us, r.avg_us);
  }
  // Latency grows with size across two decades.
  EXPECT_GT(res[2].avg_us, res[0].avg_us);
}

TEST(OsuHarness, VerificationCatchesNothingOnHealthyComponent) {
  // verify=true memcmp-checks the payload; a passing sweep is the assertion.
  mach::RealMachine m(topo::mini8(), 8);
  auto comp = coll::make_component("tuned", m);
  osu::Config cfg;
  cfg.verify = true;
  EXPECT_NO_THROW(osu::bcast_sweep(m, *comp, {4, 1024, 65536}, cfg));
}

TEST(OsuHarness, AllreduceSweepRuns) {
  sim::SimMachine m(topo::mini16(), 16);
  auto comp = coll::make_component("tuned", m);
  osu::Config cfg;
  cfg.warmup = 1;
  cfg.iters = 2;
  const auto res = osu::allreduce_sweep(m, *comp, {4, 16384}, cfg);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_GT(res[1].avg_us, res[0].avg_us);
}

TEST(OsuHarness, ModifyBufferCostsExcludedFromTiming) {
  // The rewrite happens outside the timed window: stock and _mb variants
  // must not differ by the (large) rewrite cost itself for a tiny message.
  sim::SimMachine m(topo::mini8(), 8);
  auto comp = coll::make_component("xhc", m);
  osu::Config stock;
  stock.modify_buffer = false;
  stock.iters = 3;
  osu::Config mb;
  mb.modify_buffer = true;
  mb.iters = 3;
  const double a = osu::bcast_sweep(m, *comp, {64}, stock).front().avg_us;
  sim::SimMachine m2(topo::mini8(), 8);
  auto comp2 = coll::make_component("xhc", m2);
  const double b = osu::bcast_sweep(m2, *comp2, {64}, mb).front().avg_us;
  EXPECT_NEAR(a, b, 0.5 * std::max(a, b));
}

TEST(OsuHarness, Pt2PtLatencyPositiveAndSizeMonotone) {
  sim::SimMachine m(topo::mini8(), 8);
  p2p::Fabric fabric(m, {});
  osu::Config cfg;
  cfg.warmup = 1;
  cfg.iters = 2;
  const double small = osu::pt2pt_latency_us(m, fabric, 0, 7, 8, cfg);
  const double large = osu::pt2pt_latency_us(m, fabric, 0, 7, 1 << 20, cfg);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
}

// ---------------------------------------------------------------------------
// Timing-only data plane (mach::Machine::set_timing_only)

/// Rank context that forwards every operation and checks that each copy
/// landed: after the wrapped machine's copy, the destination equals the
/// source.
class PassThroughCtx final : public mach::Ctx {
 public:
  PassThroughCtx(mach::Ctx& in, std::atomic<std::uint64_t>& copies,
                 std::atomic<std::uint64_t>& landed)
      : in_(in), copies_(copies), landed_(landed) {
    wait_spins_ = in.wait_spins();
  }
  int rank() const noexcept override { return in_.rank(); }
  int size() const noexcept override { return in_.size(); }
  int core() const noexcept override { return in_.core(); }
  double now() override { return in_.now(); }
  void charge(double s) override { in_.charge(s); }
  void stall(double s) override { in_.stall(s); }
  void copy(void* dst, const void* src, std::size_t n) override {
    in_.copy(dst, src, n);
    copies_.fetch_add(1, std::memory_order_relaxed);
    if (std::memcmp(dst, src, n) == 0) {
      landed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void reduce(void* dst, const void* src, std::size_t count, mach::DType dt,
              mach::ROp op) override {
    in_.reduce(dst, src, count, dt, op);
  }
  void write_payload(void* dst, std::size_t n, std::uint64_t seed) override {
    in_.write_payload(dst, n, seed);
  }
  void flag_store(mach::Flag& f, std::uint64_t v) override {
    in_.flag_store(f, v);
  }
  std::uint64_t flag_read(const mach::Flag& f) override {
    return in_.flag_read(f);
  }
  void flag_wait_ge(const mach::Flag& f, std::uint64_t v) override {
    in_.flag_wait_ge(f, v);
    wait_spins_ = in_.wait_spins();
  }
  std::uint64_t fetch_add(mach::Flag& f, std::uint64_t d) override {
    return in_.fetch_add(f, d);
  }
  void barrier() override { in_.barrier(); }

 private:
  mach::Ctx& in_;
  std::atomic<std::uint64_t>& copies_;
  std::atomic<std::uint64_t>& landed_;
};

/// Pass-through machine decorator. Like every decorator it keeps the full
/// data plane by not forwarding set_timing_only.
class PassThroughMachine final : public mach::Machine {
 public:
  explicit PassThroughMachine(mach::Machine& in) : in_(in) {}
  const topo::Topology& topology() const noexcept override {
    return in_.topology();
  }
  const topo::RankMap& map() const noexcept override { return in_.map(); }
  void* alloc(int owner, std::size_t bytes, std::size_t align = 64,
              bool zero = true) override {
    return in_.alloc(owner, bytes, align, zero);
  }
  void free(void* p) override { in_.free(p); }
  mach::RunResult run(const std::function<void(mach::Ctx&)>& fn) override {
    return in_.run([&](mach::Ctx& ctx) {
      PassThroughCtx through(ctx, copies, landed);
      fn(through);
    });
  }
  verify::Ledger& verify_ledger() noexcept override {
    return in_.verify_ledger();
  }
  const verify::Ledger& verify_ledger() const noexcept override {
    return in_.verify_ledger();
  }

  std::atomic<std::uint64_t> copies{0};  ///< copies forwarded
  std::atomic<std::uint64_t> landed{0};  ///< ... that left dst == src

 private:
  mach::Machine& in_;
};

/// Forwards to a real component and records whether `machine` was on its
/// timing-only data plane while rank 0 ran a collective (-1: no call yet).
/// With `fail` set, every bcast throws instead.
class PlaneProbe final : public coll::Component {
 public:
  PlaneProbe(coll::Component& in, const mach::Machine& machine,
             bool fail = false)
      : in_(in), machine_(machine), fail_(fail) {}
  std::string_view name() const noexcept override { return in_.name(); }
  void bcast(mach::Ctx& ctx, void* buf, std::size_t bytes,
             int root) override {
    seen(ctx);
    if (fail_) throw std::runtime_error("probe: failing bcast");
    in_.bcast(ctx, buf, bytes, root);
  }
  void allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                 std::size_t count, mach::DType dtype,
                 mach::ROp op) override {
    seen(ctx);
    in_.allreduce(ctx, sbuf, rbuf, count, dtype, op);
  }
  void reduce(mach::Ctx& ctx, const void* sbuf, void* rbuf, std::size_t count,
              mach::DType dtype, mach::ROp op, int root) override {
    seen(ctx);
    in_.reduce(ctx, sbuf, rbuf, count, dtype, op, root);
  }
  void barrier(mach::Ctx& ctx) override { in_.barrier(ctx); }

  /// The last observation, reset to -1.
  int take() { return timing_only_.exchange(-1); }

 private:
  void seen(const mach::Ctx& ctx) {
    if (ctx.rank() == 0) timing_only_ = machine_.timing_only() ? 1 : 0;
  }

  coll::Component& in_;
  const mach::Machine& machine_;
  const bool fail_;
  std::atomic<int> timing_only_{-1};
};

bool listed(const std::vector<std::string_view>& names,
            const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// One unverified sweep of `op` at one size, on a fresh twin of `node`
/// (behind a pass-through decorator when `decorated`). A fresh machine and
/// component per point keep host heap addresses out of the comparison: the
/// registration cache keys on them, so a stale mapping left by an earlier
/// size could turn a later miss into a hit on one twin only.
osu::SizeResult unverified_point(const topo::Topology& node,
                                 const std::string& name,
                                 const std::string& op, std::size_t bytes,
                                 bool decorated) {
  sim::SimMachine sim(node, node.n_cores());
  PassThroughMachine through(sim);
  mach::Machine& m = decorated ? static_cast<mach::Machine&>(through) : sim;
  auto comp = coll::make_component(name, m);
  osu::Config cfg;
  cfg.verify = false;
  const auto sweep = op == "bcast"       ? osu::bcast_sweep
                     : op == "allreduce" ? osu::allreduce_sweep
                                         : osu::reduce_sweep;
  const osu::SizeResult r = sweep(m, *comp, {bytes}, cfg).front();
  if (decorated) {
    EXPECT_GT(through.copies.load(), 0u);
    EXPECT_EQ(through.landed.load(), through.copies.load());
  }
  return r;
}

class TimingOnlySweep : public ::testing::TestWithParam<std::string> {};

TEST_P(TimingOnlySweep, MatchesFullDataPlaneBitForBit) {
  // The raw SimMachine runs each sweep timing-only; behind a pass-through
  // decorator its twin moves every byte. The cost model never reads
  // content, so every latency must agree exactly. Sizes straddle the CICO
  // (1 KiB), RS+AG (8 KiB), pipeline chunk (16 KiB) and stripe (128 KiB)
  // thresholds.
  const std::string& name = GetParam();
  std::vector<std::string> ops;
  if (listed(coll::bcast_component_names(), name)) ops.emplace_back("bcast");
  if (listed(coll::allreduce_component_names(), name)) {
    ops.emplace_back("allreduce");
    ops.emplace_back("reduce");
  }
  for (const topo::Topology& node :
       {topo::mini8(), topo::mini16(), topo::epyc1p()}) {
    for (const std::string& op : ops) {
      for (const std::size_t bytes : {1020, 1028, 8188, 8196, 16380, 16388,
                                      131068, 131076}) {
        SCOPED_TRACE(node.name() + " " + op + " " + std::to_string(bytes) +
                     " B");
        const auto timing = unverified_point(node, name, op, bytes, false);
        const auto full = unverified_point(node, name, op, bytes, true);
        EXPECT_EQ(timing.avg_us, full.avg_us);
        EXPECT_EQ(timing.min_us, full.min_us);
        EXPECT_EQ(timing.max_us, full.max_us);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllComponents, TimingOnlySweep,
                         ::testing::Values("xhc", "xhc-flat", "tuned", "sm",
                                           "ucc", "smhc", "xbrc"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(TimingOnly, SweepsEngageOnlyWithoutVerification) {
  sim::SimMachine m(topo::mini8(), 8);
  auto xhc = coll::make_component("xhc", m);
  PlaneProbe probe(*xhc, m);
  osu::Config cfg;
  for (const bool verify : {true, false}) {
    SCOPED_TRACE(verify ? "verify" : "no verify");
    cfg.verify = verify;
    osu::bcast_sweep(m, probe, {4096}, cfg);
    EXPECT_EQ(probe.take(), verify ? 0 : 1);
    EXPECT_FALSE(m.timing_only());
    osu::allreduce_sweep(m, probe, {4096}, cfg);
    EXPECT_EQ(probe.take(), verify ? 0 : 1);
    EXPECT_FALSE(m.timing_only());
    osu::reduce_sweep(m, probe, {4096}, cfg);
    EXPECT_EQ(probe.take(), verify ? 0 : 1);
    EXPECT_FALSE(m.timing_only());
  }
  // A verifying sweep moves bytes (and its checks pass) even when the
  // caller left the machine timing-only; the caller's setting comes back.
  ASSERT_TRUE(m.set_timing_only(true));
  cfg.verify = true;
  EXPECT_NO_THROW(osu::allreduce_sweep(m, probe, {4096}, cfg));
  EXPECT_EQ(probe.take(), 0);
  EXPECT_TRUE(m.timing_only());
}

TEST(TimingOnly, DecoratedMachineMovesRealBytes) {
  sim::SimMachine m(topo::mini8(), 8);
  PassThroughMachine through(m);
  auto xhc = coll::make_component("xhc", through);
  PlaneProbe probe(*xhc, m);
  osu::Config cfg;
  cfg.verify = false;
  osu::bcast_sweep(through, probe, {4096, 65536}, cfg);
  EXPECT_EQ(probe.take(), 0);
  EXPECT_GT(through.copies.load(), 0u);
  EXPECT_EQ(through.landed.load(), through.copies.load());
  EXPECT_FALSE(through.set_timing_only(true));
  EXPECT_FALSE(m.timing_only());
}

TEST(TimingOnly, RealAndTenantMachinesDoNotHonourTheSwitch) {
  mach::RealMachine real(topo::mini8(), 8);
  EXPECT_FALSE(real.set_timing_only(true));
  EXPECT_FALSE(real.timing_only());
  sim::SimMachine sim(topo::mini8(), 8);
  svc::TenantMachine tenant(sim, {0, 2, 4, 6}, "tenant");
  EXPECT_FALSE(tenant.set_timing_only(true));
  EXPECT_FALSE(tenant.timing_only());
  EXPECT_FALSE(sim.timing_only());
}

TEST(TimingOnly, SwitchComesBackWhenTheComponentThrows) {
  sim::SimMachine m(topo::mini8(), 8);
  auto xhc = coll::make_component("xhc", m);
  PlaneProbe probe(*xhc, m, /*fail=*/true);
  osu::Config cfg;
  cfg.verify = false;
  EXPECT_THROW(osu::bcast_sweep(m, probe, {4096}, cfg), std::runtime_error);
  EXPECT_EQ(probe.take(), 1);
  EXPECT_FALSE(m.timing_only());
}

// ---------------------------------------------------------------------------
// Application proxies

TEST(Apps, PisvmAccountingConsistent) {
  sim::SimMachine m(topo::mini16(), 16);
  auto comp = coll::make_component("xhc", m);
  apps::PisvmConfig cfg;
  cfg.iterations = 20;
  const apps::AppResult res = apps::run_pisvm(m, *comp, cfg);
  EXPECT_GT(res.total_time, 0.0);
  EXPECT_GT(res.collective_time, 0.0);
  EXPECT_LT(res.collective_time, res.total_time);
  EXPECT_EQ(res.collective_calls, 20u * 3u);  // 2 rows + 1 control per iter
  // Compute dominates but communication is material.
  EXPECT_GT(res.total_time, 20 * cfg.compute_seconds * 0.99);
}

TEST(Apps, MiniAmrConfigsDiffer) {
  const apps::MiniAmrConfig a = apps::miniamr_default();
  const apps::MiniAmrConfig b = apps::miniamr_1k_levels();
  EXPECT_LT(a.reduce_bytes, b.reduce_bytes);
  EXPECT_GT(a.refine_every, b.refine_every);
}

TEST(Apps, MiniAmrRunsAndCounts) {
  sim::SimMachine m(topo::mini16(), 16);
  auto comp = coll::make_component("xhc", m);
  apps::MiniAmrConfig cfg = apps::miniamr_default();
  cfg.timesteps = 40;
  const apps::AppResult res = apps::run_miniamr(m, *comp, cfg);
  // refine every 4 steps x 6 reductions.
  EXPECT_EQ(res.collective_calls, 10u * 6u);
  EXPECT_GT(res.total_time, res.collective_time);
}

TEST(Apps, CntkRegCacheHitRatioHigh) {
  // Gradient buffers are reused every minibatch: the paper reports >99%
  // registration-cache hit ratios; require at least 90% on the small proxy.
  sim::SimMachine m(topo::mini16(), 16);
  auto comp = coll::make_component("xhc", m);
  apps::CntkConfig cfg;
  cfg.minibatches = 40;
  cfg.layer_bytes = {256 * 1024, 512 * 1024};
  const apps::AppResult res = apps::run_cntk(m, *comp, cfg);
  EXPECT_EQ(res.collective_calls, 80u);
  const auto stats = comp->reg_cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->hit_ratio(), 0.90);
  (void)res;
}

TEST(Apps, BetterCollectivesReduceTotalTime) {
  // The proxy structure guarantees wins come only from collective time:
  // XHC's total must not exceed the naive flat component's.
  apps::MiniAmrConfig cfg = apps::miniamr_1k_levels();
  cfg.timesteps = 60;
  double totals[2];
  int i = 0;
  for (const char* name : {"xhc", "sm"}) {
    sim::SimMachine m(topo::epyc1p(), 32);
    auto comp = coll::make_component(name, m);
    totals[i++] = apps::run_miniamr(m, *comp, cfg).total_time;
  }
  EXPECT_LT(totals[0], totals[1]);
}

}  // namespace
}  // namespace xhc
