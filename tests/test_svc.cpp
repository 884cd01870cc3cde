// Multi-tenant collective service (DESIGN.md § Multi-tenant service):
// tenant rank renumbering, the arbiter's admission/degradation chain,
// overlapping communicators policed by one shared ledger, backpressure and
// deadline shedding under the loadgen, payload integrity under injected
// faults, byte-determinism across runs and host backends, and systematic
// interleaving exploration of two overlapping communicators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/explore.h"
#include "core/xhc_component.h"
#include "mach/machine.h"
#include "obs/timeseries.h"
#include "sim/sim_machine.h"
#include "svc/arbiter.h"
#include "svc/loadgen.h"
#include "svc/registry.h"
#include "svc/telemetry.h"
#include "svc/tenant.h"
#include "topo/presets.h"
#include "util/check.h"
#include "util/prng.h"

namespace xhc {
namespace {

// ---------------------------------------------------------------------------
// Tenant facade

TEST(SvcTenant, RanksAreRenumberedAndDeduplicated) {
  sim::SimMachine machine(topo::mini8(), 8);
  svc::TenantMachine tenant(machine, {5, 1, 3, 1}, "t/");
  ASSERT_EQ(tenant.n_ranks(), 3);
  EXPECT_EQ(tenant.ranks(), (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(tenant.parent_rank(0), 1);
  EXPECT_EQ(tenant.parent_rank(2), 5);
  EXPECT_EQ(tenant.local_rank(3), 1);
  EXPECT_EQ(tenant.local_rank(0), -1);
  // Tenants share the parent's ledger and never execute themselves.
  EXPECT_EQ(&tenant.verify_ledger(), &machine.verify_ledger());
  EXPECT_THROW(tenant.run([](mach::Ctx&) {}), util::Error);
}

TEST(SvcTenant, CtxRenumbersAndForbidsSubsetBarrier) {
  sim::SimMachine machine(topo::mini8(), 8);
  svc::TenantMachine tenant(machine, {2, 4}, "t/");
  machine.run([&](mach::Ctx& ctx) {
    if (tenant.local_rank(ctx.rank()) < 0) return;
    svc::TenantCtx tctx(ctx, tenant);
    EXPECT_EQ(tctx.size(), 2);
    EXPECT_EQ(tctx.rank(), ctx.rank() == 2 ? 0 : 1);
    EXPECT_THROW(tctx.barrier(), util::Error);
  });
}

// ---------------------------------------------------------------------------
// Admission: degradation chain, then a named error — never a hang

TEST(SvcArbiter, DegradesSegmentsBeforeShedding) {
  svc::Budget budget;
  // Room for ~half a default communicator: forces segment halving.
  coll::Tuning probe;
  budget.segment_bytes =
      8 * (probe.cico_segment_bytes / 4 + svc::Arbiter::kCtlBytesPerRank);
  svc::Arbiter arbiter(budget);
  std::string trail;
  const coll::Tuning got = arbiter.admit("comm0'a'/", 8, probe, &trail);
  EXPECT_LT(got.cico_segment_bytes, probe.cico_segment_bytes);
  EXPECT_NE(trail.find("halved"), std::string::npos) << trail;
  arbiter.release("comm0'a'/");
  EXPECT_EQ(arbiter.segment_bytes_free(), budget.segment_bytes);
}

TEST(SvcRegistry, ExhaustionRaisesNamedAdmissionError) {
  sim::SimMachine machine(topo::mini8(), 8);
  svc::Budget budget;
  budget.segment_bytes = 4096;  // below any communicator's floor
  svc::Arbiter arbiter(budget);
  svc::CommRegistry reg(machine, arbiter);
  svc::CommSpec spec;
  spec.name = "greedy";
  for (int r = 0; r < 8; ++r) spec.ranks.push_back(r);
  try {
    reg.create(spec);
    FAIL() << "expected AdmissionError";
  } catch (const svc::AdmissionError& e) {
    EXPECT_NE(e.comm().find("comm0'greedy'"), std::string::npos) << e.comm();
    EXPECT_EQ(e.op(), "create");
    EXPECT_NE(e.reason().find("segment budget exhausted"), std::string::npos)
        << e.reason();
  }
  // The failed admission must not leak a charge.
  EXPECT_EQ(arbiter.segment_bytes_free(), budget.segment_bytes);
  EXPECT_EQ(reg.n_comms(), 0);
}

// ---------------------------------------------------------------------------
// Overlapping communicators in one parent run

TEST(SvcRegistry, OverlappingCommsInterleaveInOneRun) {
  constexpr int kRanks = 8;
  constexpr std::size_t kBytes = 30000;
  sim::SimMachine machine(topo::mini8(), kRanks);
  svc::Arbiter arbiter(svc::Budget{});
  svc::CommRegistry reg(machine, arbiter);
  svc::CommSpec a;
  a.name = "a";
  for (int r = 0; r < kRanks; ++r) a.ranks.push_back(r);
  svc::CommSpec b;
  b.name = "b";
  for (int r = 2; r < kRanks - 1; ++r) b.ranks.push_back(r);
  svc::Communicator& ca = reg.create(a);
  svc::Communicator& cb = reg.create(b);
  EXPECT_EQ(reg.comm_ids_of(3), (std::vector<int>{0, 1}));
  EXPECT_EQ(reg.comm_ids_of(0), (std::vector<int>{0}));

  // Distinct payload streams per communicator; both collectives run inside
  // ONE parent run, so ranks 2..6 carry both protocols back to back and the
  // shared ledger polices the single-writer discipline across them.
  std::vector<mach::Buffer> ba, bb;
  for (int r = 0; r < kRanks; ++r) {
    ba.emplace_back(machine, r, kBytes);
    bb.emplace_back(machine, r, kBytes);
  }
  util::fill_pattern(ba[0].get(), kBytes, 11);
  util::fill_pattern(bb[3].get(), kBytes, 22);  // comm b local root 1
  machine.run([&](mach::Ctx& ctx) {
    const auto i = static_cast<std::size_t>(ctx.rank());
    {
      svc::TenantCtx tctx(ctx, ca.machine());
      ca.component().bcast(tctx, ba[i].get(), kBytes, 0);
    }
    if (cb.local_rank(ctx.rank()) >= 0) {
      svc::TenantCtx tctx(ctx, cb.machine());
      cb.component().bcast(tctx, bb[i].get(), kBytes, 1);
    }
  });

  std::vector<std::byte> ea(kBytes), eb(kBytes);
  util::fill_pattern(ea.data(), kBytes, 11);
  util::fill_pattern(eb.data(), kBytes, 22);
  for (int r = 0; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(std::memcmp(ba[i].get(), ea.data(), kBytes), 0) << "a rank " << r;
    if (cb.local_rank(r) >= 0) {
      EXPECT_EQ(std::memcmp(bb[i].get(), eb.data(), kBytes), 0)
          << "b rank " << r;
    }
  }
}

TEST(SvcRegistry, SplitWindowReduceKeepsTheLatencyPathExact) {
  // A tenant over epyc2p's NUMA nodes 1-4, three on socket 0 and one on
  // socket 1: its shard nest is not uniform, so a reduce above one chunk
  // keeps the chunk-parallel reducers instead of the reduce-scatter +
  // rooted gather. It must stay bit-exact at every root, back to back with
  // a reduce of the other path's size class.
  sim::SimMachine machine(topo::epyc2p(), 64);
  svc::Arbiter arbiter(svc::Budget{});
  svc::CommRegistry reg(machine, arbiter);
  svc::CommSpec spec;
  spec.name = "split";
  for (int r = 8; r < 40; ++r) spec.ranks.push_back(r);
  svc::Communicator& comm = reg.create(spec);
  const auto* xhc = dynamic_cast<core::XhcComponent*>(&comm.component());
  ASSERT_NE(xhc, nullptr);
  EXPECT_FALSE(xhc->shard_plan().uniform());

  constexpr std::size_t kMaxBytes = 65536;
  std::vector<mach::Buffer> sbufs, rbufs;
  for (int r = 0; r < 64; ++r) {
    sbufs.emplace_back(machine, r, kMaxBytes);
    rbufs.emplace_back(machine, r, kMaxBytes);
  }
  const int n = comm.size();
  std::vector<std::string> errors(64);
  machine.run([&](mach::Ctx& ctx) {
    const int local = comm.local_rank(ctx.rank());
    if (local < 0) return;
    svc::TenantCtx tctx(ctx, comm.machine());
    const auto i = static_cast<std::size_t>(ctx.rank());
    auto* sbuf = static_cast<std::uint64_t*>(sbufs[i].get());
    auto* rbuf = static_cast<std::uint64_t*>(rbufs[i].get());
    std::uint64_t o = 0;
    for (const std::size_t bytes : {std::size_t{4096}, kMaxBytes}) {
      const std::size_t count = bytes / sizeof(std::uint64_t);
      for (int root = 0; root < n; ++root, ++o) {
        for (std::size_t w = 0; w < count; ++w) {
          sbuf[w] = (std::uint64_t{1} << local) * (2 * w + 1 + o);
        }
        comm.component().reduce(tctx, sbuf, rbuf, count, mach::DType::kI64,
                                mach::ROp::kSum, root);
        if (local != root) continue;
        for (std::size_t w = 0; w < count && errors[i].empty(); ++w) {
          if (rbuf[w] != ((std::uint64_t{1} << n) - 1) * (2 * w + 1 + o)) {
            errors[i] = std::to_string(bytes) + " B root " +
                        std::to_string(root) + " word " + std::to_string(w);
          }
        }
      }
    }
  });
  for (const std::string& e : errors) EXPECT_TRUE(e.empty()) << e;
}

// ---------------------------------------------------------------------------
// Loadgen: plan/schedule shape, backpressure, integrity, determinism

TEST(SvcLoadgen, CommPlanOverlapsAndScheduleIsSorted) {
  svc::LoadgenConfig cfg;
  cfg.n_comms = 6;
  cfg.requests = 600;
  const auto plan = svc::make_comm_plan(8, cfg, coll::Tuning{});
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_EQ(plan[0].ranks.size(), 8u);  // tenant 0 spans the node
  for (const auto& spec : plan) {
    EXPECT_GE(spec.ranks.size(), 2u) << spec.name;
  }

  sim::SimMachine machine(topo::mini8(), 8);
  svc::Arbiter arbiter(svc::Budget{});
  svc::CommRegistry reg(machine, arbiter);
  for (const auto& spec : plan) reg.create(spec);
  const auto sched = svc::make_schedule(cfg, reg);
  ASSERT_EQ(sched.size(), 600u);
  std::vector<std::uint64_t> next_index(6, 0);
  for (std::size_t i = 0; i < sched.size(); ++i) {
    EXPECT_EQ(sched[i].id, i);
    if (i > 0) {
      EXPECT_GE(sched[i].arrival, sched[i - 1].arrival);
    }
    // Per-communicator stream indices appear in order (verdict epochs).
    EXPECT_EQ(sched[i].index,
              next_index[static_cast<std::size_t>(sched[i].comm)]++);
    if (sched[i].op == svc::OpClass::kBarrier) {
      EXPECT_EQ(sched[i].bytes, 0u);
    } else {
      EXPECT_GE(sched[i].bytes, cfg.min_bytes);
      EXPECT_LE(sched[i].bytes, cfg.max_bytes);
      EXPECT_LT(sched[i].root, reg.comm(sched[i].comm).size());
    }
  }
}

svc::LoadgenConfig small_soak_config() {
  svc::LoadgenConfig cfg;
  cfg.n_comms = 4;
  cfg.requests = 400;
  cfg.arrival_rate = 2e4;
  cfg.max_bytes = 256u << 10;
  cfg.large_fraction = 0.05;
  return cfg;
}

svc::Budget generous_budget(int n_ranks, int n_comms,
                            const coll::Tuning& base) {
  svc::Budget budget;
  budget.segment_bytes =
      static_cast<std::size_t>(n_ranks) * static_cast<std::size_t>(n_comms) *
      (base.cico_segment_bytes + svc::Arbiter::kCtlBytesPerRank);
  return budget;
}

TEST(SvcLoadgen, SoakCompletesCleanOnMini8) {
  sim::SimMachine machine(topo::mini8(), 8);
  const svc::LoadgenConfig cfg = small_soak_config();
  const svc::LoadgenResult r =
      svc::run_soak(machine, cfg, generous_budget(8, cfg.n_comms, {}));
  EXPECT_EQ(r.completed + r.shed, cfg.requests);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.integrity_failures, 0u);
  EXPECT_GT(r.makespan, 0.0);
  std::uint64_t per_class = 0;
  for (const auto& pc : r.per_class) per_class += pc.completed + pc.shed;
  EXPECT_EQ(per_class, cfg.requests);
}

TEST(SvcLoadgen, BackpressureShedsBeyondBudgetWithoutCorruption) {
  sim::SimMachine machine(topo::mini8(), 8);
  svc::LoadgenConfig cfg = small_soak_config();
  cfg.arrival_rate = 1e5;  // beyond one token's service rate
  svc::Budget budget = generous_budget(8, cfg.n_comms, {});
  // One op token and an effectively unbounded queue: the token pool is the
  // bottleneck, so leaders must back off, and requests that outwait the
  // deadline while backing off are shed.
  budget.inflight_ops = 1;
  budget.queue_capacity = 100000;
  budget.deadline = 5e-4;
  const svc::LoadgenResult r = svc::run_soak(machine, cfg, budget);
  EXPECT_EQ(r.completed + r.shed, cfg.requests);
  EXPECT_GT(r.shed, 0u);
  EXPECT_GT(r.completed, 0u);  // shedding is partial, not collapse
  EXPECT_EQ(r.integrity_failures, 0u);
  EXPECT_GT(r.backoff_stalls, 0u);
}

TEST(SvcLoadgen, IntegrityHoldsUnderInjectedFaults) {
  sim::SimMachine machine(topo::mini8(), 8);
  svc::LoadgenConfig cfg = small_soak_config();
  cfg.requests = 200;
  // Degradations and perturbations only — no dropped publications, so the
  // soak must terminate with every payload intact.
  cfg.faults =
      "attach,prob=0.05;regmiss,prob=0.2;straggler,prob=0.1,delay=2e-6;"
      "flagdelay,prob=0.05,delay=1e-6;straggler,comm=1,prob=0.5,delay=1e-5";
  const svc::LoadgenResult r =
      svc::run_soak(machine, cfg, generous_budget(8, cfg.n_comms, {}));
  EXPECT_EQ(r.completed + r.shed, cfg.requests);
  EXPECT_EQ(r.integrity_failures, 0u);
}

TEST(SvcLoadgen, SoakIsByteDeterministicAcrossRunsAndBackends) {
  const svc::LoadgenConfig cfg = small_soak_config();
  const auto soak = [&](sim::SimBackend backend) {
    sim::SimMachine machine(topo::mini8(), 8);
    machine.set_backend(backend);
    return svc::run_soak(machine, cfg, generous_budget(8, cfg.n_comms, {}));
  };
  const svc::LoadgenResult a = soak(sim::SimBackend::kFiber);
  const svc::LoadgenResult b = soak(sim::SimBackend::kFiber);
  const svc::LoadgenResult c = soak(sim::SimBackend::kThreads);
  for (const svc::LoadgenResult* r : {&b, &c}) {
    EXPECT_EQ(a.completed, r->completed);
    EXPECT_EQ(a.shed, r->shed);
    EXPECT_EQ(a.integrity_failures, r->integrity_failures);
    EXPECT_EQ(a.backoff_stalls, r->backoff_stalls);
    EXPECT_EQ(a.makespan, r->makespan);  // bit-equal virtual time
    for (int k = 0; k < svc::kNumOpClasses; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      EXPECT_EQ(a.per_class[kk].completed, r->per_class[kk].completed);
      EXPECT_EQ(a.per_class[kk].latency.percentile(0.99),
                r->per_class[kk].latency.percentile(0.99));
    }
  }
}

// ---------------------------------------------------------------------------
// Loadgen integrity checker: it must fail on corrupted payloads

/// Parent-rank Ctx view that forwards everything; on the victim rank it
/// corrupts the destination of every copy and reduction after the data
/// lands, flipping the top exponent bit of the first f32 element (a
/// low-order flip of a float can stay inside the reduction tolerance).
class CorruptingCtx final : public mach::Ctx {
 public:
  CorruptingCtx(mach::Ctx& parent, bool victim)
      : parent_(&parent), victim_(victim) {
    wait_spins_ = parent.wait_spins();
  }

  int rank() const noexcept override { return parent_->rank(); }
  int size() const noexcept override { return parent_->size(); }
  int core() const noexcept override { return parent_->core(); }
  double now() override { return parent_->now(); }
  void charge(double seconds) override { parent_->charge(seconds); }
  void stall(double seconds) override { parent_->stall(seconds); }
  void copy(void* dst, const void* src, std::size_t n) override {
    parent_->copy(dst, src, n);
    corrupt(dst, n);
  }
  void reduce(void* dst, const void* src, std::size_t count, mach::DType dtype,
              mach::ROp op) override {
    parent_->reduce(dst, src, count, dtype, op);
    corrupt(dst, count * mach::dtype_size(dtype));
  }
  void write_payload(void* dst, std::size_t n, std::uint64_t seed) override {
    parent_->write_payload(dst, n, seed);
  }
  void flag_store(mach::Flag& f, std::uint64_t v) override {
    parent_->flag_store(f, v);
  }
  std::uint64_t flag_read(const mach::Flag& f) override {
    return parent_->flag_read(f);
  }
  void flag_wait_ge(const mach::Flag& f, std::uint64_t v) override {
    parent_->flag_wait_ge(f, v);
    wait_spins_ = parent_->wait_spins();
  }
  std::uint64_t fetch_add(mach::Flag& f, std::uint64_t delta) override {
    return parent_->fetch_add(f, delta);
  }
  void barrier() override { parent_->barrier(); }

 private:
  void corrupt(void* dst, std::size_t n) const noexcept {
    if (victim_ && n > 0) {
      static_cast<unsigned char*>(dst)[std::min<std::size_t>(n, 4) - 1] ^=
          0x40;
    }
  }

  mach::Ctx* parent_;
  bool victim_;
};

/// Machine view over a parent in the svc::TenantMachine style: run() hands
/// every rank a CorruptingCtx, and parent rank `victim` corrupts.
class CorruptingMachine final : public mach::Machine {
 public:
  CorruptingMachine(mach::Machine& parent, int victim)
      : parent_(&parent), victim_(victim) {}

  const topo::Topology& topology() const noexcept override {
    return parent_->topology();
  }
  const topo::RankMap& map() const noexcept override { return parent_->map(); }
  void* alloc(int owner_rank, std::size_t bytes, std::size_t align = 64,
              bool zero = true) override {
    return parent_->alloc(owner_rank, bytes, align, zero);
  }
  void free(void* p) override { parent_->free(p); }
  mach::RunResult run(const std::function<void(mach::Ctx&)>& fn) override {
    return parent_->run([&](mach::Ctx& ctx) {
      CorruptingCtx corrupting(ctx, ctx.rank() == victim_);
      fn(corrupting);
    });
  }
  verify::Ledger& verify_ledger() noexcept override {
    return parent_->verify_ledger();
  }
  const verify::Ledger& verify_ledger() const noexcept override {
    return parent_->verify_ledger();
  }

 private:
  mach::Machine* parent_;
  int victim_;
};

TEST(SvcLoadgen, IntegrityCheckerCatchesCorruptedPayloads) {
  // Every other loadgen test asserts a clean run; this one shows the
  // checker can fail. Payloads stay <= 1 KiB, so every check is exhaustive.
  svc::LoadgenConfig cfg = small_soak_config();
  cfg.requests = 200;
  cfg.integrity = true;
  cfg.max_bytes = 1024;
  const auto soak = [&](int victim) {
    sim::SimMachine machine(topo::mini8(), 8);
    CorruptingMachine parent(machine, victim);
    return svc::run_soak(parent, cfg, generous_budget(8, cfg.n_comms, {}));
  };
  const svc::LoadgenResult clean = soak(-1);
  EXPECT_EQ(clean.completed + clean.shed, cfg.requests);
  EXPECT_EQ(clean.integrity_failures, 0u);
  // Parent rank 5 leads none of the plan's communicators (their rank 0s
  // are parent ranks 0 and 2).
  const svc::LoadgenResult bad = soak(5);
  const auto failures = [&](svc::OpClass c) {
    return bad.per_class[static_cast<std::size_t>(c)].integrity_failures;
  };
  EXPECT_GT(failures(svc::OpClass::kBcast), 0u);
  EXPECT_GT(failures(svc::OpClass::kAllreduce), 0u);
}

// ---------------------------------------------------------------------------
// Service telemetry plane (svc/telemetry.h)

/// Runs the small soak with a windowed telemetry plane attached and returns
/// every byte-deterministic export concatenated (plus the result for
/// sanity checks).
struct TelemetryRun {
  std::string exports;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
};

TelemetryRun telemetry_soak(sim::SimBackend backend,
                            const std::string& slo = "") {
  sim::SimMachine machine(topo::mini8(), 8);
  machine.set_backend(backend);
  svc::LoadgenConfig cfg = small_soak_config();
  svc::TelemetryConfig tcfg;
  tcfg.window_seconds = 0.005;
  tcfg.slo = slo;
  svc::Telemetry tele(machine, tcfg, cfg.requests);
  cfg.telemetry = &tele;
  const svc::LoadgenResult r =
      svc::run_soak(machine, cfg, generous_budget(8, cfg.n_comms, {}));
  TelemetryRun out;
  out.completed = r.completed;
  out.shed = r.shed;
  std::ostringstream os;
  tele.write_reqlog(os);
  tele.write_interference(os);
  obs::write_timeseries_json(os, *tele.series(), "soak");
  tele.write_chrome_trace(os, "soak");
  out.exports = std::move(os).str();
  return out;
}

TEST(SvcTelemetry, ExportsAreByteDeterministicAcrossRunsAndBackends) {
  const TelemetryRun a = telemetry_soak(sim::SimBackend::kFiber);
  const TelemetryRun b = telemetry_soak(sim::SimBackend::kFiber);
  const TelemetryRun c = telemetry_soak(sim::SimBackend::kThreads);
  EXPECT_EQ(a.completed + a.shed, small_soak_config().requests);
  EXPECT_EQ(a.exports, b.exports);
  EXPECT_EQ(a.exports, c.exports);
}

TEST(SvcTelemetry, AttachedPlaneLeavesServiceResultsUntouched) {
  // The composed regression for the watermark audit: telemetry sampling
  // must not perturb the service (observational only), and the windowed
  // counter-series totals must equal the observers' end-of-run totals
  // (lossless deltas, no double counting between the two consumers).
  svc::LoadgenConfig cfg = small_soak_config();
  sim::SimMachine bare_machine(topo::mini8(), 8);
  const svc::LoadgenResult bare =
      svc::run_soak(bare_machine, cfg, generous_budget(8, cfg.n_comms, {}));

  sim::SimMachine machine(topo::mini8(), 8);
  svc::TelemetryConfig tcfg;
  tcfg.window_seconds = 0.005;
  svc::Telemetry tele(machine, tcfg, cfg.requests);
  cfg.telemetry = &tele;
  const svc::LoadgenResult r =
      svc::run_soak(machine, cfg, generous_budget(8, cfg.n_comms, {}));
  EXPECT_EQ(bare.completed, r.completed);
  EXPECT_EQ(bare.shed, r.shed);
  EXPECT_EQ(bare.makespan, r.makespan);  // bit-equal virtual time
  for (int k = 0; k < svc::kNumOpClasses; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    EXPECT_EQ(bare.per_class[kk].latency.percentile(0.99),
              r.per_class[kk].latency.percentile(0.99));
  }

  // Counter-series totals == summed observer totals for every counter: the
  // loop-exit tick drains the last deltas, so nothing is lost or doubled.
  for (int ci = 0; ci < obs::kNumCounters; ++ci) {
    const auto c = static_cast<obs::Counter>(ci);
    std::uint64_t observed = 0;
    for (int t = 0; t < tele.n_comms(); ++t) {
      observed += tele.observer(t)->metrics().total(c);
    }
    EXPECT_EQ(tele.series()->counter_total(c),
              static_cast<double>(observed))
        << obs::to_string(c);
  }

  // The request log is complete and consistent with the result counts.
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  for (const svc::ReqRecord& rec : tele.records()) {
    ASSERT_NE(rec.outcome, svc::ReqOutcome::kNone);
    if (rec.outcome == svc::ReqOutcome::kCompleted) {
      ++completed;
      EXPECT_GE(rec.end_time, rec.verdict_time);
    } else {
      ++shed;
    }
  }
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(shed, r.shed);
}

TEST(SvcTelemetry, ReportsCarryEveryTenantsSpansAndCountersOnce) {
  // Tracing on, so every tenant observer records spans and counters; the
  // soak runs on a registry the test keeps, to read each tenant's ranks.
  sim::SimMachine machine(topo::mini8(), 8);
  machine.set_coh_tracking(true);
  svc::LoadgenConfig cfg = small_soak_config();
  svc::Telemetry tele(machine, svc::TelemetryConfig{}, cfg.requests);
  cfg.telemetry = &tele;
  coll::Tuning tuning;
  tuning.trace = true;
  svc::Arbiter arbiter(generous_budget(8, cfg.n_comms, tuning));
  svc::CommRegistry reg(machine, arbiter);
  for (const svc::CommSpec& spec : svc::make_comm_plan(8, cfg, tuning)) {
    reg.create(spec);
  }
  svc::run_loadgen(reg, svc::make_schedule(cfg, reg), cfg);
  machine.publish_coh_counters(tele.parent_metrics());

  // Each counter row of the merged table is the sum over the tenant
  // registries plus the parent's; a counter that sums to zero has no row.
  std::ostringstream table;
  obs::metrics_table(tele.registries()).print(table);
  std::map<std::string, std::string> totals;
  std::istringstream lines(table.str());
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string name;
    std::string total;
    fields >> name >> total;
    totals[name] = total;
  }
  for (int ci = 0; ci < obs::kNumCounters; ++ci) {
    const auto c = static_cast<obs::Counter>(ci);
    std::uint64_t sum = tele.parent_metrics().total(c);
    for (int t = 0; t < tele.n_comms(); ++t) {
      sum += tele.observer(t)->metrics().total(c);
    }
    const auto row = totals.find(obs::to_string(c));
    if (sum == 0) {
      EXPECT_EQ(row, totals.end()) << obs::to_string(c);
    } else {
      ASSERT_NE(row, totals.end()) << obs::to_string(c);
      EXPECT_EQ(row->second, std::to_string(sum)) << obs::to_string(c);
    }
  }
  EXPECT_GT(tele.parent_metrics().total(obs::Counter::kCohLlcHit), 0u);

  // The trace's complete events, keyed (pid, tid): each tenant's retained
  // spans exactly once, in ring order, at pid = parent rank and
  // tid = communicator + 1.
  using Events =
      std::map<std::pair<int, int>, std::vector<std::pair<std::string, double>>>;
  Events want;
  for (int t = 0; t < tele.n_comms(); ++t) {
    const obs::Recorder& rec = tele.observer(t)->trace();
    for (int l = 0; l < rec.n_ranks(); ++l) {
      auto& events = want[{reg.comm(t).ranks()[static_cast<std::size_t>(l)],
                           t + 1}];
      for (const obs::Span& s : rec.spans(l)) {
        events.emplace_back('"' + std::string(s.name) + '"', s.t0 * 1e6);
      }
    }
  }
  std::ostringstream trace;
  tele.write_chrome_trace(trace, "soak");
  const std::string json = trace.str();
  Events got;
  const std::string x = "{\"ph\":\"X\"";
  std::size_t n_got = 0;
  for (std::size_t at = json.find(x); at != std::string::npos;
       at = json.find(x, at + 1)) {
    const auto field = [&](const std::string& key) {
      const std::size_t k = json.find("\"" + key + "\":", at) + key.size() + 3;
      return json.substr(k, json.find_first_of(",}", k) - k);
    };
    got[{std::stoi(field("pid")), std::stoi(field("tid"))}].emplace_back(
        field("name"), std::stod(field("ts")));
    ++n_got;
  }
  EXPECT_GT(n_got, 0u);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, events] : want) {
    const auto& have = got[key];
    ASSERT_EQ(have.size(), events.size())
        << "pid " << key.first << " tid " << key.second;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(have[i].first, events[i].first);
      EXPECT_NEAR(have[i].second, events[i].second, 1e-6);
    }
  }
}

TEST(SvcTelemetry, WaitMatrixAttributesAdmissionWaitsToTokenHolders) {
  // One op token across overlapping tenants: leaders must back off on each
  // other, so admission waits exist and the matrix attributes them.
  sim::SimMachine machine(topo::mini8(), 8);
  svc::LoadgenConfig cfg = small_soak_config();
  cfg.arrival_rate = 1e5;
  svc::Budget budget = generous_budget(8, cfg.n_comms, {});
  budget.inflight_ops = 1;
  budget.queue_capacity = 100000;
  budget.deadline = 5e-4;
  svc::TelemetryConfig tcfg;
  tcfg.window_seconds = 0.005;
  svc::Telemetry tele(machine, tcfg, cfg.requests);
  cfg.telemetry = &tele;
  const svc::LoadgenResult r = svc::run_soak(machine, cfg, budget);
  EXPECT_GT(r.backoff_stalls, 0u);
  const auto& m = tele.wait_matrix();
  ASSERT_EQ(static_cast<int>(m.size()), tele.n_comms());
  double total = 0.0;
  double off_diagonal = 0.0;
  for (std::size_t a = 0; a < m.size(); ++a) {
    for (std::size_t b = 0; b < m.size(); ++b) {
      EXPECT_GE(m[a][b], 0.0);
      total += m[a][b];
      if (a != b) off_diagonal += m[a][b];
    }
  }
  EXPECT_GT(total, 0.0);
  // With a single shared token, some of every tenant's wait is spent on
  // requests other tenants hold.
  EXPECT_GT(off_diagonal, 0.0);
  // Occupancy: admitted payload bytes must show up somewhere.
  double occupied = 0.0;
  for (const auto& win : tele.occupancy()) {
    for (const double v : win) occupied += v;
  }
  EXPECT_GT(occupied, 0.0);
}

TEST(SvcTelemetry, SloMonitorCountsViolationsPerWindow) {
  // An impossible target must trip in every checked window; a generous one
  // never does. Both runs are the same soak, so checked counts match.
  const auto run_slo = [](const std::string& spec) {
    sim::SimMachine machine(topo::mini8(), 8);
    svc::LoadgenConfig cfg = small_soak_config();
    svc::TelemetryConfig tcfg;
    tcfg.window_seconds = 0.005;
    tcfg.slo = spec;
    auto tele = std::make_unique<svc::Telemetry>(machine, tcfg, cfg.requests);
    cfg.telemetry = tele.get();
    (void)svc::run_soak(machine, cfg, generous_budget(8, cfg.n_comms, {}));
    return tele;
  };
  const auto impossible = run_slo("*:max=1ns");
  EXPECT_GT(impossible->slo_windows_checked(), 0u);
  EXPECT_EQ(impossible->slo_violations(), impossible->slo_windows_checked());
  const auto generous = run_slo("*:max=1s;bcast:p50=1s");
  EXPECT_GT(generous->slo_windows_checked(), 0u);
  EXPECT_EQ(generous->slo_violations(), 0u);
}

TEST(SvcTelemetry, SloSpecParsing) {
  const auto rules = svc::parse_slo("bcast:p99=250us; *:mean=1.5ms");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].op, static_cast<int>(svc::OpClass::kBcast));
  EXPECT_EQ(rules[0].metric, svc::SloRule::Metric::kP99);
  EXPECT_DOUBLE_EQ(rules[0].target, 250e-6);
  EXPECT_EQ(rules[1].op, -1);
  EXPECT_EQ(rules[1].metric, svc::SloRule::Metric::kMean);
  EXPECT_DOUBLE_EQ(rules[1].target, 1.5e-3);
  EXPECT_THROW(svc::parse_slo(""), util::Error);
  EXPECT_THROW(svc::parse_slo("p99=1ms"), util::Error);          // no class
  EXPECT_THROW(svc::parse_slo("bcast:p42=1ms"), util::Error);    // bad metric
  EXPECT_THROW(svc::parse_slo("bcast:p99=1parsec"), util::Error);  // bad unit
  EXPECT_THROW(svc::parse_slo("quux:p99=1ms"), util::Error);     // bad class
  EXPECT_THROW(svc::parse_slo("bcast:p99=-1ms"), util::Error);   // negative
  // The monitor needs the windowed plane.
  sim::SimMachine machine(topo::mini8(), 8);
  svc::TelemetryConfig tcfg;
  tcfg.slo = "*:p99=1ms";
  EXPECT_THROW(svc::Telemetry(machine, tcfg, 10), util::Error);
}

// ---------------------------------------------------------------------------
// Systematic interleaving exploration: two overlapping communicators

TEST(SvcCheck, TwoCommInterleavingsNeverCorrupt) {
  constexpr std::size_t kBytes = 512;
  constexpr int kRanks = 4;
  sim::SimMachine machine(topo::flat(kRanks), kRanks);
  svc::Arbiter arbiter(svc::Budget{});
  svc::CommRegistry reg(machine, arbiter);
  svc::CommSpec a;
  a.name = "a";
  for (int r = 0; r < kRanks; ++r) a.ranks.push_back(r);
  svc::CommSpec b;
  b.name = "b";
  b.ranks = {1, 2, 3};
  svc::Communicator& ca = reg.create(a);
  svc::Communicator& cb = reg.create(b);

  std::vector<mach::Buffer> ba, bb;
  for (int r = 0; r < kRanks; ++r) {
    ba.emplace_back(machine, r, kBytes);
    bb.emplace_back(machine, r, kBytes);
  }
  std::vector<unsigned char> ea(kBytes), eb(kBytes);
  util::fill_pattern(ea.data(), kBytes, 5);
  util::fill_pattern(eb.data(), kBytes, 9);

  const check::Runner run = [&](const sim::VirtualScheduler::PickHook& hook,
                                mach::EventSink* sink) {
    for (int r = 0; r < kRanks; ++r) {
      std::memset(ba[static_cast<std::size_t>(r)].get(), 0, kBytes);
      std::memset(bb[static_cast<std::size_t>(r)].get(), 0, kBytes);
    }
    std::memcpy(ba[0].get(), ea.data(), kBytes);
    std::memcpy(bb[2].get(), eb.data(), kBytes);  // comm b local root 1
    machine.set_pick_hook(hook);
    check::RunOutcome out;
    try {
      const mach::ScopedSink attach(machine, sink);
      machine.run([&](mach::Ctx& ctx) {
        const auto i = static_cast<std::size_t>(ctx.rank());
        {
          svc::TenantCtx tctx(ctx, ca.machine());
          ca.component().bcast(tctx, ba[i].get(), kBytes, 0);
        }
        if (cb.local_rank(ctx.rank()) >= 0) {
          svc::TenantCtx tctx(ctx, cb.machine());
          cb.component().bcast(tctx, bb[i].get(), kBytes, 1);
        }
      });
      for (int r = 0; r < kRanks && !out.failed; ++r) {
        const auto i = static_cast<std::size_t>(r);
        if (std::memcmp(ba[i].get(), ea.data(), kBytes) != 0) {
          out.failed = true;
          out.diag = "comm a payload mismatch on rank " + std::to_string(r);
        } else if (cb.local_rank(r) >= 0 &&
                   std::memcmp(bb[i].get(), eb.data(), kBytes) != 0) {
          out.failed = true;
          out.diag = "comm b payload mismatch on rank " + std::to_string(r);
        }
      }
    } catch (const std::exception& e) {
      out.failed = true;
      out.diag = e.what();
    }
    machine.set_pick_hook(nullptr);
    return out;
  };

  check::ExploreOptions opts;
  opts.max_branch_depth = 4;
  opts.max_executions = 1500;
  opts.random_walks = 64;
  const check::ExploreStats st = check::explore(run, opts);
  EXPECT_GT(st.executions, 1);
  EXPECT_GT(st.branch_points, 0);
  EXPECT_EQ(st.failures, 0)
      << (st.witnesses.empty() ? "" : st.witnesses.front());
}

}  // namespace
}  // namespace xhc
