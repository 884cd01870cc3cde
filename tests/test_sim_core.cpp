// Unit tests for the simulator building blocks: the congestion ledger, the
// buffer cache model, the cache-line model, the virtual-time scheduler, and
// the machine's timing-only data plane.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>

#include "sim/cache_model.h"
#include "sim/line_model.h"
#include "sim/params.h"
#include "sim/resources.h"
#include "sim/scheduler.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/check.h"

namespace xhc::sim {
namespace {

// ---------------------------------------------------------------------------
// ResourceLedger

TEST(Ledger, FullShareWhenIdle) {
  ResourceLedger ledger;
  ledger.set_capacity({ResKind::kNumaChannel, 0}, 100.0);
  EXPECT_DOUBLE_EQ(ledger.share({ResKind::kNumaChannel, 0}, 0.0), 100.0);
}

TEST(Ledger, FairShareWithInFlight) {
  ResourceLedger ledger;
  const ResId res{ResKind::kNumaChannel, 0};
  ledger.set_capacity(res, 100.0);
  ledger.book(res, 0.0, 10.0);
  ledger.book(res, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(ledger.share(res, 5.0), 100.0 / 3.0);
  EXPECT_EQ(ledger.active(res, 5.0), 2);
}

TEST(Ledger, ExpiresFinishedTransfers) {
  ResourceLedger ledger;
  const ResId res{ResKind::kXSocketLink, 0};
  ledger.set_capacity(res, 50.0);
  ledger.book(res, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(ledger.share(res, 2.0), 50.0);
  EXPECT_EQ(ledger.active(res, 2.0), 0);
}

TEST(Ledger, DistinctResourcesIndependent) {
  ResourceLedger ledger;
  ledger.set_capacity({ResKind::kNumaChannel, 0}, 100.0);
  ledger.set_capacity({ResKind::kNumaChannel, 1}, 100.0);
  ledger.book({ResKind::kNumaChannel, 0}, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(ledger.share({ResKind::kNumaChannel, 1}, 1.0), 100.0);
}

TEST(Ledger, UnknownResourceIsAnError) {
  ResourceLedger ledger;
  EXPECT_THROW(ledger.share({ResKind::kSlc, 0}, 0.0), util::Error);
}

// ---------------------------------------------------------------------------
// CacheModel

class CacheModelTest : public ::testing::Test {
 protected:
  CacheModelTest()
      : topo_(topo::epyc1p()), params_(epyc_like_params()),
        cache_(&topo_, &params_) {}
  topo::Topology topo_;
  SimParams params_;
  CacheModel cache_;
};

TEST_F(CacheModelTest, UnwrittenBlockServedFromHomeMemory) {
  cache_.add_block(1, 4096, /*home_numa=*/2);
  const ServeInfo info = cache_.on_read(1, /*reader_core=*/0, 4096);
  EXPECT_EQ(info.kind, ServeKind::kMemory);
  EXPECT_EQ(info.src_numa, 2);
  EXPECT_EQ(info.distance, topo::Distance::kCrossNuma);
}

TEST_F(CacheModelTest, ProducerLlcServesAfterWrite) {
  cache_.add_block(1, 4096, 0);
  cache_.on_write(1, /*writer_core=*/0);
  const ServeInfo info = cache_.on_read(1, /*reader_core=*/4, 4096);
  EXPECT_EQ(info.kind, ServeKind::kProducerLlc);
  EXPECT_EQ(info.src_llc, 0);
}

TEST_F(CacheModelTest, FullReadEstablishesLocalResidency) {
  cache_.add_block(1, 4096, 0);
  cache_.on_write(1, 0);
  (void)cache_.on_read(1, /*reader_core=*/8, 4096);  // full block
  const ServeInfo again = cache_.on_read(1, 8, 4096);
  EXPECT_EQ(again.kind, ServeKind::kLocalLlc);
}

TEST_F(CacheModelTest, PartialReadsDoNotGrantResidencyUntilCovered) {
  cache_.add_block(1, 64 * 1024, 0);
  cache_.on_write(1, 0);
  // Chunked pull: residency only after a block's worth of bytes moved.
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(cache_.on_read(1, 8, 16 * 1024).kind, ServeKind::kLocalLlc);
  }
  (void)cache_.on_read(1, 8, 16 * 1024);  // 64 KB total now
  EXPECT_EQ(cache_.on_read(1, 8, 16 * 1024).kind, ServeKind::kLocalLlc);
}

TEST_F(CacheModelTest, WriteInvalidatesResidency) {
  cache_.add_block(1, 4096, 0);
  cache_.on_write(1, 0);
  (void)cache_.on_read(1, 8, 4096);
  cache_.on_write(1, 0);  // new version
  EXPECT_NE(cache_.on_read(1, 8, 4096).kind, ServeKind::kLocalLlc);
  EXPECT_EQ(cache_.version(1), 2u);
}

TEST_F(CacheModelTest, LargeBlocksNeverCached) {
  // 4 MB does not fit an 8 MB LLC under the group-share rule.
  cache_.add_block(1, 4u << 20, 0);
  cache_.on_write(1, 0);
  const ServeInfo info = cache_.on_read(1, 1, 4u << 20);
  EXPECT_EQ(info.kind, ServeKind::kMemory);
  EXPECT_NE(cache_.on_read(1, 1, 4u << 20).kind, ServeKind::kLocalLlc);
}

TEST(CacheModelArm, SlcResidency) {
  topo::Topology arm = topo::armn1();
  SimParams params = armn1_params();
  CacheModel cache(&arm, &params);
  cache.add_block(1, 4096, 0);
  cache.on_write(1, 0);
  // First reader pulls it through; afterwards the SLC holds it for everyone.
  EXPECT_EQ(cache.on_read(1, 30, 4096).kind, ServeKind::kMemory);
  EXPECT_EQ(cache.on_read(1, 100, 4096).kind, ServeKind::kSlc);
  EXPECT_EQ(cache.on_read(1, 30, 4096).kind, ServeKind::kSlc);
}

// ---------------------------------------------------------------------------
// LineModel

/// Synthetic address on cache line `id` (the model keys on line_of(addr)).
const void* ln(int id) {
  return reinterpret_cast<const void*>(static_cast<std::uintptr_t>(id) * 64);
}

class LineModelTest : public ::testing::Test {
 protected:
  LineModelTest()
      : topo_(topo::epyc1p()), params_(epyc_like_params()),
        lines_(&topo_, &params_) {}
  topo::Topology topo_;
  SimParams params_;
  LineModel lines_;
};

TEST_F(LineModelTest, ColdReadIsLocalHit) {
  EXPECT_DOUBLE_EQ(lines_.read(ln(1), 0, 1.0), 1.0 + params_.line_hit);
}

TEST_F(LineModelTest, OwnerReadsOwnLineCheaply) {
  lines_.write(ln(1), 0, 0.0);
  EXPECT_DOUBLE_EQ(lines_.read(ln(1), 0, 1.0), 1.0 + params_.line_hit);
}

TEST_F(LineModelTest, GroupPeerAssist) {
  // After one core of an LLC group fetches a dirty line, its group peers
  // read at LLC latency (paper §V-D1's implicit hardware assist).
  lines_.write(ln(1), 0, 0.0);
  const double first = lines_.read(ln(1), /*core=*/8, 1.0);  // remote fetch
  EXPECT_GT(first - 1.0, params_.line_lat_llc);
  const double peer = lines_.read(ln(1), /*core=*/9, 1.0);  // 8, 9 share L3
  EXPECT_NEAR(peer - 1.0, params_.line_lat_llc, 1e-12);
}

TEST_F(LineModelTest, ConcurrentDirtyFetchesSerializeAtOwnerPort) {
  lines_.write(ln(1), 0, 0.0);
  lines_.write(ln(2), 0, 0.0);
  // Two different lines, both dirty at core 0: the second fetch queues
  // behind the first on core 0's port (Fig. 10, separated flags).
  const double a = lines_.read(ln(1), 8, 1.0);
  const double b = lines_.read(ln(2), 12, 1.0);
  EXPECT_GT(b, a);  // same issue time, but the second queued at the port
}

TEST_F(LineModelTest, RmwSerializesOwnership) {
  const double t1 = lines_.rmw(ln(1), 0, 0.0);
  const double t2 = lines_.rmw(ln(1), 4, 0.0);
  const double t3 = lines_.rmw(ln(1), 8, 0.0);
  EXPECT_GT(t2, t1);
  EXPECT_GT(t3, t2);
  EXPECT_GE(t3, 2 * params_.rmw_service);
}

TEST_F(LineModelTest, WriteInvalidatesSharers) {
  lines_.write(ln(1), 0, 0.0);
  (void)lines_.read(ln(1), 8, 1.0);
  // Re-write pays the invalidation premium.
  const double w = lines_.write(ln(1), 0, 2.0);
  EXPECT_DOUBLE_EQ(w, 2.0 + params_.store_cost + params_.inval_cost);
  // And the sharer must re-fetch.
  const double r = lines_.read(ln(1), 9, 3.0);
  EXPECT_GT(r - 3.0, params_.line_lat_llc);
}

TEST(LineModelArm, EveryCoreFetchesFromSlc) {
  topo::Topology arm = topo::armn1();
  SimParams params = armn1_params();
  LineModel lines(&arm, &params);
  lines.write(ln(1), 0, 0.0);
  (void)lines.read(ln(1), 10, 1.0);
  // No peer assist on the SLC machine: another core still pays the full
  // SLC fetch and serializes on the line.
  const double t2 = lines.read(ln(1), 11, 1.0);
  const double t3 = lines.read(ln(1), 12, 1.0);
  EXPECT_GE(t2 - 1.0, params.line_lat_numa - 1e-12);
  EXPECT_GT(t3, t2);
}

// ---------------------------------------------------------------------------
// VirtualScheduler — every test runs on both execution backends; the
// scheduling discipline (and therefore every timestamp) must be identical.

class SchedulerTest : public ::testing::TestWithParam<SimBackend> {
 protected:
  std::unique_ptr<VirtualScheduler> make(int n, double epoch = 0.0) {
    return VirtualScheduler::create(n, epoch, GetParam());
  }
};

TEST_P(SchedulerTest, RunsMinimumTimeFirst) {
  auto sched = make(2);
  std::vector<int> order;
  std::mutex mu;
  sched->run([&](int r) {
    const double step = r == 0 ? 3.0 : 1.0;
    for (int i = 0; i < 3; ++i) {
      {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(r);
      }
      sched->advance(r, step);
    }
  });
  // Rank 1 advances in smaller steps, so after rank 0's first step the
  // scheduler must run rank 1 several times. Event order is deterministic:
  // 0(t=0) 1(0) 1(1) 1(2) then 0(3)...
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], 0);  // tie at t=0 broken by rank: rank 0 first
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 1);
}

TEST_P(SchedulerTest, WaitUntilResumesAtPredicateTime) {
  auto sched = make(2);
  std::optional<double> publish_time;
  double resumed_at = -1.0;
  sched->run([&](int r) {
    if (r == 0) {
      resumed_at =
          sched->wait_until(0, &publish_time, [&] { return publish_time; });
    } else {
      sched->advance(1, 5.0);
      publish_time = 7.0;
      sched->notify(&publish_time);
      sched->advance(1, 1.0);
    }
  });
  EXPECT_DOUBLE_EQ(resumed_at, 7.0);
}

TEST_P(SchedulerTest, DeadlockIsDetected) {
  auto sched = make(2);
  try {
    sched->run([&](int r) {
      int never = 0;
      sched->wait_until(r, &never,
                        []() -> std::optional<double> { return std::nullopt; });
    });
    FAIL() << "expected a deadlock report";
  } catch (const util::Error& e) {
    // The chronologically-first error is the deadlock report itself, not
    // the secondary aborts of the unwound peers.
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
}

TEST_P(SchedulerTest, DeadlockAfterFinishIsDetected) {
  // Rank 1 finishes while rank 0 is still parked on a never-signaled
  // channel: the finish-side pick must raise the deadlock report too.
  auto sched = make(2);
  try {
    sched->run([&](int r) {
      if (r == 0) {
        int never = 0;
        sched->wait_until(0, &never, []() -> std::optional<double> {
          return std::nullopt;
        });
      } else {
        sched->advance(1, 1.0);
      }
    });
    FAIL() << "expected a deadlock report";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
}

TEST_P(SchedulerTest, BarrierReleasesAtMaxArrival) {
  auto sched = make(3);
  std::vector<double> after(3);
  sched->run([&](int r) {
    const double pre[] = {1.0, 4.0, 2.0};
    sched->advance(r, pre[r]);
    sched->barrier(r, 0.5);
    after[static_cast<std::size_t>(r)] = sched->now(r);
  });
  for (const double t : after) EXPECT_DOUBLE_EQ(t, 4.5);
}

TEST_P(SchedulerTest, AbortUnblocksEveryone) {
  auto sched = make(2);
  std::atomic<int> unwound{0};
  EXPECT_THROW(sched->run([&](int r) {
                 if (r == 0) {
                   int never = 0;
                   try {
                     sched->wait_until(0, &never,
                                       []() -> std::optional<double> {
                                         return std::nullopt;
                                       });
                   } catch (...) {
                     ++unwound;
                     throw;
                   }
                 } else {
                   sched->abort_all();
                   ++unwound;
                 }
               }),
               util::Error);
  EXPECT_EQ(unwound.load(), 2);
}

TEST_P(SchedulerTest, RankExceptionAbortsAndRethrows) {
  auto sched = make(3);
  try {
    sched->run([&](int r) {
      if (r == 1) throw util::Error("boom from rank 1");
      int never = 0;
      sched->wait_until(r, &never,
                        []() -> std::optional<double> { return std::nullopt; });
    });
    FAIL() << "expected the rank exception";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos)
        << e.what();
  }
}

TEST_P(SchedulerTest, ManyRanksHeapOrdering) {
  // Staggered advances over enough ranks to exercise real heap reshuffles:
  // rank r repeatedly advances by (r % 7) + 1; the global event sequence
  // must follow the (vtime, rank) total order.
  constexpr int kN = 64;
  auto sched = make(kN);
  std::vector<std::pair<double, int>> events;
  std::mutex mu;
  sched->run([&](int r) {
    for (int i = 0; i < 8; ++i) {
      {
        std::lock_guard<std::mutex> lock(mu);
        events.emplace_back(sched->now(r), r);
      }
      sched->advance(r, static_cast<double>(r % 7 + 1));
    }
  });
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kN * 8));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1], events[i])
        << "out-of-order events at index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, SchedulerTest,
                         ::testing::Values(SimBackend::kFiber,
                                           SimBackend::kThreads),
                         [](const auto& info) {
                           return info.param == SimBackend::kFiber
                                      ? "fiber"
                                      : "threads";
                         });

TEST(SchedulerBackend, EnvSelection) {
  // Unset → fiber.
  unsetenv("XHC_SIM_BACKEND");
  EXPECT_EQ(backend_from_env(), SimBackend::kFiber);
  setenv("XHC_SIM_BACKEND", "threads", 1);
  EXPECT_EQ(backend_from_env(), SimBackend::kThreads);
  setenv("XHC_SIM_BACKEND", "fiber", 1);
  EXPECT_EQ(backend_from_env(), SimBackend::kFiber);
  setenv("XHC_SIM_BACKEND", "bogus", 1);
  EXPECT_THROW(backend_from_env(), util::Error);
  unsetenv("XHC_SIM_BACKEND");
}

// ---------------------------------------------------------------------------
// SimMachine timing-only data plane

/// Records every payload access as (rank, buffer index, bytes, write), so
/// the streams of two machines with different heap addresses compare equal.
class DataRecorder final : public AccessSink {
 public:
  explicit DataRecorder(std::vector<void*> bufs) : bufs_(std::move(bufs)) {}
  void on_flag(int, const mach::Flag*, FlagOp, std::uint64_t) override {}
  void on_data(int rank, const void* p, std::size_t n, bool write) override {
    const auto at = std::find(bufs_.begin(), bufs_.end(), p) - bufs_.begin();
    events.emplace_back(rank, at, n, write);
  }
  std::vector<std::tuple<int, std::ptrdiff_t, std::size_t, bool>> events;

 private:
  std::vector<void*> bufs_;
};

/// What one machine observed of a fixed payload program: virtual time after
/// every operation, the cache model's view of every buffer afterwards, the
/// access stream, and which buffers still hold their sentinel bytes.
struct PlaneTrace {
  std::vector<std::vector<double>> now;  // per rank
  std::vector<std::uint64_t> versions;   // per buffer
  std::vector<bool> resident;            // per buffer x LLC group
  std::vector<std::tuple<int, std::ptrdiff_t, std::size_t, bool>> events;
  std::vector<bool> sentinel;            // per buffer
  double epoch = 0.0;
};

PlaneTrace run_payload_program(bool timing_only) {
  SimMachine m(topo::mini16(), 16);
  EXPECT_TRUE(m.set_timing_only(timing_only));
  EXPECT_EQ(m.timing_only(), timing_only);
  // 64 KiB takes the vector fill and the non-temporal copy; 256 B the
  // scalar fill and memcpy. Destinations sit on both sockets.
  // Each buffer starts with its own sentinel byte, so a copy or fold
  // that moves even sentinel bytes shows.
  constexpr std::size_t kBytes = 64 << 10;
  constexpr std::size_t kSmall = 256;
  constexpr unsigned char kSentinel[] = {0x5A, 0xA5, 0xC3, 0x3C};
  std::vector<void*> bufs;
  for (const int owner : {0, 1, 9, 9}) {
    bufs.push_back(m.alloc(owner, kBytes));
    std::memset(bufs.back(), kSentinel[bufs.size() - 1], kBytes);
  }
  void* src = bufs[0];
  void* near = bufs[1];
  void* far = bufs[2];
  void* acc = bufs[3];
  DataRecorder rec(bufs);
  m.set_access_sink(&rec);
  PlaneTrace t;
  t.now.resize(16);
  m.run([&](mach::Ctx& ctx) {
    auto& now = t.now[static_cast<std::size_t>(ctx.rank())];
    for (const std::size_t n : {kSmall, kBytes}) {
      if (ctx.rank() == 0) {
        ctx.write_payload(src, n, 0x5eed + n);
        now.push_back(ctx.now());
      }
      ctx.barrier();
      if (ctx.rank() == 1) {
        ctx.copy(near, src, n);
        now.push_back(ctx.now());
      }
      if (ctx.rank() == 9) {
        ctx.copy(far, src, n);
        now.push_back(ctx.now());
        ctx.reduce(acc, far, n / sizeof(float), mach::DType::kF32,
                   mach::ROp::kSum);
        now.push_back(ctx.now());
      }
      ctx.barrier();
    }
  });
  m.set_access_sink(nullptr);
  t.events = rec.events;
  t.epoch = m.epoch();
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    const std::uint64_t id = m.registry().find(bufs[i])->id;
    t.versions.push_back(m.cache_model().version(id));
    for (int l = 0; l < m.topology().n_llc(); ++l) {
      t.resident.push_back(m.cache_model().resident_in_llc(id, l));
    }
    const auto* b = static_cast<const unsigned char*>(bufs[i]);
    t.sentinel.push_back(std::all_of(b, b + kBytes, [&](unsigned char c) {
      return c == kSentinel[i];
    }));
    m.free(bufs[i]);
  }
  return t;
}

TEST(TimingOnly, SimMachineMovesNoBytesAtEqualCost) {
  const PlaneTrace full = run_payload_program(false);
  const PlaneTrace timing = run_payload_program(true);
  // The full data plane rewrote every buffer; the timing-only one none.
  EXPECT_EQ(full.sentinel, std::vector<bool>(4, false));
  EXPECT_EQ(timing.sentinel, std::vector<bool>(4, true));
  // Everything the cost model sees is the same.
  EXPECT_EQ(timing.now, full.now);
  EXPECT_EQ(timing.epoch, full.epoch);
  EXPECT_EQ(timing.versions, full.versions);
  EXPECT_EQ(timing.resident, full.resident);
  EXPECT_EQ(timing.events, full.events);
  EXPECT_EQ(full.events.size(), 2u * (1 + 2 + 2 + 2));
  EXPECT_EQ(full.now[9].size(), 4u);
}

}  // namespace
}  // namespace xhc::sim
