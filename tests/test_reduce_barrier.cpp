// Tests for the §VII extensions: MPI_Reduce and MPI_Barrier — native
// hierarchical implementations for XHC, a binomial reduce and dissemination
// barrier for tuned, allreduce-based defaults for every other component.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>

#include "coll/registry.h"
#include "coll/tuning.h"
#include "core/xhc_component.h"
#include "mach/real_machine.h"
#include "osu/harness.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/check.h"

namespace xhc {
namespace {

class ReduceCorrectness : public ::testing::TestWithParam<std::string> {};

TEST_P(ReduceCorrectness, SumReachesRoot) {
  for (const int root : {0, 5}) {
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{100}, std::size_t{5000}}) {
      mach::RealMachine machine(topo::mini16(), 16);
      auto comp = coll::make_component(GetParam(), machine);
      const std::size_t bytes = count * sizeof(std::int64_t);
      std::vector<mach::Buffer> sbufs;
      std::vector<mach::Buffer> rbufs;
      std::vector<std::int64_t> expect(count, 0);
      for (int r = 0; r < 16; ++r) {
        sbufs.emplace_back(machine, r, bytes);
        rbufs.emplace_back(machine, r, bytes);
        auto* s = static_cast<std::int64_t*>(sbufs.back().get());
        for (std::size_t i = 0; i < count; ++i) {
          s[i] = static_cast<std::int64_t>(r * 17 + i);
          expect[i] += s[i];
        }
      }
      machine.run([&](mach::Ctx& ctx) {
        const auto r = static_cast<std::size_t>(ctx.rank());
        comp->reduce(ctx, sbufs[r].get(), rbufs[r].get(), count,
                     mach::DType::kI64, mach::ROp::kSum, root);
      });
      const auto* got = static_cast<const std::int64_t*>(
          rbufs[static_cast<std::size_t>(root)].get());
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(got[i], expect[i])
            << GetParam() << " root " << root << " count " << count
            << " elem " << i;
      }
    }
  }
}

TEST_P(ReduceCorrectness, SimMachineAgrees) {
  sim::SimMachine machine(topo::mini16(), 16);
  auto comp = coll::make_component(GetParam(), machine);
  constexpr std::size_t kCount = 900;
  std::vector<mach::Buffer> sbufs;
  std::vector<mach::Buffer> rbufs;
  std::vector<double> expect(kCount, 0.0);
  for (int r = 0; r < 16; ++r) {
    sbufs.emplace_back(machine, r, kCount * sizeof(double));
    rbufs.emplace_back(machine, r, kCount * sizeof(double));
    auto* s = static_cast<double*>(sbufs.back().get());
    for (std::size_t i = 0; i < kCount; ++i) {
      s[i] = r + 0.25 * static_cast<double>(i);
      expect[i] += s[i];
    }
  }
  machine.run([&](mach::Ctx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    comp->reduce(ctx, sbufs[r].get(), rbufs[r].get(), kCount,
                 mach::DType::kF64, mach::ROp::kSum, 3);
  });
  const auto* got = static_cast<const double*>(rbufs[3].get());
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_DOUBLE_EQ(got[i], expect[i]) << GetParam() << " elem " << i;
  }
}

TEST_P(ReduceCorrectness, BarrierCompletesRepeatedly) {
  mach::RealMachine machine(topo::mini16(), 16);
  auto comp = coll::make_component(GetParam(), machine);
  std::atomic<int> count{0};
  machine.run([&](mach::Ctx& ctx) {
    for (int i = 0; i < 5; ++i) {
      comp->barrier(ctx);
      ++count;
    }
  });
  EXPECT_EQ(count.load(), 16 * 5);
}

INSTANTIATE_TEST_SUITE_P(AllComponents, ReduceCorrectness,
                         ::testing::Values("xhc", "xhc-flat", "tuned", "sm",
                                           "ucc", "smhc", "xbrc"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Barrier, NoRankLeavesBeforeTheLastArrives) {
  // Virtual-time semantics: stagger arrivals; every release must be at or
  // after the latest arrival.
  for (const char* comp_name : {"xhc", "tuned", "sm"}) {
    sim::SimMachine machine(topo::epyc1p(), 32);
    auto comp = coll::make_component(comp_name, machine);
    std::vector<double> release(32);
    double last_arrival = 0.0;
    machine.run([&](mach::Ctx& ctx) {
      // Rank r arrives at r * 1us; rank 31 arrives last.
      ctx.charge(static_cast<double>(ctx.rank()) * 1e-6);
      comp->barrier(ctx);
      release[static_cast<std::size_t>(ctx.rank())] = ctx.now();
    });
    last_arrival = 31e-6;
    for (int r = 0; r < 32; ++r) {
      EXPECT_GE(release[static_cast<std::size_t>(r)], last_arrival)
          << comp_name << " rank " << r;
    }
  }
}

// Under atomic sync every leader's ack gather waits for (members-1) fetch-
// adds per op so far, so the native barrier has to add its own: any op
// after a barrier used to deadlock on the group's atomic_ctr.
TEST(Barrier, AtomicSyncOpsAfterBarrier) {
  coll::Tuning tuning;
  tuning.sync = coll::SyncMethod::kAtomicFetchAdd;
  for (const char* name : {"flat4", "mini8"}) {
    const topo::Topology topo =
        std::string(name) == "flat4" ? topo::flat(4) : topo::mini8();
    const int n = topo.n_cores();
    for (const std::size_t count : {std::size_t{64}, std::size_t{4096}}) {
      for (const int root : {0, n - 1}) {
        sim::SimMachine machine(topo, n);
        core::XhcComponent comp(machine, tuning);
        const std::size_t bytes = count * sizeof(std::int64_t);
        std::vector<mach::Buffer> bc, sb, ar, rd;
        std::vector<std::int64_t> sum(count, 0);
        for (int r = 0; r < n; ++r) {
          bc.emplace_back(machine, r, bytes);
          sb.emplace_back(machine, r, bytes);
          ar.emplace_back(machine, r, bytes);
          rd.emplace_back(machine, r, bytes);
          auto* s = static_cast<std::int64_t*>(sb.back().get());
          for (std::size_t i = 0; i < count; ++i) {
            s[i] = static_cast<std::int64_t>(r * 31 + i);
            sum[i] += s[i];
          }
        }
        auto* payload = static_cast<std::int64_t*>(
            bc[static_cast<std::size_t>(root)].get());
        for (std::size_t i = 0; i < count; ++i) {
          payload[i] = static_cast<std::int64_t>(7 * i + 3);
        }
        machine.run([&](mach::Ctx& ctx) {
          const auto r = static_cast<std::size_t>(ctx.rank());
          comp.barrier(ctx);
          comp.bcast(ctx, bc[r].get(), bytes, root);
          comp.barrier(ctx);
          comp.allreduce(ctx, sb[r].get(), ar[r].get(), count,
                         mach::DType::kI64, mach::ROp::kSum);
          comp.barrier(ctx);
          comp.reduce(ctx, sb[r].get(), rd[r].get(), count, mach::DType::kI64,
                      mach::ROp::kSum, root);
        });
        const std::string label = std::string(name) + " bytes " +
                                  std::to_string(bytes) + " root " +
                                  std::to_string(root);
        for (int r = 0; r < n; ++r) {
          const auto ri = static_cast<std::size_t>(r);
          EXPECT_EQ(0, std::memcmp(bc[ri].get(), payload, bytes))
              << label << ": bcast on rank " << r;
          EXPECT_EQ(0, std::memcmp(ar[ri].get(), sum.data(), bytes))
              << label << ": allreduce on rank " << r;
        }
        EXPECT_EQ(0, std::memcmp(rd[static_cast<std::size_t>(root)].get(),
                                 sum.data(), bytes))
            << label << ": reduce at the root";
      }
    }
  }
}

TEST(Barrier, XhcBarrierBeatsAtomicsBaselineOnArm) {
  // The flag-only hierarchical barrier should scale far better than the
  // sm baseline's atomics-based allreduce fallback on the dense SLC node.
  double lat[2];
  int i = 0;
  for (const char* name : {"xhc", "sm"}) {
    sim::SimMachine machine(topo::armn1(), 160);
    auto comp = coll::make_component(name, machine);
    osu::Config cfg;
    cfg.warmup = 1;
    cfg.iters = 3;
    lat[i++] = osu::barrier_latency_us(machine, *comp, cfg);
  }
  EXPECT_LT(lat[0], lat[1]);
}

TEST(Reduce, NativeXhcSkipsTheBroadcast) {
  // Within the latency path, reduce must be cheaper than allreduce at large
  // sizes (no data fan-out). Pin the allreduce to that path: with default
  // tuning a 1 MiB payload dispatches to reduce-scatter + allgather, a
  // different algorithm class, so the structural comparison only makes
  // sense against the reduce-then-broadcast pipeline reduce shares.
  osu::Config cfg;
  cfg.warmup = 1;
  cfg.iters = 2;
  coll::Tuning latency;
  latency.rs_ag_threshold = 0;
  latency.stripe_threshold = 0;
  sim::SimMachine m1(topo::epyc2p(), 64);
  auto c1 = coll::make_component("xhc", m1, latency);
  const double red =
      osu::reduce_sweep(m1, *c1, {1u << 20}, cfg).front().avg_us;
  sim::SimMachine m2(topo::epyc2p(), 64);
  auto c2 = coll::make_component("xhc", m2, latency);
  const double all =
      osu::allreduce_sweep(m2, *c2, {1u << 20}, cfg).front().avg_us;
  EXPECT_LT(red, all);
  // And the default tuning must route 1 MiB through the bandwidth engine,
  // which beats the latency-path allreduce outright.
  sim::SimMachine m3(topo::epyc2p(), 64);
  auto c3 = coll::make_component("xhc", m3);
  const double rs_ag =
      osu::allreduce_sweep(m3, *c3, {1u << 20}, cfg).front().avg_us;
  EXPECT_LT(rs_ag, all);
}

/// Forwards to a real component; after every reduce the root flips the top
/// exponent bit of its result's first element (a low-order flip can hide
/// inside the verification tolerance).
class FlipRootResult final : public coll::Component {
 public:
  explicit FlipRootResult(coll::Component& in) : in_(in) {}
  std::string_view name() const noexcept override { return in_.name(); }
  void bcast(mach::Ctx& ctx, void* buf, std::size_t bytes,
             int root) override {
    in_.bcast(ctx, buf, bytes, root);
  }
  void allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                 std::size_t count, mach::DType dtype,
                 mach::ROp op) override {
    in_.allreduce(ctx, sbuf, rbuf, count, dtype, op);
  }
  void reduce(mach::Ctx& ctx, const void* sbuf, void* rbuf, std::size_t count,
              mach::DType dtype, mach::ROp op, int root) override {
    in_.reduce(ctx, sbuf, rbuf, count, dtype, op, root);
    if (ctx.rank() == root) static_cast<unsigned char*>(rbuf)[3] ^= 0x40;
  }

 private:
  coll::Component& in_;
};

TEST(Reduce, SweepVerifiesTheRootResult) {
  // Config::verify (the default) checks the root's result element-wise, so
  // a corrupted result must fail the sweep — on every root.
  for (const char* name : {"xhc", "tuned", "ucc"}) {
    for (const int root : {0, 5}) {
      SCOPED_TRACE(std::string(name) + " root " + std::to_string(root));
      osu::Config cfg;
      cfg.root = root;
      sim::SimMachine m(topo::mini8(), 8);
      auto comp = coll::make_component(name, m);
      EXPECT_NO_THROW(osu::reduce_sweep(m, *comp, {64, 4096}, cfg));
      FlipRootResult flip(*comp);
      EXPECT_THROW(osu::reduce_sweep(m, flip, {64, 4096}, cfg), util::Error);
    }
  }
}

TEST(Reduce, InPlaceAtRoot) {
  mach::RealMachine machine(topo::mini8(), 8);
  auto comp = coll::make_component("xhc", machine);
  constexpr std::size_t kCount = 256;
  std::vector<mach::Buffer> bufs;
  std::vector<std::int64_t> expect(kCount, 0);
  for (int r = 0; r < 8; ++r) {
    bufs.emplace_back(machine, r, kCount * sizeof(std::int64_t));
    auto* s = static_cast<std::int64_t*>(bufs.back().get());
    for (std::size_t i = 0; i < kCount; ++i) {
      s[i] = static_cast<std::int64_t>(r + i);
      expect[i] += s[i];
    }
  }
  machine.run([&](mach::Ctx& ctx) {
    void* buf = bufs[static_cast<std::size_t>(ctx.rank())].get();
    comp->reduce(ctx, buf, buf, kCount, mach::DType::kI64, mach::ROp::kSum,
                 0);
  });
  const auto* got = static_cast<const std::int64_t*>(bufs[0].get());
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(got[i], expect[i]);
  }
}

// ---------------------------------------------------------------------------
// Binomial fan-in (DESIGN.md § Allreduce fan-in): single-chunk XHC reductions
// fold through a per-group binomial tree whose partner sets depend on the
// group size and on which member leads. Flat trees of 1-9 and 20 ranks cover
// every small non-power-of-two group, mini16 adds levels, and a reduce at
// every root moves the leader through every position. Each rank's operand
// carries its own bit, so a dropped or doubled partial changes the sum.

using FanInParam = std::tuple<std::string, std::string>;  // shape, machine

class FanInShapes : public ::testing::TestWithParam<FanInParam> {};

TEST_P(FanInShapes, I64SumsExactAtEveryRoot) {
  const auto& [shape, kind] = GetParam();
  const topo::Topology topo = shape == "mini16"
                                  ? topo::mini16()
                                  : topo::flat(std::stoi(shape.substr(4)));
  const int n = topo.n_cores();
  std::unique_ptr<mach::Machine> machine;
  if (kind == "real") {
    machine = std::make_unique<mach::RealMachine>(topo, n);
  } else {
    machine = std::make_unique<sim::SimMachine>(topo, n);
  }
  auto comp = coll::make_component("xhc", *machine);
  // One sequence per size and buffer mode: an allreduce (root -1), then a
  // reduce at every root.
  std::vector<int> roots{-1};
  for (int root = 0; root < n; ++root) roots.push_back(root);
  // 8 B, 1 KiB (CICO) and 4 KiB (single-copy).
  for (const std::size_t count : {std::size_t{1}, std::size_t{128},
                                  std::size_t{512}}) {
    const std::size_t bytes = count * sizeof(std::int64_t);
    for (const bool in_place : {false, true}) {
      std::vector<std::vector<mach::Buffer>> sbufs(roots.size());
      std::vector<std::vector<mach::Buffer>> rbufs(roots.size());
      for (std::size_t o = 0; o < roots.size(); ++o) {
        for (int r = 0; r < n; ++r) {
          rbufs[o].emplace_back(*machine, r, bytes);
          if (!in_place) sbufs[o].emplace_back(*machine, r, bytes);
          auto* s = static_cast<std::int64_t*>(
              (in_place ? rbufs[o] : sbufs[o]).back().get());
          for (std::size_t i = 0; i < count; ++i) {
            s[i] = (std::int64_t{1} << r) *
                   static_cast<std::int64_t>(2 * i + 1 + o);
          }
        }
      }
      machine->run([&](mach::Ctx& ctx) {
        const auto r = static_cast<std::size_t>(ctx.rank());
        for (std::size_t o = 0; o < roots.size(); ++o) {
          void* rbuf = rbufs[o][r].get();
          const void* sbuf = in_place ? rbuf : sbufs[o][r].get();
          if (roots[o] < 0) {
            comp->allreduce(ctx, sbuf, rbuf, count, mach::DType::kI64,
                            mach::ROp::kSum);
          } else {
            comp->reduce(ctx, sbuf, rbuf, count, mach::DType::kI64,
                         mach::ROp::kSum, roots[o]);
          }
        }
      });
      const std::int64_t all_bits = (std::int64_t{1} << n) - 1;
      for (std::size_t o = 0; o < roots.size(); ++o) {
        for (int r = 0; r < n; ++r) {
          if (roots[o] >= 0 && r != roots[o]) continue;
          const auto* got = static_cast<const std::int64_t*>(
              rbufs[o][static_cast<std::size_t>(r)].get());
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(got[i],
                      all_bits * static_cast<std::int64_t>(2 * i + 1 + o))
                << shape << "/" << kind << " " << bytes << " B"
                << (in_place ? " in place" : "") << ", "
                << (roots[o] < 0 ? "allreduce"
                                 : "reduce root " + std::to_string(roots[o]))
                << ", rank " << r << ", elem " << i;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FanInShapes,
    ::testing::Combine(::testing::Values("flat1", "flat2", "flat3", "flat4",
                                         "flat5", "flat6", "flat7", "flat8",
                                         "flat9", "flat20", "mini16"),
                       ::testing::Values("real", "sim")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace xhc
