// Parameterized correctness tests for every collective component, across
// machines, topologies, payload sizes, roots, datatypes and reduction
// operators — the functional contract all of the paper's experiments
// depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <tuple>

#include "coll/registry.h"
#include "coll/tuning.h"
#include "mach/real_machine.h"
#include "osu/harness.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/check.h"
#include "util/prng.h"

namespace xhc {
namespace {

std::unique_ptr<mach::Machine> make_machine(const std::string& kind,
                                            const topo::Topology& topo,
                                            int ranks) {
  if (kind == "real") {
    return std::make_unique<mach::RealMachine>(topo, ranks);
  }
  return std::make_unique<sim::SimMachine>(topo, ranks);
}

// ---------------------------------------------------------------------------
// Bcast: component x machine x size (mini16, roots 0 and 5)

using BcastParam = std::tuple<std::string, std::string, std::size_t>;

class BcastCorrectness : public ::testing::TestWithParam<BcastParam> {};

TEST_P(BcastCorrectness, PayloadReachesEveryRank) {
  const auto& [comp_name, machine_kind, bytes] = GetParam();
  for (const int root : {0, 5}) {
    auto machine = make_machine(machine_kind, topo::mini16(), 16);
    auto comp = coll::make_component(comp_name, *machine);
    std::vector<mach::Buffer> bufs;
    for (int r = 0; r < 16; ++r) bufs.emplace_back(*machine, r, bytes);
    util::fill_pattern(bufs[static_cast<std::size_t>(root)].get(), bytes,
                       0xBC + static_cast<std::uint64_t>(root));

    machine->run([&](mach::Ctx& ctx) {
      comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                  bytes, root);
    });

    std::vector<std::byte> expect(bytes);
    util::fill_pattern(expect.data(), bytes,
                       0xBC + static_cast<std::uint64_t>(root));
    for (int r = 0; r < 16; ++r) {
      ASSERT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].get(),
                            expect.data(), bytes),
                0)
          << comp_name << " on " << machine_kind << ", root " << root
          << ", rank " << r << ", " << bytes << " B";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BcastCorrectness,
    ::testing::Combine(
        ::testing::Values("xhc", "xhc-flat", "tuned", "sm", "ucc", "smhc",
                          "smhc-flat", "xbrc"),
        ::testing::Values("real", "sim"),
        // 1 B, the CICO threshold edge (1 KB +/- 1), a pipeline chunk
        // boundary, several chunks, an odd large size, and a size past
        // xhc-flat's and ucc's 128 KiB stripe threshold (their striped bcast
        // path; xhc pipelines it).
        ::testing::Values(std::size_t{1}, std::size_t{1023},
                          std::size_t{1024}, std::size_t{1025},
                          std::size_t{16384}, std::size_t{100000},
                          std::size_t{200000})),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::get<1>(info.param) + "_" +
                         std::to_string(std::get<2>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Allreduce: component x machine x count

using AllreduceParam = std::tuple<std::string, std::string, std::size_t>;

class AllreduceCorrectness
    : public ::testing::TestWithParam<AllreduceParam> {};

TEST_P(AllreduceCorrectness, SumOfI64) {
  const auto& [comp_name, machine_kind, count] = GetParam();
  auto machine = make_machine(machine_kind, topo::mini16(), 16);
  auto comp = coll::make_component(comp_name, *machine);
  const std::size_t bytes = count * sizeof(std::int64_t);
  std::vector<mach::Buffer> sbufs;
  std::vector<mach::Buffer> rbufs;
  std::vector<std::int64_t> expect(count, 0);
  for (int r = 0; r < 16; ++r) {
    sbufs.emplace_back(*machine, r, bytes);
    rbufs.emplace_back(*machine, r, bytes);
    auto* s = static_cast<std::int64_t*>(sbufs.back().get());
    for (std::size_t i = 0; i < count; ++i) {
      s[i] = static_cast<std::int64_t>((r + 3) * 7 + i * 13);
      expect[i] += s[i];
    }
  }

  machine->run([&](mach::Ctx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    comp->allreduce(ctx, sbufs[r].get(), rbufs[r].get(), count,
                    mach::DType::kI64, mach::ROp::kSum);
  });

  for (int r = 0; r < 16; ++r) {
    const auto* got = static_cast<const std::int64_t*>(
        rbufs[static_cast<std::size_t>(r)].get());
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(got[i], expect[i])
          << comp_name << " on " << machine_kind << ", rank " << r
          << ", elem " << i << "/" << count;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllreduceCorrectness,
    ::testing::Combine(
        ::testing::Values("xhc", "xhc-flat", "tuned", "sm", "ucc", "smhc",
                          "smhc-flat", "xbrc"),
        ::testing::Values("real", "sim"),
        // 1 element, CICO-threshold edge (128 x 8B = 1 KB), chunk-crossing
        // counts, a non-divisible odd count, and a count past the default
        // 128 KiB rs_ag threshold (the reduce-scatter + allgather path).
        ::testing::Values(std::size_t{1}, std::size_t{128}, std::size_t{129},
                          std::size_t{5000}, std::size_t{12289},
                          std::size_t{40000})),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::get<1>(info.param) + "_" +
                         std::to_string(std::get<2>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Cross-cutting properties

class ComponentProps : public ::testing::TestWithParam<std::string> {};

TEST_P(ComponentProps, InPlaceAllreduce) {
  auto machine = make_machine("real", topo::mini8(), 8);
  auto comp = coll::make_component(GetParam(), *machine);
  constexpr std::size_t kCount = 700;
  std::vector<mach::Buffer> bufs;
  std::vector<std::int64_t> expect(kCount, 0);
  for (int r = 0; r < 8; ++r) {
    bufs.emplace_back(*machine, r, kCount * sizeof(std::int64_t));
    auto* s = static_cast<std::int64_t*>(bufs.back().get());
    for (std::size_t i = 0; i < kCount; ++i) {
      s[i] = static_cast<std::int64_t>(r * 100 + i);
      expect[i] += s[i];
    }
  }
  machine->run([&](mach::Ctx& ctx) {
    void* buf = bufs[static_cast<std::size_t>(ctx.rank())].get();
    comp->allreduce(ctx, buf, buf, kCount, mach::DType::kI64, mach::ROp::kSum);
  });
  for (int r = 0; r < 8; ++r) {
    const auto* got = static_cast<const std::int64_t*>(
        bufs[static_cast<std::size_t>(r)].get());
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(got[i], expect[i]) << GetParam() << " rank " << r;
    }
  }
}

TEST_P(ComponentProps, MinMaxProdOperators) {
  auto machine = make_machine("real", topo::mini8(), 8);
  auto comp = coll::make_component(GetParam(), *machine);
  constexpr std::size_t kCount = 64;
  for (const mach::ROp op : {mach::ROp::kMin, mach::ROp::kMax,
                             mach::ROp::kProd}) {
    std::vector<mach::Buffer> sbufs;
    std::vector<mach::Buffer> rbufs;
    std::vector<double> expect(kCount);
    for (int r = 0; r < 8; ++r) {
      sbufs.emplace_back(*machine, r, kCount * sizeof(double));
      rbufs.emplace_back(*machine, r, kCount * sizeof(double));
      auto* s = static_cast<double*>(sbufs.back().get());
      for (std::size_t i = 0; i < kCount; ++i) {
        s[i] = 1.0 + static_cast<double>((r * 31 + i * 7) % 5) / 4.0;
        if (r == 0) {
          expect[i] = s[i];
        } else {
          switch (op) {
            case mach::ROp::kMin:
              expect[i] = std::min(expect[i], s[i]);
              break;
            case mach::ROp::kMax:
              expect[i] = std::max(expect[i], s[i]);
              break;
            default:
              expect[i] *= s[i];
              break;
          }
        }
      }
    }
    machine->run([&](mach::Ctx& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      comp->allreduce(ctx, sbufs[r].get(), rbufs[r].get(), kCount,
                      mach::DType::kF64, op);
    });
    for (int r = 0; r < 8; ++r) {
      const auto* got = static_cast<const double*>(
          rbufs[static_cast<std::size_t>(r)].get());
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_DOUBLE_EQ(got[i], expect[i])
            << GetParam() << " op " << static_cast<int>(op) << " rank " << r;
      }
    }
  }
}

TEST_P(ComponentProps, BackToBackMixedOperations) {
  // Alternating bcasts and allreduces reuse the same control structures;
  // sequence/base bookkeeping must keep them apart.
  auto machine = make_machine("real", topo::mini8(), 8);
  auto comp = coll::make_component(GetParam(), *machine);
  constexpr std::size_t kBytes = 3000;
  constexpr std::size_t kCount = 400;
  std::vector<mach::Buffer> bufs;
  std::vector<mach::Buffer> sbufs;
  std::vector<mach::Buffer> rbufs;
  for (int r = 0; r < 8; ++r) {
    bufs.emplace_back(*machine, r, kBytes);
    sbufs.emplace_back(*machine, r, kCount * sizeof(std::int64_t));
    rbufs.emplace_back(*machine, r, kCount * sizeof(std::int64_t));
  }
  std::atomic<int> failures{0};
  machine->run([&](mach::Ctx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    for (int round = 0; round < 5; ++round) {
      if (ctx.rank() == 0) {
        ctx.write_payload(bufs[0].get(), kBytes,
                          static_cast<std::uint64_t>(round));
      }
      ctx.barrier();
      comp->bcast(ctx, bufs[r].get(), kBytes, 0);
      std::vector<std::byte> expect(kBytes);
      util::fill_pattern(expect.data(), kBytes,
                         static_cast<std::uint64_t>(round));
      if (std::memcmp(bufs[r].get(), expect.data(), kBytes) != 0) ++failures;

      auto* s = static_cast<std::int64_t*>(sbufs[r].get());
      for (std::size_t i = 0; i < kCount; ++i) {
        s[i] = static_cast<std::int64_t>(ctx.rank() + round);
      }
      ctx.barrier();
      comp->allreduce(ctx, sbufs[r].get(), rbufs[r].get(), kCount,
                      mach::DType::kI64, mach::ROp::kSum);
      const auto* got = static_cast<const std::int64_t*>(rbufs[r].get());
      const std::int64_t want = 8 * round + 28;  // sum of ranks 0..7 + round
      for (std::size_t i = 0; i < kCount; ++i) {
        if (got[i] != want) {
          ++failures;
          break;
        }
      }
    }
  });
  EXPECT_EQ(failures.load(), 0) << GetParam();
}

TEST_P(ComponentProps, SingleRankDegenerates) {
  auto machine = make_machine("real", topo::flat(1), 1);
  auto comp = coll::make_component(GetParam(), *machine);
  mach::Buffer buf(*machine, 0, 64);
  mach::Buffer sbuf(*machine, 0, 8 * sizeof(double));
  mach::Buffer rbuf(*machine, 0, 8 * sizeof(double));
  auto* s = static_cast<double*>(sbuf.get());
  for (int i = 0; i < 8; ++i) s[i] = i;
  machine->run([&](mach::Ctx& ctx) {
    comp->bcast(ctx, buf.get(), 64, 0);
    comp->allreduce(ctx, sbuf.get(), rbuf.get(), 8, mach::DType::kF64,
                    mach::ROp::kSum);
  });
  const auto* got = static_cast<const double*>(rbuf.get());
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(got[i], s[i]);
}

TEST_P(ComponentProps, ZeroBytesIsANoOp) {
  auto machine = make_machine("real", topo::mini8(), 8);
  auto comp = coll::make_component(GetParam(), *machine);
  mach::Buffer buf(*machine, 0, 64);
  EXPECT_NO_THROW(machine->run([&](mach::Ctx& ctx) {
    comp->bcast(ctx, buf.get(), 0, 0);
    comp->allreduce(ctx, buf.get(), buf.get(), 0, mach::DType::kF64,
                    mach::ROp::kSum);
  }));
}

INSTANTIATE_TEST_SUITE_P(AllComponents, ComponentProps,
                         ::testing::Values("xhc", "xhc-flat", "tuned", "sm",
                                           "ucc", "smhc", "smhc-flat",
                                           "xbrc"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Large-message paths (DESIGN.md § Large-message paths): XHC with lowered
// dispatch thresholds, so the reduce-scatter + allgather allreduce and the
// striped bcast run at test-sized payloads across presets and both machines,
// plus the allreduce straddling the shipped default threshold.

using LargeParam = std::tuple<std::string, std::string>;  // preset, machine

/// Both large-path thresholds at `threshold` (0 disables the paths).
coll::Tuning tuning(std::size_t threshold) {
  coll::Tuning t;
  t.rs_ag_threshold = threshold;
  t.stripe_threshold = threshold;
  return t;
}

class LargeMsgPaths : public ::testing::TestWithParam<LargeParam> {
 protected:
  static std::unique_ptr<mach::Machine> machine(const LargeParam& p) {
    topo::Topology topo = topo::by_name(std::get<0>(p));
    const int ranks = topo.n_cores();
    return make_machine(std::get<1>(p), topo, ranks);
  }

  /// i64-sum allreduce of each count on every rank; results must be exact.
  static void expect_exact_sums(const coll::Tuning& t,
                                std::initializer_list<std::size_t> counts) {
    auto m = machine(GetParam());
    const int n = m->n_ranks();
    auto comp = coll::make_component("xhc", *m, t);
    for (const std::size_t count : counts) {
      const std::size_t bytes = count * sizeof(std::int64_t);
      std::vector<mach::Buffer> sbufs;
      std::vector<mach::Buffer> rbufs;
      std::vector<std::int64_t> expect(count, 0);
      for (int r = 0; r < n; ++r) {
        sbufs.emplace_back(*m, r, bytes);
        rbufs.emplace_back(*m, r, bytes);
        auto* s = static_cast<std::int64_t*>(sbufs.back().get());
        for (std::size_t i = 0; i < count; ++i) {
          s[i] = static_cast<std::int64_t>((r + 3) * 7 + i * 13);
          expect[i] += s[i];
        }
      }
      m->run([&](mach::Ctx& ctx) {
        const auto r = static_cast<std::size_t>(ctx.rank());
        comp->allreduce(ctx, sbufs[r].get(), rbufs[r].get(), count,
                        mach::DType::kI64, mach::ROp::kSum);
      });
      for (int r = 0; r < n; ++r) {
        const auto* got = static_cast<const std::int64_t*>(
            rbufs[static_cast<std::size_t>(r)].get());
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(got[i], expect[i])
              << std::get<0>(GetParam()) << "/" << std::get<1>(GetParam())
              << ", rank " << r << ", elem " << i << "/" << count;
        }
      }
    }
  }
};

TEST_P(LargeMsgPaths, AllreduceSumExactAcrossThresholdStraddle) {
  // 511 x 8 B sits just below the lowered threshold (latency path), 513
  // just above (RS+AG path); the larger counts cross chunk boundaries and
  // partition remainders.
  expect_exact_sums(tuning(4096), {511, 513, 3000, 12289});
}

TEST_P(LargeMsgPaths, AllreduceSumExactAcrossDefaultThreshold) {
  // The shipped default: 1024 x 8 B is exactly rs_ag_threshold (latency
  // path), 1025 the first count above it (RS+AG), and 8193 leaves partition
  // remainders at every rank count of the grid (160 ranks on armn1).
  expect_exact_sums(coll::Tuning{}, {1024, 1025, 8193});
}

TEST_P(LargeMsgPaths, AllreduceEmptyShardEdge) {
  // Threshold 8 with a tiny element count: bytes > threshold engages the
  // RS+AG path while most ranks' final shards are empty — the partition
  // remainder edge where wait thresholds and flag snaps must still line up.
  auto m = machine(GetParam());
  const int n = m->n_ranks();
  auto comp = coll::make_component("xhc", *m, tuning(8));
  for (const std::size_t count : {std::size_t{3}, std::size_t{17}}) {
    const std::size_t bytes = count * sizeof(std::int64_t);
    std::vector<mach::Buffer> sbufs;
    std::vector<mach::Buffer> rbufs;
    std::vector<std::int64_t> expect(count, 0);
    for (int r = 0; r < n; ++r) {
      sbufs.emplace_back(*m, r, bytes);
      rbufs.emplace_back(*m, r, bytes);
      auto* s = static_cast<std::int64_t*>(sbufs.back().get());
      for (std::size_t i = 0; i < count; ++i) {
        s[i] = static_cast<std::int64_t>(r * 17 + static_cast<int>(i) + 1);
        expect[i] += s[i];
      }
    }
    m->run([&](mach::Ctx& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      comp->allreduce(ctx, sbufs[r].get(), rbufs[r].get(), count,
                      mach::DType::kI64, mach::ROp::kSum);
    });
    for (int r = 0; r < n; ++r) {
      const auto* got = static_cast<const std::int64_t*>(
          rbufs[static_cast<std::size_t>(r)].get());
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(got[i], expect[i]) << "count " << count << ", rank " << r;
      }
    }
  }
}

TEST_P(LargeMsgPaths, AllreduceInPlaceAndNonSumOps) {
  auto m = machine(GetParam());
  const int n = m->n_ranks();
  auto comp = coll::make_component("xhc", *m, tuning(4096));
  constexpr std::size_t kCount = 3001;

  // In-place i64 sum on the RS+AG path (stage-0 peers read disjoint source
  // ranges, so sbuf == rbuf must be safe).
  {
    std::vector<mach::Buffer> bufs;
    std::vector<std::int64_t> expect(kCount, 0);
    for (int r = 0; r < n; ++r) {
      bufs.emplace_back(*m, r, kCount * sizeof(std::int64_t));
      auto* s = static_cast<std::int64_t*>(bufs.back().get());
      for (std::size_t i = 0; i < kCount; ++i) {
        s[i] = static_cast<std::int64_t>(r * 100 + static_cast<int>(i % 97));
        expect[i] += s[i];
      }
    }
    m->run([&](mach::Ctx& ctx) {
      void* buf = bufs[static_cast<std::size_t>(ctx.rank())].get();
      comp->allreduce(ctx, buf, buf, kCount, mach::DType::kI64,
                      mach::ROp::kSum);
    });
    for (int r = 0; r < n; ++r) {
      const auto* got = static_cast<const std::int64_t*>(
          bufs[static_cast<std::size_t>(r)].get());
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(got[i], expect[i]) << "in-place, rank " << r;
      }
    }
  }

  // min/max/prod on f64 with power-of-two operands: exact in any
  // association, so the hierarchical order change cannot hide behind a
  // tolerance.
  for (const mach::ROp op :
       {mach::ROp::kMin, mach::ROp::kMax, mach::ROp::kProd}) {
    std::vector<mach::Buffer> sbufs;
    std::vector<mach::Buffer> rbufs;
    std::vector<double> expect(kCount);
    for (int r = 0; r < n; ++r) {
      sbufs.emplace_back(*m, r, kCount * sizeof(double));
      rbufs.emplace_back(*m, r, kCount * sizeof(double));
      auto* s = static_cast<double*>(sbufs.back().get());
      for (std::size_t i = 0; i < kCount; ++i) {
        const int e = static_cast<int>((r * 31 + i * 7) % 3) - 1;
        s[i] = std::ldexp(1.0, e);  // 0.5, 1, or 2
        if (r == 0) {
          expect[i] = s[i];
        } else if (op == mach::ROp::kMin) {
          expect[i] = std::min(expect[i], s[i]);
        } else if (op == mach::ROp::kMax) {
          expect[i] = std::max(expect[i], s[i]);
        } else {
          expect[i] *= s[i];
        }
      }
    }
    m->run([&](mach::Ctx& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      comp->allreduce(ctx, sbufs[r].get(), rbufs[r].get(), kCount,
                      mach::DType::kF64, op);
    });
    for (int r = 0; r < n; ++r) {
      const auto* got = static_cast<const double*>(
          rbufs[static_cast<std::size_t>(r)].get());
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(got[i], expect[i])
            << "op " << static_cast<int>(op) << ", rank " << r;
      }
    }
  }
}

TEST_P(LargeMsgPaths, BcastStripedPayloadIntegrity) {
  auto m = machine(GetParam());
  const int n = m->n_ranks();
  // xhc's tree and xhc-flat's one wide group. The registry pins xhc-flat's
  // stripe threshold at 128 KiB, so its configuration is built through
  // "xhc" with the flat sensitivity to lower the threshold.
  coll::Tuning flat = tuning(4096);
  flat.sensitivity = "flat";
  for (const coll::Tuning& t : {tuning(4096), flat}) {
    auto comp = coll::make_component("xhc", *m, t);
    // Straddle the lowered threshold (4096 stays on the latency path, 4097
    // stripes) plus an odd many-chunk size; roots at both hierarchy
    // extremes.
    for (const std::size_t bytes : {std::size_t{4096}, std::size_t{4097},
                                    std::size_t{100003}}) {
      for (const int root : {0, n - 1}) {
        std::vector<mach::Buffer> bufs;
        for (int r = 0; r < n; ++r) bufs.emplace_back(*m, r, bytes);
        util::fill_pattern(bufs[static_cast<std::size_t>(root)].get(), bytes,
                           0x51 + static_cast<std::uint64_t>(root));
        m->run([&](mach::Ctx& ctx) {
          comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                      bytes, root);
        });
        std::vector<std::byte> expect(bytes);
        util::fill_pattern(expect.data(), bytes,
                           0x51 + static_cast<std::uint64_t>(root));
        for (int r = 0; r < n; ++r) {
          ASSERT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].get(),
                                expect.data(), bytes),
                    0)
              << std::get<0>(GetParam()) << " " << t.sensitivity << ", root "
              << root << ", rank " << r << ", " << bytes << " B";
        }
      }
    }
  }
}

TEST_P(LargeMsgPaths, MixedLargeAndSmallOpsInterleave) {
  // Alternating large (RS+AG / striped) and small (latency path) ops on one
  // component: the shard/stripe base bookkeeping must keep the timelines of
  // consecutive ops apart even when the dispatch flips between paths.
  auto m = machine(GetParam());
  const int n = m->n_ranks();
  auto comp = coll::make_component("xhc", *m, tuning(4096));
  constexpr std::size_t kBig = 2000;   // x8 B = 16000 B: large path
  constexpr std::size_t kSmall = 300;  // x8 B = 2400 B: latency path
  std::vector<mach::Buffer> sbufs;
  std::vector<mach::Buffer> rbufs;
  std::vector<mach::Buffer> bbufs;
  for (int r = 0; r < n; ++r) {
    sbufs.emplace_back(*m, r, kBig * sizeof(std::int64_t));
    rbufs.emplace_back(*m, r, kBig * sizeof(std::int64_t));
    bbufs.emplace_back(*m, r, 9000);
  }
  std::atomic<int> failures{0};
  m->run([&](mach::Ctx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    for (int round = 0; round < 4; ++round) {
      const std::size_t count = (round % 2 == 0) ? kBig : kSmall;
      auto* s = static_cast<std::int64_t*>(sbufs[r].get());
      for (std::size_t i = 0; i < count; ++i) {
        s[i] = static_cast<std::int64_t>(ctx.rank() + round);
      }
      ctx.barrier();
      comp->allreduce(ctx, sbufs[r].get(), rbufs[r].get(), count,
                      mach::DType::kI64, mach::ROp::kSum);
      const auto* got = static_cast<const std::int64_t*>(rbufs[r].get());
      const std::int64_t want =
          static_cast<std::int64_t>(n) * round + n * (n - 1) / 2;
      for (std::size_t i = 0; i < count; ++i) {
        if (got[i] != want) {
          ++failures;
          break;
        }
      }

      const std::size_t bytes = (round % 2 == 0) ? 9000 : 2048;
      if (ctx.rank() == 0) {
        ctx.write_payload(bbufs[0].get(), bytes,
                          static_cast<std::uint64_t>(round) + 0x77);
      }
      ctx.barrier();
      comp->bcast(ctx, bbufs[r].get(), bytes, 0);
      std::vector<std::byte> expect(bytes);
      util::fill_pattern(expect.data(), bytes,
                         static_cast<std::uint64_t>(round) + 0x77);
      if (std::memcmp(bbufs[r].get(), expect.data(), bytes) != 0) ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(LargeMsgPaths, LargeMsgFaultChaosStillCorrect) {
  // Recoverable fault classes (attach fallback, registration-cache misses,
  // stragglers, delayed flag publications) across seeds: the large paths
  // must terminate and still produce exact payloads.
  for (const std::uint64_t seed : {1ull, 42ull, 1337ull}) {
    auto m = machine(GetParam());
    const int n = m->n_ranks();
    coll::Tuning t = tuning(4096);
    t.faults =
        "attach,prob=0.2;regmiss,prob=0.3;straggler,prob=0.2,delay=2e-6;"
        "flagdelay,prob=0.1,delay=1e-6";
    t.fault_seed = seed;
    auto comp = coll::make_component("xhc", *m, t);

    constexpr std::size_t kCount = 2500;
    std::vector<mach::Buffer> sbufs;
    std::vector<mach::Buffer> rbufs;
    std::vector<std::int64_t> expect(kCount, 0);
    for (int r = 0; r < n; ++r) {
      sbufs.emplace_back(*m, r, kCount * sizeof(std::int64_t));
      rbufs.emplace_back(*m, r, kCount * sizeof(std::int64_t));
      auto* s = static_cast<std::int64_t*>(sbufs.back().get());
      for (std::size_t i = 0; i < kCount; ++i) {
        s[i] = static_cast<std::int64_t>((r + 1) * 3 + static_cast<int>(i));
        expect[i] += s[i];
      }
    }
    constexpr std::size_t kBytes = 50000;
    std::vector<mach::Buffer> bbufs;
    for (int r = 0; r < n; ++r) bbufs.emplace_back(*m, r, kBytes);
    util::fill_pattern(bbufs[0].get(), kBytes, seed);

    m->run([&](mach::Ctx& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      comp->allreduce(ctx, sbufs[r].get(), rbufs[r].get(), kCount,
                      mach::DType::kI64, mach::ROp::kSum);
      comp->bcast(ctx, bbufs[r].get(), kBytes, 0);
    });

    std::vector<std::byte> bexpect(kBytes);
    util::fill_pattern(bexpect.data(), kBytes, seed);
    for (int r = 0; r < n; ++r) {
      const auto* got = static_cast<const std::int64_t*>(
          rbufs[static_cast<std::size_t>(r)].get());
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(got[i], expect[i]) << "seed " << seed << ", rank " << r;
      }
      ASSERT_EQ(std::memcmp(bbufs[static_cast<std::size_t>(r)].get(),
                            bexpect.data(), kBytes),
                0)
          << "seed " << seed << ", rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LargeMsgPaths,
    ::testing::Values(LargeParam{"mini8", "real"},
                      LargeParam{"mini16", "real"},
                      LargeParam{"mini16", "sim"},
                      LargeParam{"epyc1p", "sim"},
                      LargeParam{"epyc2p", "sim"},
                      LargeParam{"armn1", "sim"}),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

// The LLC-deep shard nest (DESIGN.md § Large-message paths): on the presets
// whose shard plan gains an LLC stage, the default tuning's allreduce stays
// bit-exact on both sides of the dispatch threshold and from one large
// chunk to many.

class LlcShardNest : public ::testing::TestWithParam<std::string> {};

TEST_P(LlcShardNest, AllreduceSumBitExact) {
  topo::Topology topo = topo::by_name(GetParam());
  const int n = topo.n_cores();
  sim::SimMachine m(std::move(topo), n);
  auto comp = coll::make_component("xhc", m);
  // i32 elements: 8 KiB - 4 B (fan-in), 8 KiB + 4 B (the first RS+AG size),
  // 16 KiB, 64 KiB and 1 MiB.
  for (const std::size_t count : {2047, 2049, 4096, 16384, 262144}) {
    const std::size_t bytes = count * sizeof(std::int32_t);
    std::vector<mach::Buffer> sbufs;
    std::vector<mach::Buffer> rbufs;
    std::vector<std::int32_t> expect(count, 0);
    for (int r = 0; r < n; ++r) {
      sbufs.emplace_back(m, r, bytes);
      rbufs.emplace_back(m, r, bytes);
      auto* s = static_cast<std::int32_t*>(sbufs.back().get());
      for (std::size_t i = 0; i < count; ++i) {
        s[i] = static_cast<std::int32_t>((r + 3) * 7 + i % 1000 * 13);
        expect[i] += s[i];
      }
    }
    m.run([&](mach::Ctx& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      comp->allreduce(ctx, sbufs[r].get(), rbufs[r].get(), count,
                      mach::DType::kI32, mach::ROp::kSum);
    });
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(std::memcmp(rbufs[static_cast<std::size_t>(r)].get(),
                            expect.data(), bytes),
                0)
          << GetParam() << ", rank " << r << ", " << bytes << " B";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Presets, LlcShardNest,
                         ::testing::Values("epyc1p", "epyc2p", "mini16"),
                         [](const auto& info) { return info.param; });

// The cache tree (DESIGN.md § Cache tree): default xhc bcasts stay
// bit-exact at every root on both sides of the CICO threshold and of one
// pipeline chunk (1024 and 16384 B take it, 1028 and 16388 B do not; 16388
// takes the flag tree), back to back on one component.

using CacheTreeParam = std::tuple<std::string, std::string>;

class CacheTreePayload : public ::testing::TestWithParam<CacheTreeParam> {};

TEST_P(CacheTreePayload, BcastBitExactAtEveryRoot) {
  const auto& [preset, machine_kind] = GetParam();
  const topo::Topology topo = preset == "grid12"
                                  ? topo::grid("grid12", 2, 3, 2, 2)
                                  : topo::by_name(preset);
  const int n = topo.n_cores();
  auto machine = make_machine(machine_kind, topo, n);
  auto comp = coll::make_component("xhc", *machine);
  const std::vector<std::size_t> sizes = {1024, 1028, 16384, 16388};
  const std::size_t max_bytes = sizes.back();
  // Expected payload of op i * n + root (size i, root), seeded by the op.
  std::vector<std::vector<std::byte>> expect;
  for (const std::size_t bytes : sizes) {
    for (int root = 0; root < n; ++root) {
      expect.emplace_back(bytes);
      util::fill_pattern(expect.back().data(), bytes, expect.size() - 1);
    }
  }
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < n; ++r) bufs.emplace_back(*machine, r, max_bytes);
  std::vector<int> bad_ops(static_cast<std::size_t>(n), 0);
  machine->run([&](mach::Ctx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      for (int root = 0; root < n; ++root) {
        const std::size_t op = i * static_cast<std::size_t>(n) +
                               static_cast<std::size_t>(root);
        if (ctx.rank() == root) {
          ctx.write_payload(bufs[r].get(), sizes[i], op);
        }
        comp->bcast(ctx, bufs[r].get(), sizes[i], root);
        if (std::memcmp(bufs[r].get(), expect[op].data(), sizes[i]) != 0) {
          ++bad_ops[r];
        }
      }
    }
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(bad_ops[static_cast<std::size_t>(r)], 0)
        << preset << " on " << machine_kind << ", rank " << r;
  }
}

// One-chunk reductions end on the cache tree too: i64 sums bit-exact, a
// reduce at every root followed by an allreduce (in place at odd roots), a
// bcast from the same root and a barrier, back to back on one component —
// each rank rewrites its buffers right after every op returns. 8 and 1024 B
// take CICO, 1032 B (the first i64 size past the CICO threshold) and one
// chunk single-copy.
TEST_P(CacheTreePayload, ReductionsBitExactAtEveryRoot) {
  const auto& [preset, machine_kind] = GetParam();
  const topo::Topology topo = preset == "grid12"
                                  ? topo::grid("grid12", 2, 3, 2, 2)
                                  : topo::by_name(preset);
  const int n = topo.n_cores();
  auto machine = make_machine(machine_kind, topo, n);
  auto comp = coll::make_component("xhc", *machine);
  const std::vector<std::size_t> counts = {1, 128, 129, 2048};
  const std::size_t max_bytes = counts.back() * sizeof(std::int64_t);
  // Rank r's operand at element i of op o, and the sum over every rank.
  const auto operand = [](int r, std::size_t o, std::size_t i) {
    return static_cast<std::int64_t>(r + 1) * 1000003 +
           static_cast<std::int64_t>(o * 131 + i) * (r % 7 + 1);
  };
  std::int64_t rank_sum = 0;
  std::int64_t weight_sum = 0;
  for (int r = 0; r < n; ++r) {
    rank_sum += static_cast<std::int64_t>(r + 1) * 1000003;
    weight_sum += r % 7 + 1;
  }
  std::vector<mach::Buffer> sbufs;
  std::vector<mach::Buffer> rbufs;
  std::vector<mach::Buffer> bbufs;
  for (int r = 0; r < n; ++r) {
    sbufs.emplace_back(*machine, r, max_bytes);
    rbufs.emplace_back(*machine, r, max_bytes);
    bbufs.emplace_back(*machine, r, max_bytes);
  }
  std::vector<int> bad_ops(static_cast<std::size_t>(n), 0);
  machine->run([&](mach::Ctx& ctx) {
    const int me = ctx.rank();
    const auto r = static_cast<std::size_t>(me);
    auto* sbuf = static_cast<std::int64_t*>(sbufs[r].get());
    auto* rbuf = static_cast<std::int64_t*>(rbufs[r].get());
    std::size_t o = 0;  // reduction op index
    // Stages this rank's operand of op o, runs it and, where this rank
    // holds the result, checks every element.
    const auto reduction = [&](std::size_t count, bool in_place, int root) {
      std::int64_t* src = in_place ? rbuf : sbuf;
      for (std::size_t i = 0; i < count; ++i) src[i] = operand(me, o, i);
      if (root < 0) {
        comp->allreduce(ctx, src, rbuf, count, mach::DType::kI64,
                        mach::ROp::kSum);
      } else {
        comp->reduce(ctx, src, rbuf, count, mach::DType::kI64,
                     mach::ROp::kSum, root);
      }
      if (root < 0 || root == me) {
        for (std::size_t i = 0; i < count; ++i) {
          const std::int64_t want =
              rank_sum + static_cast<std::int64_t>(o * 131 + i) * weight_sum;
          if (rbuf[i] != want) {
            ++bad_ops[r];
            break;
          }
        }
      }
      ++o;
    };
    for (const std::size_t count : counts) {
      const std::size_t bytes = count * sizeof(std::int64_t);
      for (int root = 0; root < n; ++root) {
        const bool in_place = root % 2 == 1;
        reduction(count, in_place, root);
        reduction(count, in_place, -1);
        const std::uint64_t seed = o * 977 + static_cast<std::uint64_t>(root);
        if (me == root) ctx.write_payload(bbufs[r].get(), bytes, seed);
        comp->bcast(ctx, bbufs[r].get(), bytes, root);
        std::vector<std::byte> expect(bytes);
        util::fill_pattern(expect.data(), bytes, seed);
        if (std::memcmp(bbufs[r].get(), expect.data(), bytes) != 0) {
          ++bad_ops[r];
        }
        comp->barrier(ctx);
      }
    }
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(bad_ops[static_cast<std::size_t>(r)], 0)
        << preset << " on " << machine_kind << ", rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, CacheTreePayload,
    ::testing::Combine(::testing::Values("epyc1p", "epyc2p", "mini16",
                                         "grid12"),
                       ::testing::Values("sim", "real")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

// The bcast chain (DESIGN.md § Large-message paths): above the cache edge a
// rank whose member level is above the leaf pulls from its predecessor in
// that group's chain. Bit-exact at every root in turn, each chain-sized
// bcast followed by a tree-sized 64 KiB bcast and an i64 allreduce that
// rewrite the same buffers, on a 12-rank grid without a shared LLC whose
// socket groups hold three NUMA leaders (so a member pulls from a member)
// at 128 KiB + 4 B, and on mini16 at 2 MiB + 4 B.

using ChainParam = std::tuple<std::string, std::string>;

class ChainPayload : public ::testing::TestWithParam<ChainParam> {};

TEST_P(ChainPayload, BcastBitExactAtEveryRootBackToBack) {
  const auto& [preset, machine_kind] = GetParam();
  const bool grid = preset == "grid12n";
  const topo::Topology topo =
      grid ? topo::grid("grid12n", 2, 3, 2, 0) : topo::by_name(preset);
  const std::size_t chain_bytes =
      (grid ? std::size_t{128} << 10 : std::size_t{2} << 20) + 4;
  const std::size_t tree_bytes = std::size_t{64} << 10;
  const std::size_t count = chain_bytes / sizeof(std::int64_t);
  const int n = topo.n_cores();
  auto machine = make_machine(machine_kind, topo, n);
  auto comp = coll::make_component("xhc", *machine);
  std::int64_t rank_sum = 0;
  std::int64_t weight_sum = 0;
  for (int r = 0; r < n; ++r) {
    rank_sum += static_cast<std::int64_t>(r + 1) * 1000003;
    weight_sum += r % 7 + 1;
  }
  std::vector<mach::Buffer> bufs;
  std::vector<mach::Buffer> sbufs;
  for (int r = 0; r < n; ++r) {
    bufs.emplace_back(*machine, r, chain_bytes);
    sbufs.emplace_back(*machine, r, count * sizeof(std::int64_t));
  }
  std::vector<std::vector<std::string>> bad(static_cast<std::size_t>(n));
  machine->run([&](mach::Ctx& ctx) {
    const int me = ctx.rank();
    const auto r = static_cast<std::size_t>(me);
    std::vector<std::byte> expect(chain_bytes);
    std::uint64_t op = 0;
    const auto bcast = [&](std::size_t bytes, int root) {
      const std::uint64_t seed = 0xC4A1 + op++;
      if (me == root) ctx.write_payload(bufs[r].get(), bytes, seed);
      comp->bcast(ctx, bufs[r].get(), bytes, root);
      util::fill_pattern(expect.data(), bytes, seed);
      if (std::memcmp(bufs[r].get(), expect.data(), bytes) != 0) {
        bad[r].push_back(std::to_string(bytes) + " B bcast at root " +
                         std::to_string(root));
      }
    };
    auto* sbuf = static_cast<std::int64_t*>(sbufs[r].get());
    auto* rbuf = static_cast<std::int64_t*>(bufs[r].get());
    for (int root = 0; root < n; ++root) {
      bcast(chain_bytes, root);
      bcast(tree_bytes, root);
      const auto o = static_cast<std::int64_t>(op++);
      for (std::size_t i = 0; i < count; ++i) {
        sbuf[i] = static_cast<std::int64_t>(me + 1) * 1000003 +
                  (o * 131 + static_cast<std::int64_t>(i)) * (me % 7 + 1);
      }
      comp->allreduce(ctx, sbuf, rbuf, count, mach::DType::kI64,
                      mach::ROp::kSum);
      for (std::size_t i = 0; i < count; ++i) {
        if (rbuf[i] != rank_sum + (o * 131 + static_cast<std::int64_t>(i)) *
                                      weight_sum) {
          bad[r].push_back("allreduce after root " + std::to_string(root));
          break;
        }
      }
    }
  });
  for (int r = 0; r < n; ++r) {
    const auto& b = bad[static_cast<std::size_t>(r)];
    EXPECT_TRUE(b.empty()) << preset << " on " << machine_kind << ", rank "
                           << r << ": " << b.size() << " wrong, first "
                           << b.front();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ChainPayload,
    ::testing::Combine(::testing::Values("grid12n", "mini16"),
                       ::testing::Values("sim", "real")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

// One counter timeline per rank (DESIGN.md § Counter timeline): every XHC
// path back to back on one component, twice over at rotating roots (op o at
// root o mod n). Bcasts at 512 B (CICO), 40000 B and 128 KiB + 4 B, i64
// allreduces and reduces at 4 KiB (the fan-in) and 40000 B (the bandwidth
// path, or under atomic sync the reduce's chunk-parallel reducers), then a
// barrier; under the default tuning, a 4 KiB stripe threshold and atomic
// sync; on mini16, which has a cache tree, and on a 12-rank grid without a
// shared LLC, where 128 KiB + 4 B takes the chain. Payloads are bit-exact,
// and under ctest the ledger checks every counter's monotonicity across
// each path switch. On Sim each op's completion on its slowest rank is
// pinned to the virtual nanosecond: the values from before the single base,
// except where atomic sync's new leaders now wait for the previous op's
// acks (XhcTuning.AtomicSyncAckCountsStayExactAcrossLeaders).

class CollectivesTimeline : public ::testing::TestWithParam<std::string> {};

TEST_P(CollectivesTimeline, EveryPathBackToBack) {
  constexpr int kOps = 16;
  struct Case {
    const char* topo;
    const char* tuning;
    std::array<double, kOps> done_us;
  };
  const Case cases[] = {
      {"mini16", "default",
       {1.5840467266, 19.129370871, 63.067918459, 76.307500283, 125.72152683,
        133.46557137, 144.64170829, 145.58295829, 147.08097983, 164.74632916,
        208.60687675, 214.96349094, 228.18383621, 236.45688075, 247.85658452,
        249.06133452}},
      {"mini16", "stripe4k",
       {1.5840467266, 21.66618388, 72.957007395, 86.196589218, 135.61061576,
        143.3546603, 154.53079723, 155.47204723, 156.97006876, 175.65337989,
        221.30077806, 227.73489224, 241.11179038, 249.38483492, 260.78453869,
        261.98928869}},
      {"mini16", "atomic",
       {3.136789973, 19.74321512, 64.245262709, 81.115089147, 130.58700395,
        142.18854849, 192.24014038, 194.16739038, 196.91118036, 213.5176055,
        258.01965309, 266.38342648, 280.33969853, 292.86824307, 337.71829187,
        339.84204187}},
      {"grid12n", "default",
       {2.7124172, 19.192680388, 57.831532995, 72.380492794, 121.23163416,
        131.07233292, 145.74883242, 147.25783242, 149.98024962, 166.6255128,
        201.42665778, 209.59781351, 227.4326963, 237.18139507, 251.70677664,
        253.05452664}},
      {"grid12n", "stripe4k",
       {2.7124172, 22.04723991, 64.752449249, 79.386409048, 127.87667753,
        137.71737629, 152.39387578, 153.90287578, 156.62529298, 173.99113023,
        210.11191803, 218.39807377, 236.54199418, 246.26069295, 260.78607452,
        262.13382452}},
      {"grid12n", "atomic",
       {3.3291672, 20.618530233, 61.269523601, 78.848415174, 127.83046616,
        139.9850322, 173.93468227, 175.77468227, 179.71009947, 196.9994625,
        233.64504148, 242.72170803, 260.88020113, 272.87889989, 309.56536437,
        311.37436437}},
  };
  const std::size_t bcast_bytes[] = {512, 40000, (std::size_t{128} << 10) + 4};
  const std::size_t counts[] = {512, 5000};
  const std::size_t max_bytes = bcast_bytes[2];
  for (const Case& c : cases) {
    const std::string topo_name = c.topo;
    const std::string tuning = c.tuning;
    const topo::Topology topo = topo_name == "grid12n"
                                    ? topo::grid("grid12n", 2, 3, 2, 0)
                                    : topo::by_name(topo_name);
    const int n = topo.n_cores();
    coll::Tuning t;
    if (tuning == "stripe4k") t.stripe_threshold = 4096;
    if (tuning == "atomic") t.sync = coll::SyncMethod::kAtomicFetchAdd;
    auto machine = make_machine(GetParam(), topo, n);
    auto comp = coll::make_component("xhc", *machine, t);
    std::int64_t rank_sum = 0;
    std::int64_t weight_sum = 0;
    for (int r = 0; r < n; ++r) {
      rank_sum += static_cast<std::int64_t>(r + 1) * 1000003;
      weight_sum += r % 7 + 1;
    }
    std::vector<mach::Buffer> bufs;
    std::vector<mach::Buffer> sbufs;
    std::vector<mach::Buffer> rbufs;
    for (int r = 0; r < n; ++r) {
      bufs.emplace_back(*machine, r, max_bytes);
      sbufs.emplace_back(*machine, r, counts[1] * sizeof(std::int64_t));
      rbufs.emplace_back(*machine, r, counts[1] * sizeof(std::int64_t));
    }
    std::vector<std::array<double, kOps>> done(static_cast<std::size_t>(n));
    std::vector<std::vector<int>> bad(static_cast<std::size_t>(n));
    machine->run([&](mach::Ctx& ctx) {
      const int me = ctx.rank();
      const auto r = static_cast<std::size_t>(me);
      auto* sbuf = static_cast<std::int64_t*>(sbufs[r].get());
      auto* rbuf = static_cast<std::int64_t*>(rbufs[r].get());
      std::vector<std::byte> expect(max_bytes);
      int o = 0;
      for (int rep = 0; rep < 2; ++rep) {
        for (const std::size_t bytes : bcast_bytes) {
          const int root = o % n;
          const auto seed = static_cast<std::uint64_t>(0x71AE + o);
          if (me == root) ctx.write_payload(bufs[r].get(), bytes, seed);
          comp->bcast(ctx, bufs[r].get(), bytes, root);
          done[r][static_cast<std::size_t>(o)] = ctx.now();
          util::fill_pattern(expect.data(), bytes, seed);
          if (std::memcmp(bufs[r].get(), expect.data(), bytes) != 0) {
            bad[r].push_back(o);
          }
          ++o;
        }
        for (const bool all : {true, false}) {
          for (const std::size_t count : counts) {
            const int root = o % n;
            const auto w = static_cast<std::int64_t>(o) * 131;
            for (std::size_t i = 0; i < count; ++i) {
              sbuf[i] = static_cast<std::int64_t>(me + 1) * 1000003 +
                        (w + static_cast<std::int64_t>(i)) * (me % 7 + 1);
            }
            if (all) {
              comp->allreduce(ctx, sbuf, rbuf, count, mach::DType::kI64,
                              mach::ROp::kSum);
            } else {
              comp->reduce(ctx, sbuf, rbuf, count, mach::DType::kI64,
                           mach::ROp::kSum, root);
            }
            done[r][static_cast<std::size_t>(o)] = ctx.now();
            for (std::size_t i = 0; (all || me == root) && i < count; ++i) {
              if (rbuf[i] !=
                  rank_sum + (w + static_cast<std::int64_t>(i)) * weight_sum) {
                bad[r].push_back(o);
                break;
              }
            }
            ++o;
          }
        }
        comp->barrier(ctx);
        done[r][static_cast<std::size_t>(o++)] = ctx.now();
      }
    });
    for (int r = 0; r < n; ++r) {
      const auto& b = bad[static_cast<std::size_t>(r)];
      EXPECT_TRUE(b.empty()) << c.topo << " " << c.tuning << ", rank " << r
                             << ": " << b.size() << " wrong ops, first op "
                             << b.front();
    }
    if (GetParam() != "sim") continue;
    for (std::size_t o = 0; o < kOps; ++o) {
      double slowest = 0.0;
      for (const auto& d : done) slowest = std::max(slowest, d[o] * 1e6);
      EXPECT_NEAR(slowest, c.done_us[o], 1e-7 * c.done_us[o])
          << c.topo << " " << c.tuning << ", op " << o;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, CollectivesTimeline,
                         ::testing::Values("sim", "real"),
                         [](const auto& info) { return info.param; });

// Both sides of the chain's edge, to the virtual nanosecond: xhc's OSU
// average and slowest rank on each paper system just below the edge (the
// tree: 1.5 and 2 MiB on the shared-LLC Epycs, 128 KiB on armn1, the values
// before the chain existed) and just above it and at 4 MiB (the chain).
TEST(Bcast, ChainEdgesKeepTheirVirtualTimes) {
  struct Pin {
    const char* system;
    std::vector<std::size_t> sizes;
    std::vector<double> avg;
    std::vector<double> max;
  };
  const Pin pins[] = {
      {"epyc1p",
       {1536u << 10, 2u << 20, (2u << 20) + 4, 4u << 20},
       {154.8749731, 776.19671669, 637.80841536, 1267.6776483},
       {177.44458185, 781.74079958, 650.93579065, 1284.3182305}},
      {"epyc2p",
       {1536u << 10, 2u << 20, (2u << 20) + 4, 4u << 20},
       {217.50757293, 865.95629229, 722.21861046, 1434.8462341},
       {270.94197983, 885.71313041, 744.02398296, 1467.7402558}},
      {"armn1",
       {128u << 10, (128u << 10) + 4, 4u << 20},
       {109.04997909, 95.380958699, 2270.9980366},
       {121.99004084, 109.06764457, 2868.6158302}},
  };
  for (const Pin& pin : pins) {
    topo::Topology topo = topo::by_name(pin.system);
    const int n = topo.n_cores();
    sim::SimMachine machine(std::move(topo), n);
    auto comp = coll::make_component("xhc", machine);
    osu::Config cfg;
    cfg.verify = false;
    const auto res = osu::bcast_sweep(machine, *comp, pin.sizes, cfg);
    ASSERT_EQ(res.size(), pin.sizes.size());
    for (std::size_t k = 0; k < res.size(); ++k) {
      EXPECT_NEAR(res[k].avg_us, pin.avg[k], 1e-7 * pin.avg[k])
          << pin.system << " " << res[k].bytes << " B";
      EXPECT_NEAR(res[k].max_us, pin.max[k], 1e-7 * pin.max[k])
          << pin.system << " " << res[k].bytes << " B";
    }
  }
}

// Above the chain's edge the Fig. 10 layouts and atomic sync keep the leader
// pull: their 4 MiB bcast on epyc1p keeps the OSU average and slowest rank
// it had before the chain existed, to the virtual nanosecond.
TEST(Bcast, FlagVariantsKeepTheLeaderPullAboveTheChainEdge) {
  struct Pin {
    const char* variant;
    double avg;
    double max;
  };
  const Pin pins[] = {
      {"shared", 1571.643249, 1585.6314156},
      {"separated", 1574.8820427, 1590.1669096},
      {"atomic", 1551.1670325, 1558.4732136},
  };
  for (const Pin& pin : pins) {
    coll::Tuning t;
    const std::string variant = pin.variant;
    if (variant == "shared") t.flag_layout = coll::FlagLayout::kMultiSharedLine;
    if (variant == "separated") {
      t.flag_layout = coll::FlagLayout::kMultiSeparateLines;
    }
    if (variant == "atomic") t.sync = coll::SyncMethod::kAtomicFetchAdd;
    topo::Topology topo = topo::epyc1p();
    const int n = topo.n_cores();
    sim::SimMachine machine(std::move(topo), n);
    auto comp = coll::make_component("xhc", machine, t);
    osu::Config cfg;
    cfg.verify = false;
    const auto res = osu::bcast_sweep(machine, *comp, {4u << 20}, cfg);
    ASSERT_EQ(res.size(), 1u);
    EXPECT_NEAR(res[0].avg_us, pin.avg, 1e-7 * pin.avg) << variant;
    EXPECT_NEAR(res[0].max_us, pin.max, 1e-7 * pin.max) << variant;
  }
}

// The Fig. 10 layouts read the waiter's own announce slot, so their bcast
// roots keep publishing seq and then the full-range announce, and every
// child keeps both waits, to the virtual nanosecond: these are the OSU
// averages and slowest ranks of Fig. 10's four points on epyc1p (flat and
// numa+socket trees, shared and separated lines) before a single-flag root
// child waited on seq alone.
TEST(Bcast, FlagVariantsKeepTheirVirtualTimes) {
  struct Pin {
    const char* sensitivity;
    coll::FlagLayout layout;
    double avg[3];
    double max[3];
  };
  const Pin pins[] = {
      {"flat", coll::FlagLayout::kMultiSharedLine,
       {1.9184795224, 0.83519870276, 4.4907030554},
       {3.6599335056, 1.7322128057, 9.8654895743}},
      {"flat", coll::FlagLayout::kMultiSeparateLines,
       {2.2824471829, 2.3435503462, 5.4252047533},
       {3.9899335056, 4.1492128057, 9.9847456113}},
      {"numa+socket", coll::FlagLayout::kMultiSharedLine,
       {1.6703688161, 1.5076925427, 5.1451233645},
       {2.6859026404, 2.3861597841, 7.1240649574}},
      {"numa+socket", coll::FlagLayout::kMultiSeparateLines,
       {1.8404313161, 2.1670284802, 5.8213889895},
       {2.8821526404, 3.2484097841, 7.9730649574}},
  };
  for (const Pin& pin : pins) {
    coll::Tuning t;
    t.sensitivity = pin.sensitivity;
    t.flag_layout = pin.layout;
    topo::Topology topo = topo::epyc1p();
    const int n = topo.n_cores();
    sim::SimMachine machine(std::move(topo), n);
    auto comp = coll::make_component("xhc", machine, t);
    osu::Config cfg;
    cfg.verify = false;
    const auto res = osu::bcast_sweep(machine, *comp, {4, 4096, 40000}, cfg);
    const char* lines =
        pin.layout == coll::FlagLayout::kMultiSharedLine ? "shared"
                                                         : "separated";
    for (std::size_t k = 0; k < res.size(); ++k) {
      EXPECT_NEAR(res[k].avg_us, pin.avg[k], 1e-7 * pin.avg[k])
          << pin.sensitivity << " " << lines << " " << res[k].bytes << " B";
      EXPECT_NEAR(res[k].max_us, pin.max[k], 1e-7 * pin.max[k])
          << pin.sensitivity << " " << lines << " " << res[k].bytes << " B";
    }
  }
}

// tuned's two largest bcast algorithms: the segmented binary tree (above
// 2 MiB, up to 8 MiB) and the pipeline chain (above 8 MiB), each just past
// its threshold, at roots 0 and n-1 back to back on one component.
class TunedLargeBcast : public ::testing::TestWithParam<std::string> {};

TEST_P(TunedLargeBcast, BinaryAndChainBitExactAtBothEndRoots) {
  constexpr int kRanks = 8;
  auto machine = make_machine(GetParam(), topo::mini8(), kRanks);
  auto comp = coll::make_component("tuned", *machine);
  const std::size_t sizes[] = {(std::size_t{2} << 20) + 4,
                               (std::size_t{8} << 20) + 4};
  const int roots[] = {0, kRanks - 1};
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < kRanks; ++r) bufs.emplace_back(*machine, r, sizes[1]);
  std::vector<std::vector<std::string>> bad(kRanks);
  machine->run([&](mach::Ctx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    std::vector<std::byte> expect(sizes[1]);
    std::uint64_t op = 0;
    for (const std::size_t bytes : sizes) {
      for (const int root : roots) {
        const std::uint64_t seed = 0x7B + op++;
        if (ctx.rank() == root) ctx.write_payload(bufs[r].get(), bytes, seed);
        comp->bcast(ctx, bufs[r].get(), bytes, root);
        util::fill_pattern(expect.data(), bytes, seed);
        if (std::memcmp(bufs[r].get(), expect.data(), bytes) != 0) {
          bad[r].push_back(std::to_string(bytes) + " B at root " +
                           std::to_string(root));
        }
      }
    }
  });
  for (int r = 0; r < kRanks; ++r) {
    const auto& b = bad[static_cast<std::size_t>(r)];
    EXPECT_TRUE(b.empty()) << GetParam() << ", rank " << r << ": "
                           << b.front();
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, TunedLargeBcast,
                         ::testing::Values("sim", "real"),
                         [](const auto& info) { return info.param; });

class LargeMsgDispatch : public ::testing::Test {
 protected:
  /// Per-rank virtual completion times of one bcast and one f64-sum
  /// allreduce on a fresh mini16 simulator.
  static std::vector<double> done_times(const std::string& component,
                                        const coll::Tuning& t,
                                        std::size_t bcast_bytes,
                                        std::size_t allreduce_bytes) {
    sim::SimMachine m(topo::mini16(), 16);
    auto comp = coll::make_component(component, m, t);
    const std::size_t bytes = std::max(bcast_bytes, allreduce_bytes);
    std::vector<mach::Buffer> bufs;
    std::vector<mach::Buffer> rbufs;
    for (int r = 0; r < 16; ++r) {
      bufs.emplace_back(m, r, bytes);
      rbufs.emplace_back(m, r, bytes);
    }
    std::vector<double> done(16, 0.0);
    m.run([&](mach::Ctx& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      comp->bcast(ctx, bufs[r].get(), bcast_bytes, 0);
      comp->allreduce(ctx, bufs[r].get(), rbufs[r].get(),
                      allreduce_bytes / sizeof(double), mach::DType::kF64,
                      mach::ROp::kSum);
      done[r] = ctx.now();
    });
    return done;
  }
};

TEST_F(LargeMsgDispatch, BelowThresholdVirtualTimeBitIdentical) {
  // The dispatcher's contract: at or below the thresholds nothing about the
  // latency path changes — simulated completion times of an allreduce at
  // exactly the default rs_ag_threshold (8 KiB) and a bcast at exactly an
  // enabled stripe_threshold (64 KiB; xhc's default stripes none) are
  // bit-identical to a tuning with the large paths disabled outright (0).
  coll::Tuning on;
  on.stripe_threshold = 64 << 10;
  EXPECT_EQ(done_times("xhc", on, 64 << 10, 8 << 10),
            done_times("xhc", tuning(0), 64 << 10, 8 << 10));
}

TEST_F(LargeMsgDispatch, UccKeepsItsOwnSizeClasses) {
  // ucc models UCC's own switch to the bandwidth algorithms at 128 KiB, so
  // XHC's thresholds, whatever their value, must not move a 64 KiB ucc op.
  const std::vector<double> base =
      done_times("ucc", coll::Tuning{}, 64 << 10, 64 << 10);
  EXPECT_EQ(base, done_times("ucc", tuning(8192), 64 << 10, 64 << 10));
  EXPECT_EQ(base, done_times("ucc", tuning(0), 64 << 10, 64 << 10));
}

TEST_F(LargeMsgDispatch, UccIgnoresLlcShards) {
  // ucc's shard plan follows its own socket tree, so llc_aware must not
  // move a 256 KiB ucc allreduce (RS+AG in ucc) — while it does move xhc's.
  coll::Tuning no_llc;
  no_llc.llc_aware = false;
  EXPECT_EQ(done_times("ucc", coll::Tuning{}, 256 << 10, 256 << 10),
            done_times("ucc", no_llc, 256 << 10, 256 << 10));
  EXPECT_NE(done_times("xhc", coll::Tuning{}, 256 << 10, 256 << 10),
            done_times("xhc", no_llc, 256 << 10, 256 << 10));
}

TEST_F(LargeMsgDispatch, TuningParamsParseAndClamp) {
  coll::Tuning t;
  coll::apply_param(t, "xhc_rs_ag_threshold=65536");
  coll::apply_param(t, "xhc_stripe_threshold=0");
  coll::apply_param(t, "xhc_large_chunk_bytes=32768,131072");
  EXPECT_EQ(t.rs_ag_threshold, 65536u);
  EXPECT_EQ(t.stripe_threshold, 0u);
  ASSERT_EQ(t.large_chunk_bytes.size(), 2u);
  EXPECT_EQ(t.large_chunk_for_level(0), 32768u);
  EXPECT_EQ(t.large_chunk_for_level(1), 131072u);
  EXPECT_EQ(t.large_chunk_for_level(5), 131072u);  // last entry repeats
  EXPECT_THROW(coll::apply_param(t, "xhc_rs_ag_threshold=banana"),
               util::Error);
  EXPECT_THROW(coll::apply_param(t, "xhc_large_chunk_bytes=0"), util::Error);
}

TEST_F(LargeMsgDispatch, ChunkFallbackSingleSourceOfTruth) {
  // Regression for the duplicated 16 KiB fallback: an empty chunk list must
  // fall back to the same constant the default initializer uses, for both
  // the latency and large chunk tables.
  coll::Tuning t;
  EXPECT_EQ(t.chunk_for_level(0), coll::Tuning::kDefaultChunkBytes);
  EXPECT_EQ(t.large_chunk_for_level(0), coll::Tuning::kDefaultLargeChunkBytes);
  t.chunk_bytes.clear();
  t.large_chunk_bytes.clear();
  EXPECT_EQ(t.chunk_for_level(0), coll::Tuning::kDefaultChunkBytes);
  EXPECT_EQ(t.chunk_for_level(7), coll::Tuning::kDefaultChunkBytes);
  EXPECT_EQ(t.large_chunk_for_level(0),
            coll::Tuning::kDefaultLargeChunkBytes);
  EXPECT_EQ(t.large_chunk_for_level(7),
            coll::Tuning::kDefaultLargeChunkBytes);
}

// ---------------------------------------------------------------------------
// Larger simulated topologies (full paper systems, reduced payloads)

class PaperSystems : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperSystems, XhcCorrectAtFullScale) {
  topo::Topology topo = topo::by_name(GetParam());
  const int ranks = topo.n_cores();
  sim::SimMachine machine(std::move(topo), ranks);
  auto comp = coll::make_component("xhc", machine);
  constexpr std::size_t kBytes = 40000;
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < ranks; ++r) bufs.emplace_back(machine, r, kBytes);
  util::fill_pattern(bufs[0].get(), kBytes, 99);
  machine.run([&](mach::Ctx& ctx) {
    comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(), kBytes,
                0);
  });
  std::vector<std::byte> expect(kBytes);
  util::fill_pattern(expect.data(), kBytes, 99);
  for (int r = 0; r < ranks; ++r) {
    ASSERT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].get(),
                          expect.data(), kBytes),
              0)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Systems, PaperSystems,
                         ::testing::Values("epyc1p", "epyc2p", "armn1"));

}  // namespace
}  // namespace xhc
