// Tests of the Machine/Ctx contract on both implementations: allocation
// registry, flags, copies, reductions, barriers, error propagation, and the
// virtual clock's basic laws on SimMachine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mach/host_alloc.h"
#include "mach/real_machine.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/check.h"
#include "verify/verify.h"

namespace xhc {
namespace {

template <typename M>
std::unique_ptr<mach::Machine> make_machine(int ranks);

template <>
std::unique_ptr<mach::Machine> make_machine<mach::RealMachine>(int ranks) {
  return std::make_unique<mach::RealMachine>(topo::mini8(), ranks);
}

template <>
std::unique_ptr<mach::Machine> make_machine<sim::SimMachine>(int ranks) {
  return std::make_unique<sim::SimMachine>(topo::mini8(), ranks);
}

template <typename M>
class MachineTest : public ::testing::Test {};

using Machines = ::testing::Types<mach::RealMachine, sim::SimMachine>;
TYPED_TEST_SUITE(MachineTest, Machines);

TYPED_TEST(MachineTest, RunInvokesEveryRankOnce) {
  auto m = make_machine<TypeParam>(8);
  std::atomic<int> calls{0};
  std::vector<int> seen(8, 0);
  m->run([&](mach::Ctx& ctx) {
    ++calls;
    seen[static_cast<std::size_t>(ctx.rank())] += 1;
    EXPECT_EQ(ctx.size(), 8);
  });
  EXPECT_EQ(calls.load(), 8);
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TYPED_TEST(MachineTest, AllocIsZeroedAndAligned) {
  auto m = make_machine<TypeParam>(4);
  void* p = m->alloc(1, 100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  const auto* bytes = static_cast<const unsigned char*>(p);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(bytes[i], 0);
  m->free(p);
}

TYPED_TEST(MachineTest, AllocRejectsBadOwner) {
  auto m = make_machine<TypeParam>(4);
  EXPECT_THROW(m->alloc(-1, 8), util::Error);
  EXPECT_THROW(m->alloc(4, 8), util::Error);
}

TYPED_TEST(MachineTest, AllocRejectsSizesWhoseRoundUpOverflows) {
  auto m = make_machine<TypeParam>(4);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  // Each request would wrap to a tiny block when rounded up to `align`.
  for (const auto& [bytes, align] :
       {std::pair{kMax, std::size_t{64}}, std::pair{kMax - 10, std::size_t{64}},
        std::pair{kMax - 4000, std::size_t{4096}}}) {
    try {
      (void)m->alloc(0, bytes, align);
      FAIL() << "allocated " << bytes << " bytes at align " << align;
    } catch (const util::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("bytes=" + std::to_string(bytes)),
                std::string::npos) << what;
      EXPECT_NE(what.find("align=" + std::to_string(align)),
                std::string::npos) << what;
    }
  }
}

TYPED_TEST(MachineTest, CopyMovesBytes) {
  auto m = make_machine<TypeParam>(2);
  mach::Buffer src(*m, 0, 256);
  mach::Buffer dst(*m, 1, 256);
  std::memset(src.get(), 0x5A, 256);
  m->run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 1) ctx.copy(dst.get(), src.get(), 256);
  });
  EXPECT_EQ(std::memcmp(dst.get(), src.get(), 256), 0);
}

TYPED_TEST(MachineTest, ReduceAppliesOperator) {
  auto m = make_machine<TypeParam>(2);
  mach::Buffer a(*m, 0, 4 * sizeof(double));
  mach::Buffer b(*m, 1, 4 * sizeof(double));
  auto* da = static_cast<double*>(a.get());
  auto* db = static_cast<double*>(b.get());
  for (int i = 0; i < 4; ++i) {
    da[i] = i;
    db[i] = 10;
  }
  m->run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      ctx.reduce(a.get(), b.get(), 4, mach::DType::kF64, mach::ROp::kSum);
    }
  });
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(da[i], i + 10.0);
}

TYPED_TEST(MachineTest, FlagsSignalAcrossRanks) {
  auto m = make_machine<TypeParam>(2);
  auto* flag = static_cast<mach::Flag*>(m->alloc(0, sizeof(mach::Flag)));
  auto* data = static_cast<std::uint64_t*>(m->alloc(0, 8));
  m->run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      *data = 77;
      ctx.flag_store(*flag, 1);
    } else {
      ctx.flag_wait_ge(*flag, 1);
      EXPECT_EQ(*data, 77u);  // release/acquire pairing
    }
  });
  m->free(flag);
  m->free(data);
}

TYPED_TEST(MachineTest, FetchAddReturnsPrevious) {
  auto m = make_machine<TypeParam>(4);
  auto* flag = static_cast<mach::Flag*>(m->alloc(0, sizeof(mach::Flag)));
  // Every rank fetch-adds this flag, so whitelist it for the protocol
  // verifier the way the Fig. 4 atomic_ctr is (matters with its switch on).
  m->verify_ledger().register_flag(flag, "test.fetch_add_ctr",
                                   verify::WriterPolicy::kShared);
  std::atomic<std::uint64_t> sum_prev{0};
  m->run([&](mach::Ctx& ctx) {
    sum_prev += ctx.fetch_add(*flag, 1);
  });
  // Previous values are a permutation of {0,1,2,3}.
  EXPECT_EQ(sum_prev.load(), 6u);
  m->run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      EXPECT_EQ(ctx.flag_read(*flag), 4u);
    }
  });
  m->free(flag);
}

TYPED_TEST(MachineTest, ExceptionsPropagateToCaller) {
  auto m = make_machine<TypeParam>(2);
  EXPECT_THROW(m->run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) throw util::Error("boom");
    // The peer must not hang: on SimMachine the abort wakes it, on
    // RealMachine it simply finishes.
  }),
               util::Error);
}

TYPED_TEST(MachineTest, BarrierSeparatesPhases) {
  auto m = make_machine<TypeParam>(8);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  m->run([&](mach::Ctx& ctx) {
    ++phase1;
    ctx.barrier();
    if (phase1.load() != 8) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

// ---------------------------------------------------------------------------
// Sim-specific timing laws

TEST(SimMachineTime, ChargeAdvancesClock) {
  sim::SimMachine m(topo::mini8(), 2);
  std::vector<double> end(2);
  m.run([&](mach::Ctx& ctx) {
    ctx.charge(1e-3);
    end[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  EXPECT_DOUBLE_EQ(end[0], 1e-3);
  EXPECT_DOUBLE_EQ(end[1], 1e-3);
}

TEST(SimMachineTime, ClockContinuesAcrossRuns) {
  sim::SimMachine m(topo::mini8(), 2);
  m.run([&](mach::Ctx& ctx) { ctx.charge(1e-3); });
  const double epoch = m.epoch();
  EXPECT_GE(epoch, 1e-3);
  const auto result = m.run([&](mach::Ctx& ctx) { ctx.charge(2e-3); });
  // Per-run times are relative to the run's start.
  EXPECT_DOUBLE_EQ(result.max_time, 2e-3);
  EXPECT_GE(m.epoch(), epoch + 2e-3);
}

TEST(SimMachineTime, CopyCostScalesWithSize) {
  sim::SimMachine m(topo::mini8(), 2);
  mach::Buffer small_src(m, 0, 4096);
  mach::Buffer big_src(m, 0, 1 << 20);
  mach::Buffer dst(m, 1, 1 << 20);
  double t_small = 0;
  double t_big = 0;
  m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() != 1) return;
    double t0 = ctx.now();
    ctx.copy(dst.get(), small_src.get(), 4096);
    t_small = ctx.now() - t0;
    t0 = ctx.now();
    ctx.copy(dst.get(), big_src.get(), 1 << 20);
    t_big = ctx.now() - t0;
  });
  EXPECT_GT(t_big, 10 * t_small);
}

TEST(SimMachineTime, WaitDoesNotRunBackwards) {
  sim::SimMachine m(topo::mini8(), 2);
  auto* flag = static_cast<mach::Flag*>(m.alloc(0, sizeof(mach::Flag)));
  std::vector<double> end(2);
  m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      ctx.charge(5e-6);
      ctx.flag_store(*flag, 1);
    } else {
      ctx.flag_wait_ge(*flag, 1);
      end[1] = ctx.now();
    }
  });
  // The waiter cannot observe the flag before it was published.
  EXPECT_GE(end[1], 5e-6);
  m.free(flag);
}

TEST(SimMachineTime, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    sim::SimMachine m(topo::epyc1p(), 16);
    std::vector<mach::Buffer> bufs;
    for (int r = 0; r < 16; ++r) bufs.emplace_back(m, r, 8192);
    auto* flag = static_cast<mach::Flag*>(m.alloc(0, sizeof(mach::Flag)));
    const auto result = m.run([&](mach::Ctx& ctx) {
      if (ctx.rank() == 0) {
        ctx.write_payload(bufs[0].get(), 8192, 3);
        ctx.flag_store(*flag, 1);
      } else {
        ctx.flag_wait_ge(*flag, 1);
        ctx.copy(bufs[static_cast<std::size_t>(ctx.rank())].get(),
                 bufs[0].get(), 8192);
      }
    });
    m.free(flag);
    return result.rank_time;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "rank " << i;
  }
}

TEST(SimMachineTime, RegistryAttributesHomes) {
  // Buffers owned by ranks in other NUMA nodes cost more to read.
  sim::SimMachine m(topo::epyc1p(), 32);
  mach::Buffer near_src(m, 1, 1 << 20);   // same NUMA as reader rank 0
  mach::Buffer far_src(m, 28, 1 << 20);   // NUMA 3
  mach::Buffer dst(m, 0, 1 << 20);
  double t_near = 0;
  double t_far = 0;
  m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() != 0) return;
    double t0 = ctx.now();
    ctx.copy(dst.get(), near_src.get(), 1 << 20);
    t_near = ctx.now() - t0;
    t0 = ctx.now();
    ctx.copy(dst.get(), far_src.get(), 1 << 20);
    t_far = ctx.now() - t0;
  });
  EXPECT_GT(t_far, t_near);
}

// ---------------------------------------------------------------------------
// Sim-specific allocation: large blocks and the huge-page residency hint

TEST(SimMachineAlloc, LargeBlockIsAlignedZeroedAndRegisteredRounded) {
  sim::SimMachine m(topo::mini8(), 2);
  constexpr std::size_t kBytes = mach::kHugePageHintMin + 100;
  constexpr std::size_t kRounded = mach::kHugePageHintMin + 128;
  // Dirty and free larger blocks first, so the zeroed block reuses written
  // memory instead of fresh pages: glibc serves the first from mmap and
  // raises its mmap threshold on the free, the later ones come from the
  // heap, and the last one's free chunk is big enough to hold the block.
  for (int i = 0; i < 3; ++i) {
    void* dirty = m.alloc(1, 2 * kBytes, 64, /*zero=*/false);
    std::memset(dirty, 0xAB, 2 * kBytes);
    m.free(dirty);
  }
  auto* p = static_cast<unsigned char*>(m.alloc(1, kBytes));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  EXPECT_TRUE(std::all_of(p, p + kRounded, [](unsigned char c) {
    return c == 0;
  }));
  const auto* block = m.registry().find(p);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->base, reinterpret_cast<std::byte*>(p));
  EXPECT_EQ(block->bytes, kRounded);
  EXPECT_EQ(block->owner_rank, 1);
  EXPECT_EQ(m.registry().find(p + kRounded - 1), block);
  EXPECT_NE(m.registry().find(p + kRounded), block);
  m.free(p);
}

/// VmFlags of the /proc/self/smaps mapping containing [lo, hi), or nullopt
/// when no single mapping does (or smaps is unreadable).
std::optional<std::string> vm_flags_over(std::uintptr_t lo, std::uintptr_t hi) {
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    std::uintptr_t start = 0;
    std::uintptr_t end = 0;
    char dash = 0;
    std::istringstream head(line);
    if (head >> std::hex >> start >> dash >> end && dash == '-') {
      inside = start <= lo && hi <= end;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      return line;
    }
  }
  return std::nullopt;
}

TEST(SimMachineAlloc, LargeBlockInteriorIsHintedHugePage) {
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string thp_mode;
  if (!std::getline(thp, thp_mode) ||
      thp_mode.find("[never]") != std::string::npos) {
    GTEST_SKIP() << "transparent huge pages unavailable or disabled";
  }
  if (!std::ifstream("/proc/self/smaps")) {
    GTEST_SKIP() << "/proc/self/smaps unreadable";
  }
  sim::SimMachine m(topo::mini8(), 2);
  mach::Buffer buf(m, 0, 3 * mach::kHugePage + 4096, /*zero=*/false);
  const auto base = reinterpret_cast<std::uintptr_t>(buf.get());
  const std::uintptr_t lo =
      (base + mach::kHugePage - 1) & ~(mach::kHugePage - 1);
  const std::uintptr_t hi =
      (base + 3 * mach::kHugePage + 4096) & ~(mach::kHugePage - 1);
  ASSERT_LT(lo, hi);
  const auto flags = vm_flags_over(lo, hi);
  ASSERT_TRUE(flags.has_value()) << "no single mapping covers the interior";
  EXPECT_NE((*flags + " ").find(" hg "), std::string::npos) << *flags;
}

TEST(SimMachineAlloc, TimingOnlyBlockIsNotHinted) {
  // A timing-only block holds no payload, so the hint would only outlive it
  // and make the allocator's later chunk headers fault whole huge pages.
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string thp_mode;
  if (!std::getline(thp, thp_mode) ||
      thp_mode.find("[never]") != std::string::npos ||
      !std::ifstream("/proc/self/smaps")) {
    GTEST_SKIP() << "huge page hints not observable here";
  }
  sim::SimMachine m(topo::mini8(), 2);
  ASSERT_TRUE(m.set_timing_only(true));
  // Above glibc's largest dynamic mmap threshold (32 MiB), so the block is
  // a fresh mapping that no earlier hint in this process can have marked.
  constexpr std::size_t kBytes = std::size_t{40} << 20;
  mach::Buffer buf(m, 0, kBytes, /*zero=*/false);
  const auto base = reinterpret_cast<std::uintptr_t>(buf.get());
  const std::uintptr_t lo =
      (base + mach::kHugePage - 1) & ~(mach::kHugePage - 1);
  const std::uintptr_t hi = (base + kBytes) & ~(mach::kHugePage - 1);
  const auto flags = vm_flags_over(lo, hi);
  ASSERT_TRUE(flags.has_value()) << "no single mapping covers the interior";
  EXPECT_EQ((*flags + " ").find(" hg "), std::string::npos) << *flags;
}

// ---------------------------------------------------------------------------
// Sim-specific free: a reused address does not inherit its flag history

/// Allocates ever smaller blocks below `bytes` until one lands at the
/// just-freed block's address `addr` and returns it (nullptr when none
/// does). Which request the allocator serves from a freed block depends on
/// what else the heap holds. The misses stay allocated in `misses`, or the
/// walk would keep getting them back.
void* alloc_at(mach::Machine& m, std::uintptr_t addr, std::size_t bytes,
               std::vector<void*>& misses) {
  for (bytes -= 64; bytes > 0; bytes -= 64) {
    void* p = m.alloc(0, bytes);
    if (reinterpret_cast<std::uintptr_t>(p) == addr) return p;
    misses.push_back(p);
  }
  return nullptr;
}

TEST(SimMachineFree, ReusedAddressForgetsFlagHistory) {
  sim::SimMachine m(topo::mini8(), 1);
  constexpr std::size_t kBlock = 4096;
  void* old_block = m.alloc(0, kBlock);
  auto* old_flag = new (old_block) mach::Flag();
  m.run([&](mach::Ctx& ctx) { ctx.flag_store(*old_flag, 1); });
  const auto old_addr = reinterpret_cast<std::uintptr_t>(old_block);
  m.free(old_block);

  std::vector<void*> misses;
  void* reused = alloc_at(m, old_addr, kBlock, misses);
  if (reused != nullptr) {
    auto* fresh = new (reused) mach::Flag();  // nobody ever stores to it
    try {
      m.run([&](mach::Ctx& ctx) { ctx.flag_wait_ge(*fresh, 1); });
      ADD_FAILURE() << "the wait resumed on the previous occupant's publish";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("virtual-time deadlock"),
                std::string::npos)
          << e.what();
    }
    m.free(reused);
  }
  for (void* p : misses) m.free(p);
  if (reused == nullptr) {
    GTEST_SKIP() << "no smaller request reused the freed 4 KiB block";
  }
}

// Each rank serves block lookups from the blocks it touched last; a free
// inside the run must not let a recycled range resolve to the dead block.
TEST(SimMachineFree, CopyAfterFreeAndReallocInOneRunUsesTheNewBlock) {
  sim::SimMachine m(topo::mini8(), 1);
  constexpr std::size_t kBlock = 4096;
  void* dst = m.alloc(0, kBlock);
  std::vector<void*> misses;
  void* reused = nullptr;
  std::uint64_t old_id = 0;
  m.run([&](mach::Ctx& ctx) {
    void* old_block = m.alloc(0, kBlock);
    old_id = m.registry().find(old_block)->id;
    ctx.write_payload(old_block, kBlock, 1);
    ctx.copy(dst, old_block, kBlock);  // both blocks are now the last hit
    const auto old_addr = reinterpret_cast<std::uintptr_t>(old_block);
    m.free(old_block);
    reused = alloc_at(m, old_addr, kBlock, misses);
    if (reused == nullptr) return;
    ctx.write_payload(reused, 64, 2);
    ctx.copy(dst, reused, 64);  // priced from the new block's residency
  });
  if (reused != nullptr) {
    const std::uint64_t new_id = m.registry().find(reused)->id;
    EXPECT_NE(new_id, old_id);
    EXPECT_EQ(m.cache_model().version(old_id), 0u);  // gone with its block
    EXPECT_EQ(m.cache_model().version(new_id), 1u);
    EXPECT_EQ(m.cache_model().version(m.registry().find(dst)->id), 2u);
    m.free(reused);
  }
  for (void* p : misses) m.free(p);
  m.free(dst);
  if (reused == nullptr) {
    GTEST_SKIP() << "no smaller request reused the freed 4 KiB block";
  }
}

}  // namespace
}  // namespace xhc
