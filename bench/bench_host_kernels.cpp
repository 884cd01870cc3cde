// Host-native kernel microbenchmarks (google-benchmark).
//
// Measures, on the actual build host, the primitive operations whose
// modeled costs drive the simulator: memcpy streams, typed reductions,
// single-writer flag round trips, and contended atomic fetch-add — the
// real-hardware counterpart of the paper's §III-E experiment.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mach/reduce_kernels.h"
#include "sim/scheduler.h"
#include "util/cacheline.h"
#include "util/prng.h"

namespace {

using xhc::sim::SimBackend;
using xhc::sim::VirtualScheduler;

SimBackend backend_of(const benchmark::State& state) {
  return state.range(0) == 0 ? SimBackend::kFiber : SimBackend::kThreads;
}

void label_backend(benchmark::State& state) {
  state.SetLabel(state.range(0) == 0 ? "fiber" : "threads");
}

void BM_Memcpy(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> src(bytes);
  std::vector<std::byte> dst(bytes);
  xhc::util::fill_pattern(src.data(), bytes, 1);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), bytes);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Memcpy)->Range(4096, 4 << 20);

using PatternFill = void (*)(void*, std::size_t, std::uint64_t) noexcept;
using OperandFill = void (*)(float*, std::size_t, std::uint64_t) noexcept;

void run_fill_pattern(benchmark::State& state, PatternFill fill) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> dst(bytes);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    fill(dst.data(), bytes, seed++);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

void run_fill_operands(benchmark::State& state, OperandFill fill) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<float> dst(bytes / sizeof(float));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    fill(dst.data(), dst.size(), seed++);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

/// util::fill_pattern: the payload rewrite of the `_mb` variants (paper
/// §V-A), which the simulator performs for real before every call. Takes
/// the 8-lane kernel from 16 KiB up on AVX-512 hosts.
void BM_FillPattern(benchmark::State& state) {
  run_fill_pattern(state, xhc::util::fill_pattern);
}
BENCHMARK(BM_FillPattern)->RangeMultiplier(4)->Range(4096, 4 << 20);

/// The one-word-per-step reference fill_pattern is checked against.
void BM_FillPatternScalar(benchmark::State& state) {
  run_fill_pattern(state, xhc::util::fill_pattern_scalar);
}
BENCHMARK(BM_FillPatternScalar)->RangeMultiplier(4)->Range(4096, 4 << 20);

/// util::fill_operands: the bounded float operands written by
/// osu::Config::verify and the loadgen's integrity checks.
void BM_FillOperands(benchmark::State& state) {
  run_fill_operands(state, xhc::util::fill_operands);
}
BENCHMARK(BM_FillOperands)->RangeMultiplier(4)->Range(4096, 4 << 20);

/// The one-operand-per-step reference fill_operands is checked against.
void BM_FillOperandsScalar(benchmark::State& state) {
  run_fill_operands(state, xhc::util::fill_operands_scalar);
}
BENCHMARK(BM_FillOperandsScalar)->RangeMultiplier(4)->Range(4096, 4 << 20);

void BM_ReduceF32Sum(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<float> dst(count, 1.0f);
  std::vector<float> src(count, 2.0f);
  for (auto _ : state) {
    xhc::mach::reduce_apply(dst.data(), src.data(), count,
                            xhc::mach::DType::kF32, xhc::mach::ROp::kSum);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * sizeof(float)));
}
BENCHMARK(BM_ReduceF32Sum)->Range(1024, 1 << 20);

/// Operands that stay numerically tame under millions of repeated in-place
/// applications: +/-1 for the float types (sum random-walks, prod stays on
/// the unit circle, min/max saturate — no drift into inf/denormal territory
/// that would skew timing), 1 for the integer types (their timing is
/// data-independent and small values keep repeated sums far from overflow).
void fill_reduce_operands(void* p, std::size_t count, xhc::mach::DType t,
                          std::uint64_t seed) {
  xhc::util::SplitMix64 rng(seed);
  using xhc::mach::DType;
  for (std::size_t i = 0; i < count; ++i) {
    switch (t) {
      case DType::kU8:
        static_cast<std::uint8_t*>(p)[i] = 1;
        break;
      case DType::kI32:
        static_cast<std::int32_t*>(p)[i] = 1;
        break;
      case DType::kI64:
        static_cast<std::int64_t*>(p)[i] = 1;
        break;
      case DType::kF32:
        static_cast<float*>(p)[i] = (rng.next() & 1) != 0 ? 1.0f : -1.0f;
        break;
      case DType::kF64:
        static_cast<double*>(p)[i] = (rng.next() & 1) != 0 ? 1.0 : -1.0;
        break;
    }
  }
}

/// Full op x dtype matrix, fast kernel vs scalar reference, at one
/// bandwidth-representative size — the per-pair speedup the large-message
/// reduce-scatter path banks on. Args: (dtype, op, scalar?).
void BM_Reduce(benchmark::State& state) {
  const auto dtype = static_cast<xhc::mach::DType>(state.range(0));
  const auto op = static_cast<xhc::mach::ROp>(state.range(1));
  const bool scalar = state.range(2) != 0;
  constexpr std::size_t kCount = 64 << 10;
  const std::size_t bytes = kCount * xhc::mach::dtype_size(dtype);
  std::vector<std::byte> dst(bytes);
  std::vector<std::byte> src(bytes);
  fill_reduce_operands(dst.data(), kCount, dtype, 1);
  fill_reduce_operands(src.data(), kCount, dtype, 2);
  state.SetLabel(std::string(xhc::mach::to_string(dtype)) + "/" +
                 xhc::mach::to_string(op) + (scalar ? "/scalar" : "/fast"));
  for (auto _ : state) {
    if (scalar) {
      xhc::mach::reduce_apply_scalar(dst.data(), src.data(), kCount, dtype,
                                     op);
    } else {
      xhc::mach::reduce_apply(dst.data(), src.data(), kCount, dtype, op);
    }
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Reduce)->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1, 2, 3}, {0, 1}});

/// Single-writer flag round trip between two threads (ping-pong).
void BM_FlagRoundTrip(benchmark::State& state) {
  xhc::util::CachePadded<std::atomic<std::uint64_t>> ping;
  xhc::util::CachePadded<std::atomic<std::uint64_t>> pong;
  std::atomic<bool> stop{false};
  std::thread peer([&] {
    std::uint64_t expected = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      if (ping->load(std::memory_order_acquire) >= expected) {
        pong->store(expected, std::memory_order_release);
        ++expected;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t seq = 0;
  for (auto _ : state) {
    ++seq;
    ping->store(seq, std::memory_order_release);
    while (pong->load(std::memory_order_acquire) < seq) {
      std::this_thread::yield();
    }
  }
  stop.store(true);
  ping->store(seq + 1, std::memory_order_release);
  peer.join();
}
BENCHMARK(BM_FlagRoundTrip);

/// Contended fetch-add: every thread hammers one counter (the sync style
/// whose scaling collapse the paper demonstrates in Fig. 4).
void BM_AtomicFetchAddContended(benchmark::State& state) {
  static xhc::util::CachePadded<std::atomic<std::uint64_t>> counter;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        counter->fetch_add(1, std::memory_order_acq_rel));
  }
}
BENCHMARK(BM_AtomicFetchAddContended)->Threads(1)->Threads(2)->Threads(4);

// --------------------------------------------------------------------------
// Virtual-time scheduler microbenchmarks: the substrate every figure bench
// runs on. Arg 0 selects the backend (0 = fiber, 1 = threads) so the
// user-space-switch vs condvar-handoff gap is measured, not asserted.

/// Two ranks leapfrogging in virtual time: every advance() hands the token
/// to the other rank, so this is pure handoff latency.
void BM_SchedHandoff(benchmark::State& state) {
  constexpr int kInner = 4096;
  label_backend(state);
  for (auto _ : state) {
    auto sched = VirtualScheduler::create(2, 0.0, backend_of(state));
    sched->run([&](int r) {
      for (int i = 0; i < kInner; ++i) sched->advance(r, 1.0);
    });
  }
  state.SetItemsProcessed(state.iterations() * kInner * 2);
}
BENCHMARK(BM_SchedHandoff)->Arg(0)->Arg(1)->UseRealTime();

/// Producer stores a flag and notifies; consumer blocks on the channel —
/// the wait_until/notify pattern every simulated collective is built from.
void BM_SchedWaitNotify(benchmark::State& state) {
  constexpr std::uint64_t kInner = 2048;
  label_backend(state);
  for (auto _ : state) {
    auto sched = VirtualScheduler::create(2, 0.0, backend_of(state));
    std::uint64_t flag = 0;
    sched->run([&](int r) {
      if (r == 0) {
        for (std::uint64_t i = 0; i < kInner; ++i) {
          flag = i + 1;
          sched->notify(&flag);
          sched->advance(0, 1.0);
        }
      } else {
        for (std::uint64_t i = 0; i < kInner; ++i) {
          sched->wait_until(1, &flag, [&]() -> std::optional<double> {
            if (flag > i) return 0.0;
            return std::nullopt;
          });
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kInner));
}
BENCHMARK(BM_SchedWaitNotify)->Arg(0)->Arg(1)->UseRealTime();

/// All n ranks advance with distinct strides, keeping the ready structure
/// full: measures the (vtime, rank)-keyed pick at paper-system rank counts.
void BM_SchedPick(benchmark::State& state) {
  constexpr int kInner = 512;
  const int n = static_cast<int>(state.range(1));
  label_backend(state);
  for (auto _ : state) {
    auto sched = VirtualScheduler::create(n, 0.0, backend_of(state));
    sched->run([&](int r) {
      const double stride = 1.0 + static_cast<double>(r) * 1e-3;
      for (int i = 0; i < kInner; ++i) sched->advance(r, stride);
    });
  }
  state.SetItemsProcessed(state.iterations() * kInner *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedPick)
    ->UseRealTime()
    ->Args({0, 8})
    ->Args({0, 64})
    ->Args({0, 160})
    ->Args({1, 8})
    ->Args({1, 64})
    ->Args({1, 160});

}  // namespace

BENCHMARK_MAIN();
