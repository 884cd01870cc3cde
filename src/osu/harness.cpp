#include "osu/harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <thread>

#include "obs/observer.h"
#include "util/check.h"
#include "util/prng.h"
#include "util/table.h"
#include "verify/verify.h"

namespace xhc::osu {

std::vector<std::size_t> default_sizes(std::size_t min_bytes,
                                       std::size_t max_bytes) {
  std::vector<std::size_t> sizes;
  for (std::size_t s = min_bytes; s <= max_bytes; s *= 2) sizes.push_back(s);
  return sizes;
}

int guarded_main(const std::function<int()>& body) noexcept {
  try {
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "error: unknown exception\n");
  }
  return 1;
}

void run_points(std::size_t n, int jobs,
                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs == 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs == 0) jobs = 1;
  }
  const std::size_t workers =
      std::min(static_cast<std::size_t>(jobs > 1 ? jobs : 1), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(drain);
  for (auto& t : pool) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

namespace {

/// Shared per-rank accumulation without false sharing.
struct PaddedAcc {
  alignas(64) double value = 0.0;
};

/// Publishes the protocol verifier's summary (src/verify/) as gauges so
/// --metrics reports the ledger's coverage next to the traffic counters,
/// plus the machine's modeled coherence counter deltas (coh_*, SimMachine
/// only — delta semantics keep repeated sweeps double-count free).
/// With the ledger switched off the store/load counts stay zero.
void publish_verify_summary(mach::Machine& machine, obs::Observer* obs) {
  if (obs == nullptr) return;
  const verify::Summary s = machine.verify_ledger().summary();
  obs::Metrics& m = obs->metrics();
  m.set_gauge(obs::Gauge::kVerifyFlagsTracked, s.flags_tracked);
  m.set_gauge(obs::Gauge::kVerifyStoresChecked, s.stores_checked);
  m.set_gauge(obs::Gauge::kVerifyLoadsChecked, s.loads_checked);
  m.set_gauge(obs::Gauge::kVerifyViolations, s.violations);
  m.set_gauge(obs::Gauge::kVerifyExpectedFindings, s.expected_findings);
  machine.publish_coh_counters(m);
}

/// Per-size op-latency histogram plumbing shared by the collective sweeps.
/// Each rank records its timed iterations into a private row (single-writer,
/// allocation-free, safe inside the parallel region); finish() merges the
/// rows into one histogram labeled with the size, matching the CSV rows.
struct SizeHist {
  SizeHist(const Config& config, int n)
      : set(config.size_hists != nullptr ? std::make_unique<obs::HistSet>(n)
                                         : nullptr) {}
  void record(int rank, double seconds) noexcept {
    if (set != nullptr) set->record(rank, obs::HistKind::kOp, seconds);
  }
  void finish(const Config& config, std::size_t bytes) {
    if (set != nullptr) {
      config.size_hists->push_back({util::Table::fmt_bytes(bytes),
                                    set->merged(obs::HistKind::kOp)});
    }
  }
  std::unique_ptr<obs::HistSet> set;
};

/// The machine's timing-only data plane for one sweep: on when the sweep
/// verifies nothing (then no host code reads its payload) and the machine
/// honours the switch, off when it verifies; the previous state comes back
/// on exit, exceptions included. Decorators keep the full data plane by
/// not forwarding the switch (mach::Machine::set_timing_only).
class DataPlane {
 public:
  DataPlane(mach::Machine& m, const Config& config)
      : m_(m),
        prev_(m.timing_only()),
        on_(m.set_timing_only(!config.verify) && !config.verify) {}
  ~DataPlane() { m_.set_timing_only(prev_); }
  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  /// Whether payload bytes are skipped, so receive buffers need no
  /// zero-fill: nothing reads them.
  bool timing_only() const noexcept { return on_; }

 private:
  mach::Machine& m_;
  const bool prev_;  // read before on_'s initializer sets the switch
  const bool on_;
};

/// Mean, fastest and slowest rank of one size's timed iterations.
SizeResult summarize(const std::vector<PaddedAcc>& acc, std::size_t bytes,
                     int iters) {
  SizeResult sr;
  sr.bytes = bytes;
  double sum = 0.0;
  double mn = 1e300;
  double mx = 0.0;
  for (const PaddedAcc& a : acc) {
    const double us = a.value / iters * 1e6;
    sum += us;
    mn = std::min(mn, us);
    mx = std::max(mx, us);
  }
  sr.avg_us = sum / static_cast<double>(acc.size());
  sr.min_us = mn;
  sr.max_us = mx;
  return sr;
}

/// Seed of rank r's contribution at iteration `it` of a reduction sweep.
std::uint64_t operand_seed(std::uint64_t base, int it, int r) {
  return base + static_cast<std::uint64_t>(it * 1000 + r);
}

/// Element-wise check of the float sums held by ranks [first, last] of
/// `rbufs` against a double-precision reference of the operands every rank
/// contributed at iteration `it`. The operands are exact multiples of 1/256
/// in [-1, 1), so any summation order agrees with the reference to well
/// under the tolerance; a mismatch means payload corruption, not
/// reassociation.
void check_sums(const coll::Component& comp, const char* op,
                const std::vector<mach::Buffer>& rbufs, int first, int last,
                std::uint64_t seed_base, int it, std::size_t count) {
  std::vector<double> expect(count);
  for (std::size_t r = 0; r < rbufs.size(); ++r) {
    const std::uint64_t seed =
        operand_seed(seed_base, it, static_cast<int>(r));
    for (std::size_t i = 0; i < count; ++i) {
      expect[i] += static_cast<double>(util::operand(seed, i));
    }
  }
  for (int r = first; r <= last; ++r) {
    const auto* got =
        static_cast<const float*>(rbufs[static_cast<std::size_t>(r)].get());
    for (std::size_t i = 0; i < count; ++i) {
      const double tol = 1e-4 * std::max(1.0, std::abs(expect[i]));
      XHC_CHECK(std::abs(static_cast<double>(got[i]) - expect[i]) <= tol,
                comp.name(), ": ", op, " result mismatch at rank ", r,
                " elem ", i, " size ", count * sizeof(float), " (got ",
                static_cast<double>(got[i]), ", want ", expect[i], ")");
    }
  }
}

}  // namespace

std::vector<SizeResult> bcast_sweep(mach::Machine& machine,
                                    coll::Component& comp,
                                    const std::vector<std::size_t>& sizes,
                                    const Config& config) {
  const int n = machine.n_ranks();
  if (config.observer != nullptr) comp.set_observer(config.observer);
  const DataPlane plane(machine, config);
  std::vector<SizeResult> results;
  results.reserve(sizes.size());

  for (const std::size_t bytes : sizes) {
    // One buffer per rank, owned (first-touch) by that rank. No zero-fill:
    // the root writes the full payload before iteration 0 and every other
    // rank receives all `bytes` from the collective before any read.
    std::vector<mach::Buffer> bufs;
    bufs.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      bufs.emplace_back(machine, r, bytes, /*zero=*/false);
    }
    std::vector<PaddedAcc> acc(static_cast<std::size_t>(n));
    SizeHist hist(config, n);

    const int total = config.warmup + config.iters;
    machine.run([&](mach::Ctx& ctx) {
      const int r = ctx.rank();
      void* buf = bufs[static_cast<std::size_t>(r)].get();
      for (int it = 0; it < total; ++it) {
        if (r == config.root && (config.modify_buffer || it == 0)) {
          ctx.write_payload(buf, bytes,
                            0x9000u + static_cast<std::uint64_t>(it));
        }
        ctx.barrier();
        const double t0 = ctx.now();
        comp.bcast(ctx, buf, bytes, config.root);
        const double t1 = ctx.now();
        if (it >= config.warmup) {
          acc[static_cast<std::size_t>(r)].value += t1 - t0;
          hist.record(r, t1 - t0);
        }
      }
    });

    if (config.verify) {
      std::vector<std::byte> expect(bytes);
      const std::uint64_t last_seed =
          0x9000u + static_cast<std::uint64_t>(
                        config.modify_buffer ? total - 1 : 0);
      util::fill_pattern(expect.data(), bytes, last_seed);
      for (int r = 0; r < n; ++r) {
        XHC_CHECK(std::memcmp(bufs[static_cast<std::size_t>(r)].get(),
                              expect.data(), bytes) == 0,
                  comp.name(), ": bcast payload mismatch at rank ", r,
                  " size ", bytes);
      }
    }

    results.push_back(summarize(acc, bytes, config.iters));
    hist.finish(config, bytes);
  }
  publish_verify_summary(machine, config.observer);
  return results;
}

std::vector<SizeResult> allreduce_sweep(mach::Machine& machine,
                                        coll::Component& comp,
                                        const std::vector<std::size_t>& sizes,
                                        const Config& config) {
  const int n = machine.n_ranks();
  if (config.observer != nullptr) comp.set_observer(config.observer);
  const DataPlane plane(machine, config);
  std::vector<SizeResult> results;
  results.reserve(sizes.size());

  for (const std::size_t bytes : sizes) {
    const std::size_t count = std::max<std::size_t>(bytes / sizeof(float), 1);
    const std::size_t real_bytes = count * sizeof(float);
    std::vector<mach::Buffer> sbufs;
    std::vector<mach::Buffer> rbufs;
    for (int r = 0; r < n; ++r) {
      // Send operands are fully rewritten before iteration 0; receive
      // operands may be read-modify-written by components, so stay zeroed
      // while bytes move.
      sbufs.emplace_back(machine, r, real_bytes, /*zero=*/false);
      rbufs.emplace_back(machine, r, real_bytes, !plane.timing_only());
    }
    std::vector<PaddedAcc> acc(static_cast<std::size_t>(n));
    SizeHist hist(config, n);

    const int total = config.warmup + config.iters;
    // Mind this closure's captures (here and in the other sweeps): their
    // count sizes its std::function heap block, and modeled latency
    // depends on heap placement through the registration cache (DESIGN.md
    // § Host data plane).
    machine.run([&](mach::Ctx& ctx) {
      const int r = ctx.rank();
      void* sbuf = sbufs[static_cast<std::size_t>(r)].get();
      void* rbuf = rbufs[static_cast<std::size_t>(r)].get();
      for (int it = 0; it < total; ++it) {
        if (config.modify_buffer || it == 0) {
          // Every rank refreshes its contribution (the payload actually
          // changes between calls in real applications, §V-A).
          const std::uint64_t seed = operand_seed(0xA000u, it, r);
          ctx.write_payload(sbuf, real_bytes, seed);
          if (config.verify) {
            // Swap the timed garbage bytes for verifiable operands. The
            // modeled write above already charged the rewrite, and this
            // host-side fill is unmodeled, so timings stay identical.
            util::fill_operands(static_cast<float*>(sbuf), count, seed);
          }
        }
        ctx.barrier();
        const double t0 = ctx.now();
        comp.allreduce(ctx, sbuf, rbuf, count, mach::DType::kF32,
                       mach::ROp::kSum);
        const double t1 = ctx.now();
        if (it >= config.warmup) {
          acc[static_cast<std::size_t>(r)].value += t1 - t0;
          hist.record(r, t1 - t0);
        }
      }
    });

    if (config.verify) {
      check_sums(comp, "allreduce", rbufs, 0, n - 1, 0xA000u,
                 config.modify_buffer ? total - 1 : 0, count);
    }
    results.push_back(summarize(acc, real_bytes, config.iters));
    hist.finish(config, real_bytes);
  }
  publish_verify_summary(machine, config.observer);
  return results;
}

std::vector<SizeResult> reduce_sweep(mach::Machine& machine,
                                     coll::Component& comp,
                                     const std::vector<std::size_t>& sizes,
                                     const Config& config) {
  const int n = machine.n_ranks();
  if (config.observer != nullptr) comp.set_observer(config.observer);
  const DataPlane plane(machine, config);
  std::vector<SizeResult> results;
  results.reserve(sizes.size());

  for (const std::size_t bytes : sizes) {
    const std::size_t count = std::max<std::size_t>(bytes / sizeof(float), 1);
    const std::size_t real_bytes = count * sizeof(float);
    std::vector<mach::Buffer> sbufs;
    std::vector<mach::Buffer> rbufs;
    for (int r = 0; r < n; ++r) {
      // As in allreduce_sweep.
      sbufs.emplace_back(machine, r, real_bytes, /*zero=*/false);
      rbufs.emplace_back(machine, r, real_bytes, !plane.timing_only());
    }
    std::vector<PaddedAcc> acc(static_cast<std::size_t>(n));
    SizeHist hist(config, n);

    const int total = config.warmup + config.iters;
    machine.run([&](mach::Ctx& ctx) {
      const int r = ctx.rank();
      void* sbuf = sbufs[static_cast<std::size_t>(r)].get();
      void* rbuf = rbufs[static_cast<std::size_t>(r)].get();
      for (int it = 0; it < total; ++it) {
        if (config.modify_buffer || it == 0) {
          const std::uint64_t seed = operand_seed(0xC000u, it, r);
          ctx.write_payload(sbuf, real_bytes, seed);
          if (config.verify) {
            util::fill_operands(static_cast<float*>(sbuf), count, seed);
          }
        }
        ctx.barrier();
        const double t0 = ctx.now();
        comp.reduce(ctx, sbuf, rbuf, count, mach::DType::kF32,
                    mach::ROp::kSum, config.root);
        const double t1 = ctx.now();
        if (it >= config.warmup) {
          acc[static_cast<std::size_t>(r)].value += t1 - t0;
          hist.record(r, t1 - t0);
        }
      }
    });

    if (config.verify) {
      check_sums(comp, "reduce", rbufs, config.root, config.root, 0xC000u,
                 config.modify_buffer ? total - 1 : 0, count);
    }
    results.push_back(summarize(acc, real_bytes, config.iters));
    hist.finish(config, real_bytes);
  }
  publish_verify_summary(machine, config.observer);
  return results;
}

double barrier_latency_us(mach::Machine& machine, coll::Component& comp,
                          const Config& config) {
  const int n = machine.n_ranks();
  if (config.observer != nullptr) comp.set_observer(config.observer);
  std::vector<PaddedAcc> acc(static_cast<std::size_t>(n));
  const int total = config.warmup + config.iters;
  machine.run([&](mach::Ctx& ctx) {
    for (int it = 0; it < total; ++it) {
      ctx.barrier();  // harness sync, outside the timed window
      const double t0 = ctx.now();
      comp.barrier(ctx);
      const double t1 = ctx.now();
      if (it >= config.warmup) {
        acc[static_cast<std::size_t>(ctx.rank())].value += t1 - t0;
      }
    }
  });
  double sum = 0.0;
  for (const auto& a : acc) sum += a.value;
  publish_verify_summary(machine, config.observer);
  return sum / n / config.iters * 1e6;
}

double pt2pt_latency_us(mach::Machine& machine, p2p::Fabric& fabric,
                        int rank_a, int rank_b, std::size_t bytes,
                        const Config& config) {
  XHC_REQUIRE(rank_a != rank_b, "need two distinct ranks");
  mach::Buffer buf_a(machine, rank_a, bytes);
  mach::Buffer buf_b(machine, rank_b, bytes);
  PaddedAcc acc;

  const int total = config.warmup + config.iters;
  machine.run([&](mach::Ctx& ctx) {
    const int r = ctx.rank();
    for (int it = 0; it < total; ++it) {
      if (r == rank_a && (config.modify_buffer || it == 0)) {
        ctx.write_payload(buf_a.get(), bytes,
                          0xB000u + static_cast<std::uint64_t>(it));
      }
      // Every rank joins the barrier; only the pair exchanges messages.
      ctx.barrier();
      if (r != rank_a && r != rank_b) continue;
      const double t0 = ctx.now();
      if (r == rank_a) {
        fabric.send(ctx, rank_b, it, buf_a.get(), bytes);
        fabric.recv(ctx, rank_b, total + it, buf_a.get(), bytes);
      } else {
        fabric.recv(ctx, rank_a, it, buf_b.get(), bytes);
        fabric.send(ctx, rank_a, total + it, buf_b.get(), bytes);
      }
      const double t1 = ctx.now();
      if (it >= config.warmup && r == rank_a) {
        acc.value += (t1 - t0) / 2.0;  // one-way latency
      }
    }
  });
  return acc.value / config.iters * 1e6;
}

}  // namespace xhc::osu
