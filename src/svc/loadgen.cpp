#include "svc/loadgen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "svc/telemetry.h"
#include "util/cacheline.h"
#include "util/check.h"
#include "util/prng.h"

namespace xhc::svc {

namespace {

/// Payload sizes straddle this edge, once the default stripe_threshold (ucc
/// and xhc-flat still stripe above it; xhc pipelines). It shapes the size
/// mix (log-uniform below, uniform above), so it stays put although
/// allreduces take rs+ag above the 8 KiB rs_ag_threshold.
constexpr std::size_t kLargeEdge = 128u << 10;

/// Verification sampling bound per request. Payloads at or below the bound
/// (in words / elements) are checked exhaustively; larger ones at this many
/// strided positions plus both edges. Keeps host-side verification cost flat
/// over a 100k-request soak while still catching corruption anywhere in the
/// buffer with high probability.
constexpr std::size_t kVerifySamples = 256;

/// Checks `n_bytes` of `p` against word `word` of the fill_pattern(seed)
/// stream (util::splitmix_word, little-endian byte order; any word is
/// reachable in O(1), so sampling never regenerates the whole pattern).
/// Returns false on any mismatch.
bool check_pattern_word(const unsigned char* p, std::uint64_t seed,
                        std::size_t word, std::size_t n_bytes) noexcept {
  const std::uint64_t v = util::splitmix_word(seed, word);
  for (std::size_t b = 0; b < n_bytes; ++b) {
    if (p[b] != static_cast<unsigned char>(v >> (8 * b))) return false;
  }
  return true;
}

bool verify_pattern(const void* buf, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(buf);
  const std::size_t words = bytes / 8;
  const std::size_t tail = bytes % 8;
  if (words <= kVerifySamples) {
    for (std::size_t w = 0; w < words; ++w) {
      if (!check_pattern_word(p + 8 * w, seed, w, 8)) return false;
    }
  } else {
    const std::size_t stride = words / kVerifySamples;
    for (std::size_t s = 0; s < kVerifySamples; ++s) {
      const std::size_t w = std::min(words - 1, s * stride);
      if (!check_pattern_word(p + 8 * w, seed, w, 8)) return false;
    }
    if (!check_pattern_word(p + 8 * (words - 1), seed, words - 1, 8)) {
      return false;
    }
  }
  if (tail != 0 && !check_pattern_word(p + 8 * words, seed, words, tail)) {
    return false;
  }
  return true;
}

/// Operand seed of `contributor`'s share of a reduction request; element i
/// of the share is util::operand(operand_seed(...), i).
std::uint64_t operand_seed(std::uint64_t req_seed, int contributor) noexcept {
  return req_seed + 1000ull * static_cast<std::uint64_t>(contributor);
}

/// Stride between the checked elements of a `count`-element reduction:
/// every element up to kVerifySamples, otherwise every
/// (count / kVerifySamples)-th — at most kMaxChecked elements either way.
std::size_t check_stride(std::size_t count) noexcept {
  return count <= kVerifySamples ? 1 : count / kVerifySamples;
}
constexpr std::size_t kMaxChecked = 2 * kVerifySamples - 1;

/// Writes into `ref`, per checked element in order, the double-precision
/// sum of all `n` contributors' operands.
void reduction_reference(double* ref, std::size_t count, std::uint64_t seed,
                         int n) noexcept {
  const std::size_t stride = check_stride(count);
  for (std::size_t i = 0; i < count; i += stride) {
    double expect = 0.0;
    for (int r = 0; r < n; ++r) {
      expect += static_cast<double>(util::operand(operand_seed(seed, r), i));
    }
    *ref++ = expect;
  }
}

/// Checks a float reduction result at the checked elements against its
/// request's reduction_reference().
bool verify_reduction(const float* got, std::size_t count,
                      const double* ref) noexcept {
  const std::size_t stride = check_stride(count);
  for (std::size_t i = 0; i < count; i += stride, ++ref) {
    const double tol = 1e-4 * std::max(1.0, std::abs(*ref));
    if (std::abs(static_cast<double>(got[i]) - *ref) > tol) return false;
  }
  return true;
}

/// Leader-written per-communicator block; heap-allocated one per
/// communicator so concurrent leaders (RealMachine) never share lines.
struct CommStats {
  std::array<OpClassStats, kNumOpClasses> cls;
  std::uint64_t backoff_stalls = 0;
  /// Reduction references (DESIGN.md § Host data plane): the leader writes
  /// request `index`'s into slot index % 3 before publishing its verdict,
  /// and the verifying members read it after their verdict wait. The
  /// slot's previous user, request index - 3, is done on every member:
  /// verdict index - 1 went out only after every member acked verdict
  /// index - 2, which a member does after finishing request index - 3.
  std::array<std::array<double, kMaxChecked>, 3> ref{};
};

}  // namespace

const char* to_string(OpClass c) noexcept {
  switch (c) {
    case OpClass::kBcast: return "bcast";
    case OpClass::kAllreduce: return "allreduce";
    case OpClass::kReduce: return "reduce";
    case OpClass::kBarrier: return "barrier";
    default: return "?";
  }
}

std::vector<CommSpec> make_comm_plan(int n_ranks, const LoadgenConfig& cfg,
                                     const coll::Tuning& base) {
  XHC_REQUIRE(n_ranks >= 2, "loadgen needs at least 2 ranks, got ", n_ranks);
  XHC_REQUIRE(cfg.n_comms >= 1, "loadgen needs at least 1 communicator");
  std::vector<CommSpec> plan;
  plan.reserve(static_cast<std::size_t>(cfg.n_comms));
  for (int c = 0; c < cfg.n_comms; ++c) {
    CommSpec spec;
    spec.name = "t" + std::to_string(c);
    spec.tuning = base;
    spec.tuning.faults = cfg.faults;
    // Decorrelate the per-communicator fault decision streams while keeping
    // the whole plan a function of (cfg, n_ranks) only.
    spec.tuning.fault_seed =
        cfg.fault_seed + static_cast<std::uint64_t>(c);
    if (c == 0) {
      // The root tenant spans the node: every rank overlaps with every
      // other communicator.
      for (int r = 0; r < n_ranks; ++r) spec.ranks.push_back(r);
    } else if (c % 3 == 2 && n_ranks >= 4) {
      // Strided subset: every other rank, offset alternating — crosses the
      // contiguous windows at single-rank granularity.
      for (int r = c % 2; r < n_ranks; r += 2) spec.ranks.push_back(r);
    } else {
      // Contiguous wrapping window of half the node, start rotating with c
      // so neighbouring communicators overlap on roughly half their ranks.
      const int w = std::max(2, n_ranks / 2);
      const int start = (c * n_ranks) / cfg.n_comms;
      for (int i = 0; i < w; ++i) {
        spec.ranks.push_back((start + i) % n_ranks);
      }
    }
    plan.push_back(std::move(spec));
  }
  return plan;
}

std::vector<Request> make_schedule(const LoadgenConfig& cfg,
                                   const CommRegistry& reg) {
  const int n_comms = reg.n_comms();
  XHC_REQUIRE(n_comms >= 1, "schedule needs at least one communicator");
  XHC_REQUIRE(cfg.arrival_rate > 0.0, "arrival rate must be positive");
  XHC_REQUIRE(cfg.min_bytes >= 4 && cfg.min_bytes <= cfg.max_bytes,
              "need 4 <= min_bytes <= max_bytes");

  const double rate = cfg.arrival_rate / static_cast<double>(n_comms);
  const std::size_t small_hi = std::min(cfg.max_bytes, kLargeEdge);
  const bool can_large = cfg.max_bytes > kLargeEdge;
  const double log_lo = std::log(static_cast<double>(cfg.min_bytes));
  const double log_hi = std::log(static_cast<double>(small_hi));

  std::vector<Request> all;
  all.reserve(cfg.requests);
  for (int c = 0; c < n_comms; ++c) {
    const std::uint64_t n_c =
        cfg.requests / static_cast<std::uint64_t>(n_comms) +
        (static_cast<std::uint64_t>(c) <
                 cfg.requests % static_cast<std::uint64_t>(n_comms)
             ? 1
             : 0);
    util::SplitMix64 rng(cfg.seed ^
                         (static_cast<std::uint64_t>(c) + 1) *
                             0x9e3779b97f4a7c15ull);
    double t = 0.0;
    for (std::uint64_t i = 0; i < n_c; ++i) {
      Request r;
      r.comm = c;
      r.index = i;
      // Exponential inter-arrivals (open loop: arrival times are fixed up
      // front, independent of service latency).
      t += -std::log(1.0 - rng.next_double()) / rate;
      r.arrival = t;
      const double uop = rng.next_double();
      r.op = uop < 0.30   ? OpClass::kBcast
             : uop < 0.60 ? OpClass::kAllreduce
             : uop < 0.80 ? OpClass::kReduce
                          : OpClass::kBarrier;
      if (r.op != OpClass::kBarrier) {
        std::size_t bytes;
        if (can_large && rng.next_double() < cfg.large_fraction) {
          // Uniform above the 128 KiB edge: the large bcasts and rs+ag
          // allreduces.
          bytes = kLargeEdge + 1 +
                  static_cast<std::size_t>(rng.next_below(
                      static_cast<std::uint64_t>(cfg.max_bytes - kLargeEdge)));
        } else {
          // Log-uniform below the edge: most requests are latency-path
          // (allreduces above 8 KiB take rs+ag on uniform tenants).
          bytes = static_cast<std::size_t>(
              std::exp(log_lo + (log_hi - log_lo) * rng.next_double()));
        }
        bytes = std::min(std::max(bytes, cfg.min_bytes), cfg.max_bytes);
        if (r.op != OpClass::kBcast) bytes &= ~std::size_t{3};  // f32 elems
        r.bytes = std::max<std::size_t>(bytes, 4);
        r.root = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(reg.comm(c).size())));
      }
      r.seed = rng.next();
      all.push_back(r);
    }
  }

  // One global total order: by arrival, ties by communicator then stream
  // index (fully deterministic). Every rank projects this order onto its
  // memberships, so shared ranks serve cross-communicator requests in the
  // same relative order everywhere — no cross-communicator deadlock.
  std::sort(all.begin(), all.end(), [](const Request& a, const Request& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    if (a.comm != b.comm) return a.comm < b.comm;
    return a.index < b.index;
  });
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i].id = static_cast<std::uint64_t>(i);
  }
  return all;
}

LoadgenResult run_loadgen(CommRegistry& reg,
                          const std::vector<Request>& schedule,
                          const LoadgenConfig& cfg) {
  mach::Machine& parent = reg.parent();
  const int n_parent = parent.n_ranks();
  const int n_comms = reg.n_comms();
  const Budget& budget = reg.arbiter().budget();
  Telemetry* const tele = cfg.telemetry;
  if (tele != nullptr) tele->attach(reg);

  // Largest payload per communicator: buffers are allocated once.
  std::vector<std::size_t> comm_max(static_cast<std::size_t>(n_comms), 64);
  for (const Request& r : schedule) {
    comm_max[static_cast<std::size_t>(r.comm)] =
        std::max(comm_max[static_cast<std::size_t>(r.comm)], r.bytes);
  }

  // Per (communicator, local rank) payload buffers, owned (first-touch) by
  // the member rank, double-buffered by request-index parity: there is no
  // barrier between requests, so a rank may pre-write its payload for
  // request i+1 while a slower member is still single-copy-reading request
  // i's buffers. The verdict-ack handshake bounds the lag at one request
  // (verdict i+1 needs every ack of i, and a member acks i only after
  // finishing i-1), so alternating two buffer sets closes the hazard.
  // `zero` keeps untouched bytes deterministic.
  std::vector<std::array<std::vector<mach::Buffer>, 2>> dst(
      static_cast<std::size_t>(n_comms));
  std::vector<std::array<std::vector<mach::Buffer>, 2>> src(
      static_cast<std::size_t>(n_comms));
  // Parent rank -> local rank per communicator, flattened for hot lookup.
  std::vector<std::vector<int>> local(static_cast<std::size_t>(n_comms));
  for (int c = 0; c < n_comms; ++c) {
    Communicator& comm = reg.comm(c);
    const auto cc = static_cast<std::size_t>(c);
    for (int par = 0; par < 2; ++par) {
      dst[cc][par].reserve(static_cast<std::size_t>(comm.size()));
      src[cc][par].reserve(static_cast<std::size_t>(comm.size()));
      for (int l = 0; l < comm.size(); ++l) {
        dst[cc][par].emplace_back(comm.machine(), l, comm_max[cc]);
        src[cc][par].emplace_back(comm.machine(), l, comm_max[cc]);
      }
    }
    local[cc].resize(static_cast<std::size_t>(n_parent));
    for (int r = 0; r < n_parent; ++r) {
      local[cc][static_cast<std::size_t>(r)] = comm.local_rank(r);
    }
  }

  // Per-communicator arrival times (ascending), for the backlog bound.
  std::vector<std::vector<double>> arrivals(static_cast<std::size_t>(n_comms));
  for (const Request& r : schedule) {
    arrivals[static_cast<std::size_t>(r.comm)].push_back(r.arrival);
  }

  // Leader-written stats, one heap block per communicator; member-written
  // integrity counters, one padded line per (communicator, local rank).
  std::vector<std::unique_ptr<CommStats>> stats;
  stats.reserve(static_cast<std::size_t>(n_comms));
  std::vector<std::vector<util::CachePadded<
      std::array<std::uint64_t, kNumOpClasses>>>>
      integ_fail(static_cast<std::size_t>(n_comms));
  for (int c = 0; c < n_comms; ++c) {
    stats.push_back(std::make_unique<CommStats>());
    integ_fail[static_cast<std::size_t>(c)].resize(
        static_cast<std::size_t>(reg.comm(c).size()));
  }

  const auto execute = [&](mach::Ctx& tctx, Communicator& comm,
                           const Request& r, int l) {
    const auto cc = static_cast<std::size_t>(r.comm);
    const auto ll = static_cast<std::size_t>(l);
    const auto par = static_cast<std::size_t>(r.index & 1);
    void* d = dst[cc][par][ll].get();
    void* s = src[cc][par][ll].get();
    bool ok = true;
    switch (r.op) {
      case OpClass::kBcast: {
        if (l == r.root) tctx.write_payload(d, r.bytes, r.seed);
        comm.component().bcast(tctx, d, r.bytes, r.root);
        if (cfg.integrity) ok = verify_pattern(d, r.bytes, r.seed);
        break;
      }
      case OpClass::kAllreduce:
      case OpClass::kReduce: {
        const std::size_t count = r.bytes / 4;
        const std::uint64_t seed = operand_seed(r.seed, l);
        // Modeled write charges the rewrite and invalidates the line set;
        // the host-side operand fill below is unmodeled (harness idiom), so
        // timing is independent of --integrity.
        tctx.write_payload(s, r.bytes, seed);
        if (cfg.integrity) {
          util::fill_operands(static_cast<float*>(s), count, seed);
        }
        const double* ref = stats[cc]->ref[r.index % 3].data();
        if (r.op == OpClass::kAllreduce) {
          comm.component().allreduce(tctx, s, d, count, mach::DType::kF32,
                                     mach::ROp::kSum);
          if (cfg.integrity) {
            ok = verify_reduction(static_cast<const float*>(d), count, ref);
          }
        } else {
          comm.component().reduce(tctx, s, d, count, mach::DType::kF32,
                                  mach::ROp::kSum, r.root);
          if (cfg.integrity && l == r.root) {
            ok = verify_reduction(static_cast<const float*>(d), count, ref);
          }
        }
        break;
      }
      case OpClass::kBarrier: {
        comm.component().barrier(tctx);
        break;
      }
      default: break;
    }
    if (!ok) {
      // First failure per (comm, rank, class) goes to stderr with full
      // request coordinates — a soak that fails should say where.
      if (integ_fail[cc][ll].value[static_cast<int>(r.op)] == 0) {
        std::fprintf(stderr,
                     "loadgen: integrity mismatch: %s %s id=%llu index=%llu "
                     "bytes=%zu root=%d local=%d\n",
                     comm.scope().c_str(), to_string(r.op),
                     static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.index), r.bytes,
                     r.root, l);
      }
      ++integ_fail[cc][ll].value[static_cast<int>(r.op)];
    }
  };

  const mach::RunResult rr = parent.run([&](mach::Ctx& ctx) {
    const int pr = ctx.rank();
    for (const Request& r : schedule) {
      const auto cc = static_cast<std::size_t>(r.comm);
      const int l = local[cc][static_cast<std::size_t>(pr)];
      if (l < 0) continue;
      Communicator& comm = reg.comm(r.comm);
      TenantCtx tctx(ctx, comm.machine());
      // Open loop: idle until the request's fixed arrival time.
      const double now0 = tctx.now();
      if (now0 < r.arrival) tctx.stall(r.arrival - now0);

      if (l != 0) {
        if (comm.await_verdict(ctx, r.index)) execute(tctx, comm, r, l);
        if (tele != nullptr) tele->tick(pr, tctx.now());
        continue;
      }

      // Admission leader: backlog bound, then deadline-aware exponential
      // backoff on the service-wide op-token pool.
      CommStats& st = *stats[cc];
      bool admitted = true;
      ReqOutcome oc = ReqOutcome::kCompleted;
      std::uint32_t backoffs = 0;
      const auto& arr = arrivals[cc];
      const auto due = static_cast<std::size_t>(
          std::upper_bound(arr.begin(), arr.end(), tctx.now()) - arr.begin());
      if (due > r.index + 1 && due - (r.index + 1) > budget.queue_capacity) {
        admitted = false;  // backlog beyond the queue bound: shed
        oc = ReqOutcome::kShedBacklog;
      } else {
        double backoff = budget.backoff_base;
        while (!reg.arbiter().try_acquire_op()) {
          const double waited = tctx.now() - r.arrival;
          if (waited >= budget.deadline) {
            admitted = false;  // deadline passed while backing off: shed
            oc = ReqOutcome::kShedDeadline;
            break;
          }
          // Stall at least one base quantum: the exact remainder
          // (deadline - waited) can be small enough that now + remainder
          // rounds back to now, and a zero-advance stall would spin here
          // forever without ever crossing the deadline.
          tctx.stall(std::min(
              backoff, std::max(budget.deadline - waited,
                                budget.backoff_base)));
          backoff = std::min(backoff * 2.0, budget.backoff_max);
          ++st.backoff_stalls;
          ++backoffs;
        }
      }
      const double vt = tele != nullptr ? tctx.now() : 0.0;
      if (admitted && cfg.integrity &&
          (r.op == OpClass::kAllreduce || r.op == OpClass::kReduce)) {
        reduction_reference(st.ref[r.index % 3].data(), r.bytes / 4, r.seed,
                            comm.size());
      }
      comm.publish_verdict(ctx, r.index, admitted);
      auto& cls = st.cls[static_cast<int>(r.op)];
      if (admitted) {
        execute(tctx, comm, r, l);
        reg.arbiter().release_op();
        const double end_t = tctx.now();
        cls.latency.record(end_t - r.arrival);
        ++cls.completed;
        if (tele != nullptr) {
          tele->on_request(r, ReqOutcome::kCompleted, vt, end_t, backoffs);
        }
      } else {
        ++cls.shed;
        if (tele != nullptr) tele->on_request(r, oc, vt, vt, backoffs);
      }
      if (tele != nullptr) tele->tick(pr, tctx.now());
    }
    // Loop-exit tick: whatever the last request left behind still lands in
    // a window, so counter-series totals are lossless.
    if (tele != nullptr) tele->tick(pr, ctx.now());
  });

  if (tele != nullptr) tele->finalize(reg, schedule);

  // Aggregate in communicator-id order: merges are bucket additions, so the
  // result is independent of which leader finished first.
  LoadgenResult out;
  out.makespan = rr.max_time;
  for (int c = 0; c < n_comms; ++c) {
    const auto cc = static_cast<std::size_t>(c);
    for (int k = 0; k < kNumOpClasses; ++k) {
      out.per_class[static_cast<std::size_t>(k)].latency.merge(
          stats[cc]->cls[static_cast<std::size_t>(k)].latency);
      out.per_class[static_cast<std::size_t>(k)].completed +=
          stats[cc]->cls[static_cast<std::size_t>(k)].completed;
      out.per_class[static_cast<std::size_t>(k)].shed +=
          stats[cc]->cls[static_cast<std::size_t>(k)].shed;
      for (const auto& f : integ_fail[cc]) {
        out.per_class[static_cast<std::size_t>(k)].integrity_failures +=
            f.value[static_cast<std::size_t>(k)];
      }
    }
    out.backoff_stalls += stats[cc]->backoff_stalls;
  }
  for (const auto& pc : out.per_class) {
    out.completed += pc.completed;
    out.shed += pc.shed;
    out.integrity_failures += pc.integrity_failures;
  }
  return out;
}

LoadgenResult run_soak(mach::Machine& parent, const LoadgenConfig& cfg,
                       const Budget& budget, const coll::Tuning& base) {
  Arbiter arbiter(budget);
  CommRegistry reg(parent, arbiter);
  for (const CommSpec& spec : make_comm_plan(parent.n_ranks(), cfg, base)) {
    reg.create(spec);
  }
  const std::vector<Request> schedule = make_schedule(cfg, reg);
  return run_loadgen(reg, schedule, cfg);
}

}  // namespace xhc::svc
