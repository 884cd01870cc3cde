// Deterministic load generator for the multi-tenant collective service
// (DESIGN.md § Multi-tenant service).
//
// Seed-driven open-loop arrivals (SplitMix64 per communicator, like
// fault::), mixed bcast/allreduce/reduce/barrier streams with irregular
// sizes straddling a 128 KiB edge (and, below it, the 8 KiB rs+ag
// threshold), per-request payload integrity verification (splitmix-generated
// operands checked at completion), and p50/p99/p999 latency per op class
// through the hist layer.
//
// Every rank executes the projection of ONE global arrival order onto its
// communicators, so cross-communicator request ordering is identical on
// every rank — collectives from different communicators can interleave
// freely in time but never cross in program order on a shared rank, which
// (together with deadline-based shedding of op-token waits) keeps the
// service deadlock-free by construction.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/hist.h"
#include "svc/registry.h"

namespace xhc::svc {

class Telemetry;  // svc/telemetry.h

/// Operation classes of the generated stream.
enum class OpClass : int { kBcast = 0, kAllreduce, kReduce, kBarrier, kCount_ };
inline constexpr int kNumOpClasses = static_cast<int>(OpClass::kCount_);
const char* to_string(OpClass c) noexcept;

/// One generated request.
struct Request {
  std::uint64_t id = 0;     ///< global arrival order (schedule position)
  int comm = 0;             ///< communicator id
  std::uint64_t index = 0;  ///< per-communicator stream index (verdict epoch)
  OpClass op = OpClass::kBarrier;
  std::size_t bytes = 0;    ///< payload bytes (0 for barrier)
  int root = 0;             ///< communicator-local root (bcast/reduce)
  double arrival = 0.0;     ///< open-loop arrival time, seconds from start
  std::uint64_t seed = 0;   ///< payload pattern / operand seed
};

struct LoadgenConfig {
  int n_comms = 8;
  std::uint64_t requests = 10000;  ///< total across all communicators
  /// Mean total arrival rate (requests/second of virtual time), split
  /// evenly across communicators; inter-arrivals are exponential.
  double arrival_rate = 2e5;
  std::uint64_t seed = 1;
  bool integrity = true;  ///< verify payloads at completion
  std::size_t min_bytes = 8;
  std::size_t max_bytes = 512u << 10;
  /// Fraction of payload sizes drawn above the 128 KiB edge (the rest are
  /// log-uniform below).
  double large_fraction = 0.05;
  /// Fault spec applied to every communicator's component (supports comm=
  /// filters to target one tenant); fault_seed is decorrelated per comm.
  std::string faults;
  std::uint64_t fault_seed = 1;
  /// Optional service telemetry plane (svc/telemetry.h). Null (the default)
  /// keeps the loadgen hot path bit-identical to the un-instrumented build;
  /// non-null, run_loadgen attaches it to the registry, every rank ticks
  /// windowed counter samples per projected request, and the admission
  /// leaders record per-request causal chains. Must outlive the run.
  Telemetry* telemetry = nullptr;
};

/// Deterministic communicator plan over `n_ranks` parent ranks: communicator
/// 0 spans every rank; the rest are contiguous wrapping windows of half the
/// node plus strided subsets, so rank sets overlap heavily (the regime the
/// ledger must police). Structure depends only on (n_ranks, n_comms).
std::vector<CommSpec> make_comm_plan(int n_ranks, const LoadgenConfig& cfg,
                                     const coll::Tuning& base);

/// The merged open-loop schedule over `reg`'s communicators, sorted by
/// (arrival, comm): the global total order every rank projects.
std::vector<Request> make_schedule(const LoadgenConfig& cfg,
                                   const CommRegistry& reg);

/// Per-op-class completion statistics (latency = completion - arrival,
/// recorded once per admitted request by the admission leader).
struct OpClassStats {
  obs::Histogram latency;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t integrity_failures = 0;
};

struct LoadgenResult {
  std::array<OpClassStats, kNumOpClasses> per_class;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t integrity_failures = 0;
  std::uint64_t backoff_stalls = 0;  ///< op-token retries across leaders
  double makespan = 0.0;             ///< slowest rank's completion time
};

/// Runs `schedule` over `reg` on the parent machine (one run() carrying all
/// communicators' collectives at once). Deterministic on SimMachine for a
/// fixed schedule.
LoadgenResult run_loadgen(CommRegistry& reg, const std::vector<Request>& schedule,
                          const LoadgenConfig& cfg);

/// Convenience: plan communicators, admit them against a fresh Arbiter with
/// `budget`, generate the schedule and run it.
LoadgenResult run_soak(mach::Machine& parent, const LoadgenConfig& cfg,
                       const Budget& budget, const coll::Tuning& base = {});

}  // namespace xhc::svc
