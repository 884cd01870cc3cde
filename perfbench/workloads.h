// The benchmark's workloads and the passes that run them.
//
// A pass builds fresh simulated machines and xhc components, runs the
// workload once, and returns host timings plus every modeled number it
// produced. Timed passes, the verification pass, the traced pass and the
// observability pass differ only in PassOptions, so all of them drive the
// library through the same public calls in the same order.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layers.h"
#include "obs/hist.h"

namespace perfbench {

enum class Kind { kOsuLatency, kOsuBandwidth, kSvcSoak };

struct Spec {
  Kind kind = Kind::kOsuLatency;
  std::string name;
  std::vector<std::string> presets;
  // osu-*: the jittered size axis and iteration counts.
  std::vector<std::size_t> bcast_sizes;
  std::vector<std::size_t> allreduce_sizes;
  bool barrier = false;
  int warmup = 1;
  int iters = 2;
  // svc-soak: loadgen parameters.
  std::uint64_t seed = 1;
  std::uint64_t requests = 0;
  double arrival_rate = 0.0;
  int tenants = 0;
};

/// Workload by name, inputs derived from `seed`. Throws on unknown names.
Spec make_spec(const std::string& name, std::uint64_t seed);

/// One modeled OSU point: mean latency over ranks and timed iterations.
struct Point {
  std::string preset;
  std::string op;  ///< "bcast", "allreduce" or "barrier"
  std::size_t bytes = 0;
  double us = 0.0;
};

/// Per-op-class service statistics of a soak (modeled).
struct SvcClass {
  std::string name;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
};

/// Modeled observability of one pass (critical paths and coherence).
struct ObsStats {
  /// op class -> level -> {wait seconds, rank-seconds inside ops}.
  std::map<std::string, std::map<int, double>> level_wait_s;
  std::map<std::string, double> op_rank_s;
  std::map<std::string, double> bound_wait_s;
  std::map<std::string, double> bound_total_s;
  std::uint64_t ops_analyzed = 0;
  std::uint64_t hitm = 0;
  std::uint64_t spin_refetch = 0;
  std::uint64_t invalidations = 0;
};

struct PassResult {
  double wall_s = 0.0;   ///< host seconds of the timed simulation calls
  double setup_s = 0.0;  ///< machine/component construction (+ svc setup)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  // Modeled results.
  std::vector<Point> points;            ///< osu-*
  std::vector<SvcClass> classes;        ///< svc-soak
  obs::Histogram op_latency;            ///< per-op latency distribution (s)
  std::map<std::string, double> virtual_s;  ///< preset -> virtual makespan
  std::uint64_t ops_done = 0;           ///< collective ops completed
  std::uint64_t regcache_hits = 0;
  std::uint64_t regcache_misses = 0;

  // svc-soak host phases (seconds) and arbiter activity.
  double plan_s = 0.0;
  double admit_s = 0.0;
  double schedule_s = 0.0;
  std::uint64_t backoff_stalls = 0;
};

struct PassOptions {
  bool verify = false;            ///< osu: verification decorators on
                                  ///< (svc: integrity is on in every pass)
  LayerClock* clock = nullptr;    ///< traced pass: decorate and attribute
  ObsStats* obs = nullptr;        ///< observability pass: spans + coherence
};

PassResult run_pass(const Spec& spec, const PassOptions& opt);

/// Quantile q of a latency histogram, interpolated linearly inside the
/// bucket that holds it. obs::Histogram::percentile returns the bucket's
/// upper bound, which made runs on different seeds read exactly alike.
double percentile(const obs::Histogram& h, double q);

/// Construction only (what PassResult::setup_s measures), torn down again.
double setup_only(const Spec& spec);

/// Self-test of the verification decorators: osu sweeps on a small node,
/// once clean and once with seeded corruption (failed points per run).
struct SelfTest {
  std::uint64_t clean_failed = 0;
  std::uint64_t corrupt_failed = 0;
  std::uint64_t corrupt_attempted = 0;
};
SelfTest run_selftest(std::uint64_t seed);

}  // namespace perfbench
