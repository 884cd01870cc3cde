// OSU-style microbenchmark harness (paper §V-A).
//
// Mirrors the OSU suite's structure — warmup runs, timed iterations, mean
// latency — plus the authors' cache-defeating `_mb` variants that rewrite
// the payload before every call (Fig. 7): with `modify_buffer=false` the
// stock benchmark's buffer reuse lets the platform's caches hide the
// inter-domain traffic the collective actually generates.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "coll/component.h"
#include "mach/machine.h"
#include "p2p/fabric.h"

namespace xhc::osu {

struct Config {
  int warmup = 1;
  int iters = 2;
  bool modify_buffer = true;  ///< the `_mb` variant (default in §V)
  int root = 0;
  /// Payload verification after each size's sweep. Bcast compares the raw
  /// pattern bytes; allreduce and reduce additionally swap the timed
  /// garbage operands for bounded deterministic floats (exact multiples of
  /// 1/256, so the double-precision reference sum bounds the rounding error
  /// tightly) and check the result element-wise, on every rank for
  /// allreduce and on the root for reduce. The operand swap is host-side
  /// and unmodeled, so virtual timings are identical with verify on or off.
  /// It also selects the data plane: verifying sweeps move every payload
  /// byte, while sweeps without verification run on the machine's
  /// timing-only data plane when it has one (mach::Machine::
  /// set_timing_only) — same virtual times, no payload bytes moved.
  bool verify = true;
  /// When non-null, attached to the component before the sweep (the
  /// component's Tuning::trace must also be set for collection to engage).
  obs::Observer* observer = nullptr;
  /// When non-null, the collective sweeps append one merged histogram of
  /// per-iteration per-rank op latencies per message size (named with the
  /// size label). Ranks record into private rows inside the parallel region
  /// (single-writer, allocation-free) and the rows merge after the run —
  /// independent of `observer`, usable on either machine.
  std::vector<obs::NamedHist>* size_hists = nullptr;
};

struct SizeResult {
  std::size_t bytes = 0;
  double avg_us = 0.0;  ///< mean latency over ranks and iterations
  double min_us = 0.0;  ///< fastest rank
  double max_us = 0.0;  ///< slowest rank
};

/// Power-of-two sizes in [min_bytes, max_bytes].
std::vector<std::size_t> default_sizes(std::size_t min_bytes,
                                       std::size_t max_bytes);

/// Runs `body` (a benchmark's whole main) and converts any escaping
/// exception — verification mismatch, watchdog abort, bad flags — into an
/// error line on stderr and exit code 1, so shell pipelines and CI observe
/// failures instead of an unwound stack trace with an undefined status.
int guarded_main(const std::function<int()>& body) noexcept;

/// Executes fn(i) for every i in [0, n) over a pool of `jobs` host worker
/// threads (`jobs <= 1` runs inline on the caller, in index order;
/// `jobs == 0` means one per host core). Points must be independent — in
/// the bench binaries each one owns a private SimMachine, so the
/// simulations stay internally sequential and deterministic and a parallel
/// sweep produces byte-identical results to a sequential one; only the
/// dispatch order varies. If points throw, the lowest-index exception is
/// rethrown after the pool drains.
void run_points(std::size_t n, int jobs,
                const std::function<void(std::size_t)>& fn);

/// osu_bcast / osu_bcast_mb over one component.
std::vector<SizeResult> bcast_sweep(mach::Machine& machine,
                                    coll::Component& comp,
                                    const std::vector<std::size_t>& sizes,
                                    const Config& config);

/// osu_allreduce / osu_allreduce_mb (float sum).
std::vector<SizeResult> allreduce_sweep(mach::Machine& machine,
                                        coll::Component& comp,
                                        const std::vector<std::size_t>& sizes,
                                        const Config& config);

/// osu_reduce / osu_reduce_mb (float sum, root = Config::root).
std::vector<SizeResult> reduce_sweep(mach::Machine& machine,
                                     coll::Component& comp,
                                     const std::vector<std::size_t>& sizes,
                                     const Config& config);

/// osu_barrier: mean barrier latency.
double barrier_latency_us(mach::Machine& machine, coll::Component& comp,
                          const Config& config);

/// osu_barrier per rank: mean, fastest and slowest rank (bytes 0).
SizeResult barrier_result(mach::Machine& machine, coll::Component& comp,
                          const Config& config);

/// osu_latency: one-way pt2pt latency between two ranks (Fig. 1a, Fig. 3a).
double pt2pt_latency_us(mach::Machine& machine, p2p::Fabric& fabric,
                        int rank_a, int rank_b, std::size_t bytes,
                        const Config& config);

}  // namespace xhc::osu
