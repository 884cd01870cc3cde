// Typed counter / gauge registry (observability layer).
//
// Counters are per-rank cumulative event counts, written only by the owning
// rank's thread (line-padded rows, no atomics needed) and aggregated after
// the parallel region ends. They generalize the ad-hoc statistics that grew
// inside individual layers — smsc::RegCache::Stats' hit/miss counts among
// them — into one registry every layer can feed. Gauges are set-once
// configuration facts (control-block bytes, group counts) recorded from the
// constructing thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/cacheline.h"

namespace xhc::obs {

/// Cumulative per-rank event counters. Keep to_string in metrics.cpp in
/// sync when extending.
enum class Counter : int {
  // Data movement.
  kCicoBytes = 0,     ///< bytes moved through the copy-in-copy-out path
  kSingleCopyBytes,   ///< bytes moved through the single-copy (XPMEM) path
  kCmaBytes,          ///< single-copy bytes carried by CMA/KNEM fallbacks
                      ///< (XPMEM degradation chain, DESIGN.md § Fault)
  kReduceBytes,       ///< bytes read-modify-written by reduction kernels
  kChunksLevel0,      ///< pipeline chunks processed at hierarchy level 0
  kChunksLevel1,      ///< ... level 1
  kChunksLevel2,      ///< ... level 2
  kChunksDeeper,      ///< ... level 3 and beyond
  // Synchronization.
  kFlagWaits,         ///< blocking flag waits entered
  kFlagSpinIters,     ///< spin/yield iterations (Real) or suspensions (Sim)
  // Registration cache (absorbs smsc::RegCache::Stats).
  kRegCacheHits,
  kRegCacheMisses,
  kRegCacheEvictions,
  kAttachBytes,       ///< bytes covered by attach calls (hit or miss)
  // Fault injection & graceful degradation (src/fault/).
  kFaultAttachFails,    ///< injected attach failures observed
  kFaultExposeFails,    ///< injected expose failures (retried)
  kFaultRegMissForced,  ///< registration-cache misses forced by injection
  kFaultShmRetries,     ///< shm allocation retries before success/degrade
  kFaultStalls,         ///< straggler stalls injected
  kFaultFlagDelays,     ///< delayed flag publications
  kFaultFlagDrops,      ///< dropped flag publications
  kFaultFallbacks,      ///< owners degraded down the mechanism chain
  // Modeled coherence counters (sim::CohStats, published by SimMachine as
  // deltas so repeated publishes / reset_counters never double-count).
  kCohLocalHit,          ///< flag-line read hit an unowned/self-owned line
  kCohLlcHit,            ///< flag-line read served by a same-LLC peer copy
  kCohSlcHit,            ///< flag-line read served by the SLC (ARM)
  kCohHitm,              ///< read serviced by the remote dirty owner's core
  kCohSpinRefetch,       ///< spinner copy invalidated by a mid-wait store
  kCohRemoteFill,        ///< clean remote line fill (providing LLC group)
  kCohInval,             ///< stores that broadcast-invalidated sharers
  kCohOwnershipTransfer, ///< exclusive ownership moved between cores
  kCohRmw,               ///< atomic RMWs issued on flag lines
  kCohBlockLocalLlc,     ///< payload read served from the reader's LLC
  kCohBlockSlc,          ///< payload read served from the SLC
  kCohBlockProducerLlc,  ///< payload read served from the producer's LLC
  kCohBlockMemory,       ///< payload read served from home NUMA memory
  kCohBlockInval,        ///< payload version bumps over live cached copies
  // SLO monitor (svc::Telemetry): per-window latency-target evaluation.
  kSloWindowsChecked,    ///< (rule, window) pairs with at least one sample
  kSloViolations,        ///< (rule, window) pairs exceeding their target
  kCount_  // sentinel
};

/// True for the modeled-coherence counter range (chrome-trace counter
/// events and the --coherence consumers select on it).
constexpr bool is_coherence(Counter c) noexcept {
  return c >= Counter::kCohLocalHit && c <= Counter::kCohBlockInval;
}

/// Set-once configuration gauges.
enum class Gauge : int {
  kCtlBytes = 0,       ///< shared control-block bytes allocated
  kCtlGroups,          ///< hierarchy groups built
  kCicoSegmentBytes,   ///< per-rank CICO segment size
  kTraceCapacity,      ///< spans retained per rank
  // Protocol verifier summary (src/verify/), published by the OSU harness
  // from the machine's ledger after each sweep.
  kVerifyFlagsTracked,     ///< flags registered with the verifier
  kVerifyStoresChecked,    ///< flag stores routed through the ledger
  kVerifyLoadsChecked,     ///< flag reads / wait-resumes cross-checked
  kVerifyViolations,       ///< protocol violations recorded
  kVerifyExpectedFindings, ///< whitelisted findings (Fig. 10 packed layout)
  kCount_  // sentinel
};

const char* to_string(Counter c) noexcept;
const char* to_string(Gauge g) noexcept;

constexpr int kNumCounters = static_cast<int>(Counter::kCount_);
constexpr int kNumGauges = static_cast<int>(Gauge::kCount_);

class Metrics {
 public:
  explicit Metrics(int n_ranks);

  int n_ranks() const noexcept { return static_cast<int>(rows_.size()); }

  /// Adds `delta` to `rank`'s counter. Must be called from the thread
  /// executing `rank` (single-writer rows). Wait-free.
  void add(int rank, Counter c, std::uint64_t delta) noexcept {
    rows_[static_cast<std::size_t>(rank)].v[static_cast<int>(c)] += delta;
  }

  /// `rank`'s cumulative count (read after the parallel region).
  std::uint64_t value(int rank, Counter c) const noexcept {
    return rows_[static_cast<std::size_t>(rank)].v[static_cast<int>(c)];
  }

  /// Sum over ranks (read after the parallel region).
  std::uint64_t total(Counter c) const noexcept;

  void set_gauge(Gauge g, std::uint64_t v) noexcept {
    gauges_[static_cast<std::size_t>(g)] = v;
  }
  std::uint64_t gauge(Gauge g) const noexcept {
    return gauges_[static_cast<std::size_t>(g)];
  }

  /// Zeroes every counter (gauges persist). Call outside parallel regions.
  void reset_counters();

  /// Adds `other`'s rank r counters into rank r and its gauges into ours
  /// (`other` may be narrower). Call after both parallel regions end.
  void merge(const Metrics& other);

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

 private:
  /// One rank's counters; alignment keeps writers on distinct lines.
  struct alignas(util::kCacheLine) Row {
    std::uint64_t v[kNumCounters] = {};
  };

  std::vector<Row> rows_;
  std::uint64_t gauges_[kNumGauges] = {};
};

}  // namespace xhc::obs
