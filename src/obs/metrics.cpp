#include "obs/metrics.h"

#include "util/check.h"

namespace xhc::obs {

const char* to_string(Counter c) noexcept {
  switch (c) {
    case Counter::kCicoBytes:
      return "cico_bytes";
    case Counter::kSingleCopyBytes:
      return "single_copy_bytes";
    case Counter::kCmaBytes:
      return "cma_bytes";
    case Counter::kReduceBytes:
      return "reduce_bytes";
    case Counter::kChunksLevel0:
      return "chunks_level0";
    case Counter::kChunksLevel1:
      return "chunks_level1";
    case Counter::kChunksLevel2:
      return "chunks_level2";
    case Counter::kChunksDeeper:
      return "chunks_deeper";
    case Counter::kFlagWaits:
      return "flag_waits";
    case Counter::kFlagSpinIters:
      return "flag_spin_iters";
    case Counter::kRegCacheHits:
      return "reg_cache_hits";
    case Counter::kRegCacheMisses:
      return "reg_cache_misses";
    case Counter::kRegCacheEvictions:
      return "reg_cache_evictions";
    case Counter::kAttachBytes:
      return "attach_bytes";
    case Counter::kFaultAttachFails:
      return "fault_attach_fails";
    case Counter::kFaultExposeFails:
      return "fault_expose_fails";
    case Counter::kFaultRegMissForced:
      return "fault_forced_misses";
    case Counter::kFaultShmRetries:
      return "fault_shm_retries";
    case Counter::kFaultStalls:
      return "fault_straggler_stalls";
    case Counter::kFaultFlagDelays:
      return "fault_flag_delays";
    case Counter::kFaultFlagDrops:
      return "fault_flag_drops";
    case Counter::kFaultFallbacks:
      return "fault_fallbacks";
    case Counter::kCohLocalHit:
      return "coh_local_hit";
    case Counter::kCohLlcHit:
      return "coh_llc_hit";
    case Counter::kCohSlcHit:
      return "coh_slc_hit";
    case Counter::kCohHitm:
      return "coh_hitm";
    case Counter::kCohSpinRefetch:
      return "coh_spin_refetch";
    case Counter::kCohRemoteFill:
      return "coh_remote_fill";
    case Counter::kCohInval:
      return "coh_invalidations";
    case Counter::kCohOwnershipTransfer:
      return "coh_ownership_transfers";
    case Counter::kCohRmw:
      return "coh_rmw";
    case Counter::kCohBlockLocalLlc:
      return "coh_block_local_llc";
    case Counter::kCohBlockSlc:
      return "coh_block_slc";
    case Counter::kCohBlockProducerLlc:
      return "coh_block_producer_llc";
    case Counter::kCohBlockMemory:
      return "coh_block_memory";
    case Counter::kCohBlockInval:
      return "coh_block_invalidations";
    case Counter::kSloWindowsChecked:
      return "slo_windows_checked";
    case Counter::kSloViolations:
      return "slo_violations";
    case Counter::kCount_:
      break;
  }
  return "?";
}

const char* to_string(Gauge g) noexcept {
  switch (g) {
    case Gauge::kCtlBytes:
      return "ctl_bytes";
    case Gauge::kCtlGroups:
      return "ctl_groups";
    case Gauge::kCicoSegmentBytes:
      return "cico_segment_bytes";
    case Gauge::kTraceCapacity:
      return "trace_capacity";
    case Gauge::kVerifyFlagsTracked:
      return "verify_flags_tracked";
    case Gauge::kVerifyStoresChecked:
      return "verify_stores_checked";
    case Gauge::kVerifyLoadsChecked:
      return "verify_loads_checked";
    case Gauge::kVerifyViolations:
      return "verify_violations";
    case Gauge::kVerifyExpectedFindings:
      return "verify_expected_findings";
    case Gauge::kCount_:
      break;
  }
  return "?";
}

Metrics::Metrics(int n_ranks) {
  XHC_REQUIRE(n_ranks > 0, "metrics need at least one rank");
  rows_ = std::vector<Row>(static_cast<std::size_t>(n_ranks));
}

std::uint64_t Metrics::total(Counter c) const noexcept {
  std::uint64_t sum = 0;
  for (const Row& row : rows_) sum += row.v[static_cast<int>(c)];
  return sum;
}

void Metrics::reset_counters() {
  for (Row& row : rows_) {
    for (auto& v : row.v) v = 0;
  }
}

void Metrics::merge(const Metrics& other) {
  XHC_REQUIRE(other.n_ranks() <= n_ranks(), "merging a ", other.n_ranks(),
              "-rank registry into a ", n_ranks(), "-rank one");
  for (std::size_t r = 0; r < other.rows_.size(); ++r) {
    for (int i = 0; i < kNumCounters; ++i) rows_[r].v[i] += other.rows_[r].v[i];
  }
  for (int g = 0; g < kNumGauges; ++g) gauges_[g] += other.gauges_[g];
}

}  // namespace xhc::obs
