// Runtime-tunable parameters of the collective components — the equivalent
// of OpenMPI's MCA parameter mechanism the paper uses to configure XHC
// (chunk sizes per level, CICO threshold, hierarchy sensitivity, ...).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "smsc/mechanism.h"

namespace xhc::coll {

/// Layout of the leader→members progress flags (paper Fig. 10).
enum class FlagLayout {
  kSingle,             ///< one shared flag per group (XHC default)
  kMultiSharedLine,    ///< one flag per member, all in one cache line
  kMultiSeparateLines  ///< one flag per member, one cache line each
};

/// Synchronization style (paper §III-E, Fig. 4).
enum class SyncMethod {
  kSingleWriter,   ///< single-writer flags, no atomic RMW (XHC default)
  kAtomicFetchAdd  ///< atomic fetch-add counters (the sm baseline's style)
};

const char* to_string(FlagLayout l);
const char* to_string(SyncMethod s);

struct Tuning;

/// MCA-style parameter assignment, the configuration path the paper drives
/// through OpenMPI's `--mca` flags. Applies one `key=value` pair (e.g.
/// "xhc_fault=attach,rank=1", "xhc_fault_seed=42") to `t`; throws
/// util::Error on unknown keys or malformed values.
void apply_param(Tuning& t, std::string_view assignment);

struct Tuning {
  /// Hierarchy sensitivity: "flat", "numa", "socket", "numa+socket",
  /// "l3+numa+socket" (paper §III-A).
  std::string sensitivity = "numa+socket";

  /// Messages at or below this size use the copy-in-copy-out path
  /// (paper §III-D; default 1 KB).
  std::size_t cico_threshold = 1024;

  /// Pipeline chunk size per hierarchy level, innermost first; the last
  /// entry repeats for deeper levels (paper §III-B).
  std::vector<std::size_t> chunk_bytes = {kDefaultChunkBytes};

  /// Single-copy mechanism and registration caching (paper §III-C).
  smsc::Mechanism mechanism = smsc::Mechanism::kXpmem;
  bool reg_cache = true;
  /// Registration-cache capacity (mappings per endpoint); least-recently
  /// used mappings are evicted beyond it. The default is far above any
  /// communicator's working set, so eviction only engages when a test or
  /// deployment tightens it.
  std::size_t reg_cache_entries = 1024;

  /// Experiment variants.
  FlagLayout flag_layout = FlagLayout::kSingle;
  SyncMethod sync = SyncMethod::kSingleWriter;

  /// pt2pt layer (tuned baseline): eager/rendezvous switchover.
  std::size_t eager_threshold = 4096;

  /// CICO shared-segment size per rank.
  std::size_t cico_segment_bytes = 256 * 1024;

  /// Observability master switch (DESIGN.md § Observability): when false
  /// (default), components ignore any attached obs::Observer and span /
  /// counter sites cost one predictable branch — benchmark numbers are
  /// unaffected. When true, an attached Observer collects spans, metrics
  /// and latency histograms (DESIGN.md § Observatory).
  bool trace = false;

  /// Fault-injection plan (DESIGN.md § Fault injection & degradation),
  /// parsed by fault::Plan::parse. Empty (default) disables injection
  /// entirely — components hold no injector and fault sites cost one
  /// pointer test.
  std::string faults;
  /// Seed of the per-rank fault decision streams.
  std::uint64_t fault_seed = 1;

  /// Multi-tenant identity (DESIGN.md § Multi-tenant service). `comm_name`
  /// prefixes every ledger flag name of the component's control planes
  /// ("comm3'training'/ctl0/h0/announce"), so watchdog aborts and sim
  /// deadlock reports name the owning communicator; empty (the default)
  /// keeps the historical single-communicator names byte-identical.
  /// `comm_id` is matched against `comm=` fault-clause filters; -1 (the
  /// default) matches only clauses with no comm filter.
  std::string comm_name;
  int comm_id = -1;

  /// Size-class dispatcher (DESIGN.md § Large-message paths). Allreduce
  /// payloads strictly larger than `rs_ag_threshold` bytes take the
  /// hierarchical reduce-scatter + allgather path; bcast payloads strictly
  /// larger than `stripe_threshold` take the multi-leader striped path.
  /// Everything at or below a threshold runs the unchanged latency path
  /// (paper §III-B pipeline), so below-threshold behavior is bit-identical
  /// to a build without the large paths. 0 disables a large path entirely.
  /// RS+AG beats the binomial fan-in (its result pulled through the cache
  /// tree) between 8 and 10 KiB on the Epycs but only above 16 KiB on
  /// ARM-N1 (EXPERIMENTS.md § Allreduce size-class crossover); 8 KiB sits
  /// just below the Epycs' crossover and keeps ARM-N1 and the 4 KiB points
  /// on the fan-in.
  /// Striping stays off by default: under xhc's tree the hierarchical
  /// pipeline, whose upper levels pull along a chain once the payload leaves
  /// the cache (DESIGN.md § Large-message paths), beats it at every size
  /// from 256 KiB to 4 MiB. ucc and xhc-flat pin 128 KiB themselves, though
  /// on Fig. 8 it pays off for them only at some sizes and presets (ROADMAP
  /// item 3).
  std::size_t rs_ag_threshold = 8 * 1024;
  std::size_t stripe_threshold = 0;

  /// The one LLC switch (DESIGN.md § Cache tree, § Large-message paths).
  /// It nests the reduce-scatter + allgather shard plan down to the LLC
  /// level (core::shard_domains), so full-payload reads stay inside a
  /// shared cache, and on nodes whose cores share an LLC it ends every op
  /// that fits one pipeline chunk at every level on the cache tree: a
  /// bcast's fan-out, an allreduce's result and a reduce's or barrier's
  /// release go flat from the root, acks through the LLC groups. The flag
  /// tree keeps the plain sensitivity and the reductions. No `--tune` key: ucc turns it off to keep
  /// its topology-blind plan and its tree.
  bool llc_aware = true;

  /// Pipeline chunk size per hierarchy level for the large-message paths,
  /// innermost first, last entry repeating — the large paths move far more
  /// bytes per flag, so they default to coarser chunks than `chunk_bytes`.
  std::vector<std::size_t> large_chunk_bytes = {kDefaultLargeChunkBytes};

  /// Fallback pipeline chunk size, shared by the `chunk_bytes` default
  /// initializer and the empty-vector fallback of `chunk_for_level` (one
  /// source of truth; they silently diverged once).
  static constexpr std::size_t kDefaultChunkBytes = 16 * 1024;
  static constexpr std::size_t kDefaultLargeChunkBytes = 64 * 1024;

  std::size_t chunk_for_level(int level) const noexcept {
    return pick_chunk(chunk_bytes, level, kDefaultChunkBytes);
  }

  std::size_t large_chunk_for_level(int level) const noexcept {
    return pick_chunk(large_chunk_bytes, level, kDefaultLargeChunkBytes);
  }

 private:
  static std::size_t pick_chunk(const std::vector<std::size_t>& v, int level,
                                std::size_t fallback) noexcept {
    if (v.empty()) return fallback;
    const std::size_t i = static_cast<std::size_t>(level);
    return i < v.size() ? v[i] : v.back();
  }
};

}  // namespace xhc::coll
