// Buffer residency model (paper §V-A, Fig. 7).
//
// Tracks, per registered allocation, a version number (bumped whenever the
// buffer is written) and which caches hold the current version. A read is
// served from the nearest holder: the reader's own LLC group, the system-
// level cache, the producer's LLC group, or the buffer's home NUMA memory.
// This is what makes the cache-defeating `_mb` microbenchmark variants
// measurably different from the stock OSU ones, exactly as in the paper.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/coh_stats.h"
#include "sim/params.h"
#include "topo/topology.h"

namespace xhc::sim {

/// Where a read is served from, in the order the model prefers them.
enum class ServeKind : std::uint8_t {
  kLocalLlc,     ///< current version resident in the reader's LLC group
  kSlc,          ///< current version resident in the system-level cache
  kProducerLlc,  ///< current version resident in the producer's LLC group
  kMemory,       ///< home NUMA memory
};

const char* to_string(ServeKind k);

struct ServeInfo {
  ServeKind kind = ServeKind::kMemory;
  int src_numa = 0;    ///< NUMA node the data is served from
  int src_llc = -1;    ///< LLC group serving (kLocalLlc / kProducerLlc)
  topo::Distance distance = topo::Distance::kIntraNuma;
};

class CacheModel {
 public:
  CacheModel(const topo::Topology* topo, const SimParams* params);

  /// Registers an allocation; `home_numa` is its first-touch NUMA node.
  void add_block(std::uint64_t id, std::size_t bytes, int home_numa);
  void remove_block(std::uint64_t id);

  /// Buffer `id` (or a part of it) was written by `writer_core`:
  /// bump version, invalidate residency, record the producer.
  void on_write(std::uint64_t id, int writer_core);

  /// Resolves where a read of `bytes` bytes of buffer `id` by `reader_core`
  /// is served from, then updates residency (the reader's LLC group / the
  /// SLC now holds the current version, if the buffer fits).
  ServeInfo on_read(std::uint64_t id, int reader_core, std::size_t bytes);

  /// ServeInfo for an address that is not a registered block: modeled as
  /// reader-local memory.
  ServeInfo local_read(int reader_core) const;

  std::uint64_t version(std::uint64_t id) const;
  bool resident_in_llc(std::uint64_t id, int llc) const;

  /// Attaches the coherence-event accumulator (may be null). Not owned.
  /// Purely observational: ServeKind resolution and residency updates are
  /// identical whether or not stats are recorded.
  void set_stats(CohStats* stats) noexcept { stats_ = stats; }

 private:
  struct Block {
    std::size_t bytes = 0;
    int home_numa = 0;
    std::uint64_t version = 0;
    int producer_llc = -1;   ///< LLC group of the last writer (-1: none)
    bool in_slc = false;     ///< current version resident in the SLC
    /// LLC groups holding the current version. Every write clears this and
    /// read_progress; both keep their capacity, so steady state allocates
    /// nothing.
    std::vector<int> resident_llcs;
    /// Bytes of the current version pulled toward each LLC group (or the
    /// SLC, key -1). A cache becomes resident only once a block's worth of
    /// data has actually flowed there — chunked pulls are priced at the
    /// source until then (a first pull of a 1 MB buffer is not free after
    /// its first 16 KB chunk).
    std::vector<std::pair<int, std::size_t>> read_progress;

    bool resident(int llc) const noexcept;
    /// Adds `bytes` toward cache `key`; true once a block's worth arrived.
    bool pulled(int key, std::size_t bytes);
  };

  bool fits_llc(const Block& b) const noexcept;
  bool fits_slc(const Block& b) const noexcept;
  /// Distance class from `reader_core` to memory homed on `numa`.
  topo::Distance numa_distance(int reader_core, int numa) const;

  bool tracking() const noexcept {
    return stats_ != nullptr && stats_->enabled();
  }

  const topo::Topology* topo_;
  const SimParams* params_;
  CohStats* stats_ = nullptr;
  std::unordered_map<std::uint64_t, Block> blocks_;  ///< by block id
  std::vector<int> llc_rep_;      ///< first core of each LLC group
  std::vector<int> numa_socket_;  ///< socket of each NUMA node
};

}  // namespace xhc::sim
