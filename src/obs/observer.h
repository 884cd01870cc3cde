// Observer — the unit of observability plumbed through the stack.
//
// One Observer pairs a span Recorder with a Metrics registry for one
// machine's rank set. Components accept it through
// coll::Component::set_observer (collection additionally gated by the
// coll::Tuning::trace knob so default configurations pay only a null
// check), and the endpoint / control layers feed it through the component.
// After a run, the exporters in obs/export.h turn the recorder into a
// Chrome trace and summary_tables() into paper-style console tables.
#pragma once

#include <memory>
#include <vector>

#include "obs/hist.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "p2p/counters.h"
#include "util/table.h"

namespace xhc::obs {

class Observer {
 public:
  /// `span_capacity` is the per-rank ring size (power of two, see Recorder).
  explicit Observer(int n_ranks, std::size_t span_capacity = 1u << 14);

  Recorder& trace() noexcept { return trace_; }
  const Recorder& trace() const noexcept { return trace_; }
  Metrics& metrics() noexcept { return metrics_; }
  const Metrics& metrics() const noexcept { return metrics_; }
  HistSet& hists() noexcept { return hists_; }
  const HistSet& hists() const noexcept { return hists_; }

  int n_ranks() const noexcept { return metrics_.n_ranks(); }

  /// Folds a pt2pt traffic counter's distance classes into the registry
  /// (use for layers without live Observer plumbing, e.g. p2p::Fabric).
  /// Call once per counter, outside parallel regions.
  void absorb(const p2p::TrafficCounter& traffic);

  /// Per-(cat, name) span aggregation: count, total/avg/max duration.
  util::Table span_table() const;
  /// Non-zero counters (total over ranks) followed by set gauges. Rows are
  /// deterministically ordered by counter enum; with `per_rank`, each
  /// counter's non-zero per-rank values follow its total, ordered by rank,
  /// so the table diffs cleanly between runs.
  util::Table metrics_table(bool per_rank = false) const;

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

 private:
  Recorder trace_;
  Metrics metrics_;
  HistSet hists_;
};

/// Per-(cat, name) span aggregation over `recorders`, read in order and
/// each rank by rank: count, total/avg/max duration.
util::Table span_table(const std::vector<const Recorder*>& recorders);

}  // namespace xhc::obs
