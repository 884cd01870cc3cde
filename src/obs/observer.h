// Observer — the unit of observability plumbed through the stack.
//
// One Observer pairs a span Recorder with a Metrics registry for one
// machine's rank set. Components accept it through
// coll::Component::set_observer (collection additionally gated by the
// coll::Tuning::trace knob so default configurations pay only a null
// check), and the endpoint / control layers feed it through the component.
// After a run, a Snapshot keeps what the reports read; the reports below
// and in obs/export.h merge a list of them into console tables and a trace.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/hist.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

 private:
  Recorder trace_;
  Metrics metrics_;
  HistSet hists_;
};

/// What the reports read of a finished observer, a fraction of its rings
/// and per-rank rows: a sweep keeps one per point and frees the observer.
struct Snapshot {
  /// Spans only: zero counters and empty histograms.
  explicit Snapshot(const Recorder& rec);
  explicit Snapshot(const Observer& o);

  std::vector<std::vector<Span>> spans;  ///< [rank], oldest first
  std::uint64_t recorded = 0;            ///< retained + dropped
  std::uint64_t dropped = 0;             ///< lost to ring wrap-around
  Metrics metrics;
  HistSet hists{1};  ///< the observer's, merged over ranks
};

// --- list-based reports: each reads its list in order -----------------------

/// Per-(cat, name) span aggregation, each snapshot read rank by rank:
/// count, total/avg/max duration.
util::Table span_table(const std::vector<const Snapshot*>& points);

/// Non-zero counter totals, then non-zero gauges, in enum order (with
/// `per_rank`, each total's non-zero per-rank values follow). Counters and
/// gauges alike sum over the list, rank r of each registry into rank r
/// (DESIGN.md § Observability); the per-rank average divides by the widest.
util::Table metrics_table(const std::vector<const Metrics*>& registries,
                          bool per_rank = false);

}  // namespace xhc::obs
