#include "obs/observer.h"

#include <algorithm>
#include <map>
#include <string>

namespace xhc::obs {

Observer::Observer(int n_ranks, std::size_t span_capacity)
    : trace_(n_ranks, span_capacity), metrics_(n_ranks), hists_(n_ranks) {
  metrics_.set_gauge(Gauge::kTraceCapacity, trace_.capacity());
}

void Observer::absorb(const p2p::TrafficCounter& traffic) {
  // Attribution to individual ranks is lost; book under rank 0 so totals
  // stay correct.
  metrics_.add(0, Counter::kMsgIntraNuma, traffic.intra_numa());
  metrics_.add(0, Counter::kMsgInterNuma, traffic.inter_numa());
  metrics_.add(0, Counter::kMsgInterSocket, traffic.inter_socket());
}

util::Table Observer::span_table() const { return obs::span_table({&trace_}); }

util::Table span_table(const std::vector<const Recorder*>& recorders) {
  struct Agg {
    std::uint64_t count = 0;
    double total = 0.0;
    double max = 0.0;
  };
  // Ordered by (cat, name) for stable output.
  std::map<std::pair<std::string, std::string>, Agg> by_site;
  for (const Recorder* rec : recorders) {
    for (int r = 0; r < rec->n_ranks(); ++r) {
      for (const Span& s : rec->spans(r)) {
        Agg& a = by_site[{s.cat, s.name}];
        ++a.count;
        const double d = s.t1 - s.t0;
        a.total += d;
        a.max = std::max(a.max, d);
      }
    }
  }

  util::Table table({"Cat", "Span", "Count", "Total us", "Avg us", "Max us"});
  for (const auto& [site, a] : by_site) {
    table.add_row({site.first, site.second, std::to_string(a.count),
                   util::Table::fmt_double(a.total * 1e6),
                   util::Table::fmt_double(a.total * 1e6 /
                                           static_cast<double>(a.count)),
                   util::Table::fmt_double(a.max * 1e6)});
  }
  return table;
}

util::Table Observer::metrics_table(bool per_rank) const {
  util::Table table({"Metric", "Total", "Per-rank avg"});
  // Counter-enum order first, then rank: stable across runs, so the table
  // can be diffed in tests and CI.
  for (int i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const std::uint64_t total = metrics_.total(c);
    if (total == 0) continue;
    table.add_row({to_string(c), std::to_string(total),
                   util::Table::fmt_double(static_cast<double>(total) /
                                           n_ranks())});
    if (per_rank) {
      for (int r = 0; r < n_ranks(); ++r) {
        const std::uint64_t v = metrics_.value(r, c);
        if (v == 0) continue;
        table.add_row({std::string("  [r") + std::to_string(r) + "]",
                       std::to_string(v), "-"});
      }
    }
  }
  for (int i = 0; i < kNumGauges; ++i) {
    const auto g = static_cast<Gauge>(i);
    const std::uint64_t v = metrics_.gauge(g);
    if (v == 0) continue;
    table.add_row({to_string(g), std::to_string(v), "-"});
  }
  return table;
}

}  // namespace xhc::obs
