#include "obs/observer.h"

#include <algorithm>
#include <map>
#include <string>

namespace xhc::obs {

Observer::Observer(int n_ranks, std::size_t span_capacity)
    : trace_(n_ranks, span_capacity), metrics_(n_ranks), hists_(n_ranks) {
  metrics_.set_gauge(Gauge::kTraceCapacity, trace_.capacity());
}

Snapshot::Snapshot(const Recorder& rec)
    : recorded(rec.recorded()), dropped(rec.dropped()), metrics(rec.n_ranks()) {
  spans.reserve(static_cast<std::size_t>(rec.n_ranks()));
  for (int r = 0; r < rec.n_ranks(); ++r) spans.push_back(rec.spans(r));
}

Snapshot::Snapshot(const Observer& o) : Snapshot(o.trace()) {
  metrics.merge(o.metrics());
  for (int k = 0; k < kNumHistKinds; ++k) {
    const auto kind = static_cast<HistKind>(k);
    hists.merge(0, kind, o.hists().merged(kind));
  }
}

util::Table span_table(const std::vector<const Snapshot*>& points) {
  struct Agg {
    std::uint64_t count = 0;
    double total = 0.0;
    double max = 0.0;
  };
  // Ordered by (cat, name) for stable output.
  std::map<std::pair<std::string, std::string>, Agg> by_site;
  for (const Snapshot* p : points) {
    for (const std::vector<Span>& rank : p->spans) {
      for (const Span& s : rank) {
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

util::Table metrics_table(const std::vector<const Metrics*>& registries,
                          bool per_rank) {
  int width = 1;
  for (const Metrics* m : registries) width = std::max(width, m->n_ranks());
  Metrics merged(width);
  for (const Metrics* m : registries) merged.merge(*m);

  util::Table table({"Metric", "Total", "Per-rank avg"});
  // Counter-enum order first, then rank: stable across runs, so the table
  // can be diffed in tests and CI.
  for (int i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const std::uint64_t total = merged.total(c);
    if (total == 0) continue;
    table.add_row({to_string(c), std::to_string(total),
                   util::Table::fmt_double(static_cast<double>(total) /
                                           width)});
    if (per_rank) {
      for (int r = 0; r < width; ++r) {
        const std::uint64_t v = merged.value(r, c);
        if (v == 0) continue;
        table.add_row({std::string("  [r") + std::to_string(r) + "]",
                       std::to_string(v), "-"});
      }
    }
  }
  for (int i = 0; i < kNumGauges; ++i) {
    const auto g = static_cast<Gauge>(i);
    const std::uint64_t v = merged.gauge(g);
    if (v == 0) continue;
    table.add_row({to_string(g), std::to_string(v), "-"});
  }
  return table;
}

}  // namespace xhc::obs
