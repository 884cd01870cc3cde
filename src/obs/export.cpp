#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "util/check.h"

namespace xhc::obs {

/// Minimal JSON string escaping; span names are static literals, but the
/// caller-supplied label is arbitrary.
void write_json_escaped(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Control characters are illegal raw; drop them.
          break;
        }
        os << c;
    }
  }
  os << '"';
}

void write_json_number(std::ostream& os, double v) {
  // NaN/Inf have no JSON representation ("%.6f" would emit "nan"/"inf" and
  // corrupt the file); clamp so one bad span can't break the whole trace.
  if (!std::isfinite(v)) {
    os << (std::isnan(v) ? "0" : (v > 0.0 ? "1e308" : "-1e308"));
    return;
  }
  // Chrome expects microseconds; virtual-time spans can be sub-ns apart,
  // so keep picosecond resolution.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  os << buf;
}

/// Full-precision variant for values in seconds (histogram bounds go down
/// to 2^-44 s; fixed-point formatting would flatten them to zero).
void write_json_number_exact(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << (std::isnan(v) ? "0" : (v > 0.0 ? "1e308" : "-1e308"));
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

void write_span_events(std::ostream& os, const std::vector<Span>& spans,
                       int pid, int tid) {
  for (const Span& s : spans) {
    os << ",{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"cat\":";
    write_json_escaped(os, s.cat);
    os << ",\"name\":";
    write_json_escaped(os, s.name);
    os << ",\"ts\":";
    write_json_number(os, s.t0 * 1e6);
    os << ",\"dur\":";
    write_json_number(os, (s.t1 - s.t0) * 1e6);
    os << ",\"args\":{\"arg\":" << s.arg << "}}";
  }
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<const Snapshot*>& points,
                        const std::string& label) {
  int width = 0;
  for (const Snapshot* p : points) {
    width = std::max(width, p->metrics.n_ranks());
  }
  // Modeled coherence counters as counter events: whole-run aggregates,
  // placed at ts 0 (the counters are cumulative, not per-span).
  Metrics counters(std::max(width, 1));
  for (const Snapshot* p : points) counters.merge(p->metrics);

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (int r = 0; r < width; ++r) {
    // Process-name metadata so Perfetto labels each rank's track.
    if (r != 0) os << ',';
    os << "{\"ph\":\"M\",\"pid\":" << r
       << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":";
    write_json_escaped(os, (label + " rank " + std::to_string(r)).c_str());
    os << "}},{\"ph\":\"M\",\"pid\":" << r
       << ",\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":";
    write_json_escaped(os, ("rank " + std::to_string(r)).c_str());
    os << "}}";
    for (const Snapshot* p : points) {
      if (static_cast<std::size_t>(r) < p->spans.size()) {
        write_span_events(os, p->spans[static_cast<std::size_t>(r)], r, 0);
      }
    }
    for (int i = 0; i < kNumCounters; ++i) {
      const auto c = static_cast<Counter>(i);
      if (!is_coherence(c)) continue;
      const std::uint64_t v = counters.value(r, c);
      if (v == 0) continue;
      os << ",{\"ph\":\"C\",\"pid\":" << r << ",\"tid\":0,\"name\":";
      write_json_escaped(os, to_string(c));
      os << ",\"ts\":0,\"args\":{\"value\":" << v << "}}";
    }
  }
  os << "]}\n";
}

util::Table hist_table(const std::vector<NamedHist>& hists) {
  util::Table t({"Hist", "Count", "Mean us", "p50 us", "p90 us", "p99 us",
                 "Max us"});
  for (const NamedHist& nh : hists) {
    const Histogram& h = nh.hist;
    t.add_row({nh.name, std::to_string(h.count()),
               util::Table::fmt_double(h.mean() * 1e6, 3),
               util::Table::fmt_double(h.percentile(0.50) * 1e6, 3),
               util::Table::fmt_double(h.percentile(0.90) * 1e6, 3),
               util::Table::fmt_double(h.percentile(0.99) * 1e6, 3),
               util::Table::fmt_double(h.max() * 1e6, 3)});
  }
  return t;
}

void write_hist_json(std::ostream& os, const std::vector<NamedHist>& hists,
                     const std::string& label) {
  os << "{\"label\":";
  write_json_escaped(os, label.c_str());
  os << ",\"unit\":\"seconds\",\"histograms\":[";
  bool first = true;
  for (const NamedHist& nh : hists) {
    const Histogram& h = nh.hist;
    if (!first) os << ',';
    first = false;
    os << "{\"name\":";
    write_json_escaped(os, nh.name.c_str());
    os << ",\"count\":" << h.count() << ",\"sum\":";
    write_json_number_exact(os, h.sum());
    os << ",\"min\":";
    write_json_number_exact(os, h.min());
    os << ",\"max\":";
    write_json_number_exact(os, h.max());
    os << ",\"p50\":";
    write_json_number_exact(os, h.percentile(0.50));
    os << ",\"p90\":";
    write_json_number_exact(os, h.percentile(0.90));
    os << ",\"p99\":";
    write_json_number_exact(os, h.percentile(0.99));
    os << ",\"buckets\":[";
    bool first_b = true;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const std::uint64_t c = h.bucket_count(i);
      if (c == 0) continue;
      if (!first_b) os << ',';
      first_b = false;
      os << '[';
      write_json_number_exact(os, Histogram::bucket_upper(i));
      os << ',' << c << ']';
    }
    os << "]}";
  }
  os << "]}\n";
}

void write_file(const std::string& path, const char* what,
                const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path, std::ios::trunc);
  XHC_CHECK(os.good(), "cannot open ", what, " file ", path);
  write(os);
  os.flush();
  XHC_CHECK(os.good(), "failed writing ", what, " file ", path);
}

}  // namespace xhc::obs
