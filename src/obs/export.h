// Trace exporters (observability layer).
//
// write_chrome_trace emits the Trace Event Format JSON understood by
// Perfetto / chrome://tracing: one "process" (pid) per rank, complete ("X")
// events with microsecond timestamps. SimMachine traces therefore render on
// the virtual-time axis, RealMachine traces on the wall clock, with no
// difference in the file format.
//
// The histogram exporters turn merged obs::NamedHist sets into a console
// percentile table and a machine-readable JSON document (sparse buckets +
// exact count/sum/min/max, all in seconds).
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/hist.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace.h"

namespace xhc::obs {

// JSON building blocks shared by every exporter in the observability layer
// (traces, histograms, time series, the service telemetry plane). Escaping
// is minimal-but-safe; the number writers clamp NaN/Inf (no JSON spelling)
// so one bad value cannot corrupt a whole document.
void write_json_escaped(std::ostream& os, const char* s);
/// Fixed-point %.6f — microsecond timestamps at picosecond resolution.
void write_json_number(std::ostream& os, double v);
/// Full-precision %.17g — round-trips any double, byte-deterministic.
void write_json_number_exact(std::ostream& os, double v);

/// Writes `points` as one trace: a process per rank of the widest point
/// ("<label> rank 3") holding that rank's spans of every point in list
/// order, then its non-zero modeled coherence counters (is_coherence),
/// summed over the points, as Chrome counter ("C") events so Perfetto
/// renders coh_* tracks next to the span timeline.
void write_chrome_trace(std::ostream& os,
                        const std::vector<const Snapshot*>& points,
                        const std::string& label = "xhc");

/// Appends `spans` as complete ("X") events of process `pid`, thread `tid`,
/// each after a comma. The one span writer of every trace (svc::Telemetry's
/// too).
void write_span_events(std::ostream& os, const std::vector<Span>& spans,
                       int pid, int tid);

/// Percentile summary, one row per histogram (times reported in us).
util::Table hist_table(const std::vector<NamedHist>& hists);

/// Machine-readable histogram dump: exact count/sum/min/max/percentiles plus
/// the sparse non-zero buckets as [upper_bound_seconds, count] pairs.
void write_hist_json(std::ostream& os, const std::vector<NamedHist>& hists,
                     const std::string& label = "xhc");

/// Opens `path` (truncating) and hands it to `write`; throws util::Error
/// when the file (a `what` file: "trace", "histogram") cannot be written.
void write_file(const std::string& path, const char* what,
                const std::function<void(std::ostream&)>& write);

}  // namespace xhc::obs
