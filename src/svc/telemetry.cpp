#include "svc/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>

#include "obs/export.h"
#include "svc/registry.h"
#include "util/check.h"

namespace xhc::svc {

namespace {

/// Exact metric over an ascending-sorted sample vector. Percentiles use the
/// ceil(q*n) rank (1-based), the same convention obs::Histogram reports,
/// but exact — per-window samples are few, so sorting beats bucketing.
double metric_value(const std::vector<double>& sorted, SloRule::Metric m) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  const auto pick = [&](double q) {
    auto idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (idx > 0) --idx;
    if (idx >= n) idx = n - 1;
    return sorted[idx];
  };
  switch (m) {
    case SloRule::Metric::kP50: return pick(0.50);
    case SloRule::Metric::kP90: return pick(0.90);
    case SloRule::Metric::kP99: return pick(0.99);
    case SloRule::Metric::kP999: return pick(0.999);
    case SloRule::Metric::kMax: return sorted.back();
    case SloRule::Metric::kMean: {
      double sum = 0.0;
      for (const double v : sorted) sum += v;
      return sum / static_cast<double>(n);
    }
  }
  return 0.0;
}

std::string trimmed(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

}  // namespace

const char* to_string(ReqOutcome o) noexcept {
  switch (o) {
    case ReqOutcome::kNone: return "none";
    case ReqOutcome::kCompleted: return "completed";
    case ReqOutcome::kShedBacklog: return "shed_backlog";
    case ReqOutcome::kShedDeadline: return "shed_deadline";
  }
  return "?";
}

std::vector<SloRule> parse_slo(const std::string& spec) {
  std::vector<SloRule> rules;
  std::string token;
  const auto flush = [&] {
    const std::string t = trimmed(token);
    token.clear();
    if (t.empty()) return;
    const auto colon = t.find(':');
    XHC_REQUIRE(colon != std::string::npos, "SLO rule '", t,
                "': expected <class|*>:<metric>=<value><unit>");
    const auto eq = t.find('=', colon);
    XHC_REQUIRE(eq != std::string::npos, "SLO rule '", t,
                "': expected <metric>=<value>");
    const std::string cls = trimmed(t.substr(0, colon));
    const std::string met = trimmed(t.substr(colon + 1, eq - colon - 1));
    const std::string val = trimmed(t.substr(eq + 1));

    SloRule rule;
    rule.text = cls + ":" + met + "=" + val;
    if (cls == "*") {
      rule.op = -1;
    } else {
      rule.op = -2;
      for (int k = 0; k < kNumOpClasses; ++k) {
        if (cls == to_string(static_cast<OpClass>(k))) rule.op = k;
      }
      XHC_REQUIRE(rule.op != -2, "SLO rule '", t, "': unknown op class '",
                  cls, "' (bcast/allreduce/reduce/barrier/*)");
    }
    if (met == "p50") {
      rule.metric = SloRule::Metric::kP50;
    } else if (met == "p90") {
      rule.metric = SloRule::Metric::kP90;
    } else if (met == "p99") {
      rule.metric = SloRule::Metric::kP99;
    } else if (met == "p999") {
      rule.metric = SloRule::Metric::kP999;
    } else if (met == "max") {
      rule.metric = SloRule::Metric::kMax;
    } else if (met == "mean") {
      rule.metric = SloRule::Metric::kMean;
    } else {
      XHC_REQUIRE(false, "SLO rule '", t, "': unknown metric '", met,
                  "' (p50/p90/p99/p999/max/mean)");
    }
    char* end = nullptr;
    const double mag = std::strtod(val.c_str(), &end);
    XHC_REQUIRE(end != val.c_str() && mag > 0.0, "SLO rule '", t,
                "': target must be a positive number, got '", val, "'");
    const std::string unit(end);
    double mult = 0.0;
    if (unit == "ns") {
      mult = 1e-9;
    } else if (unit == "us") {
      mult = 1e-6;
    } else if (unit == "ms") {
      mult = 1e-3;
    } else if (unit == "s") {
      mult = 1.0;
    } else {
      XHC_REQUIRE(false, "SLO rule '", t, "': unknown unit '", unit,
                  "' (ns/us/ms/s)");
    }
    rule.target = mag * mult;
    rules.push_back(std::move(rule));
  };
  for (const char c : spec) {
    if (c == ';' || c == ',') {
      flush();
    } else {
      token.push_back(c);
    }
  }
  flush();
  XHC_REQUIRE(!rules.empty(), "SLO spec '", spec, "' contains no rules");
  return rules;
}

Telemetry::Telemetry(mach::Machine& parent, TelemetryConfig cfg,
                     std::uint64_t n_requests)
    : parent_(&parent),
      cfg_(std::move(cfg)),
      wait_hists_(parent.n_ranks()),
      waits_(&wait_hists_),
      parent_metrics_(parent.n_ranks()),
      svc_metrics_(1) {
  XHC_REQUIRE(cfg_.slo.empty() || cfg_.window_seconds > 0.0,
              "the SLO monitor needs a windowed plane (window_seconds > 0)");
  if (!cfg_.slo.empty()) rules_ = parse_slo(cfg_.slo);
  if (cfg_.window_seconds > 0.0) {
    series_ = std::make_unique<obs::TimeSeries>(
        parent.n_ranks(), cfg_.window_seconds, cfg_.max_windows);
    waits_ = obs::WaitRecorder(&wait_hists_, series_.get(),
                               series_->add_series("flag_wait"));
    for (int k = 0; k < kNumOpClasses; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      const std::string cls = to_string(static_cast<OpClass>(k));
      sid_queued_[kk] = series_->add_series("queued/" + cls);
      sid_exec_[kk] = series_->add_series("exec/" + cls);
    }
  }
  records_.resize(static_cast<std::size_t>(n_requests));
}

Telemetry::~Telemetry() = default;

void Telemetry::attach(CommRegistry& reg) {
  if (attached_) return;
  XHC_REQUIRE(&reg.parent() == parent_,
              "telemetry was built for a different parent machine");
  for (int c = 0; c < reg.n_comms(); ++c) {
    Communicator& comm = reg.comm(c);
    auto obs = std::make_unique<obs::Observer>(comm.size());
    comm.component().set_observer(obs.get());

    CommInfo info;
    info.id = comm.id();
    // scope() is "comm<id>'<name>'/": drop the trailing separator.
    info.label = comm.scope();
    if (!info.label.empty() && info.label.back() == '/') info.label.pop_back();
    info.degradation = comm.degradation();
    info.ranks = comm.ranks();
    comms_.push_back(std::move(info));

    if (series_ != nullptr) {
      // Parent rank r samples exactly the rows it writes (its local rank in
      // each tenant), so mid-run sampling stays race-free.
      std::vector<int> row_of(static_cast<std::size_t>(parent_->n_ranks()));
      for (int pr = 0; pr < parent_->n_ranks(); ++pr) {
        row_of[static_cast<std::size_t>(pr)] = comm.local_rank(pr);
      }
      series_->watch_counters(&obs->metrics(), std::move(row_of));
    }
    observers_.push_back(std::move(obs));
  }
  parent_->attach(&waits_);
  attached_ = true;
}

void Telemetry::finalize(const CommRegistry& reg,
                         const std::vector<Request>& schedule) {
  XHC_REQUIRE(attached_, "finalize before attach");
  XHC_REQUIRE(reg.n_comms() == n_comms(), "registry changed since attach");
  meta_.assign(records_.size(), ReqMeta{});
  for (const Request& r : schedule) {
    if (r.id >= records_.size()) continue;
    ReqMeta& m = meta_[static_cast<std::size_t>(r.id)];
    m.comm = r.comm;
    m.op = r.op;
    m.bytes = r.bytes;
    m.arrival = r.arrival;
  }
  if (series_ != nullptr) {
    // Phase samples land in the plane at the moment each phase *ended*, in
    // request-id order — single-threaded and deterministic.
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const ReqRecord& rec = records_[i];
      if (rec.outcome == ReqOutcome::kNone) continue;
      const auto op = static_cast<std::size_t>(static_cast<int>(meta_[i].op));
      series_->record(0, sid_queued_[op], rec.verdict_time,
                      rec.verdict_time - meta_[i].arrival);
      if (rec.outcome == ReqOutcome::kCompleted) {
        series_->record(0, sid_exec_[op], rec.end_time,
                        rec.end_time - rec.verdict_time);
      }
    }
  }
  build_interference();
  eval_slo();
  finalized_ = true;
}

std::vector<obs::NamedHist> Telemetry::phase_hists() const {
  std::array<obs::Histogram, kNumOpClasses> queued;
  std::array<obs::Histogram, kNumOpClasses> exec;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const ReqRecord& rec = records_[i];
    if (rec.outcome == ReqOutcome::kNone) continue;
    const auto op = static_cast<std::size_t>(static_cast<int>(meta_[i].op));
    queued[op].record(rec.verdict_time - meta_[i].arrival);
    if (rec.outcome == ReqOutcome::kCompleted) {
      exec[op].record(rec.end_time - rec.verdict_time);
    }
  }
  std::vector<obs::NamedHist> out;
  for (int k = 0; k < kNumOpClasses; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    const std::string cls = to_string(static_cast<OpClass>(k));
    if (queued[kk].count() != 0) out.push_back({"queued/" + cls, queued[kk]});
    if (exec[kk].count() != 0) out.push_back({"exec/" + cls, exec[kk]});
  }
  return out;
}

std::vector<const obs::Metrics*> Telemetry::registries() const {
  std::vector<const obs::Metrics*> out;
  for (const auto& o : observers_) out.push_back(&o->metrics());
  out.push_back(&parent_metrics_);
  out.push_back(&svc_metrics_);
  return out;
}

void Telemetry::eval_slo() {
  if (rules_.empty()) return;
  int nw = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].outcome != ReqOutcome::kCompleted) continue;
    nw = std::max(nw, series_->window_of(records_[i].end_time) + 1);
  }
  // Completion latencies per (window, class) plus the any-class lane, in
  // request-id order, then sorted — deterministic.
  std::vector<std::array<std::vector<double>, kNumOpClasses + 1>> lanes(
      static_cast<std::size_t>(nw));
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const ReqRecord& rec = records_[i];
    if (rec.outcome != ReqOutcome::kCompleted) continue;
    const auto wi = static_cast<std::size_t>(series_->window_of(rec.end_time));
    const double lat = rec.end_time - meta_[i].arrival;
    lanes[wi][static_cast<std::size_t>(static_cast<int>(meta_[i].op))]
        .push_back(lat);
    lanes[wi][kNumOpClasses].push_back(lat);
  }
  for (auto& win : lanes) {
    for (auto& lane : win) std::sort(lane.begin(), lane.end());
  }

  rule_checked_.assign(rules_.size(), 0);
  rule_violations_.assign(rules_.size(), 0);
  rule_worst_.assign(rules_.size(), 0.0);
  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    const SloRule& rule = rules_[ri];
    const std::size_t lane =
        rule.op < 0 ? static_cast<std::size_t>(kNumOpClasses)
                    : static_cast<std::size_t>(rule.op);
    for (int wi = 0; wi < nw; ++wi) {
      const std::vector<double>& samples =
          lanes[static_cast<std::size_t>(wi)][lane];
      if (samples.empty()) continue;
      ++rule_checked_[ri];
      const double v = metric_value(samples, rule.metric);
      rule_worst_[ri] = std::max(rule_worst_[ri], v);
      if (v > rule.target) ++rule_violations_[ri];
    }
    slo_checked_ += rule_checked_[ri];
    slo_violations_ += rule_violations_[ri];
  }
  svc_metrics_.add(0, obs::Counter::kSloWindowsChecked, slo_checked_);
  svc_metrics_.add(0, obs::Counter::kSloViolations, slo_violations_);
}

util::Table Telemetry::slo_table() const {
  util::Table table({"Rule", "Windows", "Violations", "Worst us"});
  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    table.add_row({rules_[ri].text, std::to_string(rule_checked_[ri]),
                   std::to_string(rule_violations_[ri]),
                   util::Table::fmt_double(rule_worst_[ri] * 1e6)});
  }
  return table;
}

void Telemetry::build_interference() {
  const int nc = n_comms();
  const double w = cfg_.window_seconds;

  // Arbiter byte-occupancy: each admitted request holds its payload bytes
  // over [verdict, end); integrate the overlap with every window.
  if (series_ != nullptr) {
    int nw = 0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (records_[i].outcome == ReqOutcome::kNone) continue;
      nw = std::max(nw, series_->window_of(records_[i].end_time) + 1);
    }
    occupancy_.assign(static_cast<std::size_t>(nw),
                      std::vector<double>(static_cast<std::size_t>(nc), 0.0));
    const int last = series_->max_windows() - 1;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const ReqRecord& rec = records_[i];
      if (rec.outcome != ReqOutcome::kCompleted || meta_[i].bytes == 0) {
        continue;
      }
      const double t0 = rec.verdict_time;
      const double t1 = rec.end_time;
      for (int wi = series_->window_of(t0); wi <= series_->window_of(t1);
           ++wi) {
        const double lo = static_cast<double>(wi) * w;
        const double hi = wi == last
                              ? std::numeric_limits<double>::infinity()
                              : lo + w;
        const double overlap = std::min(t1, hi) - std::max(t0, lo);
        if (overlap <= 0.0) continue;
        occupancy_[static_cast<std::size_t>(wi)][static_cast<std::size_t>(
            meta_[i].comm)] +=
            static_cast<double>(meta_[i].bytes) * overlap / w;
      }
    }
  }

  // Degradation-event timeline: creation-time arbiter trails, then shed
  // decisions in request-id order.
  timeline_.clear();
  for (const CommInfo& info : comms_) {
    if (info.degradation.empty()) continue;
    std::string line;
    for (const char c : info.degradation) {
      if (c == '\n') {
        if (!line.empty()) timeline_.push_back("creation " + info.label +
                                               ": " + line);
        line.clear();
      } else {
        line.push_back(c);
      }
    }
    if (!line.empty()) timeline_.push_back("creation " + info.label + ": " +
                                           line);
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const ReqRecord& rec = records_[i];
    if (rec.outcome != ReqOutcome::kShedBacklog &&
        rec.outcome != ReqOutcome::kShedDeadline) {
      continue;
    }
    std::string ev;
    if (series_ != nullptr) {
      ev += "w=" + std::to_string(series_->window_of(rec.verdict_time)) + " ";
    }
    ev += "t=" + util::Table::fmt_double(rec.verdict_time * 1e6) + "us ";
    ev += comms_[static_cast<std::size_t>(meta_[i].comm)].label;
    ev += rec.outcome == ReqOutcome::kShedBacklog ? " shed(backlog) "
                                                  : " shed(deadline) ";
    ev += to_string(meta_[i].op);
    ev += " " + std::to_string(meta_[i].bytes) + "B";
    timeline_.push_back(std::move(ev));
  }

  // Admission-wait attribution: sweep the merged hold/wait boundary events;
  // every waiting tenant's dt is split among the tenants holding op tokens
  // over that segment (waiting on itself = its own earlier request holds
  // the token, or nobody does and the delay is its own leader's backlog).
  struct Ev {
    double t;
    int type;  ///< 0 = hold delta, 1 = wait delta
    int comm;
    int delta;
  };
  std::vector<Ev> evs;
  evs.reserve(records_.size() * 4);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const ReqRecord& rec = records_[i];
    if (rec.outcome == ReqOutcome::kNone) continue;
    const int c = meta_[i].comm;
    if (rec.outcome == ReqOutcome::kCompleted &&
        rec.end_time > rec.verdict_time) {
      evs.push_back({rec.verdict_time, 0, c, +1});
      evs.push_back({rec.end_time, 0, c, -1});
    }
    if (rec.verdict_time > meta_[i].arrival) {
      evs.push_back({meta_[i].arrival, 1, c, +1});
      evs.push_back({rec.verdict_time, 1, c, -1});
    }
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.type != b.type) return a.type < b.type;
    if (a.comm != b.comm) return a.comm < b.comm;
    return a.delta < b.delta;
  });
  wait_matrix_.assign(static_cast<std::size_t>(nc),
                      std::vector<double>(static_cast<std::size_t>(nc), 0.0));
  std::vector<int> holds(static_cast<std::size_t>(nc), 0);
  std::vector<int> waits(static_cast<std::size_t>(nc), 0);
  int hold_total = 0;
  double prev = 0.0;
  for (const Ev& ev : evs) {
    const double dt = ev.t - prev;
    if (dt > 0.0) {
      for (int a = 0; a < nc; ++a) {
        const int nwait = waits[static_cast<std::size_t>(a)];
        if (nwait == 0) continue;
        const double amount = dt * static_cast<double>(nwait);
        if (hold_total > 0) {
          for (int b = 0; b < nc; ++b) {
            const int nhold = holds[static_cast<std::size_t>(b)];
            if (nhold == 0) continue;
            wait_matrix_[static_cast<std::size_t>(a)]
                        [static_cast<std::size_t>(b)] +=
                amount * static_cast<double>(nhold) /
                static_cast<double>(hold_total);
          }
        } else {
          wait_matrix_[static_cast<std::size_t>(a)]
                      [static_cast<std::size_t>(a)] += amount;
        }
      }
    }
    prev = ev.t;
    if (ev.type == 0) {
      holds[static_cast<std::size_t>(ev.comm)] += ev.delta;
      hold_total += ev.delta;
    } else {
      waits[static_cast<std::size_t>(ev.comm)] += ev.delta;
    }
  }
}

void Telemetry::write_reqlog(std::ostream& os) const {
  XHC_REQUIRE(finalized_, "request log is written after finalize");
  os << "{\"label\":\"svc\",\"window_seconds\":";
  obs::write_json_number_exact(os, cfg_.window_seconds);
  os << ",\"requests\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const ReqRecord& rec = records_[i];
    const ReqMeta& m = meta_[i];
    if (i != 0) os << ',';
    os << "\n{\"id\":" << i << ",\"comm\":" << m.comm << ",\"tenant\":";
    obs::write_json_escaped(
        os, comms_[static_cast<std::size_t>(m.comm)].label.c_str());
    os << ",\"op\":";
    obs::write_json_escaped(os, to_string(m.op));
    os << ",\"bytes\":" << m.bytes << ",\"arrival\":";
    obs::write_json_number_exact(os, m.arrival);
    os << ",\"queued\":";
    obs::write_json_number_exact(os, rec.verdict_time - m.arrival);
    os << ",\"exec\":";
    obs::write_json_number_exact(
        os, rec.outcome == ReqOutcome::kCompleted
                ? rec.end_time - rec.verdict_time
                : 0.0);
    os << ",\"backoffs\":" << rec.backoffs << ",\"outcome\":";
    obs::write_json_escaped(os, to_string(rec.outcome));
    os << '}';
  }
  os << "\n]}\n";
}

void Telemetry::write_reqlog_file(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  XHC_CHECK(os.good(), "cannot open reqlog file ", path);
  write_reqlog(os);
  os.flush();
  XHC_CHECK(os.good(), "failed writing reqlog file ", path);
}

void Telemetry::write_interference(std::ostream& os) const {
  XHC_REQUIRE(finalized_, "interference report is written after finalize");
  if (!occupancy_.empty()) {
    os << "-- arbiter byte-occupancy per tenant (avg bytes held, per window) "
          "--\n";
    std::vector<std::string> header{"Window", "t_ms"};
    for (const CommInfo& info : comms_) header.push_back(info.label);
    util::Table table(std::move(header));
    for (std::size_t wi = 0; wi < occupancy_.size(); ++wi) {
      std::vector<std::string> row{
          std::to_string(wi),
          util::Table::fmt_double(static_cast<double>(wi) *
                                  cfg_.window_seconds * 1e3)};
      for (const double v : occupancy_[wi]) {
        row.push_back(util::Table::fmt_double(v, 0));
      }
      table.add_row(std::move(row));
    }
    table.print(os);
  }
  os << "-- degradation timeline --\n";
  if (timeline_.empty()) {
    os << "(none)\n";
  } else {
    constexpr std::size_t kMaxLines = 64;
    for (std::size_t i = 0; i < timeline_.size() && i < kMaxLines; ++i) {
      os << timeline_[i] << "\n";
    }
    if (timeline_.size() > kMaxLines) {
      os << "... (+" << timeline_.size() - kMaxLines << " more)\n";
    }
  }
  os << "-- admission-wait attribution (us, row waits on column) --\n";
  std::vector<std::string> header{"Waiter"};
  for (const CommInfo& info : comms_) header.push_back(info.label);
  util::Table table(std::move(header));
  for (std::size_t a = 0; a < wait_matrix_.size(); ++a) {
    std::vector<std::string> row{comms_[a].label};
    for (const double v : wait_matrix_[a]) {
      row.push_back(util::Table::fmt_double(v * 1e6));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

void Telemetry::write_chrome_trace(std::ostream& os,
                                   const std::string& label) const {
  const int n_parent = parent_metrics_.n_ranks();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ',';
    first = false;
  };
  // One process per parent rank; tenants render as named threads inside it.
  for (int r = 0; r < n_parent; ++r) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << r
       << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":";
    obs::write_json_escaped(os,
                            (label + " rank " + std::to_string(r)).c_str());
    os << "}}";
  }
  for (int c = 0; c < n_comms(); ++c) {
    const CommInfo& info = comms_[static_cast<std::size_t>(c)];
    const obs::Recorder& rec = observers_[static_cast<std::size_t>(c)]->trace();
    for (int l = 0; l < rec.n_ranks(); ++l) {
      const int pid = info.ranks[static_cast<std::size_t>(l)];
      sep();
      os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << c + 1
         << ",\"name\":\"thread_name\",\"args\":{\"name\":";
      obs::write_json_escaped(os, info.label.c_str());
      os << "}}";
      obs::write_span_events(os, rec.spans(l), pid, c + 1);
    }
  }
  // Windowed plane as counter tracks under a synthetic service process,
  // stable-sorted by (series, window).
  if (series_ != nullptr) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << n_parent
       << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":";
    obs::write_json_escaped(os, (label + " service").c_str());
    os << "}}";
    const int used = series_->used_windows();
    const double w_us = series_->window_seconds() * 1e6;
    for (int sid = 0; sid < series_->n_series(); ++sid) {
      for (int wi = 0; wi < used; ++wi) {
        const obs::TimeSeries::Cell cell = series_->merged(sid, wi);
        if (cell.count == 0) continue;
        os << ",{\"ph\":\"C\",\"pid\":" << n_parent << ",\"tid\":0,\"name\":";
        obs::write_json_escaped(os, series_->series_name(sid).c_str());
        os << ",\"ts\":";
        obs::write_json_number(os, static_cast<double>(wi) * w_us);
        os << ",\"args\":{\"value\":";
        obs::write_json_number_exact(os, cell.sum);
        os << "}}";
      }
    }
    for (int ci = 0; ci < obs::kNumCounters; ++ci) {
      const auto counter = static_cast<obs::Counter>(ci);
      if (series_->counter_total(counter) == 0.0) continue;
      for (int wi = 0; wi < used; ++wi) {
        const double sum = series_->counter_sum(counter, wi);
        if (sum == 0.0) continue;
        os << ",{\"ph\":\"C\",\"pid\":" << n_parent << ",\"tid\":0,\"name\":";
        obs::write_json_escaped(os, obs::to_string(counter));
        os << ",\"ts\":";
        obs::write_json_number(os, static_cast<double>(wi) * w_us);
        os << ",\"args\":{\"value\":";
        obs::write_json_number_exact(os, sum);
        os << "}}";
      }
    }
  }
  os << "]}\n";
}

}  // namespace xhc::svc
