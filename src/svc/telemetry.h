// Service telemetry plane (DESIGN.md § Service telemetry plane).
//
// One Telemetry object carries every observability surface of a loadgen
// soak over the multi-tenant service:
//
//   * per-communicator obs::Observers (spans, counters, hists) attached to
//     each tenant's component under the communicator-local rank numbering —
//     one Observer per communicator, so the single-writer-per-row
//     discipline holds even when two tenants share a parent rank;
//   * a windowed obs::TimeSeries over the *parent* rank set: machine-level
//     flag-wait durations (an obs::WaitRecorder on the parent's event
//     stream), per-op-class
//     queued/exec phase samples, and watermarked per-window deltas of
//     every tenant's counters (each parent rank samples only the rows it
//     writes itself, so mid-run sampling is race-free and deterministic);
//   * the per-request causal log: each request's id threads through
//     queued -> admitted/shed (naming the degradation taken) -> executing
//     -> completed, with the leader writing one ReqRecord per request id
//     (disjoint single-writer cells), exported as byte-deterministic JSON
//     via --reqlog;
//   * the cross-tenant interference report derived from the request log:
//     per-window arbiter byte-occupancy per tenant, the degradation-event
//     timeline, and a tenant x tenant matrix attributing each tenant's
//     admission-wait time to whoever held the op-token budget meanwhile;
//   * a declarative SLO monitor: per-op-class latency targets
//     ("<class|*>:<metric>=<value><unit>", metrics p50/p90/p99/p999/max/
//     mean) evaluated per window over completed requests, booked into the
//     slo_* counters, with violations surfacing as a nonzero bench exit.
//
// Everything is Tuning::trace-style gated: a null LoadgenConfig::telemetry
// keeps the loadgen hot path bit-identical to the un-instrumented build,
// and even with the plane attached all recording is observational (no
// charges), so the service tables stay byte-identical with telemetry on.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/hist.h"
#include "obs/observer.h"
#include "obs/timeseries.h"
#include "obs/wait_recorder.h"
#include "svc/loadgen.h"
#include "util/table.h"

namespace xhc::svc {

class CommRegistry;

/// Terminal state of one request's causal chain.
enum class ReqOutcome : std::uint8_t {
  kNone = 0,       ///< never reached by its leader (schedule truncated)
  kCompleted,      ///< admitted and executed
  kShedBacklog,    ///< shed: backlog beyond the queue bound at decision time
  kShedDeadline,   ///< shed: deadline passed while backing off for a token
};
const char* to_string(ReqOutcome o) noexcept;

/// One request's phase timestamps, written only by its communicator's
/// admission leader (request ids partition across leaders, so the cells are
/// disjoint single-writer). Phases derive as queued = verdict - arrival and
/// exec = end - verdict.
struct ReqRecord {
  double verdict_time = 0.0;  ///< when the admission verdict was published
  double end_time = 0.0;      ///< completion time (== verdict_time when shed)
  std::uint32_t backoffs = 0; ///< op-token backoff stalls taken while queued
  ReqOutcome outcome = ReqOutcome::kNone;
};

/// One parsed SLO rule: `op` is an OpClass index or -1 for every class.
struct SloRule {
  enum class Metric : int { kP50 = 0, kP90, kP99, kP999, kMax, kMean };
  int op = -1;
  Metric metric = Metric::kP99;
  double target = 0.0;  ///< seconds
  std::string text;     ///< canonical "<class>:<metric>=<value>" spelling
};

/// Parses "<class|*>:<metric>=<value><unit>[;<rule>...]" (',' also accepted
/// as a separator; units ns/us/ms/s). Throws util::Error on malformed specs.
std::vector<SloRule> parse_slo(const std::string& spec);

struct TelemetryConfig {
  /// Window width of the time-series plane; 0 disables the plane (the
  /// request log and per-comm observers still work).
  double window_seconds = 0.0;
  int max_windows = 256;
  /// SLO spec (see parse_slo); requires window_seconds > 0.
  std::string slo;
};

class Telemetry {
 public:
  /// `parent` is the machine the soak will run on; `n_requests` sizes the
  /// request log. The Telemetry must outlive every run that uses it.
  Telemetry(mach::Machine& parent, TelemetryConfig cfg,
            std::uint64_t n_requests);
  ~Telemetry();

  /// Wires the plane into a created registry: one Observer per
  /// communicator, counter watchers, and the flag-wait recorder on the
  /// parent machine, which stays attached. Called by run_loadgen before the
  /// parallel region; idempotent.
  void attach(CommRegistry& reg);

  // --- hot path (called from run_loadgen's parallel region) ----------------

  /// Samples `parent_rank`'s watched counter rows into the window holding
  /// `now`. Each rank ticks at every request it projects plus once at loop
  /// exit, so every delta lands in a window and totals are lossless.
  void tick(int parent_rank, double now) noexcept {
    if (series_ != nullptr) series_->sample_counters(parent_rank, now);
  }

  /// Leader-side: closes request `r.id`'s causal chain.
  void on_request(const Request& r, ReqOutcome oc, double verdict_time,
                  double end_time, std::uint32_t backoffs) noexcept {
    ReqRecord& rec = records_[static_cast<std::size_t>(r.id)];
    rec.verdict_time = verdict_time;
    rec.end_time = end_time;
    rec.backoffs = backoffs;
    rec.outcome = oc;
  }

  // --- post-run ------------------------------------------------------------

  /// Derives every report from the request log: phase series and hists,
  /// occupancy, the degradation timeline, the wait-attribution matrix and
  /// the SLO evaluation. Called by run_loadgen after the parallel region
  /// joins; snapshots everything it needs, so the registry may die after.
  void finalize(const CommRegistry& reg, const std::vector<Request>& schedule);

  bool windowed() const noexcept { return series_ != nullptr; }
  obs::TimeSeries* series() noexcept { return series_.get(); }
  const obs::TimeSeries* series() const noexcept { return series_.get(); }
  int n_comms() const noexcept { return static_cast<int>(comms_.size()); }
  obs::Observer* observer(int comm) noexcept {
    return observers_[static_cast<std::size_t>(comm)].get();
  }
  const std::string& comm_label(int comm) const noexcept {
    return comms_[static_cast<std::size_t>(comm)].label;
  }
  /// Parent-machine flag-wait histograms, fed from attach on (the --hist
  /// output prints them).
  obs::HistSet& wait_hists() noexcept { return wait_hists_; }
  /// Parent-rank registry for machine-level publishes (coh counters).
  obs::Metrics& parent_metrics() noexcept { return parent_metrics_; }

  const std::vector<ReqRecord>& records() const noexcept { return records_; }

  /// queued/<class> and exec/<class> phase histograms (completed requests;
  /// queued additionally covers shed ones — their chain ended there).
  std::vector<obs::NamedHist> phase_hists() const;

  /// What --metrics merges: each tenant observer's registry in communicator
  /// order, the parent's, then the service's slo_* counters.
  std::vector<const obs::Metrics*> registries() const;

  // --- SLO monitor (populated by finalize when a spec was given) -----------
  std::uint64_t slo_windows_checked() const noexcept { return slo_checked_; }
  std::uint64_t slo_violations() const noexcept { return slo_violations_; }
  /// Rule x {windows, checked, violations, worst} summary.
  util::Table slo_table() const;

  // --- interference products (populated by finalize) -----------------------
  /// [window][comm] average bytes held over the window by admitted requests.
  const std::vector<std::vector<double>>& occupancy() const noexcept {
    return occupancy_;
  }
  /// [waiter][holder] seconds of admission wait attributed to token holders
  /// (diagonal additionally absorbs waits with no holder: own backlog).
  const std::vector<std::vector<double>>& wait_matrix() const noexcept {
    return wait_matrix_;
  }

  // --- byte-deterministic exports ------------------------------------------
  /// Request log as JSON, sorted by id: identity, phases, outcome.
  void write_reqlog(std::ostream& os) const;
  void write_reqlog_file(const std::string& path) const;
  /// Cross-tenant interference report: per-window byte-occupancy per
  /// tenant, the degradation timeline, and the admission-wait matrix.
  void write_interference(std::ostream& os) const;
  /// Multi-tenant Chrome trace: per-tenant thread_name/process_name rows
  /// (pid = parent rank, tid = communicator id + 1) plus stable-sorted
  /// counter events from the windowed plane under a synthetic service pid.
  void write_chrome_trace(std::ostream& os, const std::string& label) const;

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

 private:
  struct CommInfo {
    int id = 0;
    std::string label;        ///< "comm<id>'<name>'"
    std::string degradation;  ///< creation-time arbiter trail ("" = none)
    std::vector<int> ranks;   ///< local rank -> parent rank
  };
  /// Request identity snapshot (from the schedule, finalize-time).
  struct ReqMeta {
    int comm = 0;
    OpClass op = OpClass::kBarrier;
    std::size_t bytes = 0;
    double arrival = 0.0;
  };

  void eval_slo();
  void build_interference();

  mach::Machine* parent_;
  TelemetryConfig cfg_;
  std::vector<SloRule> rules_;
  std::unique_ptr<obs::TimeSeries> series_;
  std::array<int, kNumOpClasses> sid_queued_{};
  std::array<int, kNumOpClasses> sid_exec_{};
  obs::HistSet wait_hists_;
  /// Feeds wait_hists_ and the series' "flag_wait" from attach on.
  obs::WaitRecorder waits_;
  obs::Metrics parent_metrics_;
  obs::Metrics svc_metrics_;  ///< service-level counters (slo_*)
  std::vector<std::unique_ptr<obs::Observer>> observers_;
  std::vector<CommInfo> comms_;
  std::vector<ReqRecord> records_;
  std::vector<ReqMeta> meta_;
  bool attached_ = false;
  bool finalized_ = false;

  // finalize products
  std::uint64_t slo_checked_ = 0;
  std::uint64_t slo_violations_ = 0;
  std::vector<std::uint64_t> rule_checked_;
  std::vector<std::uint64_t> rule_violations_;
  std::vector<double> rule_worst_;
  std::vector<std::vector<double>> occupancy_;  ///< [window][comm] avg bytes
  std::vector<std::string> timeline_;
  std::vector<std::vector<double>> wait_matrix_;  ///< [waiter][holder] seconds
};

}  // namespace xhc::svc
