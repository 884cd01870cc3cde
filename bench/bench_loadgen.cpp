// Multi-tenant service soak (DESIGN.md § Multi-tenant service).
//
// Drives the svc:: layer with the deterministic loadgen: N overlapping
// communicators over one node, seed-driven open-loop arrivals of mixed
// bcast/allreduce/reduce/barrier streams with sizes straddling a 128 KiB
// edge, admission control + backpressure against a shared
// Arbiter budget, per-request payload integrity verification, and
// p50/p99/p999 completion latency per op class.
//
// Expected shapes: barrier < bcast < reduce < allreduce at the median; tail
// percentiles grow with --arrival as op-token backoff engages; shed counts
// stay zero until the offered load crosses the deadline/queue budget.
//
// Knobs beyond the standard set: --comms=<n> tenants, --arrival=<req/s>
// offered load (virtual time), --duration=<n> total requests,
// --integrity=<0|1> payload verification, --inflight=<n> op tokens,
// --seed=<n> stream seed, --budget-mb=<n> shared-segment budget (0 = size
// it to fit every tenant undegraded; set it low to drive the degradation
// chain and admission rejections).
//
// Telemetry plane (DESIGN.md § Service telemetry plane): --windows=<sec>
// slices the soak into fixed windows (per-tenant counter deltas, phase
// samples, machine flag waits) and prints the cross-tenant interference
// report; --windows-out=<file> exports the windowed series as JSON;
// --reqlog=<file> dumps the per-request causal log; --slo=<spec> evaluates
// per-op-class latency targets per window (nonzero exit on violation;
// defaults --windows to 10 ms when unset). The standard observability set
// (--trace-out/--metrics/--hist/--hist-out/--critpath/--coherence) works
// here too, merged over every tenant by the figure benches' obs/ reports,
// and byte-identical at any --jobs. All of it is off-path: without these
// flags the soak is bit-identical to the un-instrumented build.
#include <deque>

#include "bench/bench_common.h"
#include "obs/timeseries.h"
#include "svc/loadgen.h"
#include "svc/telemetry.h"

namespace {

struct LoadgenArgs {
  xhc::bench::BenchArgs base;
  xhc::svc::LoadgenConfig cfg;
  xhc::svc::Budget budget;
  long budget_mb = 0;  ///< 0 = auto-size per system
  double windows = 0.0;
  std::string windows_out;
  std::string reqlog;
  std::string slo;

  /// Any telemetry surface requested? Attaches the plane.
  bool telemetry_on() const {
    return base.observe() || windows > 0.0 || !reqlog.empty();
  }
};

LoadgenArgs parse(int argc, char** argv) {
  using namespace xhc;
  LoadgenArgs a;
  a.base = bench::BenchArgs::parse(argc, argv);
  util::Args args(argc, argv);
  a.cfg.n_comms = static_cast<int>(args.get_long("comms", 8));
  a.cfg.arrival_rate = args.get_double("arrival", 2e4);
  a.cfg.requests = static_cast<std::uint64_t>(
      args.get_long("duration", a.base.quick ? 2000 : 20000));
  a.cfg.integrity = args.get_long("integrity", 1) != 0;
  a.cfg.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  a.cfg.faults = a.base.faults;
  a.cfg.fault_seed = a.base.fault_seed;
  a.budget.inflight_ops = static_cast<int>(args.get_long("inflight", 8));
  a.budget_mb = args.get_long("budget-mb", 0);
  a.windows = args.get_double("windows", 0.0);
  a.windows_out = args.get("windows-out", "");
  a.reqlog = args.get("reqlog", "");
  a.slo = args.get("slo", "");
  if ((!a.slo.empty() || !a.windows_out.empty()) && a.windows <= 0.0) {
    a.windows = 0.01;  // the consumers need a plane: default 10 ms windows
  }
  if (!a.slo.empty()) {
    // Fail fast on malformed specs, before any soak spins up.
    (void)svc::parse_slo(a.slo);
  }
  XHC_REQUIRE(a.budget_mb >= 0, "--budget-mb must be >= 0");
  XHC_REQUIRE(a.cfg.n_comms >= 1, "--comms must be >= 1");
  XHC_REQUIRE(a.cfg.requests >= 1, "--duration must be >= 1");
  XHC_REQUIRE(a.cfg.arrival_rate > 0.0, "--arrival must be > 0");
  XHC_REQUIRE(a.windows >= 0.0, "--windows must be >= 0");
  return a;
}

std::string count(std::uint64_t v) { return std::to_string(v); }

}  // namespace

static int run(int argc, char** argv) {
  using namespace xhc;
  const LoadgenArgs a = parse(argc, argv);
  const auto systems = a.base.systems();
  const bool tele_on = a.telemetry_on();

  // One independent point per system: each owns a private machine, arbiter,
  // registry and telemetry plane, so the worker pool keeps the tables and
  // every telemetry output byte-identical to a sequential sweep under any
  // --jobs.
  std::vector<svc::LoadgenResult> results(systems.size());
  std::vector<std::unique_ptr<svc::Telemetry>> tels(systems.size());
  std::vector<std::string> coh_reports(systems.size());
  osu::run_points(systems.size(), a.base.jobs, [&](std::size_t i) {
    auto machine = bench::make_system(systems[i]);
    coll::Tuning tuning;
    a.base.apply_tuning(tuning);
    if (tele_on) tuning.trace = true;  // observer gate (spans + counters)
    bench::PointObs::arm_coherence(a.base, *machine);
    svc::Budget budget = a.budget;
    if (a.budget_mb > 0) {
      budget.segment_bytes = static_cast<std::size_t>(a.budget_mb) << 20;
    } else {
      // Auto-size: fit every tenant at full segment size even if all spanned
      // the whole node (subset tenants leave headroom). The budget is
      // accounting, not host memory, so generous costs nothing.
      budget.segment_bytes =
          static_cast<std::size_t>(machine->n_ranks()) *
          static_cast<std::size_t>(a.cfg.n_comms) *
          (tuning.cico_segment_bytes + svc::Arbiter::kCtlBytesPerRank);
    }
    svc::LoadgenConfig cfg = a.cfg;
    if (tele_on) {
      svc::TelemetryConfig tcfg;
      tcfg.window_seconds = a.windows;
      tcfg.slo = a.slo;
      tels[i] = std::make_unique<svc::Telemetry>(*machine, tcfg,
                                                 a.cfg.requests);
      cfg.telemetry = tels[i].get();
    }
    results[i] = svc::run_soak(*machine, cfg, budget, tuning);
    if (tels[i] != nullptr) {
      // End-of-run coherence deltas land in the parent-rank registry so the
      // --metrics table and the trace show them next to the tenant counters.
      machine->publish_coh_counters(tels[i]->parent_metrics());
    }
    coh_reports[i] = bench::PointObs::coherence_report(
        a.base, *machine, std::string(systems[i]));
  });

  std::uint64_t total_integrity_failures = 0;
  std::uint64_t total_slo_violations = 0;
  for (std::size_t si = 0; si < systems.size(); ++si) {
    const svc::LoadgenResult& r = results[si];
    const std::string label(systems[si]);
    total_integrity_failures += r.integrity_failures;
    util::Table table({"Class", "count", "shed", "integrity_fail", "p50_us",
                       "p99_us", "p999_us", "mean_us"});
    for (int k = 0; k < svc::kNumOpClasses; ++k) {
      const auto& pc = r.per_class[static_cast<std::size_t>(k)];
      table.add_row({svc::to_string(static_cast<svc::OpClass>(k)),
                     count(pc.completed), count(pc.shed),
                     count(pc.integrity_failures),
                     bench::us(pc.latency.percentile(0.50) * 1e6),
                     bench::us(pc.latency.percentile(0.99) * 1e6),
                     bench::us(pc.latency.percentile(0.999) * 1e6),
                     bench::us(pc.latency.mean() * 1e6)});
    }
    bench::emit(a.base, table, "Loadgen: service latency per op class, " +
                                   label);

    util::Table totals({"Class", "completed", "shed", "integrity_fail",
                        "backoff_stalls", "makespan_us"});
    totals.add_row({"all", count(r.completed), count(r.shed),
                    count(r.integrity_failures), count(r.backoff_stalls),
                    bench::us(r.makespan * 1e6)});
    bench::emit(a.base, totals, "Loadgen: service totals, " + label);

    svc::Telemetry* tele = tels[si].get();
    if (tele == nullptr) continue;

    if (tele->windowed()) {
      std::cout << "\n== Interference, " << label << " ==\n";
      tele->write_interference(std::cout);
    }
    if (!a.slo.empty()) {
      std::cout << "\n== SLO, " << label << " ==\n";
      tele->slo_table().print(std::cout);
      total_slo_violations += tele->slo_violations();
    }
    if (a.base.metrics) {
      std::deque<obs::Snapshot> tenants;
      std::vector<const obs::Snapshot*> spans;
      for (int c = 0; c < tele->n_comms(); ++c) {
        spans.push_back(&tenants.emplace_back(*tele->observer(c)));
      }
      std::cout << "\n== Spans, " << label << " ==\n";
      obs::span_table(spans).print(std::cout);
      std::cout << "\n== Metrics, " << label << " ==\n";
      obs::metrics_table(tele->registries()).print(std::cout);
    }
    // Histograms: service phase latencies, machine flag waits, then each
    // tenant's component-level kinds — all through the fig8-style emitter.
    std::vector<std::pair<std::string, std::vector<obs::NamedHist>>> per_comp;
    per_comp.emplace_back("svc", tele->phase_hists());
    per_comp.emplace_back("mach", obs::named_hists({&tele->wait_hists()}));
    for (int c = 0; c < tele->n_comms(); ++c) {
      per_comp.emplace_back(tele->comm_label(c),
                            obs::named_hists({&tele->observer(c)->hists()}));
    }
    bench::emit_hists(a.base, label, per_comp, {});
    if (a.base.critpath) {
      for (int c = 0; c < tele->n_comms(); ++c) {
        std::cout << "\n== Critical path, " << label << " "
                  << tele->comm_label(c) << " ==\n";
        obs::write_critpath_report(
            std::cout,
            obs::analyze_critical_paths(tele->observer(c)->trace()));
      }
    }
    if (!coh_reports[si].empty()) std::cout << coh_reports[si];
    if (!a.base.trace_out.empty()) {
      const std::string path = bench::trace_path_for(a.base.trace_out, label);
      obs::write_file(path, "trace", [&](std::ostream& os) {
        tele->write_chrome_trace(os, label);
      });
      std::uint64_t spans = 0;
      for (int c = 0; c < tele->n_comms(); ++c) {
        spans += tele->observer(c)->trace().recorded();
      }
      std::cout << "trace written: " << path << " (" << spans << " spans)\n";
    }
    if (!a.windows_out.empty()) {
      const std::string path = bench::trace_path_for(a.windows_out, label);
      obs::write_timeseries_json_file(path, *tele->series(), label);
      std::cout << "windows written: " << path << " ("
                << tele->series()->used_windows() << " windows)\n";
    }
    if (!a.reqlog.empty()) {
      const std::string path = bench::trace_path_for(a.reqlog, label);
      tele->write_reqlog_file(path);
      std::cout << "reqlog written: " << path << " ("
                << tele->records().size() << " requests)\n";
    }
    std::cout.flush();
  }
  // Shedding under pressure is expected service behavior; corrupted
  // payloads never are — fail the run so soak gates can't pass silently.
  if (total_integrity_failures != 0) {
    std::fprintf(stderr, "bench_loadgen: %llu integrity failures\n",
                 static_cast<unsigned long long>(total_integrity_failures));
    return 1;
  }
  // An SLO violation is the monitor doing its job: surface it as a gate
  // failure, after all reports are out.
  if (total_slo_violations != 0) {
    std::fprintf(stderr, "bench_loadgen: %llu SLO violations\n",
                 static_cast<unsigned long long>(total_slo_violations));
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return xhc::osu::guarded_main([&] { return run(argc, argv); });
}
