// Shared helpers for the per-figure benchmark binaries.
//
// Every binary regenerates one table or figure of the paper on the three
// simulated evaluation systems and prints paper-style rows. `--quick`
// shrinks sweeps for smoke runs; `--csv` emits machine-readable output.
#pragma once

#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coll/registry.h"
#include "coll/tuning.h"
#include "fault/fault.h"
#include "obs/coh.h"
#include "obs/critpath.h"
#include "obs/export.h"
#include "obs/observer.h"
#include "osu/harness.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/check.h"
#include "util/str.h"
#include "util/table.h"

namespace xhc::bench {

struct BenchArgs {
  bool quick = false;
  bool csv = false;
  bool metrics = false;    ///< --metrics: print span/counter summary tables
  std::string trace_out;   ///< --trace-out=<file>: Chrome trace JSON path
  bool hist = false;       ///< --hist: print latency histogram tables
  std::string hist_out;    ///< --hist-out=<file>: histogram JSON path
  bool critpath = false;   ///< --critpath: print blocking-chain report
  bool coherence = false;  ///< --coherence: print modeled coherence report
  std::string preset;      ///< --preset=<name>: run only this paper system
  int jobs = 1;            ///< --jobs=<n>: host workers for the sim sweep
                           ///  (0 = one per host core)
  /// --verify: move every payload byte and re-check payload contents after
  /// each sweep. Off by default in the latency benches — correctness is
  /// pinned by the test suite, and without it the OSU sweeps run on the
  /// simulator's timing-only data plane (same tables, no payload bytes
  /// moved; osu::Config::verify), which more than halves a large sweep's
  /// wall-clock.
  bool verify = false;
  /// --fault=<spec>: fault-injection plan applied to every component built
  /// through apply_tuning() (same grammar as the xhc_fault tuning param).
  std::string faults;
  std::uint64_t fault_seed = 1;  ///< --fault-seed=<n>
  /// --large: extend the size sweep with the large-message points (256 KB,
  /// 1 MB, 4 MB). Mainly useful with --quick, whose sweep otherwise stops
  /// at 64 KB below the stripe threshold (allreduce takes RS+AG from 16 KB
  /// on); the full sweep already contains these sizes.
  bool large = false;
  /// --tune=key=value (repeatable): MCA-style parameter assignments applied
  /// to every component built through apply_tuning(), after the dedicated
  /// flags — the lever for A/B runs like disabling the large-message paths
  /// (--tune=xhc_rs_ag_threshold=0 --tune=xhc_stripe_threshold=0) without a
  /// rebuild. Same grammar as coll::apply_param; unknown keys fail fast.
  std::vector<std::string> tune;

  static BenchArgs parse(int argc, char** argv) {
    tune_allocator();
    util::Args args(argc, argv);
    BenchArgs b;
    b.quick = args.has("quick");
    b.csv = args.has("csv");
    b.metrics = args.has("metrics");
    b.trace_out = args.get("trace-out", "");
    b.hist = args.has("hist");
    b.hist_out = args.get("hist-out", "");
    b.critpath = args.has("critpath");
    b.coherence = args.has("coherence");
    b.preset = args.get("preset", "");
    b.jobs = static_cast<int>(args.get_long("jobs", 1));
    b.verify = args.has("verify");
    b.faults = args.get("fault", "");
    b.fault_seed =
        static_cast<std::uint64_t>(args.get_long("fault-seed", 1));
    b.large = args.has("large");
    b.tune = args.get_all("tune");
    if (!b.faults.empty()) {
      // Fail fast on malformed specs, before any sweep spins up.
      (void)fault::Plan::parse(b.faults);
    }
    for (const auto& t : b.tune) {
      // Fail fast on unknown keys / malformed values too.
      coll::Tuning probe;
      coll::apply_param(probe, t);
    }
    XHC_REQUIRE(b.jobs >= 0, "--jobs must be >= 0, got ", b.jobs);
    return b;
  }

  /// Applies the cross-cutting knobs (trace gate, fault plan) to the
  /// tuning a bench is about to build a component from.
  void apply_tuning(coll::Tuning& tuning) const {
    tuning.trace = observe();
    tuning.faults = faults;
    tuning.fault_seed = fault_seed;
    for (const auto& t : tune) coll::apply_param(tuning, t);
  }

  /// Observability requested at all (any output form)?
  bool observe() const {
    return metrics || !trace_out.empty() || hist_on() || critpath;
  }

  /// Latency histograms requested (either output form)?
  bool hist_on() const { return hist || !hist_out.empty(); }

  /// The sweeps allocate and free hundreds of multi-megabyte payload
  /// buffers. glibc's default serves those straight from mmap, so every
  /// simulation run would pay a fresh page-fault storm and give the pages
  /// right back. Keeping them in the arena and never trimming it (-1 is
  /// glibc's "never" value) faults each payload page once per process:
  /// the next size wave reuses the pages the previous one freed, warm.
  /// Placement is unchanged (trimming only returns the heap top to the
  /// kernel), so addresses and every modeled number stay the same. The
  /// cost is that a process keeps its peak heap resident until it exits,
  /// per arena with --jobs (DESIGN.md § Host data plane).
  static void tune_allocator() {
#if defined(M_MMAP_THRESHOLD) && defined(M_TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, 256 << 20);
    mallopt(M_TRIM_THRESHOLD, -1);
#endif
  }

  /// Effective sweep parallelism. The shared Observer is not thread-safe
  /// across machines, so observability forces the sequential path.
  int effective_jobs() const { return observe() ? 1 : jobs; }

  /// Paper systems honoring --preset (all three when unset; an unknown
  /// preset name fails fast via topo::by_name).
  std::vector<std::string_view> systems() const {
    auto all = topo::paper_systems();
    if (preset.empty()) return all;
    (void)topo::by_name(preset);  // validate, throws on unknown names
    for (const auto s : all) {
      if (s == preset) return {s};
    }
    // Valid topology but not a paper evaluation system (e.g. mini8):
    // still honor it so smoke runs can use the tiny presets. The view
    // points into this BenchArgs, which outlives the sweep.
    return {std::string_view(preset)};
  }
};

inline void emit(const BenchArgs& args, const util::Table& table,
                 const std::string& title) {
  std::cout << "\n== " << title << " ==\n";
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout.flush();
}

/// Fresh simulated machine for one paper system, fully populated.
inline std::unique_ptr<sim::SimMachine> make_system(
    std::string_view name,
    topo::MapPolicy policy = topo::MapPolicy::kCore) {
  topo::Topology topo = topo::by_name(name);
  const int ranks = topo.n_cores();
  return std::make_unique<sim::SimMachine>(std::move(topo), ranks, policy);
}

/// Size sweep used by the latency figures: 4 B .. 4 MB. The paper uses x2
/// steps; x4 keeps the full suite CI-sized while preserving every regime
/// (CICO path, pipelined medium, cache-exceeding large).
inline std::vector<std::size_t> figure_sizes(bool quick, bool large = false) {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 4; s <= (quick ? (64u << 10) : (4u << 20)); s *= 4) {
    sizes.push_back(s);
  }
  if (large) {
    // --large: the points past the large-path thresholds, skipping any the
    // base sweep already covers (the full sweep covers all of them).
    for (const std::size_t s :
         {std::size_t{256} << 10, std::size_t{1} << 20, std::size_t{4} << 20}) {
      if (s > sizes.back()) sizes.push_back(s);
    }
  }
  return sizes;
}

inline std::string us(double v) { return util::Table::fmt_double(v, 2); }

/// "fig8.json" + "armn1" -> "fig8.armn1.json" (benches loop over systems and
/// must not overwrite one system's trace with the next one's).
inline std::string trace_path_for(const std::string& base,
                                  std::string_view label) {
  const auto dot = base.rfind('.');
  const auto slash = base.rfind('/');
  std::string ins = ".";
  ins += label;
  if (dot == std::string::npos ||
      (slash != std::string::npos && slash > dot)) {
    return base + ins;  // no extension: plain suffix
  }
  std::string out = base;
  out.insert(dot, ins);
  return out;
}

/// Writes the Chrome trace (when --trace-out) and prints the span/metrics
/// summary tables (when --metrics) for one finished system run. Non-zero
/// coh_* counters ride along into the trace as counter events.
inline void emit_observability(const BenchArgs& args, const obs::Observer& o,
                               const std::string& label) {
  if (!args.trace_out.empty()) {
    const std::string path = trace_path_for(args.trace_out, label);
    obs::write_chrome_trace_file(path, o.trace(), label, &o.metrics());
    std::cout << "trace written: " << path << " (" << o.trace().recorded()
              << " spans, " << o.trace().dropped() << " dropped)\n";
  }
  if (args.metrics) {
    std::cout << "\n== Spans, " << label << " ==\n";
    o.span_table().print(std::cout);
    std::cout << "\n== Metrics, " << label << " ==\n";
    o.metrics_table().print(std::cout);
  }
  std::cout.flush();
}

/// Attaches the observer's histogram set to the machine's flag-wait hook.
/// Call before the sweep, outside any parallel region; a null observer
/// leaves the hook disabled.
inline void wire_wait_hist(mach::Machine& machine, obs::Observer* o) {
  if (o != nullptr) machine.set_wait_hist(&o->hists());
}

/// Prints the histogram table (--hist) and writes the JSON (--hist-out) for
/// one finished system run. `per_comp` holds the per-size op histograms each
/// component's sweep collected (prefixed "comp/size"); the observer, when
/// present, contributes the site-level kinds (flag_wait, wait_site, chunk,
/// op) accumulated across the system's components.
inline void emit_hists(
    const BenchArgs& args, const std::string& label,
    const std::vector<std::pair<std::string, std::vector<obs::NamedHist>>>&
        per_comp,
    const obs::Observer* o) {
  if (!args.hist_on()) return;
  std::vector<obs::NamedHist> all;
  for (const auto& [comp, hs] : per_comp) {
    for (const auto& nh : hs) all.push_back({comp + "/" + nh.name, nh.hist});
  }
  if (o != nullptr) {
    for (auto& nh : obs::named_hists(o->hists())) all.push_back(std::move(nh));
  }
  if (args.hist) {
    std::cout << "\n== Hist, " << label << " ==\n";
    const util::Table table = obs::hist_table(all);
    if (args.csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  }
  if (!args.hist_out.empty()) {
    const std::string path = trace_path_for(args.hist_out, label);
    obs::write_hist_json_file(path, all, label);
    std::cout << "hist written: " << path << " (" << all.size()
              << " histograms)\n";
  }
  std::cout.flush();
}

/// Prints the critical-path report (--critpath) for one finished system run.
inline void emit_critpath(const BenchArgs& args, const obs::Observer& o,
                          const std::string& label) {
  if (!args.critpath) return;
  std::cout << "\n== Critical path, " << label << " ==\n";
  obs::write_critpath_report(std::cout, obs::analyze_critical_paths(o.trace()));
  std::cout.flush();
}

/// Enables the machine's modeled coherence accounting when any consumer of
/// it was requested (--coherence report, --metrics counters, --trace-out
/// counter events). Tracking is observational only — virtual timestamps are
/// identical on or off — so default runs stay byte-identical.
inline void wire_coherence(const BenchArgs& args, mach::Machine& machine) {
  machine.set_coh_tracking(args.coherence || args.metrics ||
                           !args.trace_out.empty());
}

/// The machine's coherence report formatted for --coherence output, or ""
/// when the machine models none / the flag is off. Returned (not printed)
/// so sweeps parallelized with --jobs can buffer per-point reports and
/// print them in deterministic point order.
inline std::string coh_report_string(const BenchArgs& args,
                                     const mach::Machine& machine,
                                     const std::string& label) {
  if (!args.coherence) return "";
  obs::CohReport report;
  if (!machine.coh_report(&report)) return "";
  std::ostringstream os;
  os << "\n== Coherence, " << label << " ==\n";
  obs::write_coh_report(os, report);
  return std::move(os).str();
}

/// One component's sweep over a size list (osu::bcast_sweep,
/// osu::allreduce_sweep).
using SweepFn = std::vector<osu::SizeResult> (*)(
    mach::Machine&, coll::Component&, const std::vector<std::size_t>&,
    const osu::Config&);

/// The body of the latency figures (Fig. 8, Fig. 11): sweeps every
/// component of `comps` over figure_sizes() on each selected system and
/// prints one "<title>, <system>" table per system, each followed by the
/// histogram, coherence, metrics/trace and critical-path output the flags
/// request.
inline int run_latency_figure(const BenchArgs& args, std::string_view title,
                              const std::vector<std::string_view>& comps,
                              SweepFn sweep) {
  const auto sizes = figure_sizes(args.quick, args.large);
  const auto systems = args.systems();

  // One independent sim point per (system, component) pair. Each point owns
  // a private SimMachine, so the worker pool may run them on any host
  // thread in any order while the tables, assembled by point index below,
  // stay byte-identical to a sequential sweep.
  std::vector<std::vector<std::vector<osu::SizeResult>>> results(
      systems.size(), std::vector<std::vector<osu::SizeResult>>(comps.size()));
  std::vector<std::unique_ptr<obs::Observer>> observers(systems.size());
  std::vector<std::vector<obs::NamedHist>> hists(systems.size() *
                                                 comps.size());
  std::vector<std::string> coh_reports(systems.size() * comps.size());

  osu::run_points(
      systems.size() * comps.size(), args.effective_jobs(),
      [&](std::size_t i) {
        const std::size_t si = i / comps.size();
        const std::size_t ci = i % comps.size();
        auto machine = make_system(systems[si]);
        coll::Tuning tuning;
        args.apply_tuning(tuning);
        auto comp = coll::make_component(comps[ci], *machine, tuning);
        osu::Config cfg;
        cfg.warmup = 1;
        cfg.iters = args.quick ? 1 : 2;
        cfg.verify = args.verify;
        if (args.observe()) {
          // Observability forces effective_jobs()==1, so sharing one
          // Observer across a system's components stays race-free.
          if (!observers[si]) {
            observers[si] = std::make_unique<obs::Observer>(machine->n_ranks());
          }
          cfg.observer = observers[si].get();
        }
        if (args.hist_on()) cfg.size_hists = &hists[i];
        wire_wait_hist(*machine, cfg.observer);
        wire_coherence(args, *machine);
        results[si][ci] = sweep(*machine, *comp, sizes, cfg);
        // Each point owns its machine, so the report is private to this
        // worker; buffering keeps print order deterministic under --jobs.
        coh_reports[i] = coh_report_string(
            args, *machine,
            std::string(systems[si]) + "/" + std::string(comps[ci]));
      });

  for (std::size_t si = 0; si < systems.size(); ++si) {
    util::Table table([&] {
      std::vector<std::string> header{"Size"};
      for (const auto c : comps) header.emplace_back(c);
      return header;
    }());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      std::vector<std::string> row{util::Table::fmt_bytes(sizes[i])};
      for (std::size_t ci = 0; ci < comps.size(); ++ci) {
        row.push_back(us(results[si][ci][i].avg_us));
      }
      table.add_row(std::move(row));
    }
    const std::string system(systems[si]);
    emit(args, table, std::string(title) + ", " + system);
    if (args.hist_on()) {
      std::vector<std::pair<std::string, std::vector<obs::NamedHist>>>
          per_comp;
      for (std::size_t ci = 0; ci < comps.size(); ++ci) {
        per_comp.emplace_back(std::string(comps[ci]),
                              std::move(hists[si * comps.size() + ci]));
      }
      emit_hists(args, system, per_comp, observers[si].get());
    }
    for (std::size_t ci = 0; ci < comps.size(); ++ci) {
      std::cout << coh_reports[si * comps.size() + ci];
    }
    if (observers[si]) {
      emit_observability(args, *observers[si], system);
      emit_critpath(args, *observers[si], system);
    }
  }
  return 0;
}

}  // namespace xhc::bench
