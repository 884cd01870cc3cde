// Fig. 10 — flag cache-line sharing schemes (Epyc-1P, small broadcasts).
//
// The leader→members progress flags are laid out either packed into shared
// cache lines ("shared", closest to XHC's actual single-flag design) or one
// line per member ("separated"). With shared lines, one core per L3 group
// pulls the line and its group peers hit locally — the flat tree stays
// ahead of the hierarchical one for tiny messages. With separated lines
// every member's fetch is serviced by the leader core's port, the flat
// tree's fan-out serializes there, and the trend reverses (paper §V-D1).
//
// The coherence observatory runs with tracking always on here: the packed
// layout must cost strictly more HITM-class services + ownership transfers
// on the announce lines than the separated one (asserted below; this is the
// figure's mechanism, so a model change that loses it should fail loudly).
#include "bench/bench_common.h"
#include "core/xhc_component.h"

static int run(int argc, char** argv) {
  using namespace xhc;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::vector<std::size_t> sizes =
      args.quick ? std::vector<std::size_t>{4}
                 : std::vector<std::size_t>{4, 16, 64, 256};
  const std::string system =
      args.preset.empty() ? "epyc1p" : args.preset;

  struct Point {
    const char* sensitivity;
    coll::FlagLayout layout;
    const char* label;
  };
  const std::vector<Point> points = {
      {"flat", coll::FlagLayout::kMultiSharedLine, "flat shared"},
      {"flat", coll::FlagLayout::kMultiSeparateLines, "flat separated"},
      {"numa+socket", coll::FlagLayout::kMultiSharedLine, "tree shared"},
      {"numa+socket", coll::FlagLayout::kMultiSeparateLines,
       "tree separated"},
  };

  std::vector<std::vector<osu::SizeResult>> results(points.size());
  std::vector<bench::PointReport> obs_points(points.size());
  std::vector<obs::CohReport> reports(points.size());
  std::vector<char> have_report(points.size(), 0);

  osu::run_points(points.size(), args.jobs, [&](std::size_t i) {
    auto machine = bench::make_system(system);
    coll::Tuning tuning;
    args.apply_tuning(tuning);
    tuning.sensitivity = points[i].sensitivity;
    tuning.flag_layout = points[i].layout;
    core::XhcComponent comp(*machine, tuning, "xhc-layout");
    osu::Config cfg;
    cfg.warmup = 1;
    cfg.iters = args.quick ? 2 : 4;
    cfg.verify = args.verify;
    bench::PointObs point(args, *machine, cfg, &obs_points[i]);
    // The announce-line assertion below needs the modeled counters even in
    // default runs; tracking never changes virtual time.
    machine->set_coh_tracking(true);
    results[i] = osu::bcast_sweep(*machine, comp, sizes, cfg);
    have_report[i] =
        machine->coh_report(&reports[i]) ? char(1) : char(0);
    point.finish(comp, system + "/" + points[i].label);
  });

  util::Table table([&] {
    std::vector<std::string> header{"Size"};
    for (const Point& p : points) header.emplace_back(p.label);
    return header;
  }());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::string> row{util::Table::fmt_bytes(sizes[i])};
    for (std::size_t pi = 0; pi < points.size(); ++pi) {
      row.push_back(bench::us(results[pi][i].avg_us));
    }
    table.add_row(std::move(row));
  }
  bench::emit(args, table,
              "Fig. 10: bcast latency (us) by flag cache-line scheme, " +
                  system);
  std::vector<std::string> names;
  for (const Point& p : points) names.emplace_back(p.label);
  bench::emit_points(args, system, obs_points, names);

  // Scenario assertion (paper Fig. 10 mechanism): across the sweep, the
  // packed announce lines must pay strictly more HITM-class coherence
  // traffic + ownership transfers than the one-line-per-member layout.
  // Fault plans perturb the publish counts, so the check only runs clean.
  if (args.faults.empty()) {
    obs::CohTotals shared_sum;
    obs::CohTotals sep_sum;
    auto add = [](obs::CohTotals& into, const obs::CohTotals& from) {
      into.hitm += from.hitm;
      into.spin_refetches += from.spin_refetches;
      into.transfers += from.transfers;
    };
    for (std::size_t pi = 0; pi < points.size(); ++pi) {
      if (have_report[pi] == 0) continue;
      add(shared_sum, obs::coh_sum_matching(reports[pi], "announce_shared"));
      add(sep_sum, obs::coh_sum_matching(reports[pi], "announce_sep"));
    }
    const std::uint64_t shared_cost =
        shared_sum.hitm_class() + shared_sum.transfers;
    const std::uint64_t sep_cost = sep_sum.hitm_class() + sep_sum.transfers;
    XHC_CHECK(shared_cost > sep_cost,
              "Fig. 10 coherence assertion: packed announce lines cost ",
              shared_cost, " HITM-class + transfers, separated cost ",
              sep_cost, " — the packed layout must be strictly worse");
    std::cout << "coherence assertion: announce_shared "
              << shared_cost << " > announce_sep " << sep_cost
              << " (HITM-class + ownership transfers)\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return xhc::osu::guarded_main([&] { return run(argc, argv); });
}
