// Fig. 4 — 4-byte broadcast with atomics- vs single-writer-based
// synchronization as the node fills up (ARM-N1, flat tree).
//
// The same flat shared-memory broadcast runs with its completion flags
// either stored by each member (single-writer) or bumped with an atomic
// fetch-add. On the SLC-based ARM system every RMW serializes an exclusive
// ownership transfer of the counter's cache line, so the atomics variant
// degrades dramatically with rank count (the paper measures 23x at 160
// ranks).
//
// The coherence observatory runs with tracking always on here: N
// concurrent RMWs on the shared counter must migrate its exclusive
// ownership on nearly every bump (asserted below — Fig. 4's mechanism),
// and the single-writer variant must never touch the counter at all.
#include "bench/bench_common.h"
#include "core/xhc_component.h"

static int run(int argc, char** argv) {
  using namespace xhc;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::string system = args.preset.empty() ? "armn1" : args.preset;
  const int n_cores = topo::by_name(system).n_cores();

  // Rank counts scaled to the preset's core count; on armn1 (160 cores)
  // this reproduces the paper's 10..160 sweep.
  std::vector<int> rank_counts;
  for (const int frac : args.quick ? std::vector<int>{8, 1}
                                   : std::vector<int>{16, 8, 4, 2}) {
    const int r = std::max(2, n_cores / frac);
    if (rank_counts.empty() || rank_counts.back() != r) {
      rank_counts.push_back(r);
    }
  }
  if (!args.quick) {
    const int three_q = std::max(2, 3 * n_cores / 4);
    if (rank_counts.back() != three_q) rank_counts.push_back(three_q);
    if (rank_counts.back() != n_cores) rank_counts.push_back(n_cores);
  }

  const std::size_t n_points = rank_counts.size() * 2;
  std::vector<double> lat(n_points, 0.0);
  std::vector<bench::PointReport> points(n_points);
  std::vector<obs::CohReport> reports(n_points);
  std::vector<char> have_report(n_points, 0);

  osu::run_points(n_points, args.jobs, [&](std::size_t i) {
    const std::size_t ri = i / 2;
    const bool atomics = (i % 2) != 0;
    const int ranks = rank_counts[ri];
    sim::SimMachine machine(topo::by_name(system), ranks);
    coll::Tuning tuning;
    args.apply_tuning(tuning);
    tuning.sensitivity = "flat";
    tuning.sync = atomics ? coll::SyncMethod::kAtomicFetchAdd
                          : coll::SyncMethod::kSingleWriter;
    core::XhcComponent comp(machine, tuning,
                            atomics ? "flat-atomic" : "flat-sw");
    osu::Config cfg;
    cfg.warmup = 1;
    cfg.iters = args.quick ? 2 : 4;
    cfg.verify = args.verify;
    bench::PointObs point(args, machine, cfg, &points[i]);
    // The RMW-transfer assertion below needs the modeled counters even in
    // default runs; tracking never changes virtual time.
    machine.set_coh_tracking(true);
    const auto res = osu::bcast_sweep(machine, comp, {4}, cfg);
    lat[i] = res.front().avg_us;
    have_report[i] = machine.coh_report(&reports[i]) ? char(1) : char(0);
    point.finish(comp, system + "/" + std::to_string(ranks) +
                           (atomics ? " atomics" : " single-writer"));
  });

  util::Table table({"Ranks", "single-writer (us)", "atomics (us)", "ratio"});
  for (std::size_t ri = 0; ri < rank_counts.size(); ++ri) {
    const double sw = lat[ri * 2];
    const double at = lat[ri * 2 + 1];
    table.add_row({std::to_string(rank_counts[ri]), bench::us(sw),
                   bench::us(at),
                   util::Table::fmt_double(at / sw, 1) + "x"});
  }
  bench::emit(args, table,
              "Fig. 4: 4 B broadcast, atomics vs single-writer sync, " +
                  system);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n_points; ++i) {
    names.push_back(std::to_string(rank_counts[i / 2]) +
                    ((i % 2) != 0 ? "-atomic" : "-sw"));
  }
  bench::emit_points(args, system, points, names);

  // Scenario assertion (paper Fig. 4 mechanism): the shared counter's line
  // must migrate ownership on the overwhelming majority of RMW bumps (each
  // member's fetch-add steals it from the previous bumper; only back-to-
  // back bumps by one core keep it), and the single-writer variant must
  // never issue an RMW. Fault plans perturb publish counts; check clean
  // runs only.
  if (args.faults.empty()) {
    for (std::size_t i = 0; i < n_points; ++i) {
      if (have_report[i] == 0) continue;
      const int ranks = rank_counts[i / 2];
      const obs::CohTotals ctr =
          obs::coh_sum_matching(reports[i], "atomic_ctr");
      if ((i % 2) == 0) {
        XHC_CHECK(ctr.rmws == 0, "Fig. 4: single-writer run at ", ranks,
                  " ranks issued ", ctr.rmws, " RMWs on atomic_ctr");
        continue;
      }
      XHC_CHECK(ctr.rmws >= static_cast<std::uint64_t>(ranks - 1),
                "Fig. 4: atomics run at ", ranks, " ranks issued only ",
                ctr.rmws, " RMWs on atomic_ctr");
      // ~N transfers for N concurrent RMWs: at least half must migrate
      // (empirically ≥ (ranks-1)/ranks of them do). With a single bumping
      // member (2 ranks) every RMW stays on one core and nothing migrates,
      // so the migration check needs at least two contending members.
      if (ranks >= 3) {
        XHC_CHECK(ctr.transfers * 2 >= ctr.rmws,
                  "Fig. 4: atomics run at ", ranks, " ranks: only ",
                  ctr.transfers, " ownership transfers for ", ctr.rmws,
                  " RMWs — the counter line should migrate on nearly every "
                  "bump");
      }
    }
    std::cout << "coherence assertion: atomic_ctr migrates on RMW bumps; "
                 "single-writer never touches it\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return xhc::osu::guarded_main([&] { return run(argc, argv); });
}
