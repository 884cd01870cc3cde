// Extension benchmark (paper §VII, "our ongoing work focuses on the Reduce
// primitive ... and effects regarding Barrier"): MPI_Reduce latency and
// MPI_Barrier scaling for the native XHC implementations against tuned and
// the allreduce-fallback components.
//
// The reduce tables report, per component, the OSU average over ranks and
// the slowest rank (osu::SizeResult::max_us): a rank of an early-released
// reduce returns once its readers are done, so the average alone would hide
// that the root finishes last. max is the root's completion, or a flag read
// after it where the root's last act releases a waiting child. Each paper
// system runs at root 0 and at a far root (the last rank, on the far socket
// of the two-socket nodes), with xhc's allreduce alongside for reference.
// The crossover table pits xhc's latency path (binomial fan-in up to one
// chunk, chunk-parallel reducers above) against its reduce-scatter + rooted
// gather, forced over every size, next to the default dispatch.
#include <algorithm>
#include <functional>

#include "bench/bench_common.h"

namespace {

using namespace xhc;

/// One reduce sweep (or the xhc allreduce reference) of a paper system.
struct ReducePoint {
  std::size_t system = 0;
  int root = 0;
  std::string comp;
  bool allreduce = false;
  std::function<void(coll::Tuning&)> tune;  ///< extra tuning, if any
};

/// Runs one point; a non-null `report` observes it (a reduce point, whose
/// output is labelled "<system>/<comp>/reduce/r<root>").
std::vector<osu::SizeResult> run_point(const bench::BenchArgs& args,
                                       std::string_view system,
                                       const ReducePoint& p,
                                       const std::vector<std::size_t>& sizes,
                                       bench::PointReport* report) {
  auto machine = bench::make_system(system);
  coll::Tuning tuning;
  args.apply_tuning(tuning);
  if (p.tune) p.tune(tuning);
  auto comp = coll::make_component(p.comp, *machine, tuning);
  osu::Config cfg;
  cfg.warmup = 1;
  cfg.iters = args.quick ? 1 : 2;
  cfg.verify = args.verify;
  cfg.root = p.root;
  bench::PointObs point(args, *machine, cfg, report);
  auto res = p.allreduce ? osu::allreduce_sweep(*machine, *comp, sizes, cfg)
                         : osu::reduce_sweep(*machine, *comp, sizes, cfg);
  if (report != nullptr) {
    point.finish(*comp, std::string(system) + "/" + p.comp + "/reduce/r" +
                            std::to_string(p.root));
  }
  return res;
}

}  // namespace

static int run(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const auto systems = args.systems();

  // --- Reduce latency, root 0 and a far root --------------------------------
  const std::vector<std::size_t> sizes{64, 4096, 16392, 65536, 1048576};
  const std::vector<const char*> comps{"xhc", "tuned", "ucc", "xbrc"};
  std::vector<ReducePoint> points;
  for (std::size_t si = 0; si < systems.size(); ++si) {
    const int n = topo::by_name(systems[si]).n_cores();
    points.push_back({si, 0, "xhc", /*allreduce=*/true, nullptr});
    for (const int root : {0, n - 1}) {
      for (const char* c : comps) {
        points.push_back({si, root, c, false, nullptr});
      }
    }
  }
  // The observability output follows xhc's reduce at the far root.
  std::vector<bench::PointReport> observed(systems.size());
  std::vector<std::vector<osu::SizeResult>> results(points.size());
  osu::run_points(points.size(), args.jobs, [&](std::size_t i) {
    const ReducePoint& p = points[i];
    const int n = topo::by_name(systems[p.system]).n_cores();
    const bool far_xhc = p.comp == "xhc" && !p.allreduce && p.root == n - 1;
    results[i] = run_point(args, systems[p.system], p, sizes,
                           far_xhc ? &observed[p.system] : nullptr);
  });

  for (std::size_t si = 0; si < systems.size(); ++si) {
    const std::string system(systems[si]);
    const int n = topo::by_name(systems[si]).n_cores();
    const auto find = [&](int root, std::string_view comp, bool all) {
      for (std::size_t i = 0; i < points.size(); ++i) {
        const ReducePoint& p = points[i];
        if (p.system == si && p.comp == comp && p.allreduce == all &&
            (all || p.root == root)) {
          return &results[i];
        }
      }
      XHC_CHECK(false, "missing reduce point");
      return &results.front();
    };
    for (const int root : {0, n - 1}) {
      std::vector<std::string> header{"Size"};
      for (const char* c : comps) {
        header.push_back(std::string(c) + " avg");
        header.push_back(std::string(c) + " max");
      }
      header.emplace_back("xhc allreduce");
      util::Table table(header);
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        std::vector<std::string> row{util::Table::fmt_bytes(sizes[k])};
        for (const char* c : comps) {
          const osu::SizeResult& r = (*find(root, c, false))[k];
          row.push_back(bench::us(r.avg_us));
          row.push_back(bench::us(r.max_us));
        }
        row.push_back(bench::us((*find(0, "xhc", true))[k].avg_us));
        table.add_row(std::move(row));
      }
      bench::emit(args, table,
                  "Extension: MPI_Reduce latency (us; avg over ranks, max = "
                  "slowest rank, the root or just after it), " +
                      system + " root " + std::to_string(root));
    }
    const std::string label = system + "/xhc/reduce/r" + std::to_string(n - 1);
    bench::emit_points(args, label, {&observed[si], 1}, {"xhc"});
  }

  // --- Crossover: latency path vs reduce-scatter + rooted gather -----------
  // rs_ag_threshold 0 keeps every size on the latency path; 1 sends every
  // size above the CICO threshold to the bandwidth path.
  {
    const std::vector<std::size_t> xsizes{4096,  8192,  8200,  12288,
                                          16384, 16392, 32768, 65536};
    const std::vector<std::function<void(coll::Tuning&)>> variants{
        [](coll::Tuning& t) { t.rs_ag_threshold = 0; },
        [](coll::Tuning& t) { t.rs_ag_threshold = 1; }, nullptr};
    std::vector<std::vector<osu::SizeResult>> xres(systems.size() *
                                                   variants.size());
    osu::run_points(xres.size(), args.jobs, [&](std::size_t i) {
      const ReducePoint p{i / variants.size(), 0, "xhc", false,
                          variants[i % variants.size()]};
      xres[i] = run_point(args, systems[p.system], p, xsizes, nullptr);
    });
    for (std::size_t si = 0; si < systems.size(); ++si) {
      util::Table table({"Size", "latency avg", "latency max", "RS+gather avg",
                         "RS+gather max", "default avg", "RS+gather/latency"});
      for (std::size_t k = 0; k < xsizes.size(); ++k) {
        const osu::SizeResult& lat = xres[si * variants.size()][k];
        const osu::SizeResult& rsg = xres[si * variants.size() + 1][k];
        const osu::SizeResult& def = xres[si * variants.size() + 2][k];
        table.add_row({util::Table::fmt_bytes(xsizes[k]), bench::us(lat.avg_us),
                       bench::us(lat.max_us), bench::us(rsg.avg_us),
                       bench::us(rsg.max_us), bench::us(def.avg_us),
                       util::Table::fmt_double(rsg.avg_us / lat.avg_us, 3)});
      }
      bench::emit(args, table,
                  "Extension: xhc MPI_Reduce size classes at root 0 (us), " +
                      std::string(systems[si]));
    }
  }

  // --- Barrier scaling on ARM-N1, and the full Epycs ----------------------
  // On the Epycs xhc releases its barrier flat from rank 0 through the
  // cache tree (DESIGN.md § Cache tree); ARM-N1 has no shared LLC.
  {
    util::Table table({"System", "Ranks", "xhc (hierarchical flags)",
                       "tuned (dissemination)", "sm (fallback)"});
    const auto selected = [&](std::string_view name) {
      return std::find(systems.begin(), systems.end(), name) != systems.end();
    };
    std::vector<std::pair<topo::Topology, int>> bpoints;
    for (const int ranks : args.quick ? std::vector<int>{40, 160}
                                      : std::vector<int>{20, 40, 80, 160}) {
      if (selected("armn1")) bpoints.emplace_back(topo::armn1(), ranks);
    }
    for (const char* name : {"epyc1p", "epyc2p"}) {
      if (!selected(name)) continue;
      const topo::Topology t = topo::by_name(name);
      bpoints.emplace_back(t, t.n_cores());
    }
    for (const auto& [topology, ranks] : bpoints) {
      std::vector<std::string> row{topology.name(), std::to_string(ranks)};
      for (const char* comp_name : {"xhc", "tuned", "sm"}) {
        sim::SimMachine machine(topology, ranks);
        auto comp = coll::make_component(comp_name, machine);
        osu::Config cfg;
        cfg.warmup = 1;
        cfg.iters = args.quick ? 2 : 4;
        row.push_back(
            bench::us(osu::barrier_latency_us(machine, *comp, cfg)));
      }
      table.add_row(std::move(row));
    }
    bench::emit(args, table,
                "Extension: MPI_Barrier latency (us) vs node occupancy");
  }
  return 0;
}

int main(int argc, char** argv) {
  return xhc::osu::guarded_main([&] { return run(argc, argv); });
}
