// Extension benchmark (paper §VII, "our ongoing work focuses on the Reduce
// primitive ... and effects regarding Barrier"): MPI_Reduce latency and
// MPI_Barrier scaling for the native XHC implementations against tuned and
// the allreduce-fallback components.
#include "bench/bench_common.h"

static int run(int argc, char** argv) {
  using namespace xhc;
  const auto args = bench::BenchArgs::parse(argc, argv);

  // --- Reduce latency sweep (Epyc-2P + ARM-N1) -----------------------------
  for (const char* system : {"epyc2p", "armn1"}) {
    const std::vector<std::size_t> sizes =
        args.quick ? std::vector<std::size_t>{4096}
                   : std::vector<std::size_t>{64, 4096, 65536, 1048576};
    util::Table table({"Size", "xhc (native)", "tuned (binomial)",
                       "ucc (fallback)", "xbrc"});
    std::vector<std::vector<std::string>> rows(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      rows[i].push_back(util::Table::fmt_bytes(sizes[i]));
    }
    for (const char* comp_name : {"xhc", "tuned", "ucc", "xbrc"}) {
      auto machine = bench::make_system(system);
      auto comp = coll::make_component(comp_name, *machine);
      osu::Config cfg;
      cfg.warmup = 1;
      cfg.iters = args.quick ? 1 : 2;
      const auto res = osu::reduce_sweep(*machine, *comp, sizes, cfg);
      for (std::size_t i = 0; i < res.size(); ++i) {
        rows[i].push_back(bench::us(res[i].avg_us));
      }
    }
    for (auto& row : rows) table.add_row(std::move(row));
    bench::emit(args, table,
                std::string("Extension: MPI_Reduce latency (us), ") + system);
  }

  // --- Barrier scaling on ARM-N1, and the full Epycs ----------------------
  // On the Epycs xhc releases its barrier flat from rank 0 through the
  // cache tree (DESIGN.md § Cache tree); ARM-N1 has no shared LLC.
  {
    util::Table table({"System", "Ranks", "xhc (hierarchical flags)",
                       "tuned (dissemination)", "sm (fallback)"});
    std::vector<std::pair<topo::Topology, int>> points;
    for (const int ranks : args.quick ? std::vector<int>{40, 160}
                                      : std::vector<int>{20, 40, 80, 160}) {
      points.emplace_back(topo::armn1(), ranks);
    }
    for (const topo::Topology& t : {topo::epyc1p(), topo::epyc2p()}) {
      points.emplace_back(t, t.n_cores());
    }
    for (const auto& [topology, ranks] : points) {
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
