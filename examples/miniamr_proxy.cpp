// Application-level comparison: the miniAMR proxy on a simulated node.
//
// Shows how to drive an application communication pattern against multiple
// collective components and read out total vs in-collective time — the
// experiment structure behind the paper's Fig. 13.
//
//   $ ./examples/miniamr_proxy [--system=armn1] [--steps=200]
#include <iostream>

#include "apps/miniamr.h"
#include "coll/registry.h"
#include "osu/harness.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/str.h"
#include "util/table.h"

namespace {

int run(int argc, char** argv) {
  using namespace xhc;
  const util::Args args(argc, argv);
  const std::string system = args.get("system", "armn1");
  const long steps = args.get_long("steps", 200);

  apps::MiniAmrConfig config = apps::miniamr_1k_levels();
  config.timesteps = static_cast<int>(steps);

  std::cout << "miniAMR proxy (" << config.timesteps << " timesteps, "
            << config.reduce_bytes << " B allreduces, every "
            << config.refine_every << " step(s)) on simulated " << system
            << "\n\n";

  util::Table table({"Component", "Total (ms)", "In-allreduce (ms)",
                     "Allreduce calls"});
  for (const char* comp_name : {"xhc", "xhc-flat", "tuned", "ucc", "xbrc"}) {
    topo::Topology topo = topo::by_name(system);
    sim::SimMachine machine(std::move(topo), topo::by_name(system).n_cores());
    auto comp = coll::make_component(comp_name, machine);
    const apps::AppResult res = apps::run_miniamr(machine, *comp, config);
    table.add_row({comp_name, util::Table::fmt_double(res.total_time * 1e3, 2),
                   util::Table::fmt_double(res.collective_time * 1e3, 2),
                   std::to_string(res.collective_calls)});
  }
  table.print(std::cout);
  std::cout << "\nThe gap between components is confined to the "
               "in-allreduce column; compute time is identical.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return xhc::osu::guarded_main([&] { return run(argc, argv); });
}
