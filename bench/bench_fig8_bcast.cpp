// Fig. 8 — MPI_Bcast latency vs message size, all components, all three
// systems (osu_bcast_mb, paper §V-D1).
//
// Expected shapes: XHC-tree leads for medium/large messages everywhere;
// XHC-flat beats XHC-tree for *small* messages on the shared-LLC Epycs
// (implicit cache assist) but collapses on SLC-based ARM-N1; sm's
// atomics-based sync is catastrophic on ARM-N1; SMHC's double copies hurt
// at large sizes; the XHC-tree advantage grows with node density.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace xhc;
  return osu::guarded_main([&] {
    const auto args = bench::BenchArgs::parse(argc, argv);
    return bench::run_latency_figure(args, "Fig. 8: MPI_Bcast latency (us)",
                                     coll::bcast_component_names(),
                                     osu::bcast_sweep);
  });
}
