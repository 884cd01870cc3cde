// Fig. 11 — MPI_Allreduce latency vs message size, all components, all
// three systems (osu_allreduce_mb, float sum; paper §V-D2).
//
// Expected shapes: XHC-tree leads broadly; tuned's recursive doubling is
// competitive for tiny messages; XHC-flat and XBRC behave similarly (both
// flat single-copy reducers) and fall behind on the larger systems; ucc is
// the closest competitor in the 128 KB–1 MB band; sm collapses on ARM-N1.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace xhc;
  return osu::guarded_main([&] {
    const auto args = bench::BenchArgs::parse(argc, argv);
    return bench::run_latency_figure(
        args, "Fig. 11: MPI_Allreduce latency (us)",
        coll::allreduce_component_names(), osu::allreduce_sweep);
  });
}
