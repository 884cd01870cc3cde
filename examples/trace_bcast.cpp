// Observability demo: trace XHC collectives and export a Chrome trace.
//
// Runs a broadcast and an allreduce on the simulated 64-core Epyc-1P with
// Tuning::trace enabled, then writes `xhc_bcast.trace.json` (load it at
// ui.perfetto.dev or chrome://tracing — one process per rank, spans on the
// virtual-time axis) and prints the span and counter summary tables.
//
//   $ ./examples/trace_bcast [out.trace.json]
#include <cstdio>
#include <iostream>

#include "coll/registry.h"
#include "obs/export.h"
#include "obs/observer.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/prng.h"

int main(int argc, char** argv) {
  using namespace xhc;
  const std::string out = argc > 1 ? argv[1] : "xhc_bcast.trace.json";

  topo::Topology topo = topo::epyc1p();
  const int n = topo.n_cores();
  sim::SimMachine machine(std::move(topo), n);

  // Tracing is opt-in per component: the Tuning::trace knob plus an attached
  // Observer. Default-tuned components skip every span/counter site.
  coll::Tuning tuning;
  tuning.trace = true;
  auto xhc = coll::make_component("xhc", machine, tuning);
  obs::Observer observer(machine.n_ranks());
  xhc->set_observer(&observer);

  constexpr std::size_t kBytes = 1 << 20;  // 1 MiB: the pipelined regime
  std::vector<mach::Buffer> bufs;
  std::vector<mach::Buffer> rbufs;
  for (int r = 0; r < n; ++r) {
    bufs.emplace_back(machine, r, kBytes);
    rbufs.emplace_back(machine, r, kBytes);
  }
  util::fill_pattern(bufs[0].get(), kBytes, /*seed=*/7);

  machine.run([&](mach::Ctx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    xhc->bcast(ctx, bufs[r].get(), kBytes, /*root=*/0);
    xhc->allreduce(ctx, bufs[r].get(), rbufs[r].get(),
                   kBytes / sizeof(float), mach::DType::kF32, mach::ROp::kSum);
  });

  const obs::Snapshot snap(observer);
  obs::write_file(out, "trace", [&](std::ostream& os) {
    obs::write_chrome_trace(os, {&snap}, "xhc");
  });
  std::printf("wrote %s: %llu spans over %d ranks (%llu dropped)\n",
              out.c_str(), static_cast<unsigned long long>(snap.recorded), n,
              static_cast<unsigned long long>(snap.dropped));

  std::cout << "\nSpan summary:\n";
  obs::span_table({&snap}).print(std::cout);
  std::cout << "\nCounter summary:\n";
  obs::metrics_table({&snap.metrics}).print(std::cout);
  return 0;
}
