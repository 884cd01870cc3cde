// Protocol analyzer driver: records the real XHC collectives on the
// simulated machine over whole preset x op x size-class grids and proves
// the flag protocol and payload ordering of every recorded schedule.
//
//   analyze_protocol                     # sweep everything, text reports
//   analyze_protocol --preset=mini8      # one target
//   analyze_protocol --op=allreduce --size=262144
//   analyze_protocol --json --out=schedules.json
//   analyze_protocol --tune=xhc_stripe_threshold=4096
//
// Each first-op cell runs one op (at --root, default 0) on a freshly built
// component. Each steady-state cell runs check::steady_state_ops — nine
// back-to-back ops of every class with rotating roots — on one component;
// on epyc2p, mini16 and grid12 the threshold-straddling cells run the same
// sequence with sizes alternating across a size class
// (check::straddling_ops), so consecutive bcasts switch between the cache
// tree and the flag tree, and the rotating-root cells run a reduce at every
// root in turn between one-chunk allreduces, barriers and bcasts
// (check::rotating_root_ops), at 4 KiB, at 64 KiB, alternating 512/32768 B
// and alternating 4 KiB/64 KiB, so consecutive reduces switch between the
// early-released fan-in and the reduce-scatter + rooted gather. On mini16
// and grid12 the flag-tree cells run a bcast at every root in turn with
// `llc_aware` off (check::rotating_bcast_ops), at 4 KiB, at 40000 B and
// alternating 512/40000 B, so ranks switch between pulling from the root on
// its seq alone and pulling from a relaying leader. On grid12n (no shared
// LLC, three NUMA leaders per socket group) the chain cells run a bcast at
// every root in turn at 128 KiB + 4 B, where ranks pull along their member
// group's chain, and alternating it with 64 KiB, where they pull from the
// leader. These cells mix op classes or tunings, so --op skips them. Every
// cell runs every analyzer check (single-writer, monotonicity, threshold
// reachability, acyclicity, payload races). Output is byte-deterministic;
// the exit status is the total finding count clamped to 1, so CI can gate
// on it directly.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/analyzer.h"
#include "check/record.h"
#include "coll/tuning.h"
#include "core/xhc_component.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/check.h"
#include "util/str.h"

namespace {

using namespace xhc;

/// Paper systems, the test minis, and synthetic shapes the presets do not
/// cover (a flat single-domain machine and an odd 3-NUMA grid, with and
/// without a shared LLC).
const std::vector<std::string> kTargets = {
    "epyc1p", "epyc2p", "armn1",  "mini8",   "mini16",
    "flat4",  "flat8",  "grid12", "grid12n",
};

topo::Topology target_by_name(const std::string& name) {
  if (name == "flat4") return topo::flat(4);
  if (name == "flat8") return topo::flat(8);
  if (name == "grid12") return topo::grid("grid12", 2, 3, 2, 2);
  if (name == "grid12n") return topo::grid("grid12n", 2, 3, 2, 0);
  return topo::by_name(name);
}

struct OpSpec {
  check::Op op;
  const char* name;
};

const std::vector<OpSpec> kOps = {
    {check::Op::kBcast, "bcast"},
    {check::Op::kAllreduce, "allreduce"},
    {check::Op::kReduce, "reduce"},
    {check::Op::kBarrier, "barrier"},
};

/// One size per regime: CICO (< cico_threshold), pipelined latency
/// (multi-chunk; allreduce already takes rs+ag above 8 KiB), and past the
/// large-message thresholds (rs+ag / striping).
const std::vector<std::size_t> kSizes = {512, 32768, 262144};

/// Size pairs of the threshold-straddling cells: a CICO one-chunk size
/// against a multi-chunk one, and exactly one chunk against one chunk plus
/// an element.
const std::vector<std::pair<std::size_t, std::size_t>> kStraddles = {
    {512, 32768}, {16384, 16392}};
/// Targets of the straddling and rotating-root cells: the shared-LLC shapes
/// whose one-chunk ops end on the cache tree.
const std::vector<std::string> kStraddleTargets = {"epyc2p", "mini16",
                                                   "grid12"};
/// Targets of the flag-tree rotating-bcast cells: three-level flag trees
/// whose root-led groups hold relaying leaders.
const std::vector<std::string> kFlagTreeTargets = {"mini16", "grid12"};
/// Targets of the chain cells, and their chain size: just above the edge of
/// a node without a shared LLC.
const std::vector<std::string> kChainTargets = {"grid12n"};
constexpr std::size_t kChainBytes = (std::size_t{128} << 10) + 4;

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  const std::string only_preset = args.get("preset", "");
  const std::string only_op = args.get("op", "");
  const long only_size = args.get_long("size", -1);
  const int root = static_cast<int>(args.get_long("root", 0));
  const bool json = args.has("json");
  const std::string out_path = args.get("out", "");

  coll::Tuning tuning;
  for (const auto& t : args.get_all("tune")) coll::apply_param(tuning, t);
  coll::Tuning flag_tree = tuning;
  flag_tree.llc_aware = false;

  std::vector<std::string> targets = kTargets;
  if (!only_preset.empty()) {
    (void)target_by_name(only_preset);  // fail fast on unknown names
    targets = {only_preset};
  }
  std::vector<std::size_t> sizes = kSizes;
  if (only_size >= 0) sizes = {static_cast<std::size_t>(only_size)};

  std::ostringstream os;
  std::size_t cells = 0;
  std::size_t total_findings = 0;
  if (json) os << "[";
  for (const std::string& target : targets) {
    topo::Topology topo = target_by_name(target);
    const int ranks = topo.n_cores();
    sim::SimMachine machine(std::move(topo), ranks);
    const auto analyze = [&](const std::vector<check::OpCall>& ops,
                             const coll::Tuning& t) {
      core::XhcComponent comp(machine, t, "analyze");
      const check::AnalysisReport rep = check::analyze(
          check::record_schedule(machine, comp, ops), machine.verify_ledger());
      total_findings += rep.findings.size();
      if (json) {
        os << (cells == 0 ? "\n" : ",\n") << "{\"preset\":\"" << target
           << "\",\"report\":" << rep.json() << "}";
      } else {
        os << "-- preset=" << target << " --\n" << rep.text() << "\n";
      }
      ++cells;
    };
    for (const OpSpec& spec : kOps) {
      if (!only_op.empty() && only_op != spec.name) continue;
      if (spec.op == check::Op::kBarrier) {
        analyze({{spec.op, 0, 0}}, tuning);
        continue;
      }
      for (const std::size_t bytes : sizes) {
        analyze({{spec.op, bytes, root}}, tuning);
      }
    }
    if (only_op.empty()) {
      for (const std::size_t bytes : sizes) {
        analyze(check::steady_state_ops(ranks, bytes), tuning);
      }
      if (only_size < 0 &&
          std::find(kStraddleTargets.begin(), kStraddleTargets.end(),
                    target) != kStraddleTargets.end()) {
        for (const auto& [bytes, alt] : kStraddles) {
          analyze(check::straddling_ops(check::steady_state_ops(ranks, bytes),
                                        alt),
                  tuning);
        }
        analyze(check::rotating_root_ops(ranks, 4096), tuning);
        analyze(check::straddling_ops(check::rotating_root_ops(ranks, 512),
                                      32768),
                tuning);
        analyze(check::rotating_root_ops(ranks, 65536), tuning);
        analyze(check::straddling_ops(check::rotating_root_ops(ranks, 4096),
                                      65536),
                tuning);
      }
      if (only_size < 0 &&
          std::find(kFlagTreeTargets.begin(), kFlagTreeTargets.end(),
                    target) != kFlagTreeTargets.end()) {
        analyze(check::rotating_bcast_ops(ranks, 4096), flag_tree);
        analyze(check::rotating_bcast_ops(ranks, 40000), flag_tree);
        analyze(check::straddling_ops(check::rotating_bcast_ops(ranks, 512),
                                      40000),
                flag_tree);
      }
      if (only_size < 0 &&
          std::find(kChainTargets.begin(), kChainTargets.end(), target) !=
              kChainTargets.end()) {
        analyze(check::rotating_bcast_ops(ranks, kChainBytes), tuning);
        analyze(check::straddling_ops(
                    check::rotating_bcast_ops(ranks, kChainBytes), 65536),
                tuning);
      }
    }
  }
  if (json) os << "\n]\n";

  std::string body = std::move(os).str();
  if (!json) {
    body += "analyzed " + std::to_string(cells) + " schedules, " +
            std::to_string(total_findings) + " findings\n";
  }
  if (!out_path.empty()) {
    std::ofstream f(out_path);
    XHC_REQUIRE(f.good(), "cannot open --out file ", out_path);
    f << body;
    std::cout << "report written: " << out_path << " (" << cells
              << " schedules)\n";
  } else {
    std::cout << body;
  }
  return total_findings == 0 ? 0 : 1;
}
