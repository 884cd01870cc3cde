// Pass runner of the repository benchmark. run.py starts one process per
// pass, one after another, and assembles the metrics:
//
//   perfbench --workload <osu-latency|osu-bandwidth|svc-soak> --seed <n>
//             --pass <setup|timed|verify|traced|observe|selftest|stream>
//
// Every pass runs in a fresh process on purpose. Modeled latency depends on
// host heap addresses (smsc::RegCache keys on raw pointers, so a reused
// address is a registration hit), so a pass is only reproducible from a
// fixed allocation history. A fresh process gives every pass the same one:
// timed and verification passes then agree bit for bit, and two runs of the
// same seed agree across processes.
//
// Output: one JSON line {"values": {name: number}, "errors": [string]}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string pass;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--pass") {
      a.pass = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.pass.empty()) {
    throw std::invalid_argument("--workload and --pass are required");
  }
  return a;
}

using Values = std::map<std::string, double>;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print(const Values& v, const std::vector<std::string>& errors) {
  std::string out = "{\"values\": {";
  char buf[32];
  bool first = true;
  for (const auto& [k, x] : v) {
    // %.17g round-trips a double exactly, so run.py can compare modeled
    // numbers bit for bit.
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(x) ? x : 0.0);
    out += (first ? "" : ", ") + json_string(k) + ": " + buf;
    first = false;
  }
  out += "}, \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out += (i ? ", " : "") + json_string(errors[i]);
  }
  std::printf("%s]}\n", out.c_str());
}

/// Modeled results, under "m.": everything two passes of one seed must
/// reproduce exactly.
void add_modeled(const PassResult& r, Values& v) {
  for (const Point& p : r.points) {
    v["m.point." + p.preset + "." + p.op + "." + std::to_string(p.bytes)] =
        p.us;
  }
  for (const SvcClass& c : r.classes) {
    v["m.svc." + c.name + ".p50_us"] = c.p50_us;
    v["m.svc." + c.name + ".p99_us"] = c.p99_us;
    v["m.svc." + c.name + ".completed"] = static_cast<double>(c.completed);
    v["m.svc." + c.name + ".shed"] = static_cast<double>(c.shed);
  }
  for (const auto& [preset, s] : r.virtual_s) v["m.virtual_s." + preset] = s;
  v["m.ops_done"] = static_cast<double>(r.ops_done);
  v["m.op_p50_us"] = percentile(r.op_latency, 0.50) * 1e6;
  v["m.op_p99_us"] = percentile(r.op_latency, 0.99) * 1e6;
  v["m.op_samples"] = static_cast<double>(r.op_latency.count());
  v["rc.hits"] = static_cast<double>(r.regcache_hits);
  v["rc.misses"] = static_cast<double>(r.regcache_misses);
}

void add_host(const PassResult& r, Values& v) {
  v["wall_s"] = r.wall_s;
  v["setup_s"] = r.setup_s;
  v["attempted"] = static_cast<double>(r.attempted);
  v["failed"] = static_cast<double>(r.failed);
  v["plan_s"] = r.plan_s;
  v["admit_s"] = r.admit_s;
  v["schedule_s"] = r.schedule_s;
  v["backoff_stalls"] = static_cast<double>(r.backoff_stalls);
}

void add_layers(const LayerClock& c, Values& v) {
  static constexpr std::pair<Layer, const char*> kLayers[] = {
      {Layer::kOuter, "outer"}, {Layer::kCore, "core"},
      {Layer::kFill, "fill"},   {Layer::kCopy, "copy"},
      {Layer::kReduce, "reduce"}, {Layer::kFlag, "flag"},
      {Layer::kWait, "wait"},   {Layer::kBarrier, "barrier"},
      {Layer::kClock, "time"},  {Layer::kAlloc, "alloc"}};
  for (const auto& [l, name] : kLayers) {
    const LayerStats& s = c.stats(l);
    const std::string base = std::string("layer.") + name;
    v[base + ".calls"] = static_cast<double>(s.calls);
    v[base + ".bytes"] = static_cast<double>(s.bytes);
    v[base + ".blocked"] = static_cast<double>(s.blocked);
    v[base + ".s"] = static_cast<double>(s.ns) * 1e-9;
  }
  static constexpr std::pair<CoreOp, const char*> kOps[] = {
      {CoreOp::kBcast, "bcast"}, {CoreOp::kAllreduce, "allreduce"},
      {CoreOp::kReduce, "reduce"}, {CoreOp::kBarrier, "barrier"}};
  for (const auto& [op, name] : kOps) {
    v[std::string("core.") + name + ".calls"] =
        static_cast<double>(c.core_calls(op));
  }
  v["layer_sum_s"] = static_cast<double>(c.layer_sum_ns()) * 1e-9;
}

void add_obs(const ObsStats& o, Values& v) {
  for (const auto& [cls, levels] : o.level_wait_s) {
    for (const auto& [k, s] : levels) {
      v["obs.level_wait_s." + cls + "." + std::to_string(k)] = s;
    }
  }
  for (const auto& [cls, s] : o.op_rank_s) v["obs.op_rank_s." + cls] = s;
  for (const auto& [cls, s] : o.bound_wait_s) v["obs.bound_wait_s." + cls] = s;
  for (const auto& [cls, s] : o.bound_total_s) {
    v["obs.bound_total_s." + cls] = s;
  }
  v["obs.ops_analyzed"] = static_cast<double>(o.ops_analyzed);
  v["obs.hitm"] = static_cast<double>(o.hitm);
  v["obs.spin_refetch"] = static_cast<double>(o.spin_refetch);
  v["obs.invalidations"] = static_cast<double>(o.invalidations);
}

/// Host memcpy bandwidth over arrays of at least 4x the host's last-level
/// cache (64 MiB floor when sysconf does not know it), median of 5 copies.
/// Bytes count once per copy, the convention of the sim.*.gbps figures.
void host_stream(Values& v) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const std::size_t llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : 0;
  const std::size_t n = std::max<std::size_t>(4 * llc_bytes, 64u << 20);
  std::vector<unsigned char> src(n, 1);
  std::vector<unsigned char> dst(n, 0);
  std::vector<double> rates;
  for (int i = 0; i < 5; ++i) {
    src[static_cast<std::size_t>(i)] = static_cast<unsigned char>(i + 2);
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), n);
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    rates.push_back(static_cast<double>(n) / dt / 1e9);
  }
  std::sort(rates.begin(), rates.end());
  // dst[4] proves the last copy happened and keeps it from being elided.
  v["gbps"] = dst[4] == 6 ? rates[rates.size() / 2] : 0.0;
  v["array_mib"] = static_cast<double>(n) / (1u << 20);
  v["llc_mib"] = static_cast<double>(llc_bytes) / (1u << 20);
}

int run(const Args& a) {
  xhc::bench::BenchArgs::tune_allocator();
  const Spec spec = make_spec(a.workload, a.seed);
  Values v;
  std::vector<std::string> errors;
  if (a.pass == "setup") {
    v["setup_s"] = setup_only(spec);
  } else if (a.pass == "timed" || a.pass == "verify") {
    PassOptions opt;
    opt.verify = a.pass == "verify";
    const PassResult r = run_pass(spec, opt);
    add_host(r, v);
    add_modeled(r, v);
    errors = r.errors;
  } else if (a.pass == "traced") {
    LayerClock clock;
    PassOptions opt;
    opt.clock = &clock;
    const PassResult r = run_pass(spec, opt);
    add_host(r, v);
    add_modeled(r, v);
    add_layers(clock, v);
    errors = r.errors;
  } else if (a.pass == "observe") {
    ObsStats o;
    PassOptions opt;
    opt.obs = &o;
    const PassResult r = run_pass(spec, opt);
    add_obs(o, v);
    errors = r.errors;
  } else if (a.pass == "selftest") {
    const SelfTest st = run_selftest(a.seed);
    v["clean_failed"] = static_cast<double>(st.clean_failed);
    v["corrupt_failed"] = static_cast<double>(st.corrupt_failed);
    v["corrupt_attempted"] = static_cast<double>(st.corrupt_attempted);
  } else if (a.pass == "stream") {
    host_stream(v);
  } else {
    throw std::invalid_argument("unknown pass '" + a.pass + "'");
  }
  v["peak_rss_mb"] = peak_rss_mb();
  print(v, errors);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
  }
  return 2;
}
