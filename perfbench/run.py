#!/usr/bin/env python3
"""Repository benchmark: XHC collectives on the simulated paper nodes.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: osu-latency, osu-bandwidth, svc-soak (see README.md). The script
builds the library and the pass runner from source into .bench_build/ (or
$CARGO_TARGET_DIR), then starts one perfbench process per pass, strictly one
after another:

  * set-up passes (construction only), whose median with the timed passes'
    set-up times is setup_s;
  * untraced timed passes until --seconds is used up; wall_s is their
    median and the modeled metrics come from them;
  * one verification pass with payload checks on, whose modeled numbers
    must equal the timed passes' bit for bit;
  * the seeded-corruption self-test, which must fail its checks;
  * with --trace 1: a pass through the layer decorators, an observability
    pass (critical paths, modeled coherence) and the host copy reference.

The last line of stdout is the JSON result; the lines before it are a
readable report. Build output and diagnostics go to stderr.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PRESETS = ("epyc1p", "epyc2p", "armn1")
WORKLOADS = ("osu-latency", "osu-bandwidth", "svc-soak")
PASS_TIMEOUT_S = 150
# Set-up is milliseconds of construction in a fresh process, as every pass
# pays it; many cheap samples keep its median steady.
SETUP_PASSES = 15

# The issue-level class metrics: geometric means over presets and sizes of
# one op and size class (latency path <= 8 KiB, pipelined medium <= 128 KiB,
# large paths above). A workload reports the classes it carries.
CLASS_METRICS = ("bcast_small_us", "allreduce_small_us", "barrier_us",
                 "bcast_medium_us", "allreduce_medium_us", "bcast_large_us",
                 "allreduce_large_us")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_pass(binary, workload, seed, name):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--pass", name]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        fail("pass '%s' exited with %d" % (name, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("pass '%s' printed nothing" % name)
    return json.loads(lines[-1])


def modeled(result):
    return {k: v for k, v in result["values"].items() if k.startswith("m.")}


def modeled_diff(a, b):
    """First modeled number that differs between two passes, or None."""
    ma, mb = modeled(a), modeled(b)
    for k in sorted(set(ma) | set(mb)):
        if ma.get(k) != mb.get(k):
            return "%s: %r vs %r" % (k, ma.get(k), mb.get(k))
    return None


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def ratio(num, den):
    return num / den if den > 0 else 0.0


def points(result):
    """(preset, op, bytes, us) of every osu point of a pass."""
    out = []
    for k, v in result["values"].items():
        if k.startswith("m.point."):
            _, _, preset, op, nbytes = k.split(".")
            out.append((preset, op, int(nbytes), v))
    return out


def class_metrics(result):
    groups = {}
    for preset, op, nbytes, us in points(result):
        if op == "barrier":
            name = "barrier_us"
        elif nbytes <= 8 << 10:
            name = op + "_small_us"
        elif nbytes <= 128 << 10:
            name = op + "_medium_us"
        else:
            name = op + "_large_us"
        groups.setdefault(name, []).append(us)
        groups.setdefault(name + "." + preset, []).append(us)
    return {k: geomean(v) for k, v in groups.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    svc = args.workload == "svc-soak"

    def once(name):
        return run_pass(binary, args.workload, args.seed, name)

    setups = [once("setup")["values"]["setup_s"] for _ in range(SETUP_PASSES)]
    timed = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        timed.append(once("timed"))
        took = time.monotonic() - t0
        if time.monotonic() - start + took > args.seconds:
            break
    verify = once("verify")
    selftest = once("selftest")["values"]

    first = timed[0]["values"]
    walls = [t["values"]["wall_s"] for t in timed]
    wall = statistics.median(walls)
    setups += [t["values"]["setup_s"] for t in timed]
    setup = statistics.median(setups)
    rss = statistics.median(t["values"]["peak_rss_mb"] for t in timed)

    problems = []
    for i, t in enumerate(timed[1:], 1):
        d = modeled_diff(timed[0], t)
        if d:
            problems.append("timed pass %d differs from pass 0: %s" % (i, d))
    d = modeled_diff(timed[0], verify)
    if d:
        problems.append("verification pass differs from timed pass: " + d)
    for r in timed + [verify]:
        problems += r["errors"]
    if selftest["clean_failed"] != 0:
        problems.append("self-test: uncorrupted run failed its checks")
    if selftest["corrupt_failed"] == 0:
        problems.append("self-test: seeded corruption went undetected")

    attempted = sum(int(r["values"]["attempted"]) for r in timed + [verify])
    failed = sum(int(r["values"]["failed"]) for r in timed + [verify])

    # Modeled end-to-end metrics, from untraced passes only (a decorated
    # pass allocates differently and may shift regcache hits).
    cls = class_metrics(timed[0])
    virtual_s = sum(v for k, v in first.items() if k.startswith("m.virtual_s."))
    if svc:
        bcast_us = first["m.svc.bcast.p50_us"]
        allreduce_us = first["m.svc.allreduce.p50_us"]
    else:
        pts = points(timed[0])
        bcast_us = geomean([p[3] for p in pts if p[1] == "bcast"])
        allreduce_us = geomean([p[3] for p in pts if p[1] == "allreduce"])
    op_p50 = first["m.op_p50_us"]
    op_p99 = first["m.op_p99_us"]
    goodput = ratio(first["m.ops_done"], virtual_s)

    metrics = []

    def put(name, value, unit):
        metrics.append((name, float(value), unit))

    if not args.trace:
        put("wall_s", wall, "s")
        put("setup_s", setup, "s")
        put("peak_rss_mb", rss, "MB")
        put("bcast_us", bcast_us, "us")
        put("allreduce_us", allreduce_us, "us")
        put("op_p50_us", op_p50, "us")
        put("op_p99_us", op_p99, "us")
        put("goodput_ops", goodput, "1/s")
    else:
        traced = once("traced")
        observe = once("observe")
        stream = once("stream")["values"]
        problems += ["traced: " + e for e in traced["errors"]]
        problems += ["observe: " + e for e in observe["errors"]]
        tv = traced["values"]
        ov = observe["values"]

        def layer(name):
            return tv["layer.%s.s" % name]

        for name in ("fill", "copy", "reduce"):
            put("sim.%s.calls" % name, tv["layer.%s.calls" % name], "count")
            put("sim.%s.bytes" % name, tv["layer.%s.bytes" % name], "B")
            put("sim.%s.s" % name, layer(name), "s")
            put("sim.%s.gbps" % name,
                ratio(tv["layer.%s.bytes" % name], layer(name)) / 1e9, "GB/s")
        put("sim.flag.ops", tv["layer.flag.calls"], "count")
        put("sim.flag.s", layer("flag"), "s")
        put("sim.wait.calls", tv["layer.wait.calls"], "count")
        put("sim.wait.blocked", tv["layer.wait.blocked"], "count")
        put("sim.wait.s", layer("wait"), "s")
        put("sim.barrier.calls", tv["layer.barrier.calls"], "count")
        put("sim.barrier.s", layer("barrier"), "s")
        put("sim.time.calls", tv["layer.time.calls"], "count")
        put("sim.time.s", layer("time"), "s")
        put("sim.alloc.calls", tv["layer.alloc.calls"], "count")
        put("sim.alloc.s", layer("alloc"), "s")
        put("core.self_s", layer("core"), "s")
        for op in ("bcast", "allreduce", "reduce", "barrier"):
            put("core.%s.calls" % op, tv["core.%s.calls" % op], "count")
        put("osu.self_s", 0.0 if svc else layer("outer"), "s")
        put("osu.verify_s",
            0.0 if svc else verify["values"]["wall_s"] - wall, "s")
        put("svc.self_s", layer("outer") if svc else 0.0, "s")

        gap = tv["wall_s"] - tv["layer_sum_s"]
        if abs(gap) > 1e-3 * tv["wall_s"]:
            problems.append("layer self times miss the traced wall by %g s"
                            % gap)
        put("obs.traced_wall_s", tv["wall_s"], "s")
        put("obs.layer_gap_s", gap, "s")
        put("obs.trace_overhead", ratio(tv["wall_s"], wall) - 1.0, "ratio")
        # Address-reuse sensitivity, recorded: how far the decorated pass's
        # modeled numbers and regcache hits moved from the untraced ones.
        shift = 0.0
        for k, v in modeled(timed[0]).items():
            if k.startswith("m.point.") and k in tv and v > 0:
                shift = max(shift, abs(tv[k] - v) / v)
        put("obs.traced_modeled_shift", shift, "ratio")
        put("obs.traced_regcache_shift",
            tv["rc.hits"] - first["rc.hits"], "count")

        put("sim.coh.hitm", ov["obs.hitm"], "count")
        put("sim.coh.spin_refetch", ov["obs.spin_refetch"], "count")
        put("sim.coh.invalidations", ov["obs.invalidations"], "count")
        for op in ("bcast", "allreduce", "barrier"):
            rank_s = ov.get("obs.op_rank_s." + op, 0.0)
            for k in range(3):
                put("core.%s.level%d.wait_share" % (op, k),
                    ratio(ov.get("obs.level_wait_s.%s.%d" % (op, k), 0.0),
                          rank_s), "ratio")
            put("core.%s.bound_wait_share" % op,
                ratio(ov.get("obs.bound_wait_s." + op, 0.0),
                      ov.get("obs.bound_total_s." + op, 0.0)), "ratio")

        hits, misses = first["rc.hits"], first["rc.misses"]
        put("smsc.regcache.hits", hits, "count")
        put("smsc.regcache.misses", misses, "count")
        put("smsc.regcache.hit_ratio", ratio(hits, hits + misses), "ratio")

        put("svc.plan_s", first["plan_s"], "s")
        put("svc.admit_s", first["admit_s"], "s")
        put("svc.schedule_s", first["schedule_s"], "s")
        put("svc.run_s", wall if svc else 0.0, "s")
        put("svc.backoff_stalls", first["backoff_stalls"], "count")
        for op in ("bcast", "allreduce", "reduce", "barrier"):
            put("svc.%s.p99_us" % op, first.get("m.svc.%s.p99_us" % op, 0.0),
                "us")
            put("svc.%s.shed" % op, first.get("m.svc.%s.shed" % op, 0.0),
                "count")

        for name in CLASS_METRICS:
            put(name, cls.get(name, 0.0), "us")
            for preset in PRESETS:
                put(name + "." + preset, cls.get(name + "." + preset, 0.0),
                    "us")
        put("svc_p50_us", op_p50 if svc else 0.0, "us")
        put("svc_p99_us", op_p99 if svc else 0.0, "us")
        put("svc_goodput_rps", goodput if svc else 0.0, "1/s")

        put("host.stream_gbps", stream["gbps"], "GB/s")
        print("host copy reference: %.2f GB/s over two %.0f MiB arrays "
              "(host LLC %.0f MiB)" % (stream["gbps"], stream["array_mib"],
                                        stream["llc_mib"]))

    # Readable report: the issue's end-to-end set by name, n/a where the
    # workload does not carry the class.
    failed_frac = ratio(failed, attempted)
    report = [("wall_s", wall, "s"), ("setup_s", setup, "s"),
              ("peak_rss_mb", rss, "MB")]
    report += [(name, cls.get(name, 0.0), "us") for name in CLASS_METRICS]
    report += [("svc_p50_us", op_p50 if svc else 0.0, "us"),
               ("svc_p99_us", op_p99 if svc else 0.0, "us"),
               ("svc_goodput_rps", goodput if svc else 0.0, "1/s")]
    print("workload %s seed %d: %d timed pass(es), %d set-up samples"
          % (args.workload, args.seed, len(timed), len(setups)))
    for name, value, unit in report:
        shown = "%14.4f" % value if value > 0 else "%14s" % "n/a"
        print("%-20s %s  %s" % (name, shown, unit))
    print("%-20s %14.6f  ratio (%d of %d)" % ("failed_frac", failed_frac,
                                              failed, attempted))
    print("op latency samples %d; regcache %d hits / %d misses; self-test "
          "caught %d of %d corrupted points"
          % (first["m.op_samples"], first["rc.hits"],
             first["rc.misses"], selftest["corrupt_failed"],
             selftest["corrupt_attempted"]))
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
