#!/usr/bin/env python3
"""Benchmark regression store: records figure sweeps into BENCH_perf.json.

Runs the per-figure bench binaries in CSV mode, parses the section tables,
and appends one run entry to a JSON store (or writes a standalone candidate
file for bench_compare).

    scripts/bench_store.py record [options]

Options:
    --store=FILE     append the run to FILE (default BENCH_perf.json)
    --out=FILE       write a one-run candidate store to FILE instead
    --build=DIR      build tree holding bench/ binaries (default build)
    --targets=LIST   comma list of fig10,fig4,fig8L,fig11L,svc (default
                     all; fig8L/fig11L run the Fig. 8 bcast and Fig. 11
                     allreduce sweeps with --large, whose size axis is the
                     figure's plus 256K/1M/4M; svc runs the multi-tenant
                     service loadgen and stores per-op-class latency
                     percentiles and shed counts)
    --presets=LIST   comma list of topology presets ('' = bench defaults)
    --quick          pass --quick to the benches (default on; --full negates)
    --fault=SPEC     forward a fault-injection spec (self-test lever)
    --note=TEXT      free-form annotation stored with the run

The store is {"version": 1, "runs": [...]}; each run carries a config
fingerprint (targets, presets, quick, sim backend) that bench_compare uses
to pick a comparable baseline, plus the flat point map
{"fig8L/<preset>/<component>/<size>": latency_us}. The sweeps execute on
the deterministic simulator, so points are exact and cross-machine stable.

The host plane rides along: each target runs WALL_REPS times, every
repetition must print the same tables (a free determinism check), and the
run stores the median host wall-clock seconds per target ("wall_s") with
the host's core count ("host_cores"). Both stay out of the fingerprint, so
modeled baselines still match across hosts; bench_compare gates the wall
times only between hosts with equal core counts.

Stdlib only; no third-party imports.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

TARGETS = {
    "fig10": ("bench_fig10_cacheline", []),
    "fig4": ("bench_fig4_atomics", []),
    "fig8L": ("bench_fig8_bcast", ["--large"]),
    "fig11L": ("bench_fig11_allreduce", ["--large"]),
    "svc": ("bench_loadgen", []),
}


# Repetitions per target; the stored wall time is their median.
WALL_REPS = 3


def fail(msg):
    print("bench_store: error: %s" % msg, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    opts = {
        "store": "BENCH_perf.json",
        "out": None,
        "build": "build",
        "targets": "fig10,fig4,fig8L,fig11L,svc",
        "presets": "",
        "quick": True,
        "fault": "",
        "note": "",
    }
    if not argv or argv[0] != "record":
        fail("usage: bench_store.py record [--store=F|--out=F] [--build=DIR] "
             "[--targets=L] [--presets=L] [--quick|--full] "
             "[--fault=SPEC] [--note=TEXT]")
    for a in argv[1:]:
        if a == "--quick":
            opts["quick"] = True
        elif a == "--full":
            opts["quick"] = False
        elif a.startswith("--") and "=" in a:
            key, val = a[2:].split("=", 1)
            if key not in opts:
                fail("unknown option --%s" % key)
            opts[key] = val
        else:
            fail("unrecognized argument %r" % a)
    return opts


def parse_csv_sections(text, fig):
    """Yields (preset, component, size_label, latency_us) from CSV output.

    Sections look like:
        == Fig. 8: MPI_Bcast latency (us), mini8 ==
        Size,xhc,xhc-flat,...
        4,0.82,0.53,...
    fig4 keys its rows by rank count ("Ranks") and appends an "x" suffix to
    its ratio column; both are normalized here. The svc loadgen tables key
    rows by op class ("Class"). Non-section chatter (trace/hist/coherence
    notices) is skipped.
    """
    points = {}
    preset = None
    header = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("==") and "," in line:
            preset = line.rstrip("= ").rsplit(",", 1)[1].strip()
            header = None
            continue
        if preset is None or not line:
            continue
        cells = line.split(",")
        if header is None:
            if cells[0] not in ("Size", "Ranks", "Class"):
                fail("expected CSV header after section, got %r" % line)
            header = cells[1:]
            continue
        if len(cells) != len(header) + 1:
            preset = None  # section ended; trailing chatter
            continue
        size = cells[0]
        for comp, val in zip(header, cells[1:]):
            if val.endswith("x"):
                val = val[:-1]
            points["%s/%s/%s/%s" % (fig, preset, comp, size)] = float(val)
    return points


def run_target(fig, opts):
    """Returns (points, median wall seconds) of WALL_REPS identical runs."""
    name, extra = TARGETS[fig]
    binary = os.path.join(opts["build"], "bench", name)
    if not os.path.exists(binary):
        fail("missing bench binary %s (build first)" % binary)
    presets = [p for p in opts["presets"].split(",") if p]
    cmds = []
    if presets:
        for p in presets:
            cmds.append([binary, "--csv", "--jobs=0", "--preset=%s" % p]
                        + extra)
    else:
        cmds.append([binary, "--csv", "--jobs=0"] + extra)
    if opts["quick"]:
        for c in cmds:
            c.append("--quick")
    if opts["fault"]:
        for c in cmds:
            c.append("--fault=%s" % opts["fault"])

    outputs = None
    walls = []
    for _ in range(WALL_REPS):
        rep = []
        t0 = time.monotonic()
        for cmd in cmds:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                fail("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                            proc.stderr.strip()))
            rep.append(proc.stdout)
        walls.append(time.monotonic() - t0)
        if outputs is not None and rep != outputs:
            fail("%s printed different tables on a repeat run "
                 "(nondeterministic sweep)" % fig)
        outputs = rep

    points = {}
    for out in outputs:
        points.update(parse_csv_sections(out, fig))
    if not points:
        fail("no CSV points parsed from %s" % " ".join(cmds[0]))
    return ({k: round(v, 4) for k, v in points.items()},
            round(statistics.median(walls), 3))


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def load_store(path):
    if not os.path.exists(path):
        return {"version": 1, "runs": []}
    with open(path) as f:
        store = json.load(f)
    if store.get("version") != 1 or not isinstance(store.get("runs"), list):
        fail("%s is not a version-1 bench store" % path)
    return store


def main(argv):
    opts = parse_args(argv)
    targets = [t for t in opts["targets"].split(",") if t]
    for t in targets:
        if t not in TARGETS:
            fail("unknown target %r (have: %s)" % (t, ",".join(TARGETS)))

    points = {}
    wall_s = {}
    for t in targets:
        target_points, wall_s[t] = run_target(t, opts)
        points.update(target_points)

    run = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": git_commit(),
        "config": {
            "targets": targets,
            "presets": opts["presets"],
            "quick": opts["quick"],
            "backend": os.environ.get("XHC_SIM_BACKEND", "fiber"),
            "fault": opts["fault"],
        },
        "note": opts["note"],
        "points": points,
        "wall_s": wall_s,
        "host_cores": os.cpu_count(),
    }

    path = opts["out"] if opts["out"] else opts["store"]
    store = {"version": 1, "runs": []} if opts["out"] else load_store(path)
    store["runs"].append(run)
    with open(path, "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
        f.write("\n")
    print("bench_store: recorded %d points (%s; wall %s) -> %s"
          % (len(points), "+".join(targets),
             " ".join("%s=%.2fs" % kv for kv in wall_s.items()), path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
