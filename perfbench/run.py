#!/usr/bin/env python3
"""Runs the contactpart benchmark: builds it from source, runs one workload
(or all of them, one process each), checks the outputs, and prints every
metric with its unit.

    python3 perfbench/run.py --workload impact_steady --seed 1 \
        --seconds 10 --trace 0

Workloads and metrics are listed in BENCHMARK.json at the repository root
and described in perfbench/README.md. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where
metrics holds the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Everything else goes to the lines before it and to
<build dir>/results/: the full report per workload and, for traced runs,
a Chrome trace-event file of the recorded spans.

Exit status: 0 when every correctness check passed; 1 when a check failed
(the result line is still printed, with "correct": false); 2 when the
benchmark could not be built or run (no result line).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message):
    log("run.py: " + message)
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory (a relative
    # path is taken from the repository root), for this CMake build too.
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    test = subprocess.run([os.path.join(bdir, "perfbench_test")],
                          stdout=sys.stderr)
    if test.returncode != 0:
        fail("perfbench_test failed")


def source_id():
    """The git commit when the tree is a git checkout, else a digest of the
    library and benchmark sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git " + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256 " + digest.hexdigest()[:16]


def summarize(report, source):
    p = report["provenance"]
    log("== %s (seed %d, window %g s, %s)" % (
        report["workload"], report["seed"], report["seconds"],
        "traced" if report["trace"] else "untraced"))
    log("   provenance: hardware_concurrency %d, nproc %d, pool %d threads, "
        "%s build, %s, %s" % (p["hardware_concurrency"], p["nproc"],
                              p["pool_threads"], p["build_type"],
                              p["compiler"], source))
    log("   inputs: " + ", ".join("%s=%s" % kv for kv in report["info"].items()))
    for name, m in report["metrics"].items():
        log("   %-30s %16.6g %-6s (n=%d, %s is better, %s)" % (
            name, m["value"], m["unit"], m["samples"], m["better"],
            m["scope"]))
    log("   checks: %d attempted, %d failed" % (report["attempted"],
                                                report["failed"]))
    for f in report["gate_failures"]:
        log("   CHECK FAILED: " + f)
    if "trace_file" in report:
        log("   spans -> " + report["trace_file"])
        spans = sorted(report["spans"].items(),
                       key=lambda kv: -kv[1]["total_ms"])
        for name, s in spans:
            log("     %-32s %6d x  total %10.1f ms  self %10.1f ms" % (
                name, s["count"], s["total_ms"], s["self_ms"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r (known: %s)" % (args.workload,
                                                   ", ".join(names)))
    workloads = names if args.workload == "all" else [args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    build(bdir)
    out_dir = os.path.join(bdir, "results")
    for w in workloads:
        stale = os.path.join(out_dir, w + ".json")
        if os.path.exists(stale):
            os.remove(stale)
    # One process per workload, so peak_rss_mb is that workload's own.
    correct = True
    for w in workloads:
        cmd = [os.path.join(bdir, "perfbench"), "--workload", w,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--out_dir", out_dir]
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("%s exceeded its time limit" % w)
        if proc.returncode not in (0, 3):
            fail("%s exited with status %d" % (w, proc.returncode))
        correct = correct and proc.returncode == 0

    source = source_id()
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        try:
            with open(os.path.join(out_dir, w + ".json")) as f:
                report = json.load(f)
        except (OSError, ValueError) as e:
            fail("no report for %s: %s" % (w, e))
        summarize(report, source)
        attempted += report["attempted"]
        failed += report["failed"]
        for m in wanted:
            got = report["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                fail("%s: metric %s missing or not in %s" % (w, m["name"],
                                                             m["unit"]))
            key = m["name"] if len(workloads) == 1 else w + "." + m["name"]
            metrics[key] = {"value": got["value"], "unit": got["unit"]}
    correct = correct and failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
