#!/usr/bin/env python3
"""Builds and runs the cnvm benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

A run builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs one workload. Its standard output ends with one JSON object:
{"correct", "attempted", "failed", "metrics"}. The lines before it record
the host ("# host {...}") and the workload's detail ("# report {...}").

--selftest runs every workload of BENCHMARK.json at small scale, traced and
untraced, on a seed held out from tuning, and checks that each named metric
prints with its unit and that every correctness check passes.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
SELFTEST_SEED = 7919  # never used while tuning the workloads


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def host_jobs():
    return len(os.sched_getaffinity(0))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(SRC_DIR, "core", "system.hh")):
        fail("library sources not found at " + SRC_DIR)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out, "-j", str(host_jobs())])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "cnvm_perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """The commit when the checkout is a git repository, and always a
    digest of the library and benchmark sources."""
    commit = None
    if os.path.exists(".git"):  # never a repository above the checkout
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in (SRC_DIR, BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, top).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_binary(binary, args):
    """Runs the benchmark binary; returns (result, report)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result")
    report = None
    for line in lines:
        if line.startswith("# report "):
            report = json.loads(line[len("# report "):])
    return result, report


def measure(args):
    binary = build()
    jobs = host_jobs()
    load_start = os.getloadavg()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    result, report = run_binary(binary, cmd)
    load_end = os.getloadavg()

    commit, src_digest = source_identity()
    host = {
        "cpu_model": cpu_model(),
        "nproc": jobs,
        "loadavg_start": load_start[0],
        "loadavg_end": load_end[0],
        "build_type": BUILD_TYPE,
        "commit": commit,
        "source_digest": src_digest,
    }
    if max(load_start[0], load_end[0]) > jobs - 1:
        host["warning"] = "load average above nproc - 1: host is contended"
        print("perfbench: warning: load average %.2f/%.2f exceeds nproc - 1"
              " (%d)" % (load_start[0], load_end[0], jobs - 1),
              file=sys.stderr)
    print("# host " + json.dumps(host))
    print("# report " + json.dumps(report))
    print(json.dumps(result), flush=True)


def selftest():
    """Small-scale run of every workload, traced and untraced, on the
    held-out seed; checks names, units and correctness."""
    binary = build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            before = len(problems)
            result, _ = run_binary(binary, [
                "--workload", wl["name"], "--seed", str(SELFTEST_SEED),
                "--seconds", "1", "--trace", str(trace), "--small"])
            where = "%s --trace %d" % (wl["name"], trace)
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(where + ": result keys " + str(sorted(result)))
                continue
            if result["correct"] is not True or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append(where + ": checks failed: %d of %d"
                                % (result["failed"], result["attempted"]))
            got = result["metrics"]
            if sorted(got) != sorted(m["name"] for m in declared):
                problems.append(where + ": metric names differ from "
                                "BENCHMARK.json")
            for m in declared:
                v = got.get(m["name"])
                if v is None:
                    continue
                if v.get("unit") != m["unit"]:
                    problems.append(where + ": %s unit %r, declared %r"
                                    % (m["name"], v.get("unit"), m["unit"]))
                if trace == 0 and not v.get("value", 0) > 0:
                    problems.append(where + ": %s is not positive"
                                    % m["name"])
            print("selftest: %-36s %s" % (
                where, "ok" if len(problems) == before else "FAIL"))
    for p in problems:
        print("selftest: FAIL " + p)
    print("selftest: " + ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    measure(args)


if __name__ == "__main__":
    main()
