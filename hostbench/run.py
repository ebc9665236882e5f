#!/usr/bin/env python3
"""Build and run the host wall-clock benchmark (see README.md here).

    python3 hostbench/run.py --workload traverse --seed 42 --seconds 30 --trace 0
    python3 hostbench/run.py --workload all

Run from the root of a source tree. The benchmark is built from that
tree's src/ into .bench_build/, each workload runs in its own process
against a private dataset cache under .bench_build/work/, and the last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Exits non-zero, without a result line, when the build or a
run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "hostbench")
BINARY = os.path.join(BUILD_DIR, "hostbench")
WORKLOADS = ["cold_build", "traverse", "triangles"]
WARM = {"traverse", "triangles"}
RUN_TIMEOUT_S = 170


def log(*args):
    print("[run.py]", *args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; the build log goes to stderr."""
    ninja = shutil.which("ninja")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if ninja:
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def child_env():
    env = dict(os.environ)
    # The benchmark passes its private cache explicitly; drop the user's
    # cache and results locations so nothing can reach them.
    for var in ("GB_CACHE_DIR", "GB_RESULTS_DIR", "GB_BENCH_SCALE"):
        env.pop(var, None)
    return env


def run_one(workload, args, commit):
    """One workload in its own processes; returns the parsed result line."""
    work = os.path.join(BUILD_ROOT, "work",
                        "%s-seed%d-%d" % (workload, args.seed, os.getpid()))
    cache = os.path.join(work, "cache")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if workload in WARM:
            # Untimed, and in its own process so it leaves no trace in the
            # run's peak RSS.
            subprocess.run([BINARY, "fill", "--workload", workload,
                            "--seed", str(args.seed), "--cache", cache],
                           check=True, env=child_env(), timeout=RUN_TIMEOUT_S)
        cmd = [BINARY, "run", "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cache", cache,
               "--out", os.path.join(BUILD_ROOT, "results"),
               "--expected", os.path.join(HERE, "expected"),
               "--commit", commit]
        if args.write_expected:
            cmd.append("--write-expected")
        out = subprocess.run(cmd, check=True, env=child_env(), text=True,
                             stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="record the seed-42 expectations in expected/")
    args = parser.parse_args()

    try:
        build()
        commit = git_commit()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = {}
        for workload in workloads:
            text, result = run_one(workload, args, commit)
            print("\n".join(text), flush=True)
            results[workload] = result
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError) as e:
        log("failed:", e)
        return 1

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {}}
        print("\n%-12s %-32s %20s %s" % ("workload", "metric", "value", "unit"))
        for workload, r in results.items():
            for name, m in r["metrics"].items():
                print("%-12s %-32s %20r %s" % (workload, name, m["value"],
                                                 m["unit"]))
                final["metrics"][workload + "." + name] = m
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
