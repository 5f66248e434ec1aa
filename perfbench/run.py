#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <pairwise|poll|burst> --seed <n>
                             --seconds <s> --trace <0|1>

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that is unset, runs the benchmark's own
tests, then runs one measurement. Standard output ends with two JSON
lines from the measuring program (details, then the result object);
before them is a line with the host fingerprint. perfbench/README.md
describes workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent
WORKLOADS = ("pairwise", "poll", "burst")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd, timeout):
    """Runs a build step with its output sent to stderr."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "include" / "wcq" / "queue.hpp").is_file():
        fail(f"no wcq library sources under {ROOT / 'include'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", PKG, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", out, "-j", "4"], BUILD_TIMEOUT_S)
    # The checker's own tests gate every result it vouches for.
    run_quiet([out / "perfbench_tests"], 60)
    return out


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the library headers and the benchmark's sources, so
    a result outside a git checkout still names the code it measured."""
    h = hashlib.sha256()
    files = sorted((ROOT / "include").rglob("*.hpp"))
    files += sorted(p for p in PKG.rglob("*")
                    if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def host(binary):
    about = subprocess.run([binary, "--about"], capture_output=True,
                           text=True, timeout=10)
    info = json.loads(about.stdout) if about.returncode == 0 else {}
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "compiler": info.get("compiler"),
        "flags": info.get("flags"),
        "build_type": info.get("build_type"),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    out = build()
    binary = out / "perfbench"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", out / f"trace-{args.workload}.csv"]
    fingerprint = host(binary)
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"measuring program exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")

    print(json.dumps({"host": fingerprint}))
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
