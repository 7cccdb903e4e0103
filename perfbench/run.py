#!/usr/bin/env python3
"""Builds and runs the repository benchmark on one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 24 --trace 0

The workload's constants (rate, latency limit, phase split, event mix)
come from perfbench/workloads.json; nothing is calibrated at run time.
The program is built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build
output goes to stderr; the benchmark's stdout ends with one JSON line
holding "correct", "attempted", "failed" and "metrics". The exit code
is the benchmark's: nonzero when a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the program's sources, so a result names the code
    it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(build_dir):
    def run(cmd):
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("build failed: " + " ".join(cmd))

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)])
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    spec = config["workloads"].get(args.workload)
    if spec is None:
        fail(f"unknown workload {args.workload!r}; known: "
             + ", ".join(sorted(config["workloads"])))
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources are missing; run from a full checkout")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [
        binary,
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--backend={spec['backend']}",
        f"--scenario={spec['scenario']}",
        f"--rate={spec['rate_ops_s']}",
        f"--read-limit-ms={spec['read_limit_ms']}",
        f"--closed-events={spec['closed_events']}",
        f"--interaction-fraction={spec.get('interaction_fraction', -1)}",
        f"--sum-update-fraction={spec.get('sum_update_fraction', -1)}",
        f"--tripwire={spec['tripwire']}",
        f"--out-dir={out_dir}",
        f"--commit={commit()}",
        f"--source-digest={source_digest()}",
    ]
    sys.stdout.flush()
    sys.exit(1 if subprocess.call(cmd) != 0 else 0)


if __name__ == "__main__":
    main()
