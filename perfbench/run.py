#!/usr/bin/env python3
"""Builds and runs the ftb end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an ftb source tree.  It configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR or
.bench_build, runs one workload, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}, where metrics are the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1), each with its unit.  The exit status is nonzero when the
sources are missing, the build fails, or an output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Commit id when the tree is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ftb_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "ftb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ftb sources under ./src; run from the root of an ftb checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    env = dict(os.environ, FTB_CACHE_DIR="off")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "run"),
               "--trace-dir", os.path.join(build_dir, "traces"),
               "--commit", source_digest()]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"benchmark exited {proc.returncode} without a result", 1)

    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(raw["metrics"]) - known)
    if unknown:
        fail("benchmark reported metrics BENCHMARK.json does not list: " + ", ".join(unknown), 1)
    values = dict(raw["metrics"])
    if args.trace:
        # A layer the workload does not exercise reads 0.
        values = {m["name"]: values.get(m["name"], 0.0) for m in wanted}
        print("per-layer metrics:")
        for m in wanted:
            print(f"  {m['name']:42s} {values[m['name']]:14.6g} {m['unit']}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("benchmark did not report " + ", ".join(missing), 1)
    result = {
        "correct": bool(raw["correct"]) and proc.returncode == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
