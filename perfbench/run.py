#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library, the daemon and the
driver from the checkout's sources (Release, into $CARGO_TARGET_DIR or
.bench_build), refuses to report numbers from any other build type, runs
one workload and prints the driver's lines followed by a provenance line;
the last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. See perfbench/README.md.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("contention", "service")


def driver_timeout_s(seconds):
    """Five seconds past the driver's own watchdog (driver.cc watchdog_s)."""
    return 65 + math.ceil(2.5 * seconds)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, what):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"{what} failed (exit {proc.returncode})", 4)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources in {ROOT}; run from a checkout's root")
    if shutil.which("cmake") is None:
        fail("cmake not found", 4)
    if not (build_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    run_quiet(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
               "--target", "venn_perfbench", "venn_coordinatord"], "build")
    driver = build_dir / "venn_perfbench"
    daemon = build_dir / "venn" / "venn_coordinatord"
    if not driver.is_file() or not daemon.is_file():
        fail("build produced no driver or daemon", 4)
    return driver, daemon


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    driver, daemon = build(build_dir.resolve())

    # Build guard: numbers from a non-Release build are never reported.
    info = subprocess.run([str(driver), "--build-info"], capture_output=True,
                          text=True, timeout=30).stdout.strip()
    if "(Release," not in info:
        fail(f"refusing to benchmark a non-Release build: {info!r}", 3)

    work_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--daemon", str(daemon)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=driver_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("driver timed out", 5)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver failed (exit {proc.returncode})", 5)

    result = json.loads(lines[-1])
    names = expected_metrics(args.trace == 1)
    if sorted(result["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", 6)
    for line in lines[:-1]:
        print(line)
    provenance = {"git_describe": git_describe(), "build": info,
                  "nproc": os.cpu_count(), "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
