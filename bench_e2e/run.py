#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark (see METRICS.md).

Run from the repository root:

    python3 bench_e2e/run.py --workload tpch_cstore --seed 1 --seconds 10 --trace 0

The first run configures and builds bench_e2e/ (the Stratica library from
src/ plus the benchmark program e2e_bench) under $CARGO_TARGET_DIR/e2e, default
.bench_build/e2e; later runs only rebuild what changed. Build output goes to
standard error. Standard output is e2e_bench's: a record line, then the
result line with the metrics, which is always last.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch_cstore", "meter_rle", "mixed_ingest")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build e2e_bench; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "e2e_bench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2e_bench")


def git_sha():
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="data-size multiplier (the self-test runs tiny)")
    parser.add_argument("--wrong-answer", action="store_true",
                        help="corrupt one expected answer; the run must fail")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2e")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    if args.wrong_answer:
        cmd.append("--wrong-answer")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
