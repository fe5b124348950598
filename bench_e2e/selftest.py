#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, run at a tiny size.

    python3 bench_e2e/selftest.py

Checks, for every workload:
  * an untraced run prints every end_to_end metric of BENCHMARK.json, and a
    traced run every per_layer metric, each with its unit;
  * the traced run returns the same rows as Database::Execute (e2e_bench
    fails the run otherwise) and every answer is right;
  * the workload exercises the layer it is named for (MECHANISMS below);
  * a deliberately wrong expected answer fails the run.
Exits 0 when all hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "0.05", "--seconds", "2"]

# Per-layer counters that must be positive: the mechanism each workload is
# named for.
MECHANISMS = {
    "tpch_cstore": ["exec.rows_sip_filtered"],
    "meter_rle": ["exec.rows_processed_encoded", "exec.blocks_pruned"],
    "mixed_ingest": ["tuplemover.mergeouts", "cluster.network_bytes"],
}


def run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", *TINY, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload, counters in MECHANISMS.items():
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, "--trace", str(trace))
            expect(code == 0 and result is not None and result["correct"],
                   f"{workload} trace={trace}: exit 0 with correct answers")
            if result is None:
                continue
            metrics = result["metrics"]
            for m in bench[listed]:
                got = metrics.get(m["name"])
                expect(got is not None and got["unit"] == m["unit"],
                       f"{workload} trace={trace}: {m['name']} reported in {m['unit']}")
            if trace == 1:
                for name in counters:
                    value = metrics.get(name, {}).get("value", 0)
                    expect(value > 0, f"{workload}: {name} > 0 (got {value})")
        code, result = run(workload, "--trace", "0", "--wrong-answer")
        expect(code != 0 and result is not None and not result["correct"],
               f"{workload}: a wrong expected answer fails the run")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
