"""Self-check of the benchmark harness, at one second per run.

    python3 perfbench/selfcheck.py

For every workload it checks that

* ``run.py`` exits 0 with tracing off and on, and its last line is a
  result object that names exactly the metrics ``BENCHMARK.json``
  declares for that mode, each with its declared unit, and no failure;
* every per-layer metric reads nonzero on at least one workload, so a
  misspelt name cannot read 0 unnoticed;
* a run in which every operation's output is corrupted (one digit
  changed) counts failures instead of passing;

and that ``run.py`` exits nonzero without a result line in a directory
that holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SECONDS = "1"


def corrupt(op) -> None:
    """Change the first digit of the operation's first output."""
    for key, data in sorted(op.outputs.items()):
        for i, byte in enumerate(data):
            if 48 <= byte <= 57:
                op.outputs[key] = data[:i] + bytes([48 + (byte - 47) % 10]) + data[i + 1:]
                return


def invoke(root: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def main() -> int:
    spec = run.BENCHMARK
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    measured = set()  # per-layer metrics some workload moves off 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, out = invoke(run.ROOT, workload, trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit {code}")
                continue
            result = json.loads(lines[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            measured |= {k for k, v in result["metrics"].items() if v["value"]}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload} trace {trace}: keys {sorted(result)}")
            if units != declared[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from "
                                f"BENCHMARK.json: {set(units.items()) ^ set(declared[trace].items())}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            print(f"{workload} trace {trace}: {len(units)} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed")

        result = run.run_benchmark(workload, 1, float(SECONDS), False, corrupt=corrupt)
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{workload}: corrupted outputs were not counted as failures")
        print(f"{workload} corrupted: {result['failed']} of {result['attempted']} "
              "operations failed")

    unmeasured = set(declared[1]) - measured
    if unmeasured:
        problems.append(f"per-layer metrics no workload measures: {sorted(unmeasured)}")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, out = invoke(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if code == 0 or out.strip():
        problems.append(f"without src/ the benchmark exited {code} with output {out!r}")
    print(f"without src/: exit {code}")

    for problem in problems:
        print("FAIL", problem)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
