"""Capture the golden output digests of every workload at its default seed.

    python3 perfbench/golden.py

Writes ``perfbench/golden.json``.  Each benchmark run repeats the
default-seed iteration as its warm-up and fails every operation whose
outputs no longer match these digests, so run this only when a change of
output is intended, and say so where the change is recorded.
"""

import json
import shutil
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS


def main() -> None:
    run.OUT.mkdir(exist_ok=True)
    golden = {}
    for name, workload in WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=run.OUT))
        try:
            it = run.Run(workload, workdir).iteration(workload.default_seed, keep=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for op in it.ops:
            if op.error is not None or not op.outputs:
                raise SystemExit(f"{name}: {op.name} failed: {op.error}")
        golden[name] = it.digests()
        print(f"{name}: {len(golden[name])} outputs")
    path = run.BENCH_DIR / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
