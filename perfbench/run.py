"""permz benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload ensemble-entropy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run is a closed loop in this one process: the next iteration starts
when the previous one returns.  In order:

1. ``setup_s`` (untraced runs only): a fresh interpreter that imports
   ``permz`` and calls ``build_parser()``, timed from outside, once to
   warm the bytecode cache and then ``SETUP_REPEATS`` times, each start
   divided by the reference walls timed on either side of it; the median
   ratio in reference seconds (``reference.REFERENCE_S``).
2. A warm-up iteration at the workload's default seed, checked against
   the golden digests in ``golden.json``.
3. Iterations with seeds drawn from ``--seed`` until ``--seconds`` have
   passed.  With ``--trace 0`` the fixed reference computation of
   ``reference.py`` is timed before the first iteration and after each
   one, and ``wall_ref`` is the median over iterations of the iteration's
   wall over the mean of the two reference walls beside it.  With
   ``--trace 1`` each round runs an untraced and a traced iteration on
   the same seed (and, for cli-decay, an untraced one with its process
   pool, for ``cli.pool_gain``).
4. The first measured iteration is run again and must reproduce its
   outputs byte for byte, and one sampled iteration is checked against
   the slow per-window reference (see ``workloads.py``).

Every operation is checked; the last line of standard output is the
result object.  Lines before it describe the machine and list every
metric with its unit, ``failed_ratio`` included.  Spans of a traced run
and the full result go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool before numpy loads, here and in every process
# started from here, so the pool of ``decay --jobs 2`` is the only
# parallelism a run has.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 11
SETUP_CODE = "import permz.cli; permz.cli.build_parser()"


def _import_program():
    """Import permz from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import permz
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import permz from {SRC}: {exc}")
    if not Path(permz.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: permz resolved to {permz.__file__}, not {SRC}")


_import_program()
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from reference import REFERENCE_S, reference_wall, reference_work  # noqa: E402
from workloads import WORKLOADS, Iteration  # noqa: E402

# ---------------------------------------------------------------------------
# Machine and source description
# ---------------------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(ROOT / ".git" / ref)
        if not commit:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "none (not a git checkout)"


def machine_info() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(index / "size")
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


def measure_setup() -> tuple[float, float]:
    """A fresh ``import permz`` + ``build_parser()``: the median wall time in
    reference seconds, and in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def start() -> float:
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdin=subprocess.DEVNULL)
        return time.perf_counter() - begin

    start()  # fills the bytecode cache
    reference_work()  # warm-up, untimed
    before = reference_wall()
    times, rel = [], []
    for _ in range(SETUP_REPEATS):
        wall = start()
        after = reference_wall()
        times.append(wall)
        rel.append(wall / (0.5 * (before + after)))
        before = after
    return statistics.median(rel) * REFERENCE_S, statistics.median(times)


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    rank as a percentage.  With fewer than 22 samples that rank would fall
    below the median, so the upper median is used instead."""
    ordered = sorted(walls)
    k = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Runs, times and checks iterations of one workload."""

    def __init__(self, workload, workdir: Path, corrupt=None):
        self.workload = workload
        self.workdir = workdir
        self.corrupt = corrupt
        self.ops = []

    def iteration(self, seed: int, keep: bool = False, jobs: int = 1,
                  recorder: spans.Recorder | None = None) -> Iteration:
        """One iteration, traced into ``recorder`` when one is given.  Its
        outputs are dropped unless ``keep``, so the process does not grow
        with the run."""
        ops = self.workload.plan(seed, self.workdir, jobs)
        results = []
        with recorder.root() if recorder else contextlib.nullcontext():
            start = time.perf_counter()
            for op in ops:
                try:
                    results.append(op.call())
                except Exception as exc:  # a failed operation is counted, not fatal
                    op.fail(f"raised {exc!r}")
                    results.append(None)
            wall = time.perf_counter() - start
        for op, result in zip(ops, results):
            if op.error is None:
                try:
                    self.workload.collect(op, result)
                except Exception as exc:  # a broken output is a failed operation
                    op.fail(f"outputs unreadable: {exc!r}")
            if self.corrupt is not None:
                self.corrupt(op)
            if op.error is None:
                self.workload.check(op)
            if not keep:
                op.outputs.clear()
        self.ops.extend(ops)
        return Iteration(seed, wall, ops)

    def fail_all(self, it, why: str) -> None:
        for op in it.ops:
            op.fail(why)

    @property
    def failed(self) -> list:
        return [op for op in self.ops if op.error is not None]


def check_golden(run: Run, it, expected: dict) -> None:
    got = it.digests()
    for op in it.ops:
        prefix = op.name + "/"
        mine = {k: v for k, v in got.items() if k.startswith(prefix)}
        if not mine or mine != {k: v for k, v in expected.items() if k.startswith(prefix)}:
            op.fail("outputs differ from the golden digests")


def verify(run: Run, first, rng) -> None:
    """Repeat the first measured iteration and check one against the reference."""
    again = run.iteration(first.seed, keep=True)
    if again.digests() != first.digests():
        run.fail_all(again, "outputs differ from the first run of the same seed")
    try:
        problems = run.workload.verify(first, rng)
    except Exception as exc:  # a broken output can break the checker too
        problems = [f"verification raised {exc!r}"]
    if problems:
        run.fail_all(first, "; ".join(problems))


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  corrupt=None) -> dict:
    """One run; returns the result object plus an ``info`` block."""
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return _run(workload, seed, seconds, trace, corrupt, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, corrupt, workdir) -> dict:
    started = time.perf_counter()
    info = {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "machine": machine_info()}
    metrics = {}
    if not trace:
        setup_ref, info["setup_wall_s"] = measure_setup()
        metrics["setup_s"] = (setup_ref, "s")

    run = Run(workload, workdir, corrupt)
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    check_golden(run, run.iteration(workload.default_seed, keep=True),
                 golden.get(workload.name, {}))

    rng = random.Random(seed)
    recorder = spans.Recorder(f"{workload.name}-{seed}-{os.getpid()}")
    walls, traced_walls, pool_walls, ref_walls = [], [], [], []

    def measure(keep=False):
        it_seed = rng.randrange(1, 2**31)
        it = run.iteration(it_seed, keep=keep)
        walls.append(it.wall_s)
        if trace:
            traced_walls.append(run.iteration(it_seed, recorder=recorder).wall_s)
            if workload.POOL_JOBS:
                pool_walls.append(run.iteration(it_seed, jobs=workload.POOL_JOBS).wall_s)
        else:
            ref_walls.append(reference_wall())
        return it

    reference_work()  # warm-up, untimed
    loop_start = time.perf_counter()
    if not trace:
        ref_walls.append(reference_wall())
    first = measure(keep=True)
    while time.perf_counter() - loop_start < seconds:
        measure()

    rss_mb = peak_rss_mb()  # before the checker's own allocations
    verify(run, first, random.Random(-seed - 1))

    tail_value, tail_rank = tail(walls)
    info["iterations"] = len(walls)
    info["walls_s"] = walls
    info["wall_s_best"] = min(walls)
    info["wall_s_tail"] = tail_value
    info["wall_s_tail_percentile"] = tail_rank
    info["windows_per_iteration"] = workload.windows()
    if trace:
        layer = spans.layer_metrics(recorder.spans)
        # Ratios of iterations run back to back on the same seed, so that
        # slow drifts of the machine cancel.
        layer["cli.pool_gain"] = (statistics.median(
            a / b for a, b in zip(walls, pool_walls)) if pool_walls else 0.0)
        layer["trace.overhead_ratio"] = statistics.median(
            a / b for a, b in zip(traced_walls, walls)) - 1.0
        for m in BENCHMARK["per_layer"]:
            metrics[m["name"]] = (layer.get(m["name"], 0.0), m["unit"])
        # The declared self times must cover every span: with the
        # harness's own share they add up to the traced wall time.
        accounted = sum(v for k, (v, _) in metrics.items()
                        if k.endswith(".self_s") and not re.search(r"\.L\d+\.self_s$", k))
        info["trace_accounting_error_s"] = (accounted + layer["unattributed_s"]
                                            - layer["trace.wall_s"])
        info["traced_iterations"] = len(traced_walls)
        recorder.write(OUT / f"spans-{workload.name}.jsonl", workload.name)
    else:
        # Each iteration against the reference timed on either side of it,
        # so that the host's drifts in speed cancel.
        rel = [w / (0.5 * (a + b)) for w, a, b in zip(walls, ref_walls, ref_walls[1:])]
        metrics["wall_ref"] = (statistics.median(rel), "ratio")
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        info["wall_s"] = statistics.median(walls)
        info["windows_per_s"] = workload.windows() / info["wall_s"]
        info["reference_s"] = statistics.median(ref_walls)

    failed = run.failed
    info["failed_ratio"] = len(failed) / len(run.ops)
    info["failures"] = [f"{op.name}: {op.error}" for op in failed[:20]]
    info["run_s"] = time.perf_counter() - started
    return {
        "correct": not failed,
        "attempted": len(run.ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result.pop("info")
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "info": info}, fh, indent=2)
    print("machine " + json.dumps(info.pop("machine"), sort_keys=True))
    print("run " + json.dumps(info, sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"  {key:52s} {metric['value']:.6g} {metric['unit']}")
    if "wall_s" in info:
        print(f"  {'wall_s':52s} {info['wall_s']:.6g} s")
        print(f"  {'windows_per_s':52s} {info['windows_per_s']:.6g} 1/s")
        print(f"  {'reference_s':52s} {info['reference_s']:.6g} s")
        print(f"  {'setup_wall_s':52s} {info['setup_wall_s']:.6g} s")
    tail_label = (f"wall_s_tail (p{info['wall_s_tail_percentile']:.0f} "
                  f"of {info['iterations']} iterations)")
    print(f"  {tail_label:52s} {info['wall_s_tail']:.6g} s")
    print(f"  {'wall_s_best':52s} {info['wall_s_best']:.6g} s")
    print(f"  {'failed_ratio':52s} {info['failed_ratio']:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
