"""The four benchmark workloads and the checks on their outputs.

A workload iteration is a fixed batch of top-level operations: one
``run_experiment`` call, one ``permz.cli.main`` command, or one
forbidden-pattern scan.  ``plan(seed, workdir, jobs)`` lists them, each
with the call the harness times (``jobs`` sizes the process pool of the
workloads that have one, which name the pool size they are also
measured at as ``POOL_JOBS``).  ``collect`` then turns each call's
result into the operation's outputs as bytes, named independently of the
seed and the working directory, so they can be digested and compared
with the golden digests captured for each workload's default seed.

Checks, in order of cost:

* ``check``: every operation, any seed.  Shapes, ranges and identities
  the outputs must satisfy whatever the seed (for example each ``xp``
  cell is bounded by the Z-entropy of the exact allowed-pattern count).
* ``verify``: one sampled iteration per run.  A census the iteration
  used is recomputed window by window with ``rank_vector`` and
  ``lehmer_encode`` and compared count for count, and the iteration's
  published numbers are recomputed from that reference census.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from permz import analysis, cli, experiments
from permz.analysis import stabilized_census, xp_allowed_count, xp_class_constant
from permz.entropy import ComplexityClass, z_entropy, z_topological
from permz.experiments import FACTORIAL_PROCESSES, ExperimentConfig, member_seed
from permz.ordinal import lehmer_encode, pattern_census, rank_vector, visible_curve
from permz.processes import ProcessSpec, generate


@dataclass
class Op:
    """One top-level call and what it produced."""

    name: str
    call: Callable[[], object]
    files: tuple[Path, ...] = ()
    outputs: dict[str, bytes] = field(default_factory=dict)
    error: str | None = None

    def fail(self, why: str) -> None:
        if self.error is None:
            self.error = why


@dataclass
class Iteration:
    seed: int
    wall_s: float
    ops: list[Op]

    def digests(self) -> dict[str, str]:
        return {
            f"{op.name}/{key}": hashlib.sha256(value).hexdigest()
            for op in self.ops for key, value in sorted(op.outputs.items())
        }


# Table cells carry six decimals: half a unit of the last place, plus room
# for the ten significant digits kept of summary values.
CELL_TOLERANCE = 6e-7


def reference_codes(series, L: int, n_windows: int) -> list[int]:
    """Window codes one window at a time, the slow reference."""
    return [lehmer_encode(rank_vector(series[t:t + L])) for t in range(n_windows)]


def _canonical(value):
    """Summary values with floats kept to 10 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _read_csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def _choose(rng, items):
    return items[rng.randrange(len(items))]


# ---------------------------------------------------------------------------
# ensemble-entropy and periodic-high-order: run_experiment
# ---------------------------------------------------------------------------

class ExperimentWorkload:
    """One ``run_experiment`` call per iteration, one realization per
    process, jobs = 1, series length ``LENGTH``."""

    experiment = ""
    default_seed = ExperimentConfig().seed
    LENGTH = 50_000
    ALPHAS = ExperimentConfig().alphas
    POOL_JOBS = None

    def columns(self) -> list[tuple[str, ProcessSpec, ComplexityClass, tuple[int, ...]]]:
        """(label, spec, class, orders) per process column, in CSV order."""
        raise NotImplementedError

    def allowed(self, spec: ProcessSpec, L: int) -> int:
        return math.factorial(L)

    def windows(self) -> int:
        return sum(self.LENGTH - L + 1 for *_, orders in self.columns() for L in orders)

    def plan(self, seed: int, workdir: Path, jobs: int = 1) -> list[Op]:
        config = ExperimentConfig(realizations=1, seed=seed, jobs=jobs)
        outdir = workdir / self.experiment
        return [Op(self.experiment, lambda: experiments.run_experiment(
            self.experiment, config, outdir))]

    def collect(self, op: Op, result) -> None:
        for path in result.files:
            if path.endswith(".csv"):
                op.outputs[Path(path).name] = Path(path).read_bytes()
        op.outputs["summary.json"] = json.dumps(
            _canonical(result.summary), sort_keys=True).encode()

    def _cells(self, op: Op) -> dict[tuple[str, int, float], float]:
        cells = {}
        cols = self.columns()
        all_orders = sorted({L for *_, orders in cols for L in orders})
        for alpha in self.ALPHAS:
            rows = _read_csv(op.outputs[f"{self.experiment}_alpha{alpha:g}.csv"])
            header = ["L"] + [h for label, *_ in cols for h in (label, f"{label}_sd")]
            if rows[0] != header:
                raise ValueError(f"unexpected header {rows[0]}")
            if [int(r[0]) for r in rows[1:]] != all_orders:
                raise ValueError("unexpected order column")
            for row in rows[1:]:
                L = int(row[0])
                for k, (label, _, _, orders) in enumerate(cols):
                    mean, sd = row[1 + 2 * k], row[2 + 2 * k]
                    if L not in orders:
                        if mean or sd:
                            raise ValueError(f"{label} L={L}: cell should be empty")
                        continue
                    if sd != "0.000000":  # one realization has no spread
                        raise ValueError(f"{label} L={L}: sd {sd}")
                    cells[(label, L, alpha)] = float(mean)
        return cells

    def check(self, op: Op) -> None:
        try:
            cells = self._cells(op)
            summary = json.loads(op.outputs["summary.json"])["curves"]
        except (KeyError, ValueError, IndexError) as exc:
            op.fail(f"malformed output: {exc!r}")
            return
        if len(summary) != len(cells):
            op.fail("summary and tables disagree on the number of curves")
        for (label, L, alpha), value in cells.items():
            spec, cls = next((s, c) for lab, s, c, _ in self.columns() if lab == label)
            # Renyi entropy is at most the log of the support, which is at
            # most the allowed-pattern count, so Z/L is bounded by the
            # topological Z-entropy of that count.
            bound = z_topological(self.allowed(spec, L), cls) / L
            if not 0.0 <= value <= bound + 1e-6:
                op.fail(f"{label} L={L} alpha={alpha:g}: {value} outside [0, {bound}]")
            key = f"{label}|L{L}|a{alpha:g}"
            if abs(summary.get(key, math.inf) - value) > CELL_TOLERANCE:
                op.fail(f"summary {key} does not match its table cell")

    def verify(self, it: Iteration, rng) -> list[str]:
        problems = []
        j, (label, spec, cls, orders) = _choose(rng, list(enumerate(self.columns())))
        x = generate(replace(spec, length=self.LENGTH, seed=member_seed(it.seed, j, 0)))
        L = _choose(rng, orders)
        dist = stabilized_census(x, L)
        n = x.size - L + 1
        block = 5 * math.factorial(L)
        used = dist.total_windows
        if not (used == n or (used % block == 0 and 0 < used < n)):
            problems.append(f"{label} L={L}: stopped after {used} of {n} windows")
        ref = Counter(reference_codes(x, L, used))
        if dict(ref) != dist.counts:
            problems.append(f"{label} L={L}: census differs from the reference")
        if len(ref) > self.allowed(spec, L):
            problems.append(f"{label} L={L}: support {len(ref)} above the allowed count")
        ref_dist = type(dist)(order=L, counts=dict(ref), total_windows=used)
        cells = self._cells(it.ops[0])
        for alpha in self.ALPHAS:
            expect = z_entropy(ref_dist, cls, alpha) / L
            if abs(cells[(label, L, alpha)] - expect) > CELL_TOLERANCE:
                problems.append(f"{label} L={L} alpha={alpha:g}: table {cells[(label, L, alpha)]}"
                                f" but reference census gives {expect:.6f}")
        for L in orders:
            support = stabilized_census(x, L).support_size
            if support > self.allowed(spec, L):
                problems.append(f"{label} L={L}: support {support} above the allowed count")
        return problems


class EnsembleEntropy(ExperimentWorkload):
    name = "ensemble-entropy"
    experiment = "fig1"
    ORDERS = ExperimentConfig().orders

    def columns(self):
        fac = ComplexityClass.factorial()
        return [(label, spec, fac, self.ORDERS) for label, spec in FACTORIAL_PROCESSES]


class PeriodicHighOrder(ExperimentWorkload):
    name = "periodic-high-order"
    experiment = "fig4"
    SUBSEQUENCES = ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2))

    def columns(self):
        return [
            (f"xp-{p}-{mu}", ProcessSpec("xp", length=1, period=p),
             ComplexityClass.sub_factorial(xp_class_constant(p, mu)),
             tuple(L for L in range(2, 15) if L % p == mu and L >= p))
            for p, mu in self.SUBSEQUENCES
        ]

    def allowed(self, spec, L):
        return xp_allowed_count(spec.period, L)


# ---------------------------------------------------------------------------
# cli-decay: permz generate --output, then permz decay --input
# ---------------------------------------------------------------------------

class CliDecay:
    """``FILES`` series files per process written by ``permz generate``,
    then ``permz decay`` over each process's files at each order.

    Measured iterations run ``decay --jobs 1``.  At ``--jobs 2`` the
    median iteration wall spread across seeds by more than the
    benchmark's bound allows on a 2-vCPU machine, so the pool is measured
    only in traced runs, as ``cli.pool_gain``."""

    name = "cli-decay"
    default_seed = 0
    PROCESSES = (("white-noise", ()), ("fbm", ("--hurst", "0.6")),
                 ("noisy-logistic", ()))
    ORDERS = (4, 5, 6)
    FILES = 5
    LENGTH = 7_000
    POOL_JOBS = 2
    DECAY_HEADER = ["source", "L", "model", "R", "C", "beta", "T_min", "T_max",
                    "residual", "n_points", "realizations"]

    def windows(self) -> int:
        return len(self.PROCESSES) * self.FILES * sum(
            self.LENGTH - L + 1 for L in self.ORDERS)

    def spec(self, process: str, seed: int) -> ProcessSpec:
        hurst = 0.6 if process == "fbm" else None
        return ProcessSpec(process, length=self.LENGTH, seed=seed, hurst=hurst)

    def plan(self, seed: int, workdir: Path, jobs: int = 1) -> list[Op]:
        ops = []
        for process, extra in self.PROCESSES:
            paths = [workdir / f"{process}-{i}.txt" for i in range(self.FILES)]
            for i, path in enumerate(paths):
                argv = ["generate", "--process", process, *extra, "--length",
                        str(self.LENGTH), "--seed", str(seed + i), "--output", str(path)]
                ops.append(Op(f"generate-{process}-{i}", self._command(argv),
                              (path, Path(f"{path}.json"))))
            for L in self.ORDERS:
                out = workdir / f"decay-{process}-L{L}.csv"
                argv = ["decay", "--input", *map(str, paths), "--order", str(L),
                        "--jobs", str(jobs), "--output", str(out)]
                ops.append(Op(f"decay-{process}-L{L}", self._command(argv), (out,)))
        return ops

    @staticmethod
    def _command(argv):
        # cli.main is looked up at call time, so tracing wrappers apply
        return lambda: cli.main(argv)

    def collect(self, op: Op, result) -> None:
        if result != 0:
            op.fail(f"exit code {result}")
            return
        for path in op.files:
            prefix = str(path.parent).encode() + b"/"
            op.outputs[path.name] = path.read_bytes().replace(prefix, b"")

    def check(self, op: Op) -> None:
        try:
            if op.name.startswith("generate-"):
                series, sidecar = sorted(op.outputs)[0], sorted(op.outputs)[1]
                values = np.array(op.outputs[series].split(), dtype=np.float64)
                options = json.loads(op.outputs[sidecar])["options"]
                if values.size != self.LENGTH or not np.all(np.isfinite(values)):
                    op.fail(f"{series}: {values.size} samples, expected {self.LENGTH}")
                if options["length"] != self.LENGTH or options["output"] != series:
                    op.fail(f"{sidecar}: does not describe {series}")
            else:
                (data,) = op.outputs.values()
                header, row = _read_csv(data)
                fields = dict(zip(header, row))
                if header != self.DECAY_HEADER:
                    op.fail(f"unexpected header {header}")
                elif not (f"decay-{fields['source'].rsplit('-', 1)[0]}-L{fields['L']}"
                          == op.name and int(fields["realizations"]) == self.FILES
                          and float(fields["R"]) > 0 and int(fields["n_points"]) >= 4):
                    op.fail(f"implausible decay row {row}")
        except (KeyError, ValueError, IndexError) as exc:
            op.fail(f"malformed output: {exc!r}")

    def verify(self, it: Iteration, rng) -> list[str]:
        problems = []
        by_name = {op.name: op for op in it.ops}
        process, _ = _choose(rng, self.PROCESSES)
        i = rng.randrange(self.FILES)
        x = generate(self.spec(process, it.seed + i))
        text = by_name[f"generate-{process}-{i}"].outputs[f"{process}-{i}.txt"]
        if not np.array_equal(np.array(text.split(), dtype=np.float64), x):
            problems.append(f"{process}-{i}.txt does not round-trip the generated series")
        L = _choose(rng, self.ORDERS)
        codes = reference_codes(x, L, x.size - L + 1)
        first_seen = np.zeros(len(codes), dtype=np.int64)
        seen = set()
        for t, code in enumerate(codes):
            if code not in seen:
                seen.add(code)
                first_seen[t] = 1
        if not np.array_equal(np.cumsum(first_seen), visible_curve(x, L)):
            problems.append(f"{process}-{i} L={L}: visible curve differs from the reference")
        return problems


# ---------------------------------------------------------------------------
# map-scan: forbidden patterns of deterministic maps
# ---------------------------------------------------------------------------

class MapScan:
    """The c02 scans (logistic at L = 3 and 4, shift at L = 4), each over
    ``N_ORBITS`` orbits of ``ORBIT_LEN`` steps."""

    name = "map-scan"
    default_seed = 101  # with the shift offset, the seeds of criterion c02
    SCANS = (("logistic", 3, 0), ("logistic", 4, 0), ("shift", 4, 101))
    N_ORBITS = 100
    ORBIT_LEN = 10_000
    POOL_JOBS = None
    # Seed-independent facts of the two maps at these orders.
    EXPECTED = {("logistic", 3): 1, ("logistic", 4): 12, ("shift", 4): 6}

    def windows(self) -> int:
        return sum(self.N_ORBITS * (self.ORBIT_LEN - L + 1) for _, L, _ in self.SCANS)

    def plan(self, seed: int, workdir: Path, jobs: int = 1) -> list[Op]:
        return [Op(f"{kind}-L{L}", self._scan(ProcessSpec(kind, length=1, seed=seed + offset), L))
                for kind, L, offset in self.SCANS]

    def _scan(self, spec, L):
        # looked up at call time, so tracing wrappers apply
        return lambda: analysis.forbidden_patterns_of_map(
            spec, L, self.N_ORBITS, self.ORBIT_LEN)

    def collect(self, op: Op, result) -> None:
        op.outputs["forbidden.json"] = json.dumps(sorted(p.ranks for p in result)).encode()

    def check(self, op: Op) -> None:
        kind, L = op.name.split("-L")
        try:
            forbidden = [tuple(p) for p in json.loads(op.outputs["forbidden.json"])]
        except (KeyError, ValueError) as exc:
            op.fail(f"malformed output: {exc!r}")
            return
        if len(set(forbidden)) != self.EXPECTED[(kind, int(L))]:
            op.fail(f"{len(forbidden)} forbidden patterns")
        if any(sorted(p) != list(range(int(L))) for p in forbidden):
            op.fail("entries are not permutations")
        if op.name == "logistic-L3" and forbidden != [(2, 1, 0)]:
            op.fail(f"logistic L=3 forbids {forbidden}, not (2, 1, 0)")

    def verify(self, it: Iteration, rng) -> list[str]:
        problems = []
        k = rng.randrange(len(self.SCANS))
        kind, L, offset = self.SCANS[k]
        if kind == "logistic":
            spec = ProcessSpec(kind, length=3_000, x0=rng.uniform(0.01, 0.99))
        else:
            spec = ProcessSpec(kind, length=3_000, seed=it.seed + offset + 1)
        x = generate(spec)
        ref = Counter(reference_codes(x, L, x.size - L + 1))
        if dict(ref) != pattern_census(x, L).counts:
            problems.append(f"{kind} L={L}: census differs from the reference")
        forbidden = json.loads(it.ops[k].outputs["forbidden.json"])
        visible = {lehmer_encode(tuple(p)) for p in forbidden} & set(ref)
        if visible:
            problems.append(f"{kind} L={L}: patterns {sorted(visible)} reported "
                            "forbidden but seen on another orbit")
        return problems


WORKLOADS = {w.name: w for w in (EnsembleEntropy(), PeriodicHighOrder(), CliDecay(),
                                 MapScan())}
