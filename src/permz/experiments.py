"""Desk-scale reproductions of the reference experiments.

Each experiment produces plot-ready CSV tables plus a JSON metadata
sidecar recording the full configuration, the seed scheme and the
runtime.  Realization i of process j is seeded ``member_seed(base, j, i)``
(:mod:`permz.processes`), so runs are reproducible and parallelizable.

Every ensemble, here and in the ``entropy`` and ``decay`` commands, runs
through one engine, :func:`run_ensemble`: each member generates its
series once from its :class:`ProcessSpec` (or takes a series read from
a file), applies one measure to it, and the results come back in index
order.  With ``jobs > 1`` members are computed on a pool of threads, so
the output does not depend on completion order.  Errors keep their
class: an exception raised by a member (a ValidationError for an order
out of range, a NumericalError from a generator, a MemoryError) reaches
the caller unchanged, and the members not yet started are cancelled.

Those commands also share this module's entropy cells, table text and
text-file reads and writes.

Experiments, with the series length T each uses when ``t_max`` is None
-----------------------------------------------------------------------
fig1    T=50000  ensemble <Z_fac,alpha / L> versus L for the seven factorial-
                 class processes, orders 3..7, alpha in {0.5, 1, 1.5}.
fig2    T=7000   ensemble <g(6, T)> versus T for the same processes.
fig3    T=50     ensemble <g(6, T)> versus T for the noisy-periodic processes
                 of periods 2..6, plus their visible-support counts.
fig4    T=50000  ensemble <Z_sub,alpha / L> versus L for the noisy-periodic
                 order subsequences (p, mu) in {2,3} x residues, 2 <= L <= 14.
table1  T=7000   missing-pattern decay exponents for the fig2 processes at
                 L = 4, 5, 6.
table2  (none)   exact allowed-pattern counts of the noisy-periodic family
                 for periods 2..6 and widths up to 14, checked cell by cell
                 against the reference values embedded below.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

# ordinal's functions and entropy._renyi are looked up through their module
# at call time, so a wrapper installed there (as tracing does) sees these calls
from . import __version__, entropy, ordinal
from .analysis import fit_decay, xp_allowed_count, xp_class_constant
from .entropy import (
    ComplexityClass, _check_alpha, _check_alpha_labels, z_topological,
)
from .entropy import z_entropy  # noqa: F401 -- perfbench traces this binding
from .errors import DataError, ValidationError, _instance
from .ordinal import stabilized_census  # noqa: F401 -- perfbench traces this binding
from .processes import (
    _PROC_SEED_STRIDE, ProcessSpec, _check_count, _check_length, _check_seed,
    generate, realization_specs,
)
from .processes import member_seed  # noqa: F401 -- perfbench imports it from here

__all__ = ["EXPERIMENTS", "ExperimentConfig", "ExperimentResult", "run_experiment",
           "run_ensemble", "pool_size", "mean_curve", "entropy_cells",
           "missing_curves", "render_table", "read_text", "write_text",
           "FACTORIAL_PROCESSES", "TABLE2_REFERENCE"]

FACTORIAL_PROCESSES: tuple[tuple[str, ProcessSpec], ...] = (
    ("white-noise", ProcessSpec("white-noise", length=1)),
    ("fgn-0.20", ProcessSpec("fgn", length=1, hurst=0.20)),
    ("fbm-0.20", ProcessSpec("fbm", length=1, hurst=0.20)),
    ("fbm-0.40", ProcessSpec("fbm", length=1, hurst=0.40)),
    ("fbm-0.60", ProcessSpec("fbm", length=1, hurst=0.60)),
    ("noisy-logistic", ProcessSpec("noisy-logistic", length=1)),
    ("noisy-schuster", ProcessSpec("noisy-schuster", length=1)),
)

# Reference allowed-pattern counts for periods 2..6, widths p..14.
TABLE2_REFERENCE: dict[int, dict[int, int]] = {
    2: {2: 2, 3: 3, 4: 4, 5: 8, 6: 12, 7: 30, 8: 48, 9: 144, 10: 240,
        11: 840, 12: 1440, 13: 5760, 14: 10080},
    3: {3: 3, 4: 5, 5: 8, 6: 12, 7: 28, 8: 60, 9: 108, 10: 324,
        11: 864, 12: 1728, 13: 6336, 14: 20160},
    4: {4: 4, 5: 7, 6: 12, 7: 20, 8: 32, 9: 80, 10: 192, 11: 432,
        12: 864, 13: 2808, 14: 8640},
    5: {5: 5, 6: 9, 7: 16, 8: 28, 9: 48, 10: 80, 11: 208, 12: 528,
        13: 1296, 14: 3024},
    6: {6: 6, 7: 11, 8: 20, 9: 36, 10: 64, 11: 112, 12: 192, 13: 512,
        14: 1344},
}

_FIG4_SUBSEQUENCES = ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2))


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments; ``t_max=None`` picks each
    experiment's default series length, and a given ``t_max`` below the
    experiment's largest order is rejected before any series."""

    realizations: int = 35
    seed: int = 2024
    t_max: int | None = None
    alphas: tuple[float, ...] = (0.5, 1.0, 1.5)
    orders: tuple[int, ...] = (3, 4, 5, 6, 7)
    jobs: int = 1

    def __post_init__(self):
        _check_count("realizations", self.realizations)
        _check_count("jobs", self.jobs)
        _check_seed(self.seed)
        if self.t_max is not None:
            _check_length("t_max", self.t_max)
        for name in ("orders", "alphas"):  # tuples, so that a config hashes
            value = getattr(self, name)
            if value is not None and not np.iterable(value):
                raise ValidationError(f"{name} must be a sequence")
            object.__setattr__(self, name, () if value is None else tuple(value))
            if not getattr(self, name):
                raise ValidationError(f"{name} must not be empty")
        for L in self.orders:
            ordinal._check_order(L)
        # Python ints: the JSON metadata would write a numpy integer as a string
        object.__setattr__(self, "orders", tuple(map(int, self.orders)))
        object.__setattr__(self, "alphas", _check_alpha_labels(self.alphas, positive=True))


@dataclass
class ExperimentResult:
    name: str
    tables: dict[str, tuple[list[str], list[list]]]
    summary: dict
    metadata: dict
    files: list[str] = field(default_factory=list)


# -- tables and files -------------------------------------------------------

def render_table(header: list[str], rows: list[list], fmt: str = "csv") -> str:
    """The table as CSV text or as a JSON list of one object per row."""
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows],
                          indent=2, default=str) + "\n"
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def read_text(path, what: str) -> str:
    """The UTF-8 text of ``path``; an OSError or a byte that is not UTF-8
    becomes a DataError "cannot read <what> <path>"."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def write_text(path, text: str, what: str = "output") -> None:
    """Write ``text`` to ``path`` as UTF-8 with newlines untranslated; an
    OSError becomes a DataError "cannot write <what> <path>"."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc


# -- the ensemble engine ----------------------------------------------------

def pool_size(jobs: int, members: int) -> int:
    """Worker threads for an ensemble of ``members`` at ``jobs``: never
    more than the members or the CPUs; 1 means no pool."""
    _check_count("jobs", jobs)
    return max(1, min(jobs, members, os.cpu_count() or 1))


def run_ensemble(measure, sources, jobs: int) -> list:
    """``measure(series)`` for the series of every source, in index order.

    A source is a :class:`ProcessSpec`, generated where it is measured,
    or a series array.  With ``jobs > 1`` the members run on a pool of
    threads.  An exception raised by a member reaches the caller with its
    own class, and the members not yet started are cancelled.
    """
    def member(source):
        return measure(generate(source) if isinstance(source, ProcessSpec) else source)

    sources = list(sources)
    workers = pool_size(jobs, len(sources))
    if workers == 1:
        return [member(source) for source in sources]
    # imported here: concurrent.futures loads logging, a start-up cost
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(member, sources))
    finally:  # after an error or Ctrl-C, no member that has not started runs
        pool.shutdown(cancel_futures=True)


def mean_curve(members, key) -> np.ndarray:
    """The mean of the curves ``member[key]`` over an ensemble, point by
    point; members of different series lengths raise DataError."""
    curves = [m[key] for m in members]
    if len({len(c) for c in curves}) != 1:
        raise DataError("ensemble members must share one series length")
    return np.mean(np.vstack(curves), axis=0)


def _ensemble(config: ExperimentConfig, j: int, spec: ProcessSpec, length: int,
              measure) -> list:
    """``measure`` over the realizations of process ``j`` of an experiment."""
    specs = realization_specs(replace(spec, length=length, seed=config.seed),
                              config.realizations, j)
    return run_ensemble(measure, specs, config.jobs)


# -- measures ---------------------------------------------------------------

def entropy_cells(series, orders, alphas, cls: ComplexityClass,
                  stabilized: bool = True) -> dict:
    """``(R_alpha, Z_alpha, Z_alpha / L)`` of one series under ``cls`` per
    ``(L, alpha)``, from the stabilized census or else every window's;
    alpha 0 gives the topological Z-entropy of the support (its
    ``math.log``, which can differ from R_0's ``np.log`` in the last bit)."""
    codes = ordinal._position_codes(series, orders)
    checked = [(alpha, _check_alpha(alpha)) for alpha in alphas]
    out = {}
    for L in orders:
        counts = ordinal._census(codes[L], L, stabilized)[1]
        p = counts / counts.sum()  # positive counts: p is its own support
        for alpha, a in checked:
            r = entropy._renyi(p, a)
            z = cls.z(r) if a > 0 else z_topological(counts.size, cls)
            out[(L, alpha)] = (r, z, z / L)
    return out


def _g_curve_and_codes(series, L: int) -> tuple[np.ndarray, np.ndarray]:
    """``ln A_{L,T}`` at every prefix length and every window's position code."""
    codes = ordinal._positions(series, L)
    return np.log(ordinal._prefix_curve(codes, L)), codes


def missing_curves(series, orders) -> dict[int, np.ndarray]:
    """Missing-pattern count ``L! - A`` at every prefix length, per order."""
    codes = ordinal._position_codes(series, orders)
    return {L: math.factorial(L) - ordinal._prefix_curve(codes[L], L) for L in orders}


# -- fig1 / fig4 (Z-entropy rates) ------------------------------------------

def _z_curves(columns, config: ExperimentConfig, length: int) -> dict:
    """Ensemble ``(mean, sd)`` of ``Z_alpha / L`` per ``(label, L, alpha)``;
    ``columns`` holds ``(label, spec, class, orders)`` per process."""
    curves: dict[tuple[str, int, float], tuple[float, float]] = {}
    for j, (label, spec, cls, col_orders) in enumerate(columns):
        measure = partial(entropy_cells, orders=col_orders, alphas=config.alphas,
                          cls=cls)
        members = _ensemble(config, j, spec, length, measure)
        cells = [(L, alpha) for L in col_orders for alpha in config.alphas]
        # a contiguous row per cell meets the kernel of a 1-d mean and std; axis 0
        # of (members x cells), `permz entropy`'s form, differs in the last bits
        vals = np.array([[m[cell][2] for m in members] for cell in cells])
        stats = zip(vals.mean(axis=1).tolist(), vals.std(axis=1).tolist())
        curves.update(((label, *cell), pair) for cell, pair in zip(cells, stats))
    return curves


def _z_tables(stem: str, columns, orders, config: ExperimentConfig, length: int):
    """Ensemble mean and spread of ``Z_alpha / L``, one table per alpha.

    Table rows follow ``orders``, leaving a column of ``columns`` (as
    :func:`_z_curves` takes them) empty at the orders it does not measure.
    """
    curves = _z_curves(columns, config, length)
    tables = {}
    for alpha in config.alphas:
        header = ["L"]
        for label, *_ in columns:
            header += [label, f"{label}_sd"]
        rows = []
        for L in orders:
            row: list = [L]
            for label, *_ in columns:
                if (label, L, alpha) in curves:
                    mean, sd = curves[(label, L, alpha)]
                    row += [f"{mean:.6f}", f"{sd:.6f}"]
                else:
                    row += ["", ""]
            rows.append(row)
        tables[f"{stem}_alpha{alpha:g}"] = (header, rows)
    summary = {
        "curves": {f"{n}|L{L}|a{a:g}": v[0] for (n, L, a), v in curves.items()}
    }
    return tables, summary


def _experiment_fig1(config: ExperimentConfig, length: int):
    fac = ComplexityClass.factorial()
    columns = [(name, spec, fac, config.orders) for name, spec in FACTORIAL_PROCESSES]
    return _z_tables("fig1", columns, config.orders, config, length)


def _experiment_fig4(config: ExperimentConfig, length: int):
    columns = [
        (f"xp-{p}-{mu}", ProcessSpec("xp", length=1, period=p),
         ComplexityClass.sub_factorial(xp_class_constant(p, mu)),
         tuple(L for L in range(2, 15) if L % p == mu and L >= p))
        for p, mu in _FIG4_SUBSEQUENCES
    ]
    all_orders = sorted({L for *_, orders in columns for L in orders})
    tables, summary = _z_tables("fig4", columns, all_orders, config, length)
    summary["orders"] = {label: list(orders) for label, *_, orders in columns}
    return tables, summary


# -- fig2 / fig3 (finite-length complexity function) ------------------------

def _g_tables(stem: str, processes, config: ExperimentConfig, length: int,
              every: int):
    """Ensemble mean of ``g(6, T) = ln A_{6,T}`` per process at the ``T``
    divisible by ``every`` and at ``T = 6``, its final values, and each
    process's visible union: one census of all its members' codes."""
    L = 6
    curves, unions = {}, {}
    for j, (name, spec) in enumerate(processes):
        members = _ensemble(config, j, spec, length, partial(_g_curve_and_codes, L=L))
        curves[name] = mean_curve(members, 0)
        unions[name] = ordinal._census(np.concatenate([c for _, c in members]), L)[0].size
    header = ["T"] + [name for name, _ in processes]
    rows = [[t] + [f"{curves[name][k]:.6f}" for name, _ in processes]
            for k, t in enumerate(range(L, length + 1)) if t % every == 0 or t == L]
    summary = {"final_g": {name: float(curve[-1]) for name, curve in curves.items()}}
    return {f"{stem}_g6": (header, rows)}, summary, unions


def _experiment_fig2(config: ExperimentConfig, length: int):
    tables, summary, _ = _g_tables("fig2", FACTORIAL_PROCESSES, config, length, 50)
    summary["target"] = math.log(math.factorial(6))
    return tables, summary


def _experiment_fig3(config: ExperimentConfig, length: int):
    periods = (2, 3, 4, 5, 6)
    processes = [(f"xp-p{p}", ProcessSpec("xp", length=1, period=p)) for p in periods]
    tables, summary, unions = _g_tables("fig3", processes, config, length, 1)
    allowed = {name: xp_allowed_count(p, 6) for p, (name, _) in zip(periods, processes)}
    rows = [[p, unions[name], allowed[name]] for p, name in zip(periods, allowed)]
    tables["fig3_support"] = (["period", "visible_union", "allowed_analytic"], rows)
    summary.update(union_support=unions, analytic_allowed=allowed)
    return tables, summary


# -- table1 -----------------------------------------------------------------

def _experiment_table1(config: ExperimentConfig, length: int):
    orders = (4, 5, 6)
    fits: dict[tuple[str, int], object] = {}
    for j, (name, spec) in enumerate(FACTORIAL_PROCESSES):
        members = _ensemble(config, j, spec, length, partial(missing_curves, orders=orders))
        for L in orders:
            fits[(name, L)] = fit_decay(mean_curve(members, L), L)
    header = ["process"] + [f"R_L{L}" for L in orders] + [
        f"residual_L{L}" for L in orders
    ]
    rows = []
    for name, _ in FACTORIAL_PROCESSES:
        row: list = [name]
        row += [f"{fits[(name, L)].R:.6e}" for L in orders]
        row += [f"{fits[(name, L)].residual:.4f}" for L in orders]
        rows.append(row)
    summary = {
        "R": {f"{name}|L{L}": fits[(name, L)].R for name, _ in FACTORIAL_PROCESSES
              for L in orders}
    }
    return {"table1_decay": (header, rows)}, summary


# -- table2 -----------------------------------------------------------------

def _experiment_table2(config: ExperimentConfig, length: int | None):
    header = ["period"] + [str(L) for L in range(2, 15)]
    rows = []
    mismatches = []
    cells = 0
    for p in sorted(TABLE2_REFERENCE):
        row: list = [p]
        for L in range(2, 15):
            if L < p:
                row.append("")
                continue
            value = xp_allowed_count(p, L)
            cells += 1
            ref = TABLE2_REFERENCE[p].get(L)
            if ref is not None and ref != value:
                mismatches.append((p, L, value, ref))
            row.append(value)
        rows.append(row)
    summary = {
        "cells": cells,
        "mismatches": mismatches,
        "all_match": not mismatches,
    }
    return {"table2_allowed": (header, rows)}, summary


# name: (runner, default series length, largest order; None: config.orders)
_RUNNERS = {
    "fig1": (_experiment_fig1, 50_000, None),
    "fig2": (_experiment_fig2, 7_000, 6),
    "fig3": (_experiment_fig3, 50, 6),
    "fig4": (_experiment_fig4, 50_000, 14),
    "table1": (_experiment_table1, 7_000, 6),
    "table2": (_experiment_table2, None, None),
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(
    name: str, config: ExperimentConfig | None = None,
    output_dir: str | Path | None = None,
) -> ExperimentResult:
    """Run one named experiment; optionally write its CSV tables and a
    JSON metadata sidecar into ``output_dir``."""
    if name not in _RUNNERS:
        raise ValidationError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    config = ExperimentConfig() if config is None else _instance(
        config, ExperimentConfig, "config")
    runner, length, top = _RUNNERS[name]
    if length is not None:  # table2 reads no series
        length = length if config.t_max is None else config.t_max
        if top is None:
            top = max(config.orders)
        if length < top:
            raise ValidationError(f"{name} needs t_max >= {top}")
    if output_dir is not None:  # before the run, so a bad directory costs nothing
        outdir = Path(output_dir)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot create output directory {outdir}: {exc}") from exc
    started = time.time()
    tables, summary = runner(config, length)
    metadata = {
        "experiment": name,
        "version": __version__,
        "config": asdict(config),
        "seed_scheme": (
            f"member = seed + {_PROC_SEED_STRIDE} * process_index + realization"
        ),
        "runtime_seconds": round(time.time() - started, 3),
    }
    result = ExperimentResult(
        name=name, tables=tables, summary=summary, metadata=metadata
    )
    if output_dir is not None:
        texts = {f"{stem}.csv": render_table(*table) for stem, table in tables.items()}
        texts[f"{name}_metadata.json"] = json.dumps(metadata, indent=2, default=str)
        for filename, text in texts.items():
            write_text(outdir / filename, text)
            result.files.append(str(outdir / filename))
    return result
