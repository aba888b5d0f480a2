"""Command-line front end.

Subcommands: ``generate`` (series to file with a JSON sidecar),
``census`` (pattern distribution or visibility trace), ``entropy``
(Renyi/Z reports, single series or seeded ensembles), ``decay``
(missing-pattern decay fits), ``experiment`` (the fig1..table2
reproductions) and ``xp`` (exact noisy-periodic analytics).

Exit codes: 0 success, 2 argument/parameter validation, 3 data error,
4 numerical failure.  Series files are UTF-8 text, one value per line,
``#`` starts a comment.  Every stochastic command is reproducible from
its recorded configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, ordinal
from .analysis import fit_decay, stabilized_census, xp_distribution
from .entropy import (
    ComplexityClass, _check_alpha, renyi_entropy, z_entropy, z_topological,
)
from .errors import DataError, PermzError, ValidationError
from .experiments import (
    EXPERIMENTS, ExperimentConfig, missing_curves, run_ensemble, run_experiment,
)
from .ordinal import lehmer_decode, pattern_census, visible_curve
from .processes import KINDS, ProcessSpec, _check_count, derive_seed, generate

__all__ = ["main", "read_series", "write_series"]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def read_series(path: str) -> np.ndarray:
    """One float per line; blank lines and ``#`` comments allowed."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read series file {path}: {exc}") from exc
    lines = text.split("\n")  # what iterating the file yields, newlines aside
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    del text
    try:
        values = np.fromiter(map(float, filter(str.strip, lines)), np.float64)
    except ValueError:
        values = _parse_lines(path, lines)
    if not values.size:
        raise DataError(f"series file {path} contains no samples")
    return values


def _parse_lines(path: str, lines: list[str]) -> np.ndarray:
    """The line-by-line parse behind :func:`read_series`'s error message.

    ``float`` strips fewer characters than ``str.strip`` (not ``\\x1c``
    to ``\\x1f``), so a line can fail the whole-text parse and still
    hold a number; then the values are returned."""
    values = []
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise DataError(f"{path}:{lineno}: not a number: {text!r}") from None
    return np.array(values, dtype=np.float64)


def _write_values(fh, series: np.ndarray) -> None:
    """One value per line in one write; 17 digits round-trip a double."""
    values = series.tolist()
    fh.write(("%.17g\n" * len(values)) % tuple(values))


def write_series(path: str, series: np.ndarray) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _write_values(fh, series)
    except OSError as exc:
        raise DataError(f"cannot write series file {path}: {exc}") from exc


def _write_sidecar(args) -> None:
    """Record the invocation beside ``args.output`` as ``<output>.json``."""
    options = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    config = {"command": args.command, "version": __version__, "options": options}
    sidecar = Path(str(args.output) + ".json")
    try:
        sidecar.write_text(json.dumps(config, indent=2, sort_keys=True, default=str)
                           + "\n")
    except OSError as exc:
        raise DataError(f"cannot write sidecar {sidecar}: {exc}") from exc


def _emit(header: list[str], rows: list[list], args) -> None:
    """Write the table to ``args.output``, with a sidecar, or to stdout."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(
            [dict(zip(header, row)) for row in rows], indent=2, default=str
        ) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise DataError(f"cannot write output {args.output}: {exc}") from exc
        _write_sidecar(args)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _parse_orders(text: str, hi=ordinal._MAX_ORDER) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ":" in text:
            first, last = text.split(":", 1)
            orders = tuple(range(int(first), int(last) + 1))
        else:
            orders = tuple(int(tok) for tok in text.split(","))
        if not orders:
            raise ValueError("the range is empty")
        for L in orders:
            ordinal._check_order(L, hi)
    except ValueError as exc:  # ValidationError included
        raise ValidationError(
            f"bad --orders {text!r} ({exc}); use e.g. '6', '3,5,7' or '3:7'"
        ) from None
    return orders


def _check_order_option(L: int) -> int:
    try:
        ordinal._check_order(L)
    except ValidationError as exc:
        raise ValidationError(f"bad --order {L} ({exc})") from None
    return L


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        alphas = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ValidationError(f"bad alpha list {text!r}") from None
    return tuple(_check_alpha(a) for a in alphas)


def _add_process_args(parser: argparse.ArgumentParser, require: bool = False):
    parser.add_argument("--process", choices=KINDS, required=require,
                        help="generator kind")
    parser.add_argument("--length", type=int, default=None,
                        help="series length T (entropy defaults to 50000, "
                        "decay to 7000 when generating)")
    parser.add_argument("--seed", type=int, default=0, help="stream seed")
    parser.add_argument("--hurst", type=float, default=None)
    parser.add_argument("--amplitude", type=float, default=None)
    parser.add_argument("--x0", type=float, default=None)
    parser.add_argument("--period", type=int, default=None)
    parser.add_argument("--delta", type=float, default=None)
    parser.add_argument("--sigma", type=float, default=None)
    parser.add_argument("--no-dither", action="store_true",
                        help="disable the anti-cycling dither of map orbits")


def _spec_from_args(args, default_length: int | None = None) -> ProcessSpec:
    if args.process is None:
        raise ValidationError("a --process kind is required here")
    length = args.length if args.length is not None else default_length
    if length is None:
        raise ValidationError("--length is required with --process")
    return ProcessSpec(
        kind=args.process,
        length=length,
        seed=args.seed,
        hurst=args.hurst,
        amplitude=args.amplitude,
        x0=args.x0,
        period=args.period,
        delta=args.delta,
        sigma=args.sigma,
        dither=not args.no_dither,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    spec = _spec_from_args(args)
    series = generate(spec)
    if args.output:
        write_series(args.output, series)
        _write_sidecar(args)
    else:
        _write_values(sys.stdout, series)
    return 0


def _load_sources(args, default_length: int) -> tuple[str, list]:
    """A label and the ensemble sources: the series of the input files,
    or seeded realizations of a process spec, generated by the engine."""
    if args.input:
        return args.input[0], [read_series(path) for path in args.input]
    spec = _spec_from_args(args, default_length)
    _check_count("realizations", args.realizations)
    return args.process, [
        replace(spec, seed=derive_seed(args.seed, i))
        for i in range(args.realizations)
    ]


def _cmd_census(args) -> int:
    L = _check_order_option(args.order)
    if args.input:
        if len(args.input) != 1:
            raise ValidationError("census takes exactly one --input file")
        series = read_series(args.input[0])
    else:
        series = generate(_spec_from_args(args))
    if args.trace:
        fact = math.factorial(L)
        header = ["T", "visible", "missing", "g"]
        rows = [
            [t, a, fact - a, f"{np.log(a):.6f}"]
            for t, a in enumerate(visible_curve(series, L).tolist(), L)
        ]
    else:
        dist = pattern_census(series, L)
        header = ["code", "ranks", "count", "probability"]
        rows = [
            [code, "".join(str(r) for r in lehmer_decode(code, L)), cnt,
             f"{cnt / dist.total_windows:.8f}"]
            for code, cnt in sorted(dist.counts.items())
        ]
    _emit(header, rows, args)
    return 0


def _entropy_member(series, orders, alphas, cls, stabilized) -> dict:
    out = {}
    for L in orders:
        dist = stabilized_census(series, L) if stabilized else pattern_census(series, L)
        for alpha in alphas:
            z = (z_entropy(dist, cls, alpha) if alpha > 0
                 else z_topological(dist.support_size, cls))
            out[(L, alpha)] = (renyi_entropy(dist, alpha), z, z / L)
    return out


def _cmd_entropy(args) -> int:
    cls = ComplexityClass.parse(getattr(args, "class"))
    orders = _parse_orders(args.orders)
    alphas = _parse_alphas(args.alpha)
    label, sources = _load_sources(args, default_length=50_000)
    measure = partial(_entropy_member, orders=orders, alphas=alphas, cls=cls,
                      stabilized=args.stabilized)
    members = run_ensemble(measure, sources, args.jobs, label)

    if len(members) == 1:
        header = ["source", "class", "L", "alpha", "renyi", "z", "z_over_L"]
        label = label if args.input else f"{label}[0]"
        rows = [
            [label, cls.token(), L, f"{alpha:g}"]
            + [f"{v:.6f}" for v in members[0][(L, alpha)]]
            for L in orders
            for alpha in alphas
        ]
    else:
        header = ["class", "L", "alpha", "n", "renyi_mean", "renyi_sd",
                  "z_mean", "z_sd", "z_over_L_mean", "z_over_L_sd"]
        rows = []
        for L in orders:
            for alpha in alphas:
                data = np.array([m[(L, alpha)] for m in members])
                rows.append(
                    [cls.token(), L, f"{alpha:g}", len(members)]
                    + [f"{v:.6f}" for pair in zip(
                        data.mean(axis=0), data.std(axis=0)
                    ) for v in pair]
                )
    _emit(header, rows, args)
    return 0


def _cmd_decay(args) -> int:
    L = _check_order_option(args.order)
    label, sources = _load_sources(args, default_length=7_000)
    members = run_ensemble(partial(missing_curves, orders=(L,)), sources,
                           args.jobs, label)
    curves = [m[L] for m in members]
    lengths = {len(c) for c in curves}
    if len(lengths) != 1:
        raise DataError("ensemble members must share one series length")
    mean_m = np.mean(np.vstack(curves), axis=0)
    fit = fit_decay(mean_m, L, model=args.model,
                    fix_intercept=not args.free_intercept)
    header = ["source", "L", "model", "R", "C", "beta", "T_min", "T_max",
              "residual", "n_points", "realizations"]
    rows = [[label, L, fit.model, f"{fit.R:.6e}", f"{fit.C:.6e}",
             f"{fit.beta:.4f}", fit.fit_range[0], fit.fit_range[1],
             f"{fit.residual:.5f}", fit.n_points, len(curves)]]
    _emit(header, rows, args)
    return 0


def _cmd_experiment(args) -> int:
    for option, value, readers in (("--orders", args.orders, ("fig1",)),
                                   ("--alpha", args.alpha, ("fig1", "fig4"))):
        if value is not None and args.name not in readers:
            raise ValidationError(f"experiment {args.name} does not take {option}")
    given = {k: getattr(args, k) for k in ("realizations", "seed", "t_max", "jobs")}
    given["alphas"] = None if args.alpha is None else _parse_alphas(args.alpha)
    given["orders"] = None if args.orders is None else _parse_orders(args.orders)
    config = ExperimentConfig(**{k: v for k, v in given.items() if v is not None})
    outdir = args.output_dir or f"permz-out/{args.name}"
    result = run_experiment(args.name, config, outdir)
    sys.stdout.write(f"experiment {args.name}: wrote {len(result.files)} files "
                     f"to {outdir}\n")
    for key, value in sorted(result.summary.items()):
        if isinstance(value, dict) and len(value) <= 12:
            sys.stdout.write(f"  {key}:\n")
            for k, v in value.items():
                sys.stdout.write(f"    {k}: {v}\n")
        elif not isinstance(value, dict):
            sys.stdout.write(f"  {key}: {value}\n")
    if args.name == "table2" and not result.summary["all_match"]:
        raise DataError(
            f"table2 mismatches against the embedded reference: "
            f"{result.summary['mismatches']}"
        )
    return 0


def _cmd_xp(args) -> int:
    orders = _parse_orders(args.orders, hi=math.inf)
    alphas = _parse_alphas(args.alpha)
    header = ["period", "L", "nu", "mu", "N1", "N2", "P1", "P2", "allowed",
              "c"] + [f"R_a{a:g}" for a in alphas]
    rows = []
    for L in orders:
        d = xp_distribution(args.period, L)
        rows.append(
            [d.p, d.L, d.nu, d.mu, d.N1, d.N2, str(d.P1), str(d.P2),
             d.allowed, f"{d.c:.6f}"]
            + [f"{d.renyi(a):.6f}" for a in alphas]
        )
    _emit(header, rows, args)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permz",
        description="Ordinal-pattern complexity analysis of time series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a process realization")
    _add_process_args(p_gen, require=True)
    p_gen.add_argument("--output", default=None, help="series file path")
    p_gen.set_defaults(func=_cmd_generate)

    p_cen = sub.add_parser("census", help="pattern distribution of a series")
    _add_process_args(p_cen)
    p_cen.add_argument("--input", nargs="*", default=None, help="series file")
    p_cen.add_argument("--order", type=int, required=True, help="pattern length L")
    p_cen.add_argument("--trace", action="store_true",
                       help="emit the visible/missing trace instead")
    p_cen.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cen.add_argument("--output", default=None)
    p_cen.set_defaults(func=_cmd_census)

    p_ent = sub.add_parser("entropy", help="Renyi and Z-entropy reports")
    _add_process_args(p_ent)
    p_ent.add_argument("--input", nargs="*", default=None,
                       help="series files (each one ensemble member)")
    p_ent.add_argument("--orders", default="3:7",
                       help="orders, e.g. '6', '3,5,7' or '3:7'")
    p_ent.add_argument("--alpha", default="0.5,1,1.5", help="comma list")
    p_ent.add_argument("--class", default="fac",
                       help="complexity class: exp:c | fac | sub:c | subn:n")
    p_ent.add_argument("--realizations", type=int, default=1)
    p_ent.add_argument("--jobs", type=int, default=1)
    p_ent.add_argument("--stabilized", action="store_true",
                       help="stop each census once the distribution stabilizes")
    p_ent.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ent.add_argument("--output", default=None)
    p_ent.set_defaults(func=_cmd_entropy)

    p_dec = sub.add_parser("decay", help="fit the missing-pattern decay")
    _add_process_args(p_dec)
    p_dec.add_argument("--input", nargs="*", default=None,
                       help="series files (each one ensemble member)")
    p_dec.add_argument("--order", type=int, required=True)
    p_dec.add_argument("--model", choices=("exponential", "stretched"),
                       default="exponential")
    p_dec.add_argument("--free-intercept", action="store_true",
                       help="do not pin the intercept to ln(L!-1)")
    p_dec.add_argument("--realizations", type=int, default=35)
    p_dec.add_argument("--jobs", type=int, default=1)
    p_dec.add_argument("--format", choices=("csv", "json"), default="csv")
    p_dec.add_argument("--output", default=None)
    p_dec.set_defaults(func=_cmd_decay)

    p_exp = sub.add_parser("experiment", help="run a packaged experiment")
    p_exp.add_argument("name", choices=EXPERIMENTS)
    p_exp.add_argument("--realizations", type=int)
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--t-max", type=int)
    p_exp.add_argument("--alpha")
    p_exp.add_argument("--orders")
    p_exp.add_argument("--jobs", type=int)
    p_exp.add_argument("--output-dir", default=None)
    p_exp.set_defaults(func=_cmd_experiment)

    p_xp = sub.add_parser("xp", help="exact noisy-periodic analytics")
    p_xp.add_argument("--period", type=int, required=True)
    p_xp.add_argument("--orders", required=True,
                      help="orders, e.g. '6', '2:14'")
    p_xp.add_argument("--alpha", default="0.5,1,1.5")
    p_xp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_xp.add_argument("--output", default=None)
    p_xp.set_defaults(func=_cmd_xp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PermzError as exc:
        sys.stderr.write(f"permz {args.command}: error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
