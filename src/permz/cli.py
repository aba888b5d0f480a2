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
import json
import math
import sys
from functools import cache, partial

import numpy as np

from . import __version__, ordinal
from .analysis import fit_decay, xp_distribution
from .entropy import ComplexityClass, _check_alpha_labels
from .errors import DataError, NumericalError, PermzError, ValidationError
from .experiments import (
    EXPERIMENTS, ExperimentConfig, entropy_cells, mean_curve, missing_curves,
    read_text, render_table, run_ensemble, run_experiment, write_text,
)
from .ordinal import lehmer_decode, pattern_census, visible_curve
from .processes import KINDS, NUMERIC_PARAMS, ProcessSpec, generate, realization_specs

__all__ = ["main", "read_series", "write_series"]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def read_series(path: str) -> np.ndarray:
    """One float per line; blank lines and ``#`` comments allowed.  Each
    line is stripped as ``str.strip`` strips it, then read as ``float``."""
    text = read_text(path, "series file")
    lines = text.split("\n")  # what iterating the file yields, newlines aside
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    del text
    try:
        values = np.fromiter(map(float, filter(None, map(str.strip, lines))), np.float64)
    except ValueError:
        raise _parse_lines(path, lines) from None
    if not values.size:
        raise DataError(f"series file {path} contains no samples")
    return values


def _parse_lines(path: str, lines: list[str]) -> DataError:
    """The error :func:`read_series` raises: the first line ``float`` refuses."""
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        try:
            float(text or 0)  # a blank line is skipped, not refused
        except ValueError:
            return DataError(f"{path}:{lineno}: not a number: {text!r}")


def _series_text(series: np.ndarray) -> str:
    """One value per line; 17 digits round-trip a double."""
    values = series.tolist()
    return ("%.17g\n" * len(values)) % tuple(values)


def write_series(path: str, series: np.ndarray) -> None:
    write_text(path, _series_text(series), "series file")


def _write_sidecar(args) -> None:
    """Record the invocation beside ``args.output`` as ``<output>.json``."""
    options = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    config = {"command": args.command, "version": __version__, "options": options}
    write_text(f"{args.output}.json",
               json.dumps(config, indent=2, sort_keys=True, default=str) + "\n",
               "sidecar")


def _emit(header: list[str], rows: list[list], args) -> None:
    """Write the table to ``args.output``, with a sidecar, or to stdout."""
    text = render_table(header, rows, args.format)
    if args.output:
        write_text(args.output, text)
        _write_sidecar(args)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _parse_orders(text: str, hi=ordinal._MAX_ORDER, largest=None) -> tuple[int, ...]:
    """One order, a comma list or a range ``first:last``, each in ``[2, hi]``.

    ``largest``, if given, checks the largest order before a range is
    built: a bound that never decreases in L refuses a long range at once.
    """
    text = text.strip()
    try:
        if ":" in text:
            first, last = (int(tok) for tok in text.split(":", 1))
            ends, orders = (first, last), range(first, last + 1)
        else:
            ends = orders = tuple(int(tok) for tok in text.split(","))
        for L in ends:  # a range's ends bound every order in it
            ordinal._check_order(L, hi)
        if not orders:
            raise ValueError("the range is empty")
    except ValueError as exc:  # ValidationError included
        raise ValidationError(
            f"bad --orders {text!r} ({exc}); use e.g. '6', '3,5,7' or '3:7'"
        ) from None
    if largest is not None:
        largest(max(ends))
    return tuple(orders)


def _check_order_option(L: int) -> int:
    try:
        return ordinal._check_order(L)
    except ValidationError as exc:
        raise ValidationError(f"bad --order {L} ({exc})") from None


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        alphas = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ValidationError(f"bad alpha list {text!r}") from None
    return _check_alpha_labels(alphas)


def _add_process_args(parser: argparse.ArgumentParser, require: bool = False):
    parser.add_argument("--process", choices=KINDS, required=require,
                        help="generator kind")
    parser.add_argument("--length", type=int, default=None,
                        help="series length T (entropy defaults to 50000, "
                        "decay to 7000 when generating)")
    parser.add_argument("--seed", type=int, help="stream seed")
    for name, kind in NUMERIC_PARAMS.items():  # a spec takes them by name
        parser.add_argument(f"--{name}", type=kind, default=None)
    parser.add_argument("--no-dither", action="store_true",
                        help="disable the anti-cycling dither (piecewise-linear only)")


def _spec_from_args(args, default_length: int | None = None) -> ProcessSpec:
    if args.process is None:
        raise ValidationError("a --process kind is required here")
    length = args.length if args.length is not None else default_length
    if length is None:
        raise ValidationError("--length is required with --process")
    args.seed = 0 if args.seed is None else args.seed  # the sidecar records it
    params = {name: getattr(args, name) for name in NUMERIC_PARAMS}
    return ProcessSpec(kind=args.process, length=length, seed=args.seed,
                       dither=not args.no_dither, **params)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    series = generate(_spec_from_args(args))
    if args.output:
        write_series(args.output, series)
        _write_sidecar(args)
    else:
        sys.stdout.write(_series_text(series))
    return 0


def _load_sources(args, default_length: int | None = None,
                  default_count: int = 1) -> tuple[str, list]:
    """A label and the ensemble sources: the series of the ``--input``
    files, which exclude every option of a generated series, or the seeded
    realizations of a process spec, whose defaults are set on ``args`` for
    the sidecar (``--realizations`` ``default_count``, ``--seed`` 0)."""
    if args.input:
        names = ("process", "length", "seed", "realizations", *NUMERIC_PARAMS)
        given = [f"--{name}" for name in names
                 if getattr(args, name, None) is not None]
        if args.no_dither:
            given.append("--no-dither")
        if given:
            raise ValidationError(f"--input excludes {', '.join(given)}")
        return args.input[0], [read_series(path) for path in args.input]
    count = getattr(args, "realizations", 1)  # census takes no --realizations
    if count is None:
        count = args.realizations = default_count
    spec = _spec_from_args(args, default_length)
    return args.process, realization_specs(spec, count)


def _cmd_census(args) -> int:
    L = _check_order_option(args.order)
    if args.input and len(args.input) != 1:
        raise ValidationError("census takes exactly one --input file")
    _, (source,) = _load_sources(args)
    series = generate(source) if isinstance(source, ProcessSpec) else source
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


def _cmd_entropy(args) -> int:
    cls = ComplexityClass.parse(getattr(args, "class"))
    orders = _parse_orders(args.orders)
    alphas = _parse_alphas(args.alpha)
    label, sources = _load_sources(args, 50_000)
    measure = partial(entropy_cells, orders=orders, alphas=alphas, cls=cls,
                      stabilized=args.stabilized)
    members = run_ensemble(measure, sources, args.jobs)

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
                # axis 0 of (n, 3), not fig1's 1-d form: they differ in the last bits
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
    if args.free_intercept and args.model != "exponential":
        raise ValidationError("--free-intercept applies to the exponential model only")
    label, sources = _load_sources(args, 7_000, 35)
    members = run_ensemble(partial(missing_curves, orders=(L,)), sources, args.jobs)
    fit = fit_decay(mean_curve(members, L), L, model=args.model,
                    fix_intercept=not args.free_intercept)
    header = ["source", "L", "model", "R", "C", "beta", "T_min", "T_max",
              "residual", "n_points", "realizations"]
    rows = [[label, L, fit.model, f"{fit.R:.6e}", f"{fit.C:.6e}",
             f"{fit.beta:.4f}", fit.fit_range[0], fit.fit_range[1],
             f"{fit.residual:.5f}", fit.n_points, len(members)]]
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


def _check_xp_order(p: int, L: int) -> None:
    """Refuse period ``p``, or order ``L`` if its largest printed integer,
    P1's denominator p (nu+1)!**mu nu!**(p-mu-1), has more digits than
    Python prints.  That digit count never decreases in L at a fixed
    period, so the largest order of a list decides."""
    ProcessSpec("xp", length=1, period=p)  # the spec holds the period guard
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    nu, mu = divmod(L, p)  # nu >= 1 below, so p converts to a float
    if limit and nu and (math.log(p) + mu * math.lgamma(nu + 2) + (p - mu - 1)
                         * math.lgamma(nu + 1)) / math.log(10) > limit - 1e-9:
        raise ValidationError(f"order {L} holds integers of more than {limit} "
                              "digits, beyond what Python prints")


def _cmd_xp(args) -> int:
    p = args.period
    orders = _parse_orders(args.orders, hi=ordinal._MAX_FACTORIAL,
                           largest=partial(_check_xp_order, p))
    alphas = _parse_alphas(args.alpha)
    header = ["period", "L", "nu", "mu", "N1", "N2", "P1", "P2", "allowed",
              "c"] + [f"R_a{a:g}" for a in alphas]
    rows = []
    for L in orders:
        d = xp_distribution(p, L)
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

def _table_command(sub, name: str, help: str, func, series: bool = True):
    """A subcommand that prints or writes one table; a series command also
    takes the process options or, in their place, ``--input`` files."""
    parser = sub.add_parser(name, help=help)
    if series:
        _add_process_args(parser)
        parser.add_argument("--input", nargs="+", action="extend", default=None,
                            help="series files in place of --process")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default=None)
    parser.set_defaults(func=func)
    return parser


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

    p_cen = _table_command(sub, "census", "pattern distribution of a series",
                           _cmd_census)
    p_cen.add_argument("--order", type=int, required=True, help="pattern length L")
    p_cen.add_argument("--trace", action="store_true",
                       help="emit the visible/missing trace instead")

    p_ent = _table_command(sub, "entropy", "Renyi and Z-entropy reports", _cmd_entropy)
    p_ent.add_argument("--orders", default="3:7",
                       help="orders, e.g. '6', '3,5,7' or '3:7'")
    p_ent.add_argument("--alpha", default="0.5,1,1.5", help="comma list")
    p_ent.add_argument("--class", default="fac",
                       help="complexity class: exp:c | fac | sub:c | subn:n")
    p_ent.add_argument("--realizations", type=int)
    p_ent.add_argument("--jobs", type=int, default=1)
    p_ent.add_argument("--stabilized", action="store_true",
                       help="stop each census once the distribution stabilizes")

    p_dec = _table_command(sub, "decay", "fit the missing-pattern decay", _cmd_decay)
    p_dec.add_argument("--order", type=int, required=True)
    p_dec.add_argument("--model", choices=("exponential", "stretched"),
                       default="exponential")
    p_dec.add_argument("--free-intercept", action="store_true",
                       help="do not pin the intercept to ln(L!-1)")
    p_dec.add_argument("--realizations", type=int)
    p_dec.add_argument("--jobs", type=int, default=1)

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

    p_xp = _table_command(sub, "xp", "exact noisy-periodic analytics", _cmd_xp,
                          series=False)
    p_xp.add_argument("--period", type=int, required=True)
    p_xp.add_argument("--orders", required=True,
                      help="orders, e.g. '6', '2:14'")
    p_xp.add_argument("--alpha", default="0.5,1,1.5")

    return parser


# one parser per process for main: parse_args keeps no state between calls,
# and build_parser stays uncached so that a caller may change what it returns
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PermzError as exc:
        sys.stderr.write(f"permz {args.command}: error: {exc}\n")
        return exc.exit_code
    except MemoryError as exc:  # a resource failure: exit 4, as errors.py says
        sys.stderr.write(f"permz {args.command}: error: out of memory: {exc}\n")
        return NumericalError.exit_code


if __name__ == "__main__":
    sys.exit(main())
