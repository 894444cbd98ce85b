"""Command-line front end.

Subcommands: ``analyze`` (bandwidths, modes, decomposition, strength),
``test`` (silverman | dip | excess), ``modes``, ``decompose``, and
``benchmark`` (table2 | scalability suites).

Exit codes are a stable contract: 0 success, 1 usage error, 2 input or
data error, 3 solver or test failure. The default seed is 0, overridable
by the ``MODALITY_SEED`` environment variable; an explicit ``--seed``
wins over both. Reports render as text or JSON from the same values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import benchmark as bench
from .decompose import _components_of_curve, _detect_components, _strength_of
from .errors import (
    ModalityError,
    NotBimodalError,
    SolverError,
    TestInconclusiveError,
    ValidationError,
)
from .io import read_data
from .kde import _kde_at, _silverman_bandwidth
from .modes import _modes_of_curve
from .solver import _bootstrap, _solve
from .stattests import _dip_test, _excess_mass, _silverman_test

__all__ = ["main"]

ALPHA = 0.05

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_METHOD = 3


class _UsageExit(Exception):
    def __init__(self, message: str):
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 1 instead of 2."""

    def error(self, message):
        raise _UsageExit(message)


def _default_seed() -> int:
    raw = os.environ.get("MODALITY_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise _UsageExit(f"MODALITY_SEED must be an integer, got {raw!r}")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_text(report)


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt_value(v) for v in value) + "]"
    return str(value)


def _print_text(report: dict, indent: str = "") -> None:
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_text(value, indent + "  ")
        elif value is None:
            print(f"{indent}{key}: -")
        else:
            print(f"{indent}{key}: {_fmt_value(value)}")


def _load(args) -> tuple[np.ndarray, dict]:
    x = read_data(args.path, column=args.column)
    descriptor = {"path": str(args.path), "column": args.column, "n": int(x.size)}
    return x, descriptor


def _modes_payload(mode_set) -> dict:
    return {
        "count": int(mode_set.count),
        "locations": [float(v) for v in mode_set.locations],
        "heights": [float(v) for v in mode_set.heights],
    }


def _decomposition_payload(decomp) -> dict:
    return {
        "component1": vars(decomp.component1).copy(),
        "component2": vars(decomp.component2).copy(),
        "separation_point": decomp.separation_point,
        "dip_ratio": decomp.dip_ratio,
    }


def cmd_analyze(args) -> int:
    x, descriptor = _load(args)  # validated and sorted, of size >= 2
    h_silverman = _silverman_bandwidth(x)

    # the one curve at h0 gives the modes, the decomposition and the first
    # mode count of the solves below, which start at h0
    curve = _kde_at(x, h_silverman)
    mode_runs = _modes_of_curve(curve)
    mode_set = mode_runs[0]
    result = _solve(x, args.k, mode_set.count)
    if args.ci:
        result = _bootstrap(x, result, args.resamples, args.seed)
    if not result.success:
        print(f"error: critical bandwidth search failed (k={args.k}, "
              f"iterations={result.iterations})", file=sys.stderr)
        return EXIT_METHOD

    decomposition = None
    if mode_set.count >= 2:
        decomposition = _decomposition_payload(_components_of_curve(x, curve, mode_runs))
    try:
        solved = result if args.k == 2 else _solve(x, 2, mode_set.count)
        strength = _strength_of(solved, h_silverman)
        strength_payload = {"ratio": strength.ratio, "label": strength.label}
    except SolverError:
        strength_payload = None

    report = {
        "input": descriptor,
        "h_silverman": h_silverman,
        "h_crit": result.h_crit,
        "k": result.k,
        "success": result.success,
        "iterations": result.iterations,
        "ci": None if result.ci_method is None else {
            "low": result.ci_low,
            "high": result.ci_high,
            "std_error": result.std_error,
            "method": result.ci_method,
            "failures": result.ci_failures,
        },
        "modes": _modes_payload(mode_set),
        "decomposition": decomposition,
        "strength": strength_payload,
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_test(args) -> int:
    x, descriptor = _load(args)
    if args.method == "silverman":
        result = _silverman_test(x, args.mod0, args.resamples, args.seed)
        null_desc = f"at most {args.mod0} mode(s)"
    elif args.method == "dip":
        result = _dip_test(x, args.resamples, args.seed)
        null_desc = "unimodal"
    else:
        curve = _excess_mass(x)
        report = {
            "input": descriptor,
            "method": "excess_mass",
            "statistic": curve.delta,
            "p_value": None,
            "conclusion": "no calibrated test; delta reported as a diagnostic",
        }
        _emit(report, args.format)
        return EXIT_OK

    conclusion = (
        f"reject {null_desc} at alpha={ALPHA:g}"
        if result.p_value < ALPHA
        else f"fail to reject {null_desc} at alpha={ALPHA:g}"
    )
    report = {
        "input": descriptor,
        "method": result.method,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "resamples": result.resamples,
        "h_crit": result.h_crit,
        "conclusion": conclusion,
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_modes(args) -> int:
    x, descriptor = _load(args)
    h = args.bandwidth if args.bandwidth is not None else _silverman_bandwidth(x)
    mode_set = _modes_of_curve(_kde_at(x, h))[0]
    report = {"input": descriptor, "bandwidth": h, "modes": _modes_payload(mode_set)}
    _emit(report, args.format)
    return EXIT_OK


def cmd_decompose(args) -> int:
    x, descriptor = _load(args)
    decomp = _detect_components(x)
    report = {"input": descriptor, "decomposition": _decomposition_payload(decomp)}
    _emit(report, args.format)
    return EXIT_OK


def _parse_seed_range(raw: str) -> tuple[int, ...]:
    lo, dots, hi = raw.partition("..")
    try:
        seeds = tuple(range(int(lo), int(hi) + 1) if dots else map(int, raw.split(",")))
    except ValueError:
        seeds = ()
    if not seeds:
        raise _UsageExit(f'--seeds: expected "A..B" with A <= B or "a,b,c", got {raw!r}')
    return seeds


def cmd_benchmark(args) -> int:
    seeds = _parse_seed_range(args.seeds)
    if args.suite == "table2":
        rows = bench.run_table2(seeds)
        text = bench.rows_to_text(rows)
        csv_payload = bench.rows_to_csv(rows)
    else:
        rows = bench.run_scalability(seed=seeds[0])
        text = bench.scalability_to_text(rows)
        csv_payload = bench.scalability_to_csv(rows)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(csv_payload)
        print(f"\nwrote {args.out}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="modality", description="Multimodality detection for 1-D samples")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_args(p, with_seed=True):
        p.add_argument("path", help="input file (.csv, .tsv, .txt, .json, .md)")
        p.add_argument("--column", help="column to analyze (default: first numeric)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if with_seed:
            p.add_argument("--seed", type=int, default=None,
                           help="random seed (default: MODALITY_SEED or 0)")

    p = sub.add_parser("analyze", help="bandwidths, modes, decomposition, strength")
    add_io_args(p)
    p.add_argument("--k", type=int, default=2, help="modes probed by the bandwidth search")
    p.add_argument("--ci", action="store_true", help="bootstrap interval for h_crit")
    p.add_argument("--resamples", type=int, default=999)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("test", help="hypothesis tests")
    add_io_args(p)
    p.add_argument("--method", choices=("silverman", "dip", "excess"), default="silverman")
    p.add_argument("--mod0", type=int, default=1, help="null: at most this many modes")
    p.add_argument("--resamples", type=int, default=999)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("modes", help="mode locations at a bandwidth")
    add_io_args(p, with_seed=False)
    p.add_argument("--bandwidth", type=float, default=None,
                   help="explicit bandwidth (default: rule of thumb)")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("decompose", help="two-component trough split")
    add_io_args(p, with_seed=False)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("benchmark", help="benchmark suites")
    p.add_argument("--suite", choices=("table2", "scalability"), default="table2")
    p.add_argument("--seeds", default="0..9", help='seed range "A..B" or list "a,b,c"')
    p.add_argument("--out", help="write the CSV report here")
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        return args.func(args)
    except _UsageExit as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (SolverError, TestInconclusiveError, NotBimodalError) as e:
        print(f"method failure: {e}", file=sys.stderr)
        return EXIT_METHOD
    except ModalityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
