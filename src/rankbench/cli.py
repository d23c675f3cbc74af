"""Command-line frontend.

Subcommands: validate, rank, coeff, fcr, converge, synth. Reports embed
every setting and input digest needed to rerun the analysis; two runs
with identical inputs and flags produce byte-identical JSON. Exit codes:
0 success, 1 runtime/I-O error, 2 validation error (input that is not
UTF-8 text included). Every usage error, including flag combinations,
prints the usage of the command that was run and exits 2 before any
input is read; the one exception is a ``--sizes`` entry larger than the
number of tests, which is known only after ingest and exits 2 right
after it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from . import __version__
from .comparison import Granularity, fcr
from .concordance import COEFFICIENTS, coefficients_for, randomness
from .plotting import render_convergence_svg
from .ranking import TiePolicy, count_ties, rank_table, ranks_to_csv
from .resampling import plot_data_csv, subsample_convergence, summary_csv
from .results import (
    ValidationError,
    ingest,
    parse_registry,
    registry_to_text,
    to_csv,
)
from .synthgen import SynthConfig, generate

log = logging.getLogger("rankbench")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _decode(path: str, data: bytes) -> str:
    # utf-8-sig: a byte-order mark must fail neither the exact CSV header
    # check nor json.loads.
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None


def _load_registry(path: str) -> dict:
    return parse_registry(_decode(path, Path(path).read_bytes()))


def _read_table_file(path: str) -> tuple[str, str]:
    # The bytes are dropped on return, before ingest parses the text into columns.
    data = Path(path).read_bytes()
    return _decode(path, data), hashlib.sha256(data).hexdigest()


@contextmanager
def _stage(name: str):
    """Log the wall time of the enclosed pipeline stage at INFO."""
    start = time.perf_counter()
    yield
    log.info("%s: %.3f s", name, time.perf_counter() - start)


def _load_table(path: str, registry: dict, drop_incomplete: bool = False):
    """Ingest a table file; returns the table and the sha256 of the bytes parsed."""
    fmt = "json" if Path(path).suffix.lower() == ".json" else "csv"
    with _stage(f"ingest {path}"):
        text, digest = _read_table_file(path)
        return ingest(text, fmt, registry, drop_incomplete), digest


def _ranked(table, args):
    """Rank, failures included, under the tie flags of ``args``."""
    with _stage("rank"):
        return rank_table(table, TiePolicy(args.tie_policy), args.tie_epsilon)


def _ranked_settings(args, table) -> dict:
    """Report settings shared by the commands that rank one table."""
    return {
        "tie_policy": args.tie_policy,
        "tie_epsilon": args.tie_epsilon,
        "drop_incomplete": args.drop_incomplete,
        "dropped_tests": [[t.dataset, t.metric] for t in table.dropped],
    }


def _write_output(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _base_report(registry: dict, inputs: dict[str, str]) -> dict:
    return {
        "tool": "rankbench",
        "version": __version__,
        "registry": {
            name: {
                "direction": spec.direction.value,
                "bounds": list(spec.bounds) if spec.bounds else None,
            }
            for name, spec in sorted(registry.items())
        },
        "inputs": inputs,
        "warnings": [],
    }


def _emit_report(report: dict, args) -> None:
    with _stage("write report"):
        if getattr(args, "format", "json") == "csv":
            _write_output(_report_csv(report), args.output)
        else:
            _write_output(json.dumps(report, indent=2, sort_keys=True) + "\n", args.output)


def _report_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["record", "coefficient", "dataset", "metric", "value"])
    for frag in report.get("coefficients", []):
        writer.writerow(["total", frag["coefficient"], "", "", repr(frag["value"])])
        for item in frag["per_test"]:
            writer.writerow(
                ["per_test", frag["coefficient"], item["dataset"], item["metric"], repr(item["w"])]
            )
    if "n_ties" in report:
        writer.writerow(["n_ties", "", "", "", report["n_ties"]])
    if "fcr" in report:
        for label, value in sorted(report["fcr"]["fcr"].items()):
            writer.writerow(["fcr", label, "", "", repr(value)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    _load_table(args.input, _load_registry(args.registry))
    print(f"{args.input}: valid complete grid")
    return EXIT_OK


def cmd_rank(args) -> int:
    table, _ = _load_table(args.input, _load_registry(args.registry), args.drop_incomplete)
    cube = _ranked(table, args)
    with _stage("write ranks"):
        _write_output(ranks_to_csv(cube), args.output)
    return EXIT_OK


def cmd_coeff(args) -> int:
    registry = _load_registry(args.registry)
    table, digest = _load_table(args.input, registry, args.drop_incomplete)
    cube = _ranked(table, args)
    n_ties = count_ties(cube)
    with _stage("coefficients"):
        results = [randomness(cube, name) for name in args.coefficients]

    report = _base_report(registry, {args.input: digest})
    report["settings"] = {**_ranked_settings(args, table), "coefficients": args.coefficients}
    report["n_ties"] = n_ties
    report["coefficients"] = [r.fragment(n_ties) for r in results]
    report["warnings"].extend(w for r in results for w in r.warnings)
    _emit_report(report, args)
    return EXIT_OK


def cmd_fcr(args) -> int:
    registry = _load_registry(args.registry)
    frameworks = {}
    inputs = {}
    for label, path in args.framework:
        frameworks[label], inputs[path] = _load_table(path, registry)
    with _stage("fcr"):
        result = fcr(frameworks, Granularity(args.granularity))
    report = _base_report(registry, inputs)
    report["settings"] = {"granularity": args.granularity}
    report["fcr"] = result.fragment()
    report["warnings"].extend(result.warnings)
    _emit_report(report, args)
    return EXIT_OK


def cmd_converge(args) -> int:
    registry = _load_registry(args.registry)
    table, digest = _load_table(args.input, registry, args.drop_incomplete)
    if args.sizes and max(args.sizes) > len(table.suite):
        args.parser.error(
            f"--sizes {max(args.sizes)} exceeds the number of tests ({len(table.suite)})"
        )
    cube = _ranked(table, args)
    with _stage("convergence"):
        conv = subsample_convergence(
            cube,
            coefficients=args.coefficients,
            sizes=args.sizes,
            repeats=args.repeats,
            rng_seed=args.rng_seed,
        )

    report = _base_report(registry, {args.input: digest})
    report["settings"] = {
        **_ranked_settings(args, table),
        "repeats": args.repeats,
        "rng_seed": args.rng_seed,
    }
    report["convergence"] = conv.fragment()
    report["warnings"].extend(conv.warnings)
    _emit_report(report, args)
    with _stage("write plot files"):
        if args.plot_out:
            Path(args.plot_out).write_text(plot_data_csv(conv), encoding="utf-8")
        if args.summary_out:
            Path(args.summary_out).write_text(summary_csv(conv), encoding="utf-8")
        if args.svg_out:
            Path(args.svg_out).write_text(render_convergence_svg(conv), encoding="utf-8")
    return EXIT_OK


def cmd_synth(args) -> int:
    table = generate(args.config)
    _write_output(to_csv(table), args.output)
    if args.registry_out:
        Path(args.registry_out).write_text(registry_to_text(table.registry), encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValidationError, so that main returns exit code 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def _parse_sizes(spec: str) -> list[int]:
    """'1:3,8' -> [1, 2, 3, 8]; each size >= 1, each range nonempty."""
    sizes = []
    for part in spec.split(","):
        lo, colon, hi = part.strip().partition(":")
        try:
            span = range(int(lo), int(hi) + 1) if colon else [int(lo)]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad size {part!r}") from None
        if not span:
            raise argparse.ArgumentTypeError(f"empty range {part!r}")
        if min(span) < 1:
            raise argparse.ArgumentTypeError(f"sizes must be >= 1, got {part!r}")
        sizes.extend(span)
    return sizes


def _coefficient_names(spec: str) -> list[str]:
    names = spec.split(",")
    for name in names:
        if name not in COEFFICIENTS:
            raise argparse.ArgumentTypeError(
                f"unknown coefficient {name!r}; choose from {','.join(COEFFICIENTS)}"
            )
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"repeated coefficient in {spec!r}")
    return names


def _at_least(minimum: int, convert=int):
    """Flag type: ``convert(text)``, finite and >= ``minimum``; -0.0 reads as 0.0."""

    def check(text: str):
        value = convert(text)
        if not minimum <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and >= {minimum}, got {text}")
        return value + 0

    check.__name__ = convert.__name__  # argparse names a malformed value's type by it
    return check


def _framework(spec: str) -> tuple[str, str]:
    label, eq, path = spec.partition("=")
    if not (label and eq and path):
        raise argparse.ArgumentTypeError(f"expects LABEL=PATH, got {spec!r}")
    return label, path


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--registry", required=True, help="metric registry file")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="output path ('-' = stdout)")

    report_format = argparse.ArgumentParser(add_help=False)
    report_format.add_argument("--format", choices=["json", "csv"], default="json")

    ranked = argparse.ArgumentParser(add_help=False)
    ranked.add_argument("--tie-policy", choices=[p.value for p in TiePolicy], default="mean")
    ranked.add_argument("--tie-epsilon", type=_at_least(0, float), default=0.0)
    ranked.add_argument(
        "--drop-incomplete",
        action="store_true",
        help="drop tests with missing cells instead of failing",
    )

    coefficients = argparse.ArgumentParser(add_help=False)
    coefficients.add_argument(
        "--coefficients",
        type=_coefficient_names,
        default=None,
        help=f"comma-separated subset of {','.join(COEFFICIENTS)} "
        "(default: every one the tie policy supports)",
    )

    parser = _Parser(
        prog="rankbench",
        description="Quantify seed-to-seed randomness in benchmark rankings.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a result table")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate, parser=p)

    p = sub.add_parser("rank", parents=[common, output, ranked], help="export the rank cube")
    p.add_argument("input")
    p.set_defaults(func=cmd_rank, parser=p)

    p = sub.add_parser(
        "coeff",
        parents=[common, output, report_format, ranked, coefficients],
        help="randomness coefficients",
    )
    p.add_argument("input")
    p.set_defaults(func=cmd_coeff, parser=p)

    p = sub.add_parser(
        "fcr", parents=[common, output, report_format], help="framework comparison rank"
    )
    p.add_argument(
        "--framework",
        action="append",
        required=True,
        type=_framework,
        metavar="LABEL=PATH",
        help="repeatable; at least two",
    )
    p.add_argument(
        "--granularity",
        choices=[g.value for g in Granularity],
        default=Granularity.PER_ALGORITHM_TEST.value,
    )
    p.set_defaults(func=cmd_fcr, parser=p)

    p = sub.add_parser(
        "converge", parents=[common, output, ranked, coefficients], help="subsampling study"
    )
    p.add_argument("input")
    p.add_argument("--sizes", type=_parse_sizes, default=None, help="e.g. '1:44' or '1,5,10'")
    p.add_argument("--repeats", type=_at_least(1), default=10)
    p.add_argument("--rng-seed", type=_at_least(0), default=0)
    p.add_argument("--plot-out", default=None, help="plot-data CSV path")
    p.add_argument("--summary-out", default=None, help="summary CSV path")
    p.add_argument("--svg-out", default=None, help="SVG chart path")
    p.set_defaults(func=cmd_converge, parser=p)

    p = sub.add_parser("synth", help="generate a synthetic result table")
    # One flag per SynthConfig field: n_algorithms -> --algorithms, and so on.
    for field in fields(SynthConfig):
        flag = "--" + field.name.removeprefix("n_").replace("_", "-")
        p.add_argument(flag, type=type(field.default), default=field.default)
    p.add_argument("--output", default=None)
    p.add_argument("--registry-out", default=None, help="write matching registry file")
    p.set_defaults(func=cmd_synth, parser=p)

    return parser


def _parse_args(argv: list[str] | None):
    """Parse argv and check the flags that depend on each other, on the command's parser."""
    args, unrecognized = _build_parser().parse_known_args(argv)
    if unrecognized:
        args.parser.error(f"unrecognized arguments: {' '.join(unrecognized)}")
    if hasattr(args, "coefficients"):
        supported = coefficients_for(TiePolicy(args.tie_policy))
        if args.coefficients is None:
            args.coefficients = list(supported)
        for name in args.coefficients:
            if name not in supported:
                args.parser.error(f"coefficient {name} requires --tie-policy mean")
    if hasattr(args, "framework"):
        if len(args.framework) < 2:
            args.parser.error("fcr needs at least two --framework")
        if len(dict(args.framework)) < len(args.framework):
            args.parser.error("framework labels must be unique")
    if args.command == "synth":
        try:
            args.config = SynthConfig(
                **{f.name: getattr(args, f.name.removeprefix("n_")) for f in fields(SynthConfig)}
            )
        except ValueError as exc:
            args.parser.error(str(exc))
    return args


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("RANKBENCH_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args = _parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
