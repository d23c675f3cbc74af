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

Every output has its own destination: at most one goes to stdout, and
no output path names another output's file or a file the command reads
(compared after ``os.path.realpath``), a usage error otherwise. After
every usage error, an output that cannot be opened because its path
names a directory, or its directory is missing or no directory, fails
with the error ``open(path, "w")`` gives, exit 1, before any input is
read and before any output is written.

Every input file, registry included, is read once, by :class:`_TextFile`,
a block at a time straight from disk into text pieces. Ingest parses a
table's pieces as they come, so neither its bytes nor its whole text is
held, and the error is the first fault the pass meets, a byte that is
not UTF-8 or a fault in the text: nothing past the block, or the JSON
chunk, that holds it is read. Every report is written by
:func:`_emit_report`, and its body (settings, results, warnings) is
built here, by the ``cmd_*`` function of its command: the library's
result types carry numbers only. Every output goes through
:func:`_write_output` as a sequence of small text pieces; an output path
of ``-`` is stdout. No output is built whole: the JSON reports come from
``json.JSONEncoder.iterencode``, and converge's cells, not built as one
body, are written straight from the study's arrays in that encoder's
layout, one piece per cell; converge's plot
and summary CSVs come one piece per size, its SVG one piece per element,
and every other CSV (synth's table and registry, rank's export, the
``--format csv`` reports) one line per piece. CSV output quotes labels
by the one rule of :func:`results.csv_fields`.
"""

from __future__ import annotations

import argparse
import codecs
import hashlib
import itertools
import json
import logging
import math
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import fields
from typing import Iterable, Iterator

from . import __version__, results
from .comparison import Granularity, fcr
from .concordance import COEFFICIENTS, coefficients_for, randomness
from .plotting import render_convergence_svg
from .ranking import TiePolicy, count_ties, rank_table, ranks_to_csv
from .resampling import ConvergenceReport, plot_data_csv, subsample_convergence, summary_csv
from .results import (
    ValidationError,
    csv_fields,
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

# Text pieces joined per write. 256 one-size plot CSV pieces (10 repeats)
# make about 256 kB; batches of 1,024 raised a 1,200-test converge's peak
# RSS by 1 MB.
_WRITE_BATCH = 256


class _TextFile:
    """An input file's text, in pieces, read a block at a time straight from disk.

    A block is :data:`results._CHUNK` (50k) bytes, the one size that
    ingest's cutter also cuts CSV blocks and JSON chunks by. Each block
    updates the sha256 and goes through one incremental ``utf-8-sig``
    decoder (so that a byte-order mark fails neither the exact CSV header
    check nor ``json.loads``), and the text it completes is yielded, so
    neither the bytes nor the whole text is ever held. An iteration that reaches the
    end of the file sets :attr:`digest` to the sha256 of the bytes it
    read. Text that is not UTF-8 is a validation error naming the file,
    worded from the block that holds the fault: its byte position counts
    from the start of the file, after any byte-order mark, as decoding the
    whole file with ``utf-8-sig`` reports it.
    """

    def __init__(self, path: str):
        self.path, self.digest = path, None

    def __iter__(self) -> Iterator[str]:
        sha, decoder = hashlib.sha256(), codecs.getincrementaldecoder("utf-8-sig")()

        def decode(block: bytes) -> str:
            sha.update(block)
            return decoder.decode(block)

        with open(self.path, "rb") as f:
            bom = len(codecs.BOM_UTF8) if f.peek(3).startswith(codecs.BOM_UTF8) else 0
            try:
                # map holds neither a block nor its text while the text is parsed.
                yield from map(decode, iter(lambda: f.read(results._CHUNK or 1), b""))
                # The decoder holds back a file that is only the start of a
                # byte-order mark; decoding what it holds raises, as decoding whole does.
                yield decoder.decode(b"", final=True) + decoder.getstate()[0].decode()
            except UnicodeDecodeError as exc:
                # exc.object is the end of the bytes read so far: what the decoder
                # held back and the block, less a byte-order mark the call dropped.
                # Its __str__ reads the byte at exc.start, so the message is worded here.
                at = f.tell() - len(exc.object) + exc.start - bom
                raise ValidationError(
                    f"{self.path}: not UTF-8 text ('{exc.encoding}' codec can't decode "
                    + (
                        f"byte 0x{exc.object[exc.start]:02x} in position {at}"
                        if exc.end - exc.start == 1
                        else f"bytes in position {at}-{at + exc.end - exc.start - 1}"
                    )
                    + f": {exc.reason})"
                ) from None
        self.digest = sha.hexdigest()


def _load_registry(path: str) -> dict:
    return parse_registry("".join(_TextFile(path)))


@contextmanager
def _stage(name: str):
    """Log the wall time of the enclosed pipeline stage at INFO."""
    start = time.perf_counter()
    yield
    log.info("%s: %.3f s", name, time.perf_counter() - start)


def _load_table(path: str, registry: dict, drop_incomplete: bool = False):
    """Ingest a table file; returns the table and the sha256 of the bytes parsed.

    Its text, not its name, says whether it is CSV or JSON (see :func:`ingest`).
    """
    with _stage(f"ingest {path}"):
        text = _TextFile(path)
        return ingest(text, registry, drop_incomplete), text.digest


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


def _write_output(pieces: Iterable[str], output: str | None) -> None:
    """Write the text ``pieces`` to the file ``output``, or to stdout for None or ``-``.

    Pieces are joined :data:`_WRITE_BATCH` at a time, one ``write`` per
    batch: no output is held whole as one string, and an unbuffered
    stdout (``PYTHONUNBUFFERED``) still sees few writes. Every caller
    passes small pieces: a JSON token, one converge cell's JSON text, one
    size's CSV lines, one SVG element or one CSV line.
    """
    to_stdout = output is None or output == "-"
    with nullcontext(sys.stdout) if to_stdout else open(output, "w", encoding="utf-8") as out:
        pieces = iter(pieces)
        for batch in iter(lambda: list(itertools.islice(pieces, _WRITE_BATCH)), []):
            out.write("".join(batch))


def _emit_report(
    args, registry: dict, inputs: dict[str, str], study: ConvergenceReport | None = None, **body
) -> None:
    """Write the report of one command as JSON, or as CSV under ``--format csv``.

    Every report names the tool and its version, the registry and the
    sha256 of each input file; ``body``, built by the command, adds its
    settings, warnings and results. converge passes its ``study`` and a
    null in place of its cells, which :func:`_cells_json` then writes
    from the study's arrays as the report is written.
    """
    report = {
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
        **body,
    }
    with _stage("write report"):
        if getattr(args, "format", "json") == "csv":
            _write_output(_report_csv(report), args.output)
        else:
            encoder = json.JSONEncoder(indent=2, sort_keys=True)
            pieces = encoder.iterencode(report)
            if study is not None:
                # The cells' null is the report's first value ("convergence" and
                # "cells" sort first): the pieces before it, the cells, the rest.
                pieces = itertools.chain(
                    itertools.takewhile("null".__ne__, pieces),
                    _cells_json(study, encoder),
                    pieces,
                )
            _write_output(itertools.chain(pieces, ["\n"]), args.output)


def _cells_json(study: ConvergenceReport, encoder: json.JSONEncoder) -> Iterator[str]:
    """converge's ``cells`` array as the JSON text of its place in the report, a piece per cell.

    Each cell's text is written straight from the study's arrays, a size's
    rows at a time, in the layout of ``encoder`` (``indent=2``,
    ``sort_keys=True``) three levels deep: the coefficient names are
    encoded once by ``encoder``, and every number with its ``repr``, which
    is what json writes for an int and for a finite float. Every value of
    a study is finite: one minus the mean of finite per-test terms.
    """
    names = [encoder.encode(c) for c in study.coefficients]
    sep = "["  # a study has at least one size and one coefficient
    for k, by_coefficient, means, stds in zip(study.sizes, study.values, study.mean, study.std):
        for name, values, m, sd in zip(names, by_coefficient.tolist(), means.tolist(), stds.tolist()):
            yield (
                f'{sep}\n      {{\n        "coefficient": {name},\n        "mean": {m!r},\n'
                f'        "size": {k},\n        "std": {sd!r},\n        "values": [\n          '
                + ",\n          ".join(map(repr, values))
                + "\n        ]\n      }"
            )
            sep = ","
    yield "\n    ]"


def _report_csv(report: dict) -> Iterator[str]:
    """A report's coefficient, tie-count and FCR records: a header, then one CSV line each."""
    rows = [("record", "coefficient", "dataset", "metric", "value")]
    for frag in report.get("coefficients", []):
        name = frag["coefficient"]
        rows.append(("total", name, "", "", repr(frag["value"])))
        rows.extend(
            ("per_test", name, item["dataset"], item["metric"], repr(item["w"]))
            for item in frag["per_test"]
        )
    if "n_ties" in report:
        rows.append(("n_ties", "", "", "", str(report["n_ties"])))
    if "fcr" in report:
        rows.extend(
            ("fcr", label, "", "", repr(value))
            for label, value in sorted(report["fcr"]["fcr"].items())
        )
    field = csv_fields(itertools.chain.from_iterable(rows))
    yield from (",".join([field[text] for text in row]) + "\n" for row in rows)


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
    _emit_report(
        args,
        registry,
        {args.input: digest},
        settings={**_ranked_settings(args, table), "coefficients": args.coefficients},
        n_ties=n_ties,
        coefficients=[
            {
                "coefficient": r.coefficient,
                "value": r.value,
                "n_ties": n_ties,
                "per_test": [
                    {"dataset": t.dataset, "metric": t.metric, "w": w}
                    for t, w in zip(cube.suite, r.per_test)
                ],
            }
            for r in results
        ],
        warnings=[w for r in results for w in r.warnings],
    )
    return EXIT_OK


def cmd_fcr(args) -> int:
    registry = _load_registry(args.registry)
    frameworks = {}
    inputs = {}
    for label, path in args.framework:
        frameworks[label], inputs[path] = _load_table(path, registry)
    with _stage("fcr"):
        result = fcr(frameworks, Granularity(args.granularity))
    _emit_report(
        args,
        registry,
        inputs,
        settings={"granularity": args.granularity},
        fcr={
            "fcr": result.ranks,
            "units": result.units,
            "granularity": args.granularity,
            "seeds": result.seeds,
        },
        warnings=result.warnings,
    )
    return EXIT_OK


def cmd_converge(args) -> int:
    registry = _load_registry(args.registry)
    table, digest = _load_table(args.input, registry, args.drop_incomplete)
    if args.sizes and (top := max(span[-1] for span in args.sizes)) > len(table.suite):
        args.parser.error(f"--sizes {top} exceeds the number of tests ({len(table.suite)})")
    cube = _ranked(table, args)
    with _stage("convergence"):
        conv = subsample_convergence(
            cube,
            coefficients=args.coefficients,
            sizes=[k for span in args.sizes for k in span] if args.sizes else None,
            repeats=args.repeats,
            rng_seed=args.rng_seed,
        )
    _emit_report(
        args,
        registry,
        {args.input: digest},
        settings={
            **_ranked_settings(args, table),
            "repeats": args.repeats,
            "rng_seed": args.rng_seed,
        },
        convergence={
            "sizes": list(conv.sizes),
            "repeats": conv.repeats,
            "coefficients": list(conv.coefficients),
            "rng_seed": conv.rng_seed,
            "rng_algorithm": conv.rng_algorithm,
            "provenance": conv.provenance,
            "full_suite_value": conv.full_suite_value,
            "cells": None,  # written from conv by _emit_report
        },
        warnings=conv.warnings,
        study=conv,
    )
    with _stage("write plot files"):
        for path, write in [
            (args.plot_out, plot_data_csv),
            (args.summary_out, summary_csv),
            (args.svg_out, render_convergence_svg),
        ]:
            if path:
                _write_output(write(conv), path)
    return EXIT_OK


def cmd_synth(args) -> int:
    table = generate(args.config)
    _write_output(to_csv(table), args.output)
    if args.registry_out:
        _write_output(registry_to_text(table.registry), args.registry_out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValidationError, so that main returns exit code 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def _parse_sizes(spec: str) -> list[range]:
    """'1:3,8' -> [range(1, 4), range(8, 9)]; each size >= 1, each range nonempty.

    The ranges stay unexpanded until :func:`cmd_converge` has checked them
    against the suite, so a huge range costs nothing before its usage error.
    """
    spans = []
    for part in spec.split(","):
        lo, colon, hi = part.strip().partition(":")
        try:
            span = range(int(lo), int(hi if colon else lo) + 1)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad size {part!r}") from None
        if not span:
            raise argparse.ArgumentTypeError(f"empty range {part!r}")
        if span[0] < 1:
            raise argparse.ArgumentTypeError(f"sizes must be >= 1, got {part!r}")
        spans.append(span)
    return spans


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
    p.add_argument("--plot-out", default=None, help="plot-data CSV path ('-' = stdout)")
    p.add_argument("--summary-out", default=None, help="summary CSV path ('-' = stdout)")
    p.add_argument("--svg-out", default=None, help="SVG chart path ('-' = stdout)")
    p.set_defaults(func=cmd_converge, parser=p)

    p = sub.add_parser("synth", help="generate a synthetic result table")
    # One flag per SynthConfig field: n_algorithms -> --algorithms, and so on.
    for field in fields(SynthConfig):
        flag = "--" + field.name.removeprefix("n_").replace("_", "-")
        p.add_argument(flag, type=type(field.default), default=field.default)
    p.add_argument("--output", default=None)
    p.add_argument("--registry-out", default=None, help="write matching registry file ('-' = stdout)")
    p.set_defaults(func=cmd_synth, parser=p)

    return parser


def _parse_args(argv: list[str] | None):
    """Parse argv and check the flags that depend on each other, on the command's parser."""
    args, unrecognized = _build_parser().parse_known_args(argv)
    if unrecognized:
        # An unknown flag's value fills the positional input, which leaves the next
        # positional over right after the flag: name every leftover but that one.
        shown = [
            arg
            for prev, arg in zip(["="] + unrecognized, unrecognized)
            if arg.startswith("-") or not prev.startswith("-") or "=" in prev
        ]
        args.parser.error(f"unrecognized arguments: {' '.join(shown)}")
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
    if hasattr(args, "output"):
        # Every output gets its own destination: outputs on one stdout would run
        # together, and an output on a file the command reads, or on another
        # output's file, would replace it. The report (synth's table) goes to
        # stdout unless --output is given; an empty path names no file.
        paths = {"--output (omitted)": "-"} if args.output is None else {"--output": args.output}
        for flag in ("--plot-out", "--summary-out", "--svg-out", "--registry-out"):
            paths[flag] = getattr(args, flag[2:].replace("-", "_"), None)
        to_stdout = [flag for flag, path in paths.items() if path == "-"]
        if len(to_stdout) > 1:
            args.parser.error(f"only one output may go to stdout, got {', '.join(to_stdout)}")
        reads = [("the input", vars(args).get("input")), ("--registry", vars(args).get("registry"))]
        reads += [(f"--framework {label}", path) for label, path in vars(args).get("framework", [])]
        taken = {os.path.realpath(path): name for name, path in reads if path}
        for flag, path in paths.items():
            if path == "":
                args.parser.error(f"{flag}: empty path")
            if path and path != "-":
                if (real := os.path.realpath(path)) in taken:
                    args.parser.error(f"{flag} {path} would overwrite {taken[real]}")
                taken[real] = flag
        # After every usage error, and before any input is read: on a directory,
        # or where the path's directory is missing or no directory, open(path,
        # "w") fails and writes nothing, so it is called now to raise its error.
        for path in paths.values():
            if path and path != "-" and (
                os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.realpath(path)))
            ):
                open(path, "w").close()
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        level = os.environ.get("RANKBENCH_LOG", "WARNING")
        # getLevelName gives the number of a level name logging knows, else a str.
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise ValidationError(f"RANKBENCH_LOG: unknown level {level!r}")
        logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
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
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
