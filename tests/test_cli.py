import codecs
import csv
import hashlib
import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankbench import cli, comparison, ranking, results
from rankbench.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from rankbench.concordance import COEFFICIENTS, coefficients_for, randomness
from rankbench.ranking import TiePolicy, count_ties, rank_table
from rankbench.resampling import subsample_convergence
from rankbench.results import (
    STATUSES, ResultTable, Status, ValidationError, ingest, parse_registry, registry_to_text,
    to_csv,
)
from rankbench.synthgen import SynthConfig, generate

from test_concordance import ranked
from test_ranking import score_cubes

SRC = Path(cli.__file__).resolve().parents[1]

REGISTRY_TEXT = (
    "metric.f1.direction = higher\n"
    "metric.f1.bounds = 0,1\n"
    "metric.conductance.direction = lower\n"
    "metric.conductance.bounds = 0,1\n"
)

GOOD_CSV = """\
algorithm,dataset,metric,seed,value,status
a,cora,f1,0,0.5,ok
a,cora,f1,1,0.6,ok
b,cora,f1,0,0.4,ok
b,cora,f1,1,0.3,ok
"""


@pytest.fixture
def registry(tmp_path):
    path = tmp_path / "registry.txt"
    path.write_text(REGISTRY_TEXT)
    return str(path)


@pytest.fixture
def table(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(GOOD_CSV)
    return str(path)


class TestValidate:
    def test_valid_grid(self, registry, table):
        assert main(["validate", "--registry", registry, table]) == EXIT_OK

    def test_missing_cell_named(self, registry, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(GOOD_CSV.splitlines()[:-1]) + "\n")
        assert main(["validate", "--registry", registry, str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "algorithm=b" in err and "seed=1" in err

    def test_unknown_metric_named(self, registry, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(GOOD_CSV.replace("f1", "nmi"))
        assert main(["validate", "--registry", registry, str(path)]) == EXIT_VALIDATION
        assert "nmi" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, row",
        [
            (b"algorithm,dataset,metric,seed,value,status\na\rx,cora,f1,0,0.5,ok\n"
             b"b,cora,f1,0,0.4,ok\n", 2),
            (GOOD_CSV.replace("\n", "\r").encode(), 1),
        ],
        ids=["bare CR in a label", "CR line ends"],
    )
    def test_malformed_csv_text_exits_2_naming_the_row(self, text, row, registry, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        assert main(["validate", "--registry", registry, str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: row {row}: new-line character seen in unquoted")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_file_is_runtime_error(self, registry, tmp_path):
        assert (
            main(["validate", "--registry", registry, str(tmp_path / "nope.csv")])
            == EXIT_RUNTIME
        )


class TestCoeff:
    def test_deterministic_table_all_zero(self, registry, table, tmp_path):
        out = tmp_path / "report.json"
        assert main(
            ["coeff", "--registry", registry, "--output", str(out), table]
        ) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["n_ties"] == 0
        values = {c["coefficient"]: c["value"] for c in report["coefficients"]}
        assert values == {"w": 0.0, "w_tied": 0.0, "w_wasserstein": 0.0}

    def test_reports_are_byte_identical(self, registry, table, tmp_path):
        # A tie epsilon of -0 is the default 0, so it writes the same report.
        out = tmp_path / "report.json"
        reports = set()
        for flags in ([], [], ["--tie-epsilon", "0"], ["--tie-epsilon", "-0"]):
            argv = ["coeff", "--registry", registry, *flags, "--output", str(out), table]
            assert main(argv) == EXIT_OK
            reports.add(out.read_bytes())
        assert len(reports) == 1

    def test_csv_format(self, registry, table, tmp_path):
        out = tmp_path / "report.csv"
        main(
            [
                "coeff",
                "--registry",
                registry,
                "--format",
                "csv",
                "--coefficients",
                "w",
                "--output",
                str(out),
                table,
            ]
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "record,coefficient,dataset,metric,value"
        assert any(line.startswith("total,w,") for line in lines)

    def test_w_tied_needs_mean_policy(self, registry, table):
        assert (
            main(
                [
                    "coeff",
                    "--registry",
                    registry,
                    "--tie-policy",
                    "lowest",
                    "--coefficients",
                    "w_tied",
                    table,
                ]
            )
            == EXIT_VALIDATION
        )


def test_synth_coeff_pipeline(tmp_path):
    table = tmp_path / "synth.csv"
    registry = tmp_path / "synth_registry.txt"
    assert (
        main(
            [
                "synth",
                "--algorithms", "4",
                "--datasets", "3",
                "--metrics", "2",
                "--seeds", "4",
                "--noise-scale", "0.4",
                "--rng-seed", "7",
                "--output", str(table),
                "--registry-out", str(registry),
            ]
        )
        == EXIT_OK
    )
    out = tmp_path / "report.json"
    assert (
        main(["coeff", "--registry", str(registry), "--output", str(out), str(table)])
        == EXIT_OK
    )
    report = json.loads(out.read_text())
    assert len(report["coefficients"][0]["per_test"]) == 6


def test_rank_export(registry, table, tmp_path):
    out = tmp_path / "ranks.csv"
    assert main(["rank", "--registry", registry, "--output", str(out), table]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "dataset,metric,seed,algorithm,rank"
    assert len(lines) == 1 + 4


def test_fcr_command(registry, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(GOOD_CSV)
    b.write_text(GOOD_CSV.replace("0.5", "0.7").replace("0.6", "0.8"))
    out = tmp_path / "fcr.json"
    assert (
        main(
            [
                "fcr",
                "--registry", registry,
                "--framework", f"p={a}",
                "--framework", f"q={b}",
                "--output", str(out),
            ]
        )
        == EXIT_OK
    )
    report = json.loads(out.read_text())
    # q dominates algorithm a's unit, ties algorithm b's.
    assert report["fcr"]["fcr"] == {"p": 1.75, "q": 1.25}
    assert report["fcr"]["units"] == 2


@pytest.mark.parametrize(
    "granularity, rows",
    [
        ("per-algorithm-test", ["fcr,p,,,1.75", "fcr,q,,,1.25"]),
        ("per-test", ["fcr,p,,,2.0", "fcr,q,,,1.0"]),
    ],
)
def test_fcr_csv_report_rows_are_sorted_by_label(granularity, rows, registry, tmp_path):
    # Rows computed before fcr took a label -> table mapping; q is given
    # first on the command line and still comes second.
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(GOOD_CSV)
    b.write_text(GOOD_CSV.replace("0.5", "0.7").replace("0.6", "0.8"))
    out = tmp_path / "fcr.csv"
    assert main(
        ["fcr", "--registry", registry, "--framework", f"q={b}", "--framework", f"p={a}",
         "--granularity", granularity, "--format", "csv", "--output", str(out)]
    ) == EXIT_OK
    assert out.read_text().splitlines() == ["record,coefficient,dataset,metric,value", *rows]


HOSTILE_LABELS = ["a,b", 'say "hi"', "a\rb", "a\nb", "\n"]


def _write_quoted_csv(path: Path, text: str, old: str, new: str) -> None:
    """Write the CSV ``text`` with every field ``old`` made ``new``, each field quoted."""
    rows = [[new if f == old else f for f in line.split(",")] for line in text.splitlines()]
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)


def _report_records(report: dict) -> list[list[str]]:
    """The fields of the CSV form of a JSON report, in the order the CSV writes them."""
    rows = [["record", "coefficient", "dataset", "metric", "value"]]
    for frag in report.get("coefficients", []):
        rows.append(["total", frag["coefficient"], "", "", repr(frag["value"])])
        rows.extend(
            ["per_test", frag["coefficient"], item["dataset"], item["metric"], repr(item["w"])]
            for item in frag["per_test"]
        )
    if "n_ties" in report:
        rows.append(["n_ties", "", "", "", str(report["n_ties"])])
    rows.extend(
        ["fcr", label, "", "", repr(value)]
        for label, value in sorted(report.get("fcr", {"fcr": {}})["fcr"].items())
    )
    return rows


def _csv_and_json_reports(argv: list[str], tmp_path: Path) -> tuple[list[list[str]], dict]:
    """Run ``argv`` once per report format: the CSV report as read by csv.reader, and the JSON."""
    csv_out, json_out = tmp_path / "report.csv", tmp_path / "report.json"
    assert main([*argv, "--format", "csv", "--output", str(csv_out)]) == EXIT_OK
    assert main([*argv, "--format", "json", "--output", str(json_out)]) == EXIT_OK
    with open(csv_out, newline="", encoding="utf-8") as f:
        return list(csv.reader(f)), json.loads(json_out.read_text())


@pytest.mark.parametrize("label", HOSTILE_LABELS)
def test_coeff_csv_report_reads_back_hostile_labels(label, registry, tmp_path):
    path = tmp_path / "t.csv"
    # Ingest strips surrounding whitespace from a label, so the hostile
    # text sits inside it.
    _write_quoted_csv(path, GOOD_CSV, "cora", f"x{label}x")
    argv = ["coeff", "--registry", registry, str(path)]
    records, report = _csv_and_json_reports(argv, tmp_path)
    assert records == _report_records(report)
    assert {row[2] for row in records if row[0] == "per_test"} == {f"x{label}x"}


@pytest.mark.parametrize("granularity", ["per-algorithm-test", "per-test"])
def test_fcr_csv_report_reads_back_hostile_framework_labels(granularity, registry, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(GOOD_CSV)
    b.write_text(GOOD_CSV.replace("0.5", "0.7").replace("0.6", "0.8"))
    frameworks = [f"--framework={label}={path}" for label, path in zip(HOSTILE_LABELS, [a, b] * 3)]
    argv = ["fcr", "--registry", registry, *frameworks, "--granularity", granularity]
    records, report = _csv_and_json_reports(argv, tmp_path)
    assert records == _report_records(report)
    assert [row[1] for row in records if row[0] == "fcr"] == sorted(HOSTILE_LABELS)


def test_coeff_tie_epsilon_matches_library(tmp_path):
    grid, registry = tmp_path / "synth.csv", tmp_path / "reg.txt"
    assert main(
        ["synth", "--noise-scale", "0.5", "--output", str(grid), "--registry-out", str(registry)]
    ) == EXIT_OK
    out = tmp_path / "report.json"
    assert main(
        ["coeff", "--registry", str(registry), "--tie-epsilon", "0.5", "--output", str(out),
         str(grid)]
    ) == EXIT_OK
    report = json.loads(out.read_text())
    table = ingest(grid.read_text(), parse_registry(registry.read_text()))
    cube = rank_table(table, tie_epsilon=0.5)
    assert report["settings"]["tie_epsilon"] == 0.5
    assert report["n_ties"] == count_ties(cube) > count_ties(rank_table(table))
    assert report["coefficients"] == [
        {
            "coefficient": r.coefficient,
            "value": r.value,
            "n_ties": report["n_ties"],
            "per_test": [
                {"dataset": t.dataset, "metric": t.metric, "w": w}
                for t, w in zip(cube.suite, r.per_test)
            ],
        }
        for r in (randomness(cube, name) for name in COEFFICIENTS)
    ]


def test_converge_command(tmp_path):
    table = tmp_path / "synth.csv"
    registry = tmp_path / "reg.txt"
    main(
        [
            "synth",
            "--datasets", "3",
            "--noise-scale", "0.5",
            "--rng-seed", "1",
            "--output", str(table),
            "--registry-out", str(registry),
        ]
    )
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    plot, summary, svg = (
        tmp_path / "plot.csv",
        tmp_path / "summary.csv",
        tmp_path / "chart.svg",
    )
    args = [
        "converge",
        "--registry", str(registry),
        "--repeats", "4",
        "--rng-seed", "5",
        "--plot-out", str(plot),
        "--summary-out", str(summary),
        "--svg-out", str(svg),
        str(table),
    ]
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    n_tests = 6
    full = report["convergence"]["full_suite_value"]
    top = [
        c
        for c in report["convergence"]["cells"]
        if c["size"] == n_tests
    ]
    for cell in top:
        assert all(v == full[cell["coefficient"]] for v in cell["values"])
    assert plot.read_text().startswith("size,repeat,coefficient,value")
    assert summary.read_text().startswith("size,coefficient,mean,std")
    assert svg.read_text().startswith("<svg")


def test_converge_sizes_spec(tmp_path):
    table = tmp_path / "synth.csv"
    registry = tmp_path / "reg.txt"
    main(
        [
            "synth",
            "--datasets", "4",
            "--output", str(table),
            "--registry-out", str(registry),
        ]
    )
    out = tmp_path / "c.json"
    assert (
        main(
            [
                "converge",
                "--registry", str(registry),
                "--sizes", "1:3,8",
                "--repeats", "2",
                "--output", str(out),
                str(table),
            ]
        )
        == EXIT_OK
    )
    report = json.loads(out.read_text())
    assert report["convergence"]["sizes"] == [1, 2, 3, 8]


def test_converge_single_size_svg_is_centred(tmp_path):
    # One size leaves the x axis no span: every point sits at its midpoint.
    table, registry, svg = tmp_path / "synth.csv", tmp_path / "reg.txt", tmp_path / "chart.svg"
    assert main(["synth", "--datasets", "3", "--noise-scale", "0.5", "--output", str(table),
                 "--registry-out", str(registry)]) == EXIT_OK
    assert main(["converge", "--registry", str(registry), "--sizes", "3", "--svg-out", str(svg),
                 "--output", str(tmp_path / "c.json"), str(table)]) == EXIT_OK
    lines = re.findall(r'<polyline points="([^"]*)"', svg.read_text())
    assert len(lines) == len(COEFFICIENTS)
    # The x axis runs from 50 to 590 px.
    assert all(point.startswith("320.00,") for line in lines for point in line.split())


CONVERGE_OUTPUTS = ["--plot-out", "{d}/plot.csv", "--summary-out", "{d}/summary.csv", "--svg-out", "{d}/x.svg"]

# argv after the registry and --output flags; True where the error can
# only be seen once the table is ingested.
USAGE_ERRORS = {
    "repeats-zero": (["converge", "--repeats", "0", *CONVERGE_OUTPUTS, "{table}"], False),
    "repeats-not-a-number": (["converge", "--repeats", "a", *CONVERGE_OUTPUTS, "{table}"], False),
    "sizes-empty-range": (["converge", "--sizes", "5:1", *CONVERGE_OUTPUTS, "{table}"], False),
    "sizes-not-a-number": (["converge", "--sizes", "a", *CONVERGE_OUTPUTS, "{table}"], False),
    "sizes-zero": (["converge", "--sizes", "0,1", *CONVERGE_OUTPUTS, "{table}"], False),
    "sizes-above-tests": (["converge", "--sizes", "1,2", *CONVERGE_OUTPUTS, "{table}"], True),
    "unknown-coefficient": (["converge", "--coefficients", "foo", *CONVERGE_OUTPUTS, "{table}"], False),
    "empty-coefficient": (["converge", "--coefficients", "", *CONVERGE_OUTPUTS, "{table}"], False),
    "repeated-coefficient": (["coeff", "--coefficients", "w,w", "{table}"], False),
    "negative-epsilon": (["coeff", "--tie-epsilon", "-1", "{table}"], False),
    "epsilon-not-a-number": (["coeff", "--tie-epsilon", "x", "{table}"], False),
    "infinite-epsilon": (["coeff", "--tie-epsilon", "inf", "{table}"], False),
    "w-tied-lowest-coeff": (
        ["coeff", "--tie-policy", "lowest", "--coefficients", "w_tied", "{table}"], False
    ),
    "w-tied-lowest-converge": (
        ["converge", "--tie-policy", "lowest", "--coefficients", "w,w_tied", "{table}"], False
    ),
    "one-framework": (["fcr", "--framework", "p={table}"], False),
    "framework-without-label": (["fcr", "--framework", "p={table}", "--framework", "{table}"], False),
    "framework-empty-label": (["fcr", "--framework", "={table}", "--framework", "q={table}"], False),
    "framework-empty-path": (["fcr", "--framework", "p=", "--framework", "q={table}"], False),
    "repeated-framework-label": (
        ["fcr", "--framework", "p={table}", "--framework", "p={table}"], False
    ),
    "negative-rng-seed": (["converge", "--rng-seed", "-1", *CONVERGE_OUTPUTS, "{table}"], False),
    "converge-format": (["converge", "--format", "csv", *CONVERGE_OUTPUTS, "{table}"], False),
    "rank-format": (["rank", "--format", "json", "{table}"], False),
    "validate-output": (["validate", "--format", "csv", "--output", "{d}/x.out", "{table}"], False),
}


@pytest.mark.parametrize(
    "argv, after_ingest", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys()
)
def test_usage_error_exits_2_before_computation(
    argv, after_ingest, registry, table, tmp_path, monkeypatch, capsys
):
    stages = []

    def record(name, fn):
        def wrapped(*args, **kwargs):
            stages.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for name in ("ingest", "rank_table", "fcr"):
        monkeypatch.setattr(cli, name, record(name, getattr(cli, name)))
    full = [argv[0], "--registry", registry, "--output", "{d}/report.json", *argv[1:]]
    full = [a.format(d=tmp_path, table=table) for a in full]
    assert main(full) == EXIT_VALIDATION
    assert stages == (["ingest"] if after_ingest else [])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["registry.txt", "results.csv"]
    _assert_usage_error(capsys.readouterr().err, argv[0])


def test_a_huge_sizes_range_is_a_usage_error_right_after_ingest(registry, table, tmp_path):
    # Expanded before the check, this range used to run for hours, so it
    # runs in a fresh interpreter under a timeout.
    argv = ["converge", "--registry", registry, "--output", "r.json", "--sizes", "1:1000000000000"]
    proc = _run_cli([*argv, table], tmp_path, timeout=30)
    assert proc.returncode == EXIT_VALIDATION
    assert "--sizes 1000000000000 exceeds the number of tests" in proc.stderr


# Outputs that would share stdout and run together; --output omitted means
# stdout. After them, outputs that would replace one another's file or a
# file the command reads, each with its message.
STDOUT = "only one output may go to stdout"
STDOUT_CLASHES = {
    "plot-out alone": (["converge", "--registry", "{registry}", "--plot-out", "-", "{table}"], STDOUT),
    "output and summary-out": (
        ["converge", "--registry", "{registry}", "--output", "-", "--summary-out", "-", "{table}"],
        STDOUT,
    ),
    "svg-out and plot-out": (
        ["converge", "--registry", "{registry}", "--output", "{d}/report.json",
         "--svg-out", "-", "--plot-out", "-", "{table}"],
        STDOUT,
    ),
    "synth registry-out alone": (["synth", "--registry-out", "-"], STDOUT),
    "output and plot-out": (
        ["converge", "--registry", "{registry}", "--output", "{d}/r.json",
         "--plot-out", "{d}/./r.json", "{table}"],
        "--plot-out {d}/./r.json would overwrite --output",
    ),
    "output on the input": (
        ["rank", "--registry", "{registry}", "--output", "{table}", "{table}"],
        "--output {table} would overwrite the input",
    ),
    "output on the registry": (
        ["coeff", "--registry", "{registry}", "--output", "{registry}", "{table}"],
        "--output {registry} would overwrite --registry",
    ),
    "output on a framework": (
        ["fcr", "--registry", "{registry}", "--framework", "p={table}", "--framework", "q={table}",
         "--output", "{d}/../{d.name}/results.csv"],
        "--output {d}/../{d.name}/results.csv would overwrite --framework q",
    ),
    "synth output and registry-out": (
        ["synth", "--output", "{d}/g.csv", "--registry-out", "{d}/g.csv"],
        "--registry-out {d}/g.csv would overwrite --output",
    ),
    # An empty path is no file and not stdout.
    "rank empty output": (["rank", "--registry", "{registry}", "--output", "", "{table}"],
                          "--output: empty path"),
    "coeff empty output": (["coeff", "--registry", "{registry}", "--output", "", "{table}"],
                           "--output: empty path"),
    "empty plot-out": (["converge", "--registry", "{registry}", "--plot-out", "", "{table}"],
                       "--plot-out: empty path"),
    "empty summary-out": (["converge", "--registry", "{registry}", "--summary-out", "", "{table}"],
                          "--summary-out: empty path"),
    "empty svg-out": (["converge", "--registry", "{registry}", "--svg-out", "", "{table}"],
                      "--svg-out: empty path"),
    "synth empty registry-out": (["synth", "--output", "{d}/g.csv", "--registry-out", ""],
                                 "--registry-out: empty path"),
}


@pytest.mark.parametrize("argv, message", STDOUT_CLASHES.values(), ids=STDOUT_CLASHES.keys())
def test_two_outputs_on_stdout_exit_2_before_reading_input(
    argv, message, registry, table, tmp_path, monkeypatch, capsys
):
    def fail(*args, **kwargs):
        raise AssertionError("input read or generated")

    monkeypatch.setattr(cli, "ingest", fail)
    monkeypatch.setattr(cli, "generate", fail)
    argv = [a.format(d=tmp_path, registry=registry, table=table) for a in argv]
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["registry.txt", "results.csv"]
    _assert_usage_error(err, argv[0])
    assert message.format(d=tmp_path, registry=registry, table=table) in err


# Every output flag of every command, with {out} where the output that
# cannot be opened goes; the other outputs go to files of their own.
UNOPENABLE_OUTPUTS = {
    "rank --output": ["rank", "--registry", "{registry}", "--output", "{out}", "{table}"],
    "coeff --output": ["coeff", "--registry", "{registry}", "--output", "{out}", "{table}"],
    "fcr --output": ["fcr", "--registry", "{registry}", "--framework", "p={table}",
                     "--framework", "q={table}", "--output", "{out}"],
    **{
        f"converge {flag}": [
            "converge", "--registry", "{registry}",
            *itertools.chain.from_iterable(
                (f, "{out}" if f == flag else f"{{d}}/{f[2:]}")
                for f in ("--output", "--plot-out", "--summary-out", "--svg-out")
            ),
            "{table}",
        ]
        for flag in ("--output", "--plot-out", "--summary-out", "--svg-out")
    },
    "synth --output": ["synth", "--output", "{out}", "--registry-out", "{d}/reg.txt"],
    "synth --registry-out": ["synth", "--output", "{d}/g.csv", "--registry-out", "{out}"],
}


@pytest.mark.parametrize("out", ["{d}", "{d}/missing/out"], ids=["directory", "missing directory"])
@pytest.mark.parametrize("argv", UNOPENABLE_OUTPUTS.values(), ids=UNOPENABLE_OUTPUTS.keys())
def test_an_output_that_cannot_be_opened_exits_1_before_reading_input(
    argv, out, registry, table, tmp_path, monkeypatch, capsys
):
    def fail(*args):
        raise AssertionError("input read or generated")

    monkeypatch.setattr(cli._TextFile, "__iter__", fail)
    monkeypatch.setattr(cli, "generate", fail)
    out = out.format(d=tmp_path)
    with pytest.raises(OSError) as opened:
        open(out, "w")
    argv = [a.format(d=tmp_path, registry=registry, table=table, out=out) for a in argv]
    assert main(argv) == EXIT_RUNTIME
    assert capsys.readouterr() == ("", f"i/o error: {opened.value}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["registry.txt", "results.csv"]


@pytest.mark.parametrize("flag", ["--output", "--plot-out", "--summary-out", "--svg-out"])
def test_one_output_on_stdout_is_the_file_it_would_write(flag, registry, table, tmp_path, capsys):
    outputs = {f: str(tmp_path / f[2:]) for f in ("--output", "--plot-out", "--summary-out", "--svg-out")}
    argv = ["converge", "--registry", registry, "--repeats", "2", table]
    assert main([*argv, *itertools.chain(*outputs.items())]) == EXIT_OK
    written = Path(outputs[flag]).read_text()
    assert capsys.readouterr().out == ""
    assert main([*argv, *itertools.chain(*{**outputs, flag: "-"}.items())]) == EXIT_OK
    assert capsys.readouterr().out == written != ""


@pytest.mark.parametrize(
    "args, unrecognized",
    [
        (["--format", "csv", "{table}"], "--format"),
        (["--format=csv", "{table}"], "--format=csv"),
        (["{table}", "x.csv"], "x.csv"),
        (["{table}", "x.csv", "--bogus"], "x.csv --bogus"),
        (["--format", "csv", "{table}", "x.csv"], "--format x.csv"),
        (["{table}", "--format", "csv", "x.csv"], "--format x.csv"),
        (["--bogus", "--format", "csv", "{table}"], "--bogus --format"),
        (["--format=csv", "{table}", "x.csv"], "--format=csv x.csv"),
    ],
    ids=[
        "flag and value", "flag=value", "stray positional", "stray positional then flag",
        "flag and value then stray", "table then flag and value then stray", "two flags",
        "flag=value then stray",
    ],
)
def test_unknown_flag_error_names_only_the_flag(args, unrecognized, registry, table, capsys):
    # An unknown flag's value fills the positional input, so the real
    # table is left over; the message names the flag and any real stray
    # positional, not the table.
    argv = ["validate", "--registry", registry, *(a.format(table=table) for a in args)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        "usage: rankbench validate [-h] --registry REGISTRY input",
        f"validation error: rankbench validate: unrecognized arguments: {unrecognized}",
    ]


def _assert_usage_error(err, command):
    """The usage line and the message both come from the parser of the command run."""
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: rankbench {command} "), err
    assert lines[-1].startswith(f"validation error: rankbench {command}: "), err
    assert "invalid _" not in err


@pytest.mark.parametrize("command", ["coeff", "converge"])
def test_default_coefficients_follow_tie_policy(command, registry, table, tmp_path):
    out = tmp_path / "report.json"
    assert main(
        [command, "--registry", registry, "--tie-policy", "lowest", "--output", str(out), table]
    ) == EXIT_OK
    report = json.loads(out.read_text())
    if command == "coeff":
        names = [frag["coefficient"] for frag in report["coefficients"]]
    else:
        names = report["convergence"]["coefficients"]
    assert names == ["w", "w_wasserstein"]


def test_bom_prefixed_inputs(tmp_path):
    registry = tmp_path / "registry.txt"
    registry.write_bytes(codecs.BOM_UTF8 + REGISTRY_TEXT.encode())
    data = codecs.BOM_UTF8 + GOOD_CSV.encode()
    path = tmp_path / "results.csv"
    path.write_bytes(data)
    assert main(["validate", "--registry", str(registry), str(path)]) == EXIT_OK
    out = tmp_path / "report.json"
    assert main(["coeff", "--registry", str(registry), "--output", str(out), str(path)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["inputs"] == {str(path): hashlib.sha256(data).hexdigest()}
    assert [frag["n_ties"] for frag in report["coefficients"]] == [report["n_ties"]] * 3


def _json_grid(table) -> str:
    """``table`` as canonical JSON: int seeds, float values, null for a failed run without score."""
    return json.dumps(
        [
            {"algorithm": alg, "dataset": test.dataset, "metric": test.metric, "seed": seed,
             "value": None if math.isnan(value) else value, "status": status.value}
            for alg, test, seed, value, status in table.cells()
        ]
    )


@pytest.mark.parametrize("name, as_json", [("grid.txt", True), ("grid.json", False)])
def test_validate_reads_the_format_from_the_text_not_the_name(name, as_json, registry, tmp_path):
    path = tmp_path / name
    table = ingest(GOOD_CSV, parse_registry(REGISTRY_TEXT))
    path.write_text(_json_grid(table) if as_json else GOOD_CSV)
    assert main(["validate", "--registry", registry, str(path)]) == EXIT_OK


def test_coeff_and_fcr_write_the_same_report_from_json_as_from_csv(tmp_path):
    reg = tmp_path / "reg.txt"
    for label, seed in (("p", "1"), ("q", "2")):
        grid = tmp_path / f"{label}.csv"
        argv = ["synth", "--rng-seed", seed, "--noise-scale", "0.5", "--tie-prob", "0.3",
                "--fail-prob", "0.2", "--output", str(grid), "--registry-out", str(reg)]
        assert main(argv) == EXIT_OK
        table = ingest(grid.read_text(), parse_registry(reg.read_text()))
        assert (table.status != 0).any()  # the JSON holds null values
        (tmp_path / f"{label}.json").write_text(_json_grid(table))

    def report(argv):
        out = tmp_path / "report.json"
        assert main([*argv, "--registry", str(reg), "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        del report["inputs"]
        return report

    p_csv, q_csv, p_json, q_json = (tmp_path / f for f in ("p.csv", "q.csv", "p.json", "q.json"))
    assert report(["coeff", str(p_json)]) == report(["coeff", str(p_csv)])
    assert report(["fcr", "--framework", f"p={p_json}", "--framework", f"q={q_json}"]) == report(
        ["fcr", "--framework", f"p={p_csv}", "--framework", f"q={q_csv}"]
    )


def test_runtime_value_error_exits_1_with_its_message(registry, table, monkeypatch, capsys):
    def fail(cube, name):
        raise ValueError(f"{name} failed")

    monkeypatch.setattr(cli, "randomness", fail)
    assert main(["coeff", "--registry", registry, "--coefficients", "w", table]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: w failed\n")


def test_converge_too_large_for_memory_exits_1_without_a_traceback(tmp_path, capsys):
    # 200 sizes x 3 coefficients x 1e11 repeats of float64 is 436 TiB, more
    # than a 47-bit address space, so the allocation fails even where the
    # kernel overcommits memory.
    grid, reg = tmp_path / "grid.csv", tmp_path / "reg.txt"
    assert main(["synth", "--algorithms", "3", "--datasets", "100", "--metrics", "2",
                 "--seeds", "3", "--output", str(grid), "--registry-out", str(reg)]) == EXIT_OK
    capsys.readouterr()
    argv = ["converge", "--registry", str(reg), "--repeats", "100000000000",
            "--output", str(tmp_path / "report.json"), str(grid)]
    assert main(argv) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "report.json").exists()


def test_coeff_and_converge_report_the_same_warnings(registry, tmp_path):
    # Three algorithms tie at the top on both seeds: lowest-shared ranks
    # 1 1 1 4 give per-test W = 1.8, outside [0, 1].
    path = tmp_path / "ties.csv"
    path.write_text(
        "algorithm,dataset,metric,seed,value,status\n"
        + "".join(
            f"{alg},cora,f1,{seed},{value},ok\n"
            for alg, value in (("a", 0.9), ("b", 0.9), ("c", 0.9), ("d", 0.1))
            for seed in (0, 1)
        )
    )
    reports = {}
    for command in ("coeff", "converge"):
        out = tmp_path / f"{command}.json"
        assert main(
            [
                command,
                "--registry", registry,
                "--tie-policy", "lowest",
                "--coefficients", "w",
                "--output", str(out),
                str(path),
            ]
        ) == EXIT_OK
        reports[command] = json.loads(out.read_text())
    assert reports["coeff"]["coefficients"][0]["per_test"][0]["w"] == 1.8
    assert reports["coeff"]["warnings"]
    assert reports["converge"]["warnings"] == reports["coeff"]["warnings"]


# The conductance test misses (b, seed 1), so --drop-incomplete removes it.
INCOMPLETE_CSV = GOOD_CSV + (
    "a,cora,conductance,0,0.1,ok\n"
    "a,cora,conductance,1,0.2,ok\n"
    "b,cora,conductance,0,0.3,ok\n"
)


@pytest.mark.parametrize("command", ["coeff", "converge"])
def test_reports_record_drop_incomplete(command, registry, tmp_path):
    path = tmp_path / "incomplete.csv"
    path.write_text(INCOMPLETE_CSV)
    out = tmp_path / "report.json"
    argv = [command, "--registry", registry, "--output", str(out), str(path)]
    assert main(argv) == EXIT_VALIDATION
    assert main(argv + ["--drop-incomplete"]) == EXIT_OK
    settings = json.loads(out.read_text())["settings"]
    assert settings["drop_incomplete"] is True
    assert settings["dropped_tests"] == [["cora", "conductance"]]

    complete = tmp_path / "complete.csv"
    complete.write_text(GOOD_CSV)
    assert main([command, "--registry", registry, "--output", str(out), str(complete)]) == EXIT_OK
    settings = json.loads(out.read_text())["settings"]
    assert settings["drop_incomplete"] is False
    assert settings["dropped_tests"] == []


def _fcr_report(registry, tmp_path, tuned_csv):
    default, tuned = tmp_path / "default.csv", tmp_path / "tuned.csv"
    default.write_text(GOOD_CSV)
    tuned.write_text(tuned_csv)
    out = tmp_path / "fcr.json"
    assert main(
        ["fcr", "--registry", registry, "--framework", f"p={default}",
         "--framework", f"q={tuned}", "--output", str(out)]
    ) == EXIT_OK
    return json.loads(out.read_text())


def test_fcr_reports_shared_seed_sets(registry, tmp_path):
    report = _fcr_report(registry, tmp_path, GOOD_CSV.replace("0.5", "0.7"))
    assert report["fcr"]["seeds"] == {"p": 2, "q": 2}
    assert report["warnings"] == []


def test_fcr_warns_when_seed_sets_differ(registry, tmp_path):
    # q was run on seeds 0, 1 and 2; p on seeds 0 and 1.
    tuned = GOOD_CSV + "a,cora,f1,2,0.9,ok\nb,cora,f1,2,0.1,ok\n"
    report = _fcr_report(registry, tmp_path, tuned)
    assert report["fcr"]["seeds"] == {"p": 2, "q": 3}
    assert len(report["warnings"]) == 1
    assert "own seeds" in report["warnings"][0]


def test_cli_pipeline_builds_no_per_cell_records(registry, tmp_path, monkeypatch):
    """coeff, converge, fcr and rank work on the cubes alone."""

    def forbidden(self):
        raise AssertionError("per-cell records built on the CLI path")

    monkeypatch.setattr(ResultTable, "records", property(forbidden))
    path = tmp_path / "grid.csv"
    path.write_text(GOOD_CSV.replace("b,cora,f1,1,0.3,ok", "b,cora,f1,1,,oom"))
    common = ["--registry", registry, "--output", str(tmp_path / "out")]
    for argv in (
        ["coeff", *common, str(path)],
        ["converge", *common, str(path)],
        ["rank", *common, str(path)],
        ["fcr", *common, "--framework", f"p={path}", "--framework", f"q={path}"],
    ):
        assert main(argv) == EXIT_OK, argv


def test_failures_are_resolved_once_per_ranked_table(registry, tmp_path, monkeypatch):
    """coeff, converge and rank resolve once; fcr once per framework."""
    calls = []
    resolve = ranking.resolve_failures

    def counted(table):
        calls.append(table)
        return resolve(table)

    monkeypatch.setattr(ranking, "resolve_failures", counted)
    monkeypatch.setattr(comparison, "resolve_failures", counted)
    path = tmp_path / "grid.csv"
    path.write_text(GOOD_CSV.replace("b,cora,f1,1,0.3,ok", "b,cora,f1,1,,oom"))
    common = ["--registry", registry, "--output", str(tmp_path / "out")]
    frameworks = [arg for label in "pqr" for arg in ("--framework", f"{label}={path}")]
    for argv, expected in (
        (["coeff", *common, str(path)], 1),
        (["converge", *common, str(path)], 1),
        (["rank", *common, str(path)], 1),
        (["fcr", *common, *frameworks], 3),
    ):
        calls.clear()
        assert main(argv) == EXIT_OK, argv
        assert len(calls) == expected, argv


def test_validate_rejects_non_finite_ok_score(tmp_path, capsys):
    registry = tmp_path / "registry.txt"
    registry.write_text("metric.loss.direction = lower\n")
    path = tmp_path / "grid.csv"
    grid = GOOD_CSV.replace("f1", "loss")
    path.write_text(grid.replace("b,cora,loss,1,0.3,ok", "b,cora,loss,1,inf,ok"))
    for command in ("validate", "coeff"):
        assert main([command, "--registry", str(registry), str(path)]) == EXIT_VALIDATION
        assert "non-finite value inf" in capsys.readouterr().err


def test_synth_output_digest_is_pinned(capsys):
    # Digest of this exact output before the table became a cube; any
    # change to the generator's RNG stream or the CSV writer shows here.
    argv = ["synth", "--algorithms", "6", "--datasets", "3", "--metrics", "2", "--seeds", "4",
            "--noise-scale", "0.5", "--tie-prob", "0.2", "--fail-prob", "0.1"]
    assert main(argv) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "db957289fa88607e5f3b13e5589f161cf5bf5a65abe395f0b0638a987dcaaf02"


# Digests of these outputs when the generator drew each cell in a Python
# loop: each combination of the optional tie and failure draws, and a
# zero score range, where a tie draw is made but snaps nothing.
SYNTH_LAYOUT_PINS = {
    "no-ties-no-failures": (
        ["--noise-scale", "0.5"],
        "92a58aa7be556c95f9a959ecccaf9eaff8a201e8ab394191e098581feaeab220",
    ),
    "ties-only": (
        ["--noise-scale", "0.5", "--tie-prob", "0.2"],
        "9f5e9692669fdc924db70107ab82a84fc72aab5ac52664588b778c924936f14f",
    ),
    "failures-only": (
        ["--noise-scale", "0.5", "--fail-prob", "0.1"],
        "2a203463eb2f16720ea2b310b95a112d0b2af0323fb3986f9ff019e4520016f0",
    ),
    "zero-score-range": (
        ["--quality-gap", "0", "--noise-scale", "0", "--tie-prob", "0.3"],
        "8f927a5f2acce1bad601231291d5d5c0eba12c31beafcf31dfc446c1ca24f18b",
    ),
}


@pytest.mark.parametrize("flags, digest", SYNTH_LAYOUT_PINS.values(), ids=SYNTH_LAYOUT_PINS.keys())
def test_synth_draw_layouts_are_pinned(flags, digest, capsys):
    argv = ["synth", "--algorithms", "6", "--datasets", "3", "--metrics", "2", "--seeds", "4"]
    assert main([*argv, *flags]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _record_reads(monkeypatch) -> list[str]:
    """Patch the CLI's one file reader to record, in order, each path it reads."""
    reads = []

    def read(path, read=cli._TextFile):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(cli, "_TextFile", read)
    return reads


def _record_passes(monkeypatch) -> list[str]:
    """Patch the CLI's file reader to record, in order, the path of each pass over a file."""
    passes, iterate = [], cli._TextFile.__iter__

    def counted(self):
        passes.append(self.path)
        return iterate(self)

    monkeypatch.setattr(cli._TextFile, "__iter__", counted)
    return passes


@pytest.mark.parametrize(
    "lines, message",
    [
        (["metric.f1.direction = lower"], "registry line 5: 'metric.f1.direction' repeats line 1"),
        (["metric.f1.bounds = 0,2"], "registry line 5: 'metric.f1.bounds' repeats line 2"),
        (["metric..direction = higher"], "registry line 5: empty metric name"),
    ],
    ids=["direction", "bounds", "empty name"],
)
def test_bad_registry_exits_2_before_reading_table(lines, message, tmp_path, monkeypatch, capsys):
    reads = _record_reads(monkeypatch)
    path = tmp_path / "registry.txt"
    path.write_text(REGISTRY_TEXT + "\n".join(lines) + "\n")
    assert main(["coeff", "--registry", str(path), str(tmp_path / "t.csv")]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert reads == [str(path)]


@pytest.mark.parametrize(
    "flags",
    [
        ["--algorithms", "1"],
        ["--seeds", "0"],
        ["--tie-prob", "2"],
        ["--tie-prob", "nan"],
        ["--noise-scale", "inf"],
        ["--noise-scale", "1e308"],
        ["--quality-gap", "inf"],
        ["--quality-gap", "nan"],
        ["--rng-seed", "-1"],
    ],
    ids=" ".join,
)
def test_synth_usage_error_exits_2_before_generating(flags, tmp_path, monkeypatch, capsys):
    def forbidden(config):
        raise AssertionError("generated a grid for a bad config")

    monkeypatch.setattr(cli, "generate", forbidden)
    out = ["--output", str(tmp_path / "t.csv"), "--registry-out", str(tmp_path / "r.txt")]
    assert main(["synth", *flags, *out]) == EXIT_VALIDATION
    assert list(tmp_path.iterdir()) == []
    _assert_usage_error(capsys.readouterr().err, "synth")


@pytest.mark.parametrize("bad", ["registry", "table"])
def test_non_utf8_input_exits_2_naming_the_file(bad, registry, table, monkeypatch, capsys):
    reads = _record_reads(monkeypatch)
    path = Path(registry if bad == "registry" else table)
    path.write_bytes(b"\xff" + path.read_bytes())
    assert main(["coeff", "--registry", registry, table]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"validation error: {path}: not UTF-8 text (")
    assert reads == ([registry] if bad == "registry" else [registry, table])


def _grid_with_bad_row_2(fmt: str):
    """The 40k-row grid of the memory tests: the table, its CSV or JSON, and that with a bad row 2."""
    table = generate(
        SynthConfig(n_algorithms=10, n_datasets=20, n_metrics=2, n_seeds=100, noise_scale=0.3)
    )
    if fmt == "csv":
        text = "".join(to_csv(table))
        header, row, rest = text.split("\n", 2)
        fields = row.split(",")
        fields[3] = "x"
        return table, text, "\n".join([header, ",".join(fields), rest])
    text = _json_grid(table)
    return table, text, text.replace('"seed": 0', '"seed": "x"', 1)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_row_error_beats_a_utf8_fault_in_a_later_block(fmt, tmp_path, capsys):
    # Ingest reads the file a block at a time and stops at the bad row 2 (item
    # 0), two blocks before the one that holds the byte that is not UTF-8;
    # that byte alone is the error, worded as decoding the whole file words it.
    table, text, bad_row = _grid_with_bad_row_2(fmt)
    registry = tmp_path / "reg.txt"
    registry.write_text("".join(registry_to_text(table.registry)))
    path = tmp_path / f"grid.{fmt}"
    argv = ["validate", "--registry", str(registry), str(path)]
    for text, message in ((bad_row, "bad seed 'x'"), (text, None)):
        data = text.encode()
        assert len(data) > 4 * results._CHUNK
        data = data[: 3 * results._CHUNK] + b"\xff" + data[3 * results._CHUNK :]
        path.write_bytes(data)
        if message is None:
            with pytest.raises(UnicodeDecodeError) as exc:
                data.decode("utf-8-sig")
            message = f"validation error: {path}: not UTF-8 text ({exc.value})\n"
        assert main(argv) == EXIT_VALIDATION
        assert message in capsys.readouterr().err


# File offsets at the start of the file and around the first two block
# boundaries at _CHUNK 50; at 0 and 1 every byte is a block of its own.
_FAULT_OFFSETS = [*range(5), *range(47, 54), *range(98, 103)]


@pytest.mark.parametrize(
    "fault", [b"\xff", "\u20ac".encode()[:2]], ids=["bad byte", "cut character"]
)
@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["no BOM", "BOM"])
@pytest.mark.parametrize("chunk", [0, 1, 50])
@pytest.mark.parametrize("offset", _FAULT_OFFSETS)
def test_a_utf8_fault_is_worded_as_decoding_the_whole_file(
    offset, chunk, bom, fault, registry, tmp_path, monkeypatch, capsys
):
    # The message comes from the block that holds the fault, its position
    # counted from the start of the file after the byte-order mark.
    body = GOOD_CSV.encode()
    at = max(0, offset - len(bom))
    data = bom + body[:at] + fault + body[at:]
    with pytest.raises(UnicodeDecodeError) as exc:
        data.decode("utf-8-sig")
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    monkeypatch.setattr(results, "_CHUNK", chunk)
    assert main(["validate", "--registry", registry, str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {path}: not UTF-8 text ({exc.value})\n"


@pytest.mark.parametrize(
    "data", [b"\xef", b"\xef\xbb", b"\xef\xbb\xbf\xc3", GOOD_CSV.encode() + b"\xe2\x82"],
    ids=["a BOM's first byte", "two bytes of a BOM", "BOM and a cut character", "a cut character"],
)
def test_a_file_that_ends_inside_a_character_is_not_utf8(data, registry, tmp_path, capsys):
    # The incremental decoder holds back a file that is only the start of a BOM.
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as exc:
        data.decode("utf-8-sig")
    assert main(["validate", "--registry", registry, str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {path}: not UTF-8 text ({exc.value})\n"


@pytest.mark.parametrize("fmt, bound", [("json", 0.36), ("csv", 1.1)])
def test_load_table_peak_memory_is_a_small_multiple_of_the_file(fmt, bound, tmp_path):
    # The 40k-row grid of the ingest memory tests: 4.9 MB of JSON, 1.8 MB of
    # CSV. Read whole as bytes and decoded while the bytes were alive, the
    # file peaked at 2.0x its size (JSON) and 2.4x (CSV); read as text
    # pieces straight from disk, at 0.61x and 1.55x; 0.51x and 1.38x with
    # canonical CSV read as columns; 0.30x and 0.93x with each chunk's
    # records checked as it arrives and the chunks' arrays never joined.
    table = generate(
        SynthConfig(n_algorithms=10, n_datasets=20, n_metrics=2, n_seeds=100, noise_scale=0.3)
    )
    path = tmp_path / f"grid.{fmt}"
    path.write_text(_json_grid(table) if fmt == "json" else "".join(to_csv(table)))
    tracemalloc.start()
    try:
        cli._load_table(str(path), table.registry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * path.stat().st_size


_GOOD_ITEMS = [
    dict(zip(["algorithm", "dataset", "metric", "seed", "value", "status"], row))
    for row in csv.reader(GOOD_CSV.splitlines()[1:])
]


_UNCLOSED_JSON = json.dumps(_GOOD_ITEMS)[:-1]
# A byte that is not UTF-8 in the third block.
_NOT_UTF8 = GOOD_CSV.encode()[:110] + b"\xff" + GOOD_CSV.encode()[110:]


@pytest.mark.parametrize(
    "data, message",
    [
        (GOOD_CSV.replace("b,cora,f1,0", "b,cora,f1,x").encode(), "row 4: bad seed 'x'"),
        (json.dumps([dict(_GOOD_ITEMS[0], seed="x"), *_GOOD_ITEMS[1:]]).encode(),
         "row 0: bad seed 'x'"),
        (_UNCLOSED_JSON.encode(), f"bad JSON: Expecting ',' delimiter: line 1 column "
         f"{len(_UNCLOSED_JSON) + 1} (char {len(_UNCLOSED_JSON)})"),
        (_NOT_UTF8, "not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 110"),
        ((GOOD_CSV + "a,cora,f1,0,0.5,ok\n").encode(), "duplicate record"),
        (GOOD_CSV.rsplit("b,", 1)[0].encode(), "incomplete grid"),
    ],
    ids=["CSV row error", "JSON row error", "JSON syntax error in a later chunk",
         "not UTF-8 in a later block", "duplicate record", "incomplete grid"],
)
def test_a_file_is_read_once_whatever_the_fault(
    data, message, registry, tmp_path, monkeypatch, capsys
):
    # The pass that meets the fault words the error; no pass reads the file again.
    monkeypatch.setattr(results, "_CHUNK", 50)
    path = tmp_path / "grid"
    path.write_bytes(data)
    assert len(data) > results._CHUNK  # more than one block
    passes, whole_reads = _record_passes(monkeypatch), []
    monkeypatch.setattr(Path, "read_bytes", lambda self: whole_reads.append(self))
    assert main(["validate", "--registry", registry, str(path)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert passes == [registry, str(path)]
    assert whole_reads == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_row_error_stops_the_pass_within_a_block_of_its_row(fmt, tmp_path, monkeypatch):
    # Row 2 (item 0) is in the first block. A CSV block and a JSON chunk
    # both end at the first "\n" or "}," past _CHUNK characters, so each
    # takes one more block.
    table, _, text = _grid_with_bad_row_2(fmt)
    path = tmp_path / f"grid.{fmt}"
    path.write_text(text)
    pieces, iterate = [], cli._TextFile.__iter__

    def counted(self):
        for piece in iterate(self):
            pieces.append(piece)
            yield piece

    monkeypatch.setattr(cli._TextFile, "__iter__", counted)
    with pytest.raises(ValidationError, match="row [02]: bad seed 'x'"):
        cli._load_table(str(path), table.registry)
    assert len(pieces) == 2
    assert path.stat().st_size > 7 * results._CHUNK


def test_synth_flags_set_every_config_field():
    assert cli._parse_args(["synth"]).config == SynthConfig()
    argv = ["synth", "--algorithms", "7", "--datasets", "3", "--metrics", "3", "--seeds", "6",
            "--quality-gap", "0.3", "--noise-scale", "0.7", "--tie-prob", "0.25",
            "--fail-prob", "0.15", "--rng-seed", "42"]
    assert cli._parse_args(argv).config == SynthConfig(
        n_algorithms=7, n_datasets=3, n_metrics=3, n_seeds=6, quality_gap=0.3,
        noise_scale=0.7, tie_prob=0.25, fail_prob=0.15, rng_seed=42,
    )


# sha256 of every converge output on the synth grid below, computed before
# the convergence report held its values as one sizes x coefficients x
# repeats array.
CONVERGE_PINS = {
    (): {
        "report.json": "5153df740ee832d6e776513f464554a7207303fb9d22acbe0fc758075ac97901",
        "plot.csv": "501e79e68c48fdd7867468a3dcf3a14de7b5d3044a6488c9a25b15dbdf6095ed",
        "summary.csv": "bdd007bf7637834e2749e45ecd6d455da49f739ee324579bae60cc911a5ab4bb",
        "chart.svg": "049608d0ab774e2072ad13fdac409054125b7e204b4dac5ed364e28b83750fce",
    },
    ("--tie-policy", "lowest", "--repeats", "1", "--sizes", "5,1,3,3,6"): {
        "report.json": "ae76c1db0232ba700a7ce49246619330db1a63cbfde24a8300d899b3c0858a30",
        "plot.csv": "d83f23385cbe4550d3c4526a903037937496af250639ebac3dfde19a45809f9f",
        "summary.csv": "5b697154637e76970ccbdf656a40a4d986cca962a578dad953d1141db300e47d",
        "chart.svg": "76f2f6fd92b123866f0803fdf87bd080304baa47e25b12b617e9be5533e157d6",
    },
}


def test_rank_and_converge_outputs_are_pinned(tmp_path, monkeypatch):
    # Digests of these outputs before ranking became one rank cube: the
    # rank CSV under each tie policy and the convergence provenance, which
    # hashes the ranks test by test. Relative paths keep the report's
    # input key independent of the temporary directory.
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--algorithms", "6", "--datasets", "3", "--metrics", "2", "--seeds", "4",
                 "--noise-scale", "0.5", "--tie-prob", "0.2", "--fail-prob", "0.1",
                 "--output", "synth.csv", "--registry-out", "registry.txt"]) == EXIT_OK
    pinned = {
        "mean": "bd31d9193d21dd05869a5d7bc1fae86770f57019a4ee3d509866f62928da5631",
        "lowest": "36dabd1f12737280dc46454716d4e89e44a4357c444cea0b768213bba06f4330",
    }
    for policy, digest in pinned.items():
        out = tmp_path / f"ranks-{policy}.csv"
        argv = ["rank", "--registry", "registry.txt", "--tie-policy", policy, "--output", str(out)]
        assert main([*argv, "synth.csv"]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, policy
    outputs = ["--output", "report.json", "--plot-out", "plot.csv",
               "--summary-out", "summary.csv", "--svg-out", "chart.svg"]
    for flags, digests in CONVERGE_PINS.items():
        argv = ["converge", "--registry", "registry.txt", *flags, *outputs, "synth.csv"]
        assert main(argv) == EXIT_OK
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, (flags, name)
        if not flags:
            report = json.loads((tmp_path / "report.json").read_text())
            assert report["convergence"]["provenance"] == (
                "03d2b37110415ba5df23bd59b1f7d661e0f19355b9070de4b118d9398a371976"
            )


# sha256 of every coeff and fcr report, JSON then CSV, on the synth grids
# below, computed while the result types still built their own report
# fragments.
FCR_FRAMEWORKS = ("--framework", "default=synth.csv", "--framework", "tuned=tuned.csv")
REPORT_PINS = {
    ("coeff", "--tie-policy", "mean", "synth.csv"): (
        "5c0ed6f8cc2cfa03c31a49a9f6e23a1b4e94236067abb151a01019133891b629",
        "88c0777ab601e7df206870a816199b8b050381062fe14dbe3ee1238cfaaf47a3",
    ),
    ("coeff", "--tie-policy", "lowest", "synth.csv"): (
        "552a39068b80f3106ef73e5313329f759b3d8b69fa95a3a9f74dee0cde14247f",
        "957b5493d9e7a580d2983102f2e618b4a3a085e373035b249730e2e7f7bf1622",
    ),
    ("fcr", "--granularity", "per-algorithm-test", *FCR_FRAMEWORKS): (
        "e7acf329837c1078331c3bea03627bf1f80f0b1cd362cf5b18b9d30718c5a525",
        "308074ced034286950ff283d0bf90a45bfc2b2bb82dd1ba721c3cf30d52a7e43",
    ),
    ("fcr", "--granularity", "per-test", *FCR_FRAMEWORKS): (
        "8a18d83d04b4ac8a1d8a2bcfad02c7f056925be5ebec1a529ee7eaa11e175b4f",
        "23a26c5256419d9ebbbedb1e8ae073ddcb2c77ce24aab5e020d988cdc4b3d5c2",
    ),
}


def test_coeff_and_fcr_reports_are_pinned(tmp_path, monkeypatch):
    # Relative paths keep each report's input keys independent of the
    # temporary directory.
    monkeypatch.chdir(tmp_path)
    synth = ["synth", "--algorithms", "6", "--datasets", "3", "--metrics", "2", "--seeds", "4",
             "--noise-scale", "0.5", "--tie-prob", "0.2"]
    assert main([*synth, "--fail-prob", "0.1",
                 "--output", "synth.csv", "--registry-out", "registry.txt"]) == EXIT_OK
    assert main([*synth, "--fail-prob", "0.05", "--rng-seed", "7", "--output", "tuned.csv"]) == EXIT_OK
    for (command, *flags), digests in REPORT_PINS.items():
        for fmt, digest in zip(("json", "csv"), digests):
            argv = [command, "--registry", "registry.txt", *flags, "--format", fmt,
                    "--output", f"report.{fmt}"]
            assert main(argv) == EXIT_OK
            written = (tmp_path / f"report.{fmt}").read_bytes()
            assert hashlib.sha256(written).hexdigest() == digest, (command, *flags, fmt)


def test_converge_writes_its_report_without_holding_its_cells(tmp_path, monkeypatch):
    # 1,000 tests give 1,000 sizes. Memory is counted from the end of the
    # study, so the table, the cube and the study's arrays are left out. With
    # every cell built as a dict before the report was written, the writing
    # peaked at 2.4-2.6x the bytes written; a block of sizes at a time, 0.6x;
    # a cell's text at a time, 0.3x.
    subsample, studies, held = cli.subsample_convergence, [], []

    def traced(*args, **kwargs):
        studies.append(subsample(*args, **kwargs))
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return studies[-1]

    monkeypatch.setattr(cli, "subsample_convergence", traced)
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--algorithms", "3", "--datasets", "250", "--metrics", "4",
                 "--seeds", "3", "--noise-scale", "0.5",
                 "--output", "grid.csv", "--registry-out", "reg.txt"]) == EXIT_OK
    argv = ["converge", "--registry", "reg.txt", "--repeats", "2", "--output", "report.json"]
    tracemalloc.start()
    try:
        assert main([*argv, "grid.csv"]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = tmp_path / "report.json"
    [study], [before] = studies, held
    assert len(study.sizes) == 1000
    assert json.loads(out.read_text())["convergence"]["cells"] == [
        {"size": k, "coefficient": c, "values": v, "mean": m, "std": sd}
        for k, vs, ms, sds in zip(
            study.sizes, study.values.tolist(), study.mean.tolist(), study.std.tolist()
        )
        for c, v, m, sd in zip(study.coefficients, vs, ms, sds)
    ]
    assert peak - before < 1.0 * out.stat().st_size


@st.composite
def convergence_studies(draw):
    """A study of a small ranked cube: any tie policy and epsilon, any subset of its
    coefficients in any order, sizes unsorted and repeated, 1, 2 or 10 repeats."""
    values, higher = draw(score_cubes())
    policy = draw(st.sampled_from(list(TiePolicy)))
    cube = ranked(values, higher, policy, draw(st.sampled_from([0.0, 0.25, 0.6])))
    names = coefficients_for(policy)
    n_tests = len(cube.suite)
    return subsample_convergence(
        cube,
        coefficients=draw(st.lists(st.sampled_from(names), min_size=1, unique=True)),
        sizes=draw(st.lists(st.integers(1, n_tests), min_size=1, max_size=12)),
        repeats=draw(st.sampled_from([1, 2, 10])),
        rng_seed=draw(st.integers(0, 2**64)),
    )


@given(convergence_studies())
@settings(max_examples=150, deadline=None)
def test_cells_json_is_the_encoders_text_a_piece_per_cell(study):
    # _cells_json writes each number with its repr, which is json's text for
    # a finite float: every value of a study is one minus a mean of finite terms.
    assert np.isfinite(study.values).all()
    cells = [
        {"size": k, "coefficient": c, "values": v, "mean": m, "std": sd}
        for k, vs, ms, sds in zip(
            study.sizes, study.values.tolist(), study.mean.tolist(), study.std.tolist()
        )
        for c, v, m, sd in zip(study.coefficients, vs, ms, sds)
    ]
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    # The cells sit at the depth of the report's convergence.cells.
    head, tail = '{\n  "convergence": {\n    "cells": ', "\n  }\n}"
    text = encoder.encode({"convergence": {"cells": cells}})
    assert text.startswith(head) and text.endswith(tail)
    pieces = list(cli._cells_json(study, encoder))
    assert "".join(pieces) == text[len(head) : -len(tail)]
    assert len(pieces) == len(cells) + 1


@pytest.mark.parametrize("writer, bound", [("ranks_to_csv", 1.5), ("to_csv", 0.3)])
def test_csv_writers_stream_one_batch_at_a_time(writer, bound, tmp_path):
    # 20,000 cells: each output spans about 80 write batches. Built whole as one
    # string, the rank export peaked near 4.7x the bytes written and the table
    # near 3.3x. Line by line, they peak at 0.12x and 0.17x; the table peaked
    # at 1.03x while cells() converted both cubes to lists at once.
    table = generate(SynthConfig(n_algorithms=10, n_datasets=50, n_metrics=4, n_seeds=10,
                                 noise_scale=0.5, tie_prob=0.1, fail_prob=0.05))
    subject = rank_table(table) if writer == "ranks_to_csv" else table
    write = ranking.ranks_to_csv if writer == "ranks_to_csv" else to_csv
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        cli._write_output(write(subject), str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text().count("\n") == table.values.size + 1 > 50 * cli._WRITE_BATCH
    assert peak < bound * out.stat().st_size


@pytest.mark.parametrize("command", ["converge", "coeff"])
def test_stdout_output_is_the_bytes_written_to_a_file(command, tmp_path):
    # An unbuffered stdout takes one write per batch of pieces, and the report
    # spans several batches: a JSON line a piece, or in converge's 600 cells a
    # cell a piece.
    grid, reg, out = tmp_path / "grid.csv", tmp_path / "reg.txt", tmp_path / "report.json"
    assert main(["synth", "--datasets", "100", "--noise-scale", "0.5", "--tie-prob", "0.2",
                 "--output", str(grid), "--registry-out", str(reg)]) == EXIT_OK
    argv = [command, "--registry", str(reg), str(grid), "--output"]
    assert main([*argv, str(out)]) == EXIT_OK
    env = {**os.environ, "PYTHONUNBUFFERED": "1"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "rankbench.cli", *argv, "-"],
                          env=env, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert proc.stdout.count(b"\n") > 2 * cli._WRITE_BATCH
    assert proc.stdout == out.read_bytes()


def test_every_output_is_written_as_pieces(tmp_path, monkeypatch):
    # A bare str would be written one character at a time.
    write, outputs = cli._write_output, []

    def pieces_only(pieces, output):
        assert not isinstance(pieces, str), output
        outputs.append(Path(output).name)
        write(pieces, output)

    monkeypatch.setattr(cli, "_write_output", pieces_only)
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["synth", "--output", "grid.csv", "--registry-out", "reg.txt"],
        ["rank", "--registry", "reg.txt", "--output", "ranks.csv", "grid.csv"],
        ["coeff", "--registry", "reg.txt", "--format", "csv", "--output", "coeff.csv", "grid.csv"],
        ["fcr", "--registry", "reg.txt", "--framework", "p=grid.csv", "--framework", "q=grid.csv",
         "--output", "fcr.json"],
        ["converge", "--registry", "reg.txt", "--output", "converge.json", "--plot-out", "plot.csv",
         "--summary-out", "summary.csv", "--svg-out", "chart.svg", "grid.csv"],
    ):
        assert main(argv) == EXIT_OK
    assert outputs == ["grid.csv", "reg.txt", "ranks.csv", "coeff.csv", "fcr.json",
                       "converge.json", "plot.csv", "summary.csv", "chart.svg"]


def _run_cli(argv, cwd, level=None, timeout=120):
    """Run the CLI in a fresh interpreter, so that logging is configured as in real use."""
    env = {k: v for k, v in os.environ.items() if k != "RANKBENCH_LOG"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    if level is not None:
        env["RANKBENCH_LOG"] = level
    return subprocess.run(
        [sys.executable, "-m", "rankbench.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


# Every command on a small grid with failures, CSV and JSON, every output written.
EVERY_COMMAND = """
import csv, json, sys
from rankbench.cli import main

synth = ["synth", "--algorithms", "3", "--datasets", "3", "--metrics", "2", "--seeds", "4",
         "--fail-prob", "0.2", "--tie-prob", "0.2"]
assert main([*synth, "--output", "g.csv", "--registry-out", "r.txt"]) == 0
assert main([*synth, "--rng-seed", "1", "--output", "h.csv"]) == 0
with open("h.csv", encoding="utf-8") as f:
    items = [
        {**row, "seed": int(row["seed"]), "value": float(row["value"]) if row["value"] else None}
        for row in csv.DictReader(f)
    ]
with open("h.json", "w", encoding="utf-8") as f:
    json.dump(items, f)
reg = ["--registry", "r.txt"]
for argv in (
    ["validate", *reg, "h.json"],
    ["rank", *reg, "--output", "ranks.csv", "g.csv"],
    ["coeff", *reg, "--output", "coeff.json", "g.csv"],
    ["coeff", *reg, "--format", "csv", "--output", "coeff.csv", "h.json"],
    ["converge", *reg, "--repeats", "3", "--output", "converge.json", "--plot-out", "plot.csv",
     "--summary-out", "summary.csv", "--svg-out", "chart.svg", "g.csv"],
    ["fcr", *reg, "--framework", "g=g.csv", "--framework", "h=h.json", "--output", "fcr.json"],
):
    assert main(argv) == 0, argv
print("numpy.ma imported:", "numpy.ma" in sys.modules)
"""


def test_no_command_imports_numpy_ma(tmp_path):
    # A plain np.unique imports numpy.ma, 9-17 ms after numpy on every run.
    env = {k: v for k, v in os.environ.items() if k != "RANKBENCH_LOG"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", EVERY_COMMAND], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy.ma imported: False"


def test_info_logging_reports_stages_and_counts(registry, tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text(INCOMPLETE_CSV.replace("b,cora,f1,1,0.3,ok", "b,cora,f1,1,,timeout"))
    argv = ["coeff", "--registry", registry, "--drop-incomplete", "--output"]
    quiet = _run_cli([*argv, "quiet.json", str(path)], tmp_path)
    assert quiet.returncode == EXIT_OK
    assert quiet.stderr == ""

    loud = _run_cli([*argv, "loud.json", str(path)], tmp_path, level="INFO")
    assert loud.returncode == EXIT_OK
    lines = loud.stderr.splitlines()
    assert all(line.startswith("INFO rankbench") for line in lines)
    for expected in (
        "parsed 7 rows",
        "dropped 1 incomplete tests: cora/conductance",
        "resolved 1 failed cells: oom=0, timeout=1, error=0",
        "ranked 2 rows: 0 tie groups",
    ):
        assert any(line.endswith(expected) for line in lines), expected
    for stage in ("ingest", "rank", "coefficients", "write report"):
        assert any(re.search(rf": {stage}\b.*: \d+\.\d{{3}} s$", line) for line in lines), stage
    assert (tmp_path / "quiet.json").read_bytes() == (tmp_path / "loud.json").read_bytes()


@pytest.mark.parametrize("level", ["verbose", "", "10"])
def test_unknown_log_level_exits_2_before_reading_input(level, tmp_path):
    # Neither file exists: reading either would exit 1 with an i/o error.
    proc = _run_cli(["validate", "--registry", "reg.txt", "grid.csv"], tmp_path, level=level)
    assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, "")
    assert proc.stderr == f"validation error: RANKBENCH_LOG: unknown level {level!r}\n"


def test_every_level_name_logging_knows_is_accepted(registry, table, tmp_path):
    for level in ("debug", "Warn", "fatal", "NOTSET"):
        proc = _run_cli(["validate", "--registry", registry, table], tmp_path, level=level)
        assert (proc.returncode, proc.stdout) == (EXIT_OK, f"{table}: valid complete grid\n"), level


def test_info_log_lines_match_the_table(tmp_path, caplog):
    grid, reg = tmp_path / "synth.csv", tmp_path / "reg.txt"
    assert main(["synth", "--noise-scale", "0.5", "--tie-prob", "0.3", "--fail-prob", "0.2",
                 "--output", str(grid), "--registry-out", str(reg)]) == EXIT_OK
    with caplog.at_level(logging.INFO, logger="rankbench"):
        argv = ["coeff", "--registry", str(reg), "--output", str(tmp_path / "r.json"), str(grid)]
        assert main(argv) == EXIT_OK
    table = ingest(grid.read_text(), parse_registry(reg.read_text()))
    counts = dict(zip(STATUSES, np.bincount(table.status.ravel(), minlength=len(STATUSES))))
    n_ok = counts.pop(Status.OK)
    n_ties = count_ties(rank_table(table))
    assert n_ok < table.status.size and n_ties > 0  # the counts below are not all zero
    failed = ", ".join(f"{status.value}={n}" for status, n in counts.items())
    rows = len(table.suite) * len(table.seeds)
    for line in (
        f"0 of 1 chunks by the row parser: parsed {table.values.size} rows",
        f"resolved {table.status.size - n_ok} failed cells: {failed}",
        f"ranked {rows} rows: {n_ties} tie groups",
    ):
        assert caplog.messages.count(line) == 1, line
    for stage in (f"ingest {grid}", "rank", "coefficients", "write report"):
        timing = re.compile(rf"{re.escape(stage)}: \d+\.\d{{3}} s")
        assert len([m for m in caplog.messages if timing.fullmatch(m)]) == 1, stage


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (SRC.parent / "README.md").read_text()
    example = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    for name, seed in (("results.csv", "0"), ("default.csv", "1"), ("tuned.csv", "2")):
        argv = ["synth", "--rng-seed", seed, "--output", name, "--registry-out", "reg.txt"]
        assert main(argv) == EXIT_OK
    exec(example, {})
    assert capsys.readouterr().out.startswith("w ")
