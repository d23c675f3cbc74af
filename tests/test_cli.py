import codecs
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rankbench import cli, comparison, ranking
from rankbench.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from rankbench.concordance import COEFFICIENTS, randomness
from rankbench.ranking import count_ties, rank_table
from rankbench.results import ResultTable, ingest, parse_registry
from rankbench.synthgen import SynthConfig

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
    table = ingest(grid.read_text(), "csv", parse_registry(registry.read_text()))
    cube = rank_table(table, tie_epsilon=0.5)
    assert report["settings"]["tie_epsilon"] == 0.5
    assert report["n_ties"] == count_ties(cube) > count_ties(rank_table(table))
    assert report["coefficients"] == [
        randomness(cube, name).fragment(report["n_ties"]) for name in COEFFICIENTS
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
    def forbidden(path):
        raise AssertionError("read the table of a bad registry")

    monkeypatch.setattr(cli, "_read_table_file", forbidden)
    path = tmp_path / "registry.txt"
    path.write_text(REGISTRY_TEXT + "\n".join(lines) + "\n")
    assert main(["coeff", "--registry", str(path), str(tmp_path / "t.csv")]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


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
    reads = []

    def read_table_file(path, read=cli._read_table_file):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(cli, "_read_table_file", read_table_file)
    path = Path(registry if bad == "registry" else table)
    path.write_bytes(b"\xff" + path.read_bytes())
    assert main(["coeff", "--registry", registry, table]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"validation error: {path}: not UTF-8 text (")
    assert reads == ([] if bad == "registry" else [table])


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


def _run_cli(argv, cwd, level=None):
    """Run the CLI in a fresh interpreter, so that logging is configured as in real use."""
    env = {k: v for k, v in os.environ.items() if k != "RANKBENCH_LOG"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    if level is not None:
        env["RANKBENCH_LOG"] = level
    return subprocess.run(
        [sys.executable, "-m", "rankbench.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


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


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (SRC.parent / "README.md").read_text()
    example = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    for name, seed in (("results.csv", "0"), ("default.csv", "1"), ("tuned.csv", "2")):
        argv = ["synth", "--rng-seed", seed, "--output", name, "--registry-out", "reg.txt"]
        assert main(argv) == EXIT_OK
    exec(example, {})
    assert capsys.readouterr().out.startswith("w ")
