"""Checks of the benchmark itself: generator, numpy reference, report
checks, span summaries and a smoke-size run of every workload.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import tracing
import workloads
from oracles import brute_force_pairwise_rank_distance, brute_force_w, brute_force_w1

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = workloads.MANIFEST
NAMES = list(MANIFEST["workloads"])
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generator_is_seeded():
    first = workloads.generate("fcr-json", 5, smoke=True)
    again = workloads.generate("fcr-json", 5, smoke=True)
    other = workloads.generate("fcr-json", 6, smoke=True)
    assert first.sha256() == again.sha256()
    assert first.sha256()["default.json"] != other.sha256()["default.json"]


@pytest.mark.parametrize("workload", NAMES)
def test_generator_shape(workload):
    spec = MANIFEST["workloads"][workload]
    grids = workloads.make_grids(workload, 0)
    grid = grids["default"]
    d, m, s, a = grid.values.shape
    assert (a, d, s) == tuple(spec["shape"][k] for k in ("algorithms", "datasets", "seeds"))
    assert grid.values.size == spec["cells"] and d * m == spec["tests"]
    assert set(grids) == set(spec["grids"].values())
    for g in grids.values():
        ok = g.values[~g.failed]
        assert np.isfinite(ok).all() and np.isnan(g.values[g.failed]).all()
        assert 0.0 < g.failed.mean() < 0.1
        for j, metric in enumerate(g.metrics):
            if metric.bounds is not None:
                # OK scores never reach the worst endpoint failures resolve to.
                col = g.values[:, j][~g.failed[:, j]]
                assert (col > metric.bounds[0]).all() and (col < metric.bounds[1]).all()


def _plain_ranks(keys, lowest):
    """Pure-Python ranking of one row of ascending keys (inf = failed)."""
    keys = [float(k) for k in keys]
    ranks, groups = [], []
    for k in keys:
        less = sum(other < k for other in keys)
        size = sum(other == k for other in keys)
        ranks.append(less + 1.0 if lowest else less + (size + 1) / 2.0)
    for k in set(keys):
        if keys.count(k) >= 2:
            groups.append(keys.count(k))
    return ranks, groups


@pytest.mark.parametrize("workload", ["coeff-unbounded", "coeff-wide-bounded", "converge-many-tests"])
def test_reference_matches_oracles(workload):
    grid = workloads.generate(workload, 7, smoke=True).grids["default"]
    lowest = workload == "coeff-wide-bounded"
    keys = reference.rank_keys(grid)
    ranks, correction, n_ties = reference.rank(keys, lowest)
    terms = reference.per_test_terms(ranks, correction)
    n_tests, n, a = ranks.shape
    total_groups = 0
    for t in range(n_tests):
        rows, sizes = [], []
        for s in range(n):
            row, groups = _plain_ranks(keys[t, s], lowest)
            rows.append(row)
            sizes.extend(groups)
        total_groups += len(sizes)
        assert ranks[t].tolist() == rows
        assert abs(terms["w"][t] - float(brute_force_w(rows))) < 1e-12
        columns = [[row[i] for row in rows] for i in range(a)]
        pairwise = sum(brute_force_w1(columns[i], columns[j]) for i in range(a) for j in range(i))
        want_ww = pairwise / brute_force_pairwise_rank_distance(a)
        assert abs(terms["w_wasserstein"][t] - float(want_ww)) < 1e-12
        if not lowest:
            sums = [sum(Fraction(r) for r in col) for col in columns]
            corr = sum(g**3 - g for g in sizes)
            assert correction[t] == corr
            den = n * n * a * (a * a - 1) - n * corr
            num = 12 * sum(r * r for r in sums) - 3 * n * n * a * (a + 1) ** 2
            assert abs(terms["w_tied"][t] - (float(num / den) if den else 1.0)) < 1e-12
    assert n_ties == total_groups
    # Failed cells share the bottom rank of their row.
    failed = np.isinf(keys)
    assert (ranks[failed] == np.broadcast_to(ranks.max(axis=-1, keepdims=True), ranks.shape)[failed]).all()


def test_convergence_full_suite_is_exact():
    terms = {"w": np.array([0.1, 0.4, 0.7]), "w_tied": np.array([0.2, 0.2, 0.2])}
    conv = reference.convergence(terms, ["w", "w_tied"], repeats=4, rng_seed=3)
    full = [cell for cell in conv["cells"] if cell[0] == 3]
    assert [c[1] for c in full] == ["w", "w_tied"]
    assert all(np.allclose(c[2], conv["full"][c[1]]) for c in full)
    assert len(conv["cells"]) == 3 * 2


def _cli_run(workload, directory):
    inputs = workloads.generate(workload, 3, smoke=True)
    inputs.write(directory)
    subprocess.run([sys.executable, "-c", run.CLI_ENTRY, *inputs.argv], cwd=directory,
                   env=run.child_env(), check=True, stdout=subprocess.DEVNULL)
    return inputs


def _bump_per_test(report):
    report["coefficients"][1]["per_test"][2]["w"] += 1e-6


def _bump_cell_mean(report):
    report["convergence"]["cells"][5]["mean"] += 1e-6


def _bump_fcr(report):
    report["fcr"]["fcr"]["tuned"] += 1e-6


def _bump_ties(report):
    report["n_ties"] += 1


@pytest.mark.parametrize(
    "workload,corrupt",
    [
        ("coeff-unbounded", _bump_per_test),
        ("coeff-wide-bounded", _bump_ties),
        ("converge-many-tests", _bump_cell_mean),
        ("fcr-json", _bump_fcr),
    ],
)
def test_corrupted_report_counts_as_error(tmp_path, workload, corrupt):
    inputs = _cli_run(workload, tmp_path)
    checker = run.Checker(tmp_path, inputs, reference.expected(inputs))
    checker.record(0)
    assert checker.first_errors == [] and checker.failed == 0

    path = tmp_path / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    corrupt(report)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    checker.record(0)  # differs from the first invocation
    assert checker.failed == 1

    fresh = run.Checker(tmp_path, inputs, checker.expected)
    fresh.record(0)  # wrong against the reference
    assert fresh.first_errors and fresh.failed == 1


def test_summarize_folds_same_layer_calls():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("results.ingest", 1.0, 3.0, 0, 0),
        ("ranking.build_rank_matrices", 3.0, 6.0, 0, 0),
        ("results.scores_for_test", 3.5, 4.5, 2, 0),
        ("ranking.rank_row", 4.5, 5.0, 2, 0),
        ("wasserstein.ww_randomness", 6.0, 9.0, 0, 0),
        ("wasserstein.ww_test", 6.5, 8.5, 5, 0),
        ("wasserstein.w1_distance", 7.0, 8.0, 6, 0),
    ]
    summary = tracing.summarize(spans)
    assert summary["self_s"] == {
        "cli.main": 2.0,
        "results.ingest": 2.0,
        "ranking.build_rank_matrices": 2.0,
        "results.scores_for_test": 1.0,
        "wasserstein.ww_randomness": 3.0,
    }
    assert summary["calls"]["wasserstein.w1_distance"] == 1


def test_benchmark_json_matches_manifest():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES
    for kind in ("end_to_end", "per_layer"):
        assert {m["name"]: m["unit"] for m in BENCHMARK[kind]} == {
            name: spec["unit"] for name, spec in MANIFEST[kind].items()
        }
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"
    )


def _results(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_every_workload(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "2", "--seconds", "0.2",
         "--trace", trace, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = _results(proc.stdout)
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert len(results) == len(NAMES)
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[kind]}
    assert proc.stdout.splitlines()[-1] == json.dumps(results[-1])


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not _results(proc.stdout)
