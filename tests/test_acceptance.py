"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.
"""

import functools
import json
import time

import numpy as np
from scipy.stats import spearmanr

from rankbench import (
    SynthConfig,
    TiePolicy,
    count_ties,
    fcr,
    generate,
    kendall_w,
    kendall_w_tied,
    randomness,
    rank_table,
    resolve_failures,
    subsample_convergence,
    wasserstein_w,
)
from rankbench.cli import main as cli_main
from rankbench.comparison import FrameworkResult
from rankbench.wasserstein import ww_normalizer

from oracles import (
    brute_force_pairwise_rank_distance,
    brute_force_w,
    brute_force_w1,
    table_of,
)
from test_comparison import table_from_grid, shifted, BASE
from test_concordance import term


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} [{title}] FAIL")
                raise
            print(f"criterion {num:2d} [{title}] PASS")

        return run

    return wrap


@criterion(1, "concordance oracle")
def test_01_concordance_oracle():
    start = time.time()
    rng = np.random.default_rng(20260101)
    for _ in range(1000):
        a = int(rng.integers(2, 6))
        n = int(rng.integers(1, 5))
        rows = [list(rng.permutation(a) + 1) for _ in range(n)]
        got, _ = term(kendall_w, rows)
        assert abs(got - float(brute_force_w(rows))) < 1e-12
    assert time.time() - start < 10


@criterion(2, "tie-correction fixture")
def test_02_tie_correction():
    fixture = [[1.5, 1.5, 3], [1, 2, 3], [1, 2, 3]]
    assert abs(term(kendall_w_tied, fixture)[0] - 186 / 198) < 1e-12
    rng = np.random.default_rng(20260102)
    for _ in range(1000):
        a = int(rng.integers(2, 6))
        n = int(rng.integers(1, 5))
        rows = [list(rng.permutation(a) + 1) for _ in range(n)]
        assert abs(term(kendall_w_tied, rows)[0] - term(kendall_w, rows)[0]) < 1e-12


@criterion(3, "wasserstein oracle and metric axioms")
def test_03_wasserstein_oracle():
    rng = np.random.default_rng(20260103)

    def random_multiset(n, a):
        # Rank-like values including mid-rank halves.
        return [float(v) for v in rng.integers(2, 2 * a + 1, size=n) / 2.0]

    def pairwise_sum(columns):
        # Per-test W_w ratio times its normaliser: the W1 sum over all
        # column pairs. With two columns the normaliser is 1.
        ratio, _ = term(wasserstein_w, np.column_stack(columns))
        return ratio * ww_normalizer(len(columns))

    for _ in range(1000):
        a = int(rng.integers(2, 9))
        n = int(rng.integers(1, 11))
        s1, s2 = random_multiset(n, a), random_multiset(n, a)
        got = pairwise_sum([s1, s2])
        assert abs(got - float(brute_force_w1(s1, s2))) < 1e-12
    for a in range(2, 9):
        for _ in range(50):
            n = int(rng.integers(1, 11))
            columns = [random_multiset(n, a) for _ in range(a)]
            want = sum(
                brute_force_w1(columns[i], columns[j])
                for i in range(a)
                for j in range(i)
            )
            assert abs(pairwise_sum(columns) - float(want)) < 1e-12
    for _ in range(300):
        n = int(rng.integers(1, 8))
        s = [random_multiset(n, 6) for _ in range(3)]
        d01, d10 = pairwise_sum([s[0], s[1]]), pairwise_sum([s[1], s[0]])
        assert d01 == d10
        assert (d01 == 0) == (sorted(s[0]) == sorted(s[1]))
        assert pairwise_sum([s[0], s[2]]) <= d01 + pairwise_sum([s[1], s[2]]) + 1e-12


@criterion(4, "normalizer identity")
def test_04_normalizer_identity():
    for a in range(2, 101):
        closed = ww_normalizer(a)
        assert closed == sum(v * (v - 1) / 2 for v in range(1, a + 1))
        assert closed == brute_force_pairwise_rank_distance(a)


def _coeffs(config):
    cube = rank_table(resolve_failures(generate(config)))
    return {
        "w": randomness(cube, "w").value,
        "w_tied": randomness(cube, "w_tied").value,
        "w_wasserstein": randomness(cube, "w_wasserstein").value,
    }


@criterion(5, "deterministic-limit zeroing")
def test_05_deterministic_limit():
    values = _coeffs(
        SynthConfig(noise_scale=0.0, tie_prob=0.0, fail_prob=0.0, rng_seed=1)
    )
    assert values == {"w": 0.0, "w_tied": 0.0, "w_wasserstein": 0.0}


@criterion(6, "random-limit saturation")
def test_06_random_limit():
    values = _coeffs(
        SynthConfig(
            n_algorithms=10,
            n_datasets=10,
            n_metrics=4,
            n_seeds=10,
            quality_gap=0.0,
            noise_scale=1.0,
            rng_seed=2024,
        )
    )
    assert values["w"] > 0.8


@criterion(7, "monotone noise sensitivity")
def test_07_monotone_sensitivity():
    sweep = [round(0.1 * i, 1) for i in range(11)]
    series = {"w": [], "w_tied": [], "w_wasserstein": []}
    for s in sweep:
        values = _coeffs(
            SynthConfig(
                n_algorithms=6,
                n_datasets=8,
                n_metrics=2,
                n_seeds=5,
                quality_gap=0.5,
                noise_scale=s,
                rng_seed=99,
            )
        )
        for name in series:
            series[name].append(values[name])
    for name, values in series.items():
        rho = spearmanr(sweep, values).statistic
        assert rho >= 0.9, f"{name}: spearman {rho}"


@criterion(8, "framework comparison rank contracts")
def test_08_fcr_contracts():
    dominant = fcr(
        [
            FrameworkResult("hpo", table_from_grid(shifted(BASE, 0.2))),
            FrameworkResult("default", table_from_grid(BASE)),
        ]
    )
    assert dominant.ranks == {"hpo": 1.0, "default": 2.0}

    same = table_from_grid(BASE)
    even = fcr([FrameworkResult("x", same), FrameworkResult("y", same)])
    assert even.ranks == {"x": 1.5, "y": 1.5}

    rng = np.random.default_rng(20260108)
    for _ in range(50):
        f = int(rng.integers(2, 5))
        frameworks = [
            FrameworkResult(
                f"fw{i}",
                table_from_grid(
                    {
                        alg: {
                            ds: [float(v) for v in rng.integers(0, 4, size=2) / 4]
                            for ds in ("d1", "d2")
                        }
                        for alg in ("a", "b", "c")
                    }
                ),
            )
            for i in range(f)
        ]
        total = sum(fcr(frameworks).ranks.values())
        assert abs(total - f * (f + 1) / 2) < 1e-9


@criterion(9, "convergence exactness and reproducibility")
def test_09_convergence_exactness(tmp_path):
    config = SynthConfig(
        n_algorithms=5, n_datasets=4, n_metrics=2, n_seeds=5,
        quality_gap=0.3, noise_scale=0.5, rng_seed=17,
    )
    cube = rank_table(resolve_failures(generate(config)))
    n = len(cube.suite)
    report = subsample_convergence(cube, sizes=[n], repeats=10, rng_seed=4)
    cells = {(c.size, c.coefficient): c for c in report.cells}
    for coeff in report.coefficients:
        cell = cells[n, coeff]
        assert all(v == report.full_suite_value[coeff] for v in cell.values)

    # Byte-identical CLI reports across reruns with the same rng seed.
    from rankbench.results import registry_to_text, to_csv

    table_path = tmp_path / "table.csv"
    registry_path = tmp_path / "registry.txt"
    table = generate(config)
    table_path.write_text(to_csv(table))
    registry_path.write_text(registry_to_text(table.registry))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        status = cli_main(
            [
                "converge",
                "--registry", str(registry_path),
                "--repeats", "10",
                "--rng-seed", "4",
                "--output", str(out),
                str(table_path),
            ]
        )
        assert status == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@criterion(10, "small-subsample spread: wasserstein vs plain")
def test_10_small_sample_spread():
    start = time.time()
    config = SynthConfig(
        n_algorithms=10, n_datasets=11, n_metrics=4, n_seeds=10,
        quality_gap=0.5, noise_scale=0.5, tie_prob=0.4, rng_seed=2026,
    )
    cube = rank_table(resolve_failures(generate(config)))
    assert len(cube.suite) == 44
    assert count_ties(cube) > 0
    report = subsample_convergence(
        cube, ["w", "w_wasserstein"], sizes=range(1, 12), repeats=10, rng_seed=7
    )
    sizes = range(1, 12)
    std = {(c.size, c.coefficient): c.std for c in report.cells}
    wins = sum(std[k, "w_wasserstein"] <= std[k, "w"] for k in sizes)
    assert wins >= 0.8 * len(list(sizes))
    assert time.time() - start < 60


@criterion(11, "tie-policy divergence on failure-induced ties")
def test_11_tie_policy_divergence(tmp_path):
    from rankbench.results import (
        Direction,
        MetricSpec,
        Status,
        registry_to_text,
        to_csv,
    )

    registry = {"f1": MetricSpec("f1", Direction.HIGHER_BETTER, (0.0, 1.0))}
    scores = {"a": [0.9, 0.4], "b": [0.5, 0.8]}
    rows = [
        (alg, "cora", "f1", seed, v)
        for alg, per_seed in scores.items()
        for seed, v in enumerate(per_seed)
    ] + [
        (alg, "cora", "f1", seed, None, Status.OUT_OF_MEMORY)
        for alg in ("c", "d")
        for seed in (0, 1)
    ]
    table = resolve_failures(table_of(rows, registry))

    values = {}
    for policy in (TiePolicy.MEAN_OF_TIED, TiePolicy.LOWEST_SHARED_RANK):
        values[policy] = randomness(rank_table(table, policy), "w").value
    assert values[TiePolicy.MEAN_OF_TIED] != values[TiePolicy.LOWEST_SHARED_RANK]

    # Both values surface in CLI reports.
    table_path = tmp_path / "table.csv"
    registry_path = tmp_path / "registry.txt"
    table_path.write_text(to_csv(table))
    registry_path.write_text(registry_to_text(registry))
    reported = {}
    for policy, flag in ((TiePolicy.MEAN_OF_TIED, "mean"), (TiePolicy.LOWEST_SHARED_RANK, "lowest")):
        out = tmp_path / f"{flag}.json"
        assert cli_main(
            [
                "coeff",
                "--registry", str(registry_path),
                "--tie-policy", flag,
                "--coefficients", "w",
                "--output", str(out),
                str(table_path),
            ]
        ) == 0
        report = json.loads(out.read_text())
        assert report["settings"]["tie_policy"] == flag
        reported[policy] = report["coefficients"][0]["value"]
    assert reported == values
