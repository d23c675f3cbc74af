import numpy as np
import pytest

from rankbench.concordance import kendall_w
from rankbench.ranking import RankCube, TiePolicy, rank_table
from rankbench.resampling import (
    plot_data_csv,
    subsample_convergence,
    summary_csv,
)
from rankbench.results import resolve_failures
from rankbench.synthgen import SynthConfig, generate

from test_concordance import cube_of, term


def noisy_suite(n_tests=8, rng_seed=5):
    table = generate(
        SynthConfig(
            n_algorithms=4,
            n_datasets=n_tests // 2,
            n_metrics=2,
            n_seeds=4,
            quality_gap=0.2,
            noise_scale=0.5,
            rng_seed=rng_seed,
        )
    )
    return rank_table(resolve_failures(table))


def test_full_size_subsample_is_exact():
    cube = noisy_suite()
    n = len(cube.suite)
    report = subsample_convergence(cube, sizes=[n], repeats=10)
    cells = {(c.size, c.coefficient): c for c in report.cells}
    for coeff in report.coefficients:
        cell = cells[n, coeff]
        assert all(v == report.full_suite_value[coeff] for v in cell.values)
        assert cell.std == 0.0


def test_singleton_subsamples_enumerable():
    tests = [[1, 2, 3]] * 3, [[1, 2, 3], [2, 1, 3], [1, 2, 3]]
    allowed = {round(1 - term(kendall_w, rows)[0], 12) for rows in tests}
    report = subsample_convergence(cube_of(*tests), ["w"], sizes=[1], repeats=50)
    (cell,) = report.cells
    observed = {round(v, 12) for v in cell.values}
    assert observed <= allowed
    assert len(observed) == 2  # 50 repeats hit both singletons


def test_determinism():
    cube = noisy_suite()
    a = subsample_convergence(cube, sizes=[2, 4], repeats=5, rng_seed=9)
    b = subsample_convergence(cube, sizes=[2, 4], repeats=5, rng_seed=9)
    assert a == b
    c = subsample_convergence(cube, sizes=[2, 4], repeats=5, rng_seed=10)
    assert a != c


def test_mean_converges_for_large_k():
    cube = noisy_suite(n_tests=12)
    report = subsample_convergence(cube, repeats=10, rng_seed=1)
    n = len(cube.suite)
    cells = {(c.size, c.coefficient): c for c in report.cells}
    for k in range(n // 2, n + 1):
        for coeff in report.coefficients:
            cell = cells[k, coeff]
            full = report.full_suite_value[coeff]
            tol = 3 * cell.std / np.sqrt(report.repeats) + 1e-12
            assert abs(cell.mean - full) <= max(tol, 0.05)


def test_errors():
    cube = noisy_suite()
    with pytest.raises(ValueError, match="out of range"):
        subsample_convergence(cube, sizes=[0])
    with pytest.raises(ValueError, match="out of range"):
        subsample_convergence(cube, sizes=[len(cube.suite) + 1])
    with pytest.raises(ValueError, match="coefficient"):
        subsample_convergence(cube, coefficients=[])
    with pytest.raises(ValueError, match="unknown coefficient"):
        subsample_convergence(cube, coefficients=["spearman"])
    with pytest.raises(ValueError, match="empty suite"):
        subsample_convergence(
            RankCube((), (0,), ("a", "b"), TiePolicy.MEAN_OF_TIED, np.empty((0, 1, 2)))
        )


def test_csv_outputs():
    report = subsample_convergence(noisy_suite(), ["w"], sizes=[1, 2], repeats=3)
    plot = plot_data_csv(report).splitlines()
    assert plot[0] == "size,repeat,coefficient,value"
    assert len(plot) == 1 + 2 * 3
    summary = summary_csv(report).splitlines()
    assert summary[0] == "size,coefficient,mean,std"
    assert len(summary) == 1 + 2


def test_report_metadata():
    cube = noisy_suite()
    report = subsample_convergence(cube, ["w"], sizes=[1], repeats=2, rng_seed=3)
    assert report.rng_seed == 3
    assert report.rng_algorithm == "numpy-pcg64-seedsequence"
    assert len(report.provenance) == 64
    # Provenance tracks the input ranks, not the sampling settings.
    other = subsample_convergence(cube, ["w"], sizes=[1], repeats=4, rng_seed=8)
    assert other.provenance == report.provenance
