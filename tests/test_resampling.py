import numpy as np
import pytest

from rankbench import resampling
from rankbench.concordance import coefficients_for, kendall_w
from rankbench.ranking import RankCube, TiePolicy, rank_table
from rankbench.resampling import (
    plot_data_csv,
    subsample_convergence,
    summary_csv,
)
from rankbench.results import TestId, resolve_failures
from rankbench.synthgen import SynthConfig, generate

from oracles import loop_subsample_convergence
from test_concordance import cube_of, term


def noisy_suite(n_tests=8, rng_seed=5, policy=TiePolicy.MEAN_OF_TIED, tie_prob=0.0):
    table = generate(
        SynthConfig(
            n_algorithms=4,
            n_datasets=n_tests // 2,
            n_metrics=2,
            n_seeds=4,
            quality_gap=0.2,
            noise_scale=0.5,
            tie_prob=tie_prob,
            rng_seed=rng_seed,
        )
    )
    return rank_table(resolve_failures(table), policy)


# Seeds of one to ten 32-bit words: a spawn key pads a seed to the
# 4-word pool, so seeds past 2**128 mix the key in later.
SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5, 2**300 - 2**150 + 7]


@pytest.mark.parametrize("block", [4096, 7])
@pytest.mark.parametrize("rng_seed", [*sorted({*SEEDS, 1, 901, 2**127}), np.uint64(2**64 - 1)])
def test_one_pass_seeding_gives_numpys_pcg64_states(rng_seed, block, monkeypatch):
    monkeypatch.setattr(resampling, "_SEED_BLOCK", block)
    sizes, repeats = [1, 2, 77, 1200, 2**31], 3
    states = list(resampling._pcg64_states(rng_seed, sizes, repeats))
    expected = [
        np.random.PCG64(np.random.SeedSequence(rng_seed, spawn_key=(k, rep))).state
        for k in sizes
        for rep in range(repeats)
    ]
    assert states == expected  # state and inc, 128 bits each


@pytest.mark.parametrize("rng_seed", SEEDS)
@pytest.mark.parametrize("repeats", [1, 2, 10])
@pytest.mark.parametrize("sizes", [None, [9, 1, 30, 9, 2, 30, 17]], ids=["all", "unsorted-duplicates"])
@pytest.mark.parametrize("policy", list(TiePolicy))
def test_convergence_replays_one_generator_per_stream(policy, sizes, repeats, rng_seed):
    cube = noisy_suite(n_tests=30, policy=policy, tie_prob=0.2)
    coefficients = coefficients_for(policy)
    report = subsample_convergence(cube, sizes=sizes, repeats=repeats, rng_seed=rng_seed)
    expected = loop_subsample_convergence(
        cube, coefficients, sizes or range(1, 31), repeats, rng_seed
    )
    for got, want in zip((report.values, report.mean, report.std), expected):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_tests", [10_000, 10_001])
def test_unshuffled_draws_keep_the_sets_at_numpys_cutoffs(n_tests):
    # Up to 10,000 tests the draw skips choice's shuffle. Above, numpy's cutoff
    # between a tail shuffle and Floyd's algorithm is n // 50 with the shuffle
    # and n // 20 without, so the sets would differ from n // 50 + 1 to n // 20.
    # A numpy release that moves either cutoff fails here.
    rng = np.random.default_rng(3)
    ranks = rng.permuted(np.tile(np.arange(1.0, 6.0), (n_tests, 3, 1)), axis=2)
    cube = RankCube(
        suite=tuple(TestId(f"d{t:05d}", "m") for t in range(n_tests)),
        seeds=(0, 1, 2),
        algorithms=("a", "b", "c", "d", "e"),
        policy=TiePolicy.MEAN_OF_TIED,
        ranks=ranks,
    )
    sizes = [n_tests // 50, n_tests // 50 + 1, n_tests // 20, n_tests // 20 + 1, n_tests]
    report = subsample_convergence(cube, sizes=sizes, repeats=2, rng_seed=11)
    expected = loop_subsample_convergence(cube, report.coefficients, sizes, 2, 11)
    for got, want in zip((report.values, report.mean, report.std), expected):
        assert np.array_equal(got, want)


def test_full_size_subsample_is_exact():
    cube = noisy_suite()
    n = len(cube.suite)
    report = subsample_convergence(cube, sizes=[n], repeats=10)
    assert report.values.shape == (1, len(report.coefficients), 10)
    for j, coeff in enumerate(report.coefficients):
        assert (report.values[0, j] == report.full_suite_value[coeff]).all()
        assert report.std[0, j] == 0.0


def test_singleton_subsamples_enumerable():
    tests = [[1, 2, 3]] * 3, [[1, 2, 3], [2, 1, 3], [1, 2, 3]]
    allowed = {round(1 - term(kendall_w, rows)[0], 12) for rows in tests}
    report = subsample_convergence(cube_of(*tests), ["w"], sizes=[1], repeats=50)
    assert report.values.shape == (1, 1, 50)
    observed = {round(v, 12) for v in report.values.ravel().tolist()}
    assert observed <= allowed
    assert len(observed) == 2  # 50 repeats hit both singletons


def test_determinism():
    cube = noisy_suite()
    a = subsample_convergence(cube, sizes=[2, 4], repeats=5, rng_seed=9)
    b = subsample_convergence(cube, sizes=[2, 4], repeats=5, rng_seed=9)
    for name in ("values", "mean", "std"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.full_suite_value, a.provenance) == (b.full_suite_value, b.provenance)
    c = subsample_convergence(cube, sizes=[2, 4], repeats=5, rng_seed=10)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("repeats", [1, 2, 7, 40])
def test_mean_and_std_reduce_the_repeats_axis(repeats):
    cube = noisy_suite()
    report = subsample_convergence(cube, sizes=[1, 3, 3, 8], repeats=repeats, rng_seed=2)
    shape = (4, len(report.coefficients))
    assert report.values.shape == (*shape, repeats)
    assert report.mean.shape == report.std.shape == shape
    for i, j in np.ndindex(shape):
        values = report.values[i, j].tolist()
        assert report.mean[i, j] == np.mean(values)
        if len(set(values)) == 1:
            assert report.std[i, j] == 0.0
        else:
            assert report.std[i, j] == np.std(values, ddof=1)
    # Size 8 is the whole suite, so every repeat agrees.
    assert (report.std[3] == 0.0).all()


def test_mean_converges_for_large_k():
    cube = noisy_suite(n_tests=12)
    report = subsample_convergence(cube, repeats=10, rng_seed=1)
    n = len(cube.suite)
    assert report.sizes == tuple(range(1, n + 1))
    for k in range(n // 2, n + 1):
        for j, coeff in enumerate(report.coefficients):
            full = report.full_suite_value[coeff]
            tol = 3 * report.std[k - 1, j] / np.sqrt(report.repeats) + 1e-12
            assert abs(report.mean[k - 1, j] - full) <= max(tol, 0.05)


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
    with pytest.raises(ValueError, match=r"^repeats must be >= 1$"):
        subsample_convergence(cube, repeats=0)
    # Usage errors of converge, checked for a library call too: not a
    # size-1 draw, a study with no sizes to plot, or duplicate rows under
    # one full-suite key.
    with pytest.raises(ValueError, match=r"^subsample sizes must be integers, got \[2, 1\.5\]$"):
        subsample_convergence(cube, sizes=[2, 1.5])
    for sizes in ([], np.array([], dtype=int)):
        with pytest.raises(ValueError, match=r"^empty size set$"):
            subsample_convergence(cube, sizes=sizes)
    with pytest.raises(ValueError, match=r"^repeated coefficient in \['w', 'w'\]$"):
        subsample_convergence(cube, coefficients=["w", "w"])
    # Not read as numpy's TypeError from np.empty, nor as 1 from True.
    for repeats in (2.5, True, "3", None):
        with pytest.raises(ValueError, match=rf"^repeats must be an integer, got {repeats!r}$"):
            subsample_convergence(cube, repeats=repeats)
    # Not read letter by letter: "w" is not ("w",).
    for name in ("w_tied", "w", ""):
        with pytest.raises(
            ValueError, match=rf"^coefficients must be a sequence of names, got {name!r}$"
        ):
            subsample_convergence(cube, coefficients=name)
    with pytest.raises(ValueError, match="empty suite"):
        subsample_convergence(
            RankCube((), (0,), ("a", "b"), TiePolicy.MEAN_OF_TIED, np.empty((0, 1, 2)))
        )


def test_integer_sizes_of_any_integral_type_are_read_as_ints():
    cube = noisy_suite()
    study = subsample_convergence(cube, sizes=np.array([3, 1]), repeats=2)
    assert study.sizes == (3, 1) and all(type(k) is int for k in study.sizes)
    listed = subsample_convergence(cube, sizes=[3, 1], repeats=2)
    assert study.values.tobytes() == listed.values.tobytes()
    assert type(subsample_convergence(cube, sizes=[1], repeats=np.int64(2)).repeats) is int


def test_csv_outputs():
    report = subsample_convergence(noisy_suite(), ["w"], sizes=[1, 2], repeats=3)
    plot = "".join(plot_data_csv(report)).splitlines()
    assert plot[0] == "size,repeat,coefficient,value"
    assert len(plot) == 1 + 2 * 3
    summary = "".join(summary_csv(report)).splitlines()
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
