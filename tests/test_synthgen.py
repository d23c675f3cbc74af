import numpy as np
import pytest

from rankbench.concordance import randomness
from rankbench.ranking import count_ties, rank_table
from rankbench.results import STATUSES, Status, ingest, resolve_failures, to_csv
from rankbench.synthgen import SynthConfig, generate


def coefficients(config):
    cube = rank_table(resolve_failures(generate(config)))
    return (
        randomness(cube, "w").value,
        randomness(cube, "w_tied").value,
        randomness(cube, "w_wasserstein").value,
        cube,
    )


def test_deterministic_given_seed():
    cfg = SynthConfig(noise_scale=0.5, tie_prob=0.2, fail_prob=0.1, rng_seed=11)
    assert to_csv(generate(cfg)) == to_csv(generate(cfg))
    other = SynthConfig(noise_scale=0.5, tie_prob=0.2, fail_prob=0.1, rng_seed=12)
    assert to_csv(generate(other)) != to_csv(generate(cfg))


def test_grid_shape():
    table = generate(SynthConfig(n_algorithms=3, n_datasets=2, n_metrics=2, n_seeds=4))
    assert table.n_algorithms == 3
    assert table.n_seeds == 4
    assert len(table.suite) == 4
    assert table.values.shape == table.status.shape == (2 * 2, 4, 3)


def test_deterministic_limit_zeroes_all_coefficients():
    w, wt, ww, _ = coefficients(
        SynthConfig(noise_scale=0.0, tie_prob=0.0, fail_prob=0.0, rng_seed=1)
    )
    assert w == 0.0
    assert wt == 0.0
    assert ww == 0.0


def test_random_limit_saturates():
    w, _, _, _ = coefficients(
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
    assert w > 0.8


def test_all_failures_fully_tied():
    w, wt, ww, cube = coefficients(SynthConfig(fail_prob=1.0, rng_seed=3))
    assert wt == 0.0
    # Identical rank distributions are total overlap for the
    # Wasserstein coefficient, the opposite reading of the same ties.
    assert ww == 1.0
    result = randomness(cube, "w_tied")
    assert result.warnings  # degenerate convention path


def test_tie_prob_produces_ties():
    table = generate(
        SynthConfig(
            n_algorithms=6,
            n_datasets=5,
            n_metrics=2,
            n_seeds=5,
            quality_gap=0.2,
            noise_scale=0.5,
            tie_prob=0.5,
            rng_seed=4,
        )
    )
    assert count_ties(rank_table(resolve_failures(table))) > 0


def test_monotone_noise_sensitivity():
    from scipy.stats import spearmanr

    sweep = [round(0.1 * i, 1) for i in range(11)]
    results = {"w": [], "w_tied": [], "w_wasserstein": []}
    for s in sweep:
        w, wt, ww, _ = coefficients(
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
        results["w"].append(w)
        results["w_tied"].append(wt)
        results["w_wasserstein"].append(ww)
    for name, values in results.items():
        rho = spearmanr(sweep, values).statistic
        assert rho >= 0.9, f"{name}: spearman {rho} over {values}"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_algorithms": 1},
        {"n_seeds": 0},
        {"tie_prob": 1.5},
        {"fail_prob": -0.1},
        {"noise_scale": -1.0},
        {"quality_gap": float("inf")},
        {"quality_gap": float("nan")},
        {"noise_scale": float("inf")},
        {"noise_scale": 1e308},  # finite, but the score range is not
        {"tie_prob": float("nan")},
    ],
)
def test_invalid_configs(kwargs):
    with pytest.raises(ValueError):
        SynthConfig(**kwargs)


def test_failure_records_have_oom_status():
    table = generate(SynthConfig(fail_prob=1.0, rng_seed=5))
    assert (table.status == STATUSES.index(Status.OUT_OF_MEMORY)).all()
    assert np.isnan(table.values).all()


@pytest.mark.parametrize(
    "config",
    [
        SynthConfig(noise_scale=0.5, tie_prob=0.2, fail_prob=0.1, rng_seed=11),
        SynthConfig(n_algorithms=11, n_datasets=12, n_metrics=3, n_seeds=10, rng_seed=1),
        SynthConfig(quality_gap=0.0, noise_scale=0.0, tie_prob=1.0, fail_prob=0.5),
    ],
)
def test_cubes_match_their_csv_ingested(config):
    table = generate(config)
    again = ingest(to_csv(table), "csv", table.registry)
    assert (again.suite, again.seeds, again.algorithms) == (
        table.suite,
        table.seeds,
        table.algorithms,
    )
    np.testing.assert_array_equal(again.values, table.values)
    np.testing.assert_array_equal(again.status, table.status)
    assert np.signbit(again.values).tolist() == np.signbit(table.values).tolist()
