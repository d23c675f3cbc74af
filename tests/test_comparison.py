from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import table_of
from rankbench.comparison import Granularity, fcr
from rankbench.results import (
    Direction,
    MetricSpec,
    Status,
    ValidationError,
)

REG = {"score": MetricSpec("score", Direction.HIGHER_BETTER)}


def table_from_grid(grid, metric="score", registry=REG):
    """grid[alg][dataset] -> list of per-seed scores."""
    rows = [
        (alg, ds, metric, seed, float(v))
        for alg, per_ds in grid.items()
        for ds, seeds in per_ds.items()
        for seed, v in enumerate(seeds)
    ]
    return table_of(rows, registry)


def shifted(grid, delta):
    return {
        alg: {ds: [v + delta for v in seeds] for ds, seeds in per_ds.items()}
        for alg, per_ds in grid.items()
    }


BASE = {
    "a": {"d1": [0.5, 0.6], "d2": [0.4, 0.5], "d3": [0.7, 0.6]},
    "b": {"d1": [0.3, 0.2], "d2": [0.6, 0.7], "d3": [0.1, 0.2]},
}


def test_dominance():
    result = fcr({"hpo": table_from_grid(shifted(BASE, 0.2)), "default": table_from_grid(BASE)})
    assert result.ranks == {"hpo": 1.0, "default": 2.0}
    assert result.units == 6


def test_five_of_six_units():
    better = shifted(BASE, 0.2)
    better["b"]["d2"] = [0.1, 0.1]  # loses this single unit
    result = fcr({"hpo": table_from_grid(better), "default": table_from_grid(BASE)})
    assert result.ranks["hpo"] == pytest.approx(7 / 6)
    assert result.ranks["default"] == pytest.approx(11 / 6)


def test_identical_tables_split_evenly():
    t = table_from_grid(BASE)
    result = fcr({"x": t, "y": t})
    assert result.ranks == {"x": 1.5, "y": 1.5}


def test_antisymmetry():
    ta, tb = table_from_grid(shifted(BASE, 0.1)), table_from_grid(BASE)
    fwd = fcr({"p": ta, "q": tb})
    rev = fcr({"p": tb, "q": ta})
    assert fwd.ranks["p"] == rev.ranks["q"]
    assert fwd.ranks["q"] == rev.ranks["p"]


def test_monotone_rescaling_invariance():
    # Single seed so each unit score is the raw value; exp applied to
    # every framework simultaneously preserves all comparisons.
    def rescale(grid):
        return {
            alg: {ds: [float(np.exp(v)) for v in seeds] for ds, seeds in per_ds.items()}
            for alg, per_ds in grid.items()
        }

    single = {alg: {ds: s[:1] for ds, s in per.items()} for alg, per in BASE.items()}
    single_up = shifted(single, 0.05)
    base_result = fcr({"p": table_from_grid(single), "q": table_from_grid(single_up)})
    rescaled_result = fcr(
        {"p": table_from_grid(rescale(single)), "q": table_from_grid(rescale(single_up))}
    )
    assert base_result.ranks == rescaled_result.ranks


def test_per_test_granularity_averages_algorithms():
    # q is better on the algorithm-mean of every test even though it
    # loses on algorithm b.
    p = {"a": {"d1": [0.9]}, "b": {"d1": [0.5]}}
    q = {"a": {"d1": [0.2]}, "b": {"d1": [1.4]}}
    result = fcr({"p": table_from_grid(p), "q": table_from_grid(q)}, Granularity.PER_TEST)
    assert result.ranks == {"p": 2.0, "q": 1.0}
    assert result.units == 1


def test_lower_better_direction_respected():
    reg = {"loss": MetricSpec("loss", Direction.LOWER_BETTER)}
    p = table_from_grid({"a": {"d1": [0.1]}, "b": {"d1": [0.2]}}, "loss", reg)
    q = table_from_grid({"a": {"d1": [0.5]}, "b": {"d1": [0.9]}}, "loss", reg)
    result = fcr({"p": p, "q": q})
    assert result.ranks == {"p": 1.0, "q": 2.0}


def test_failed_seed_ranks_framework_last_on_unbounded_metric():
    # A failed run on an unbounded lower-better metric scores +inf, so its
    # seed mean is +inf: the framework ranks last on that unit, however
    # good its other seeds are.
    registry = {"loss": MetricSpec("loss", Direction.LOWER_BETTER)}

    def framework(grid):
        rows = [
            (alg, "d", "loss", seed, v, Status.OUT_OF_MEMORY if v is None else Status.OK)
            for alg, seeds in grid.items()
            for seed, v in enumerate(seeds)
        ]
        return table_of(rows, registry)

    a = framework({"x": [1.0, None], "y": [2.0, 2.0]})
    b = framework({"x": [3.0, 3.0], "y": [1.0, None]})
    assert fcr({"A": a, "B": b}).ranks == {"A": 1.5, "B": 1.5}


def test_mismatched_grids_rejected():
    other = {k: v for k, v in BASE.items()}
    other["c"] = other.pop("b")
    with pytest.raises(ValidationError, match="does not match"):
        fcr({"p": table_from_grid(BASE), "q": table_from_grid(other)})


def test_mismatched_directions_rejected():
    flipped = {"score": MetricSpec("score", Direction.LOWER_BETTER)}
    with pytest.raises(ValidationError, match="metric 'score' direction mismatch"):
        fcr({"p": table_from_grid(BASE), "q": table_from_grid(BASE, registry=flipped)})


def test_empty_suite_rejected():
    table = table_from_grid(BASE)
    empty = replace(table, suite=(), values=table.values[:0], status=table.status[:0])
    with pytest.raises(ValidationError, match=r"^empty suite$"):
        fcr({"p": empty, "q": empty})


def test_fewer_than_two_frameworks_rejected():
    with pytest.raises(ValueError):
        fcr({"p": table_from_grid(BASE)})


@given(st.integers(2, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_rank_sum_conservation(f, data):
    algs = ["a", "b", "c"]
    datasets = ["d1", "d2"]
    frameworks = {}
    for i in range(f):
        grid = {
            alg: {
                ds: [
                    data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
                    for _ in range(2)
                ]
                for ds in datasets
            }
            for alg in algs
        }
        frameworks[f"fw{i}"] = table_from_grid(grid)
    for granularity in Granularity:
        result = fcr(frameworks, granularity)
        assert sum(result.ranks.values()) == pytest.approx(f * (f + 1) / 2, abs=1e-9)
