"""Convergence study: coefficient spread under test subsampling.

For each subsample size k, k distinct tests are drawn uniformly without
replacement and the draw is repeated (ten times by default). Every
coefficient is one minus the mean of per-test terms that do not depend
on the subsample, so each is computed once over the full suite with
``concordance.randomness`` and a subsample's value is one minus the
mean over its drawn terms. The report holds these values as one
sizes × coefficients × repeats array, with the mean and std of each
(size, coefficient) taken along the repeats axis. Small-k spread shows
how quickly a coefficient converges to its full-suite value as the
suite grows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .concordance import coefficients_for, randomness
from .ranking import RankCube

RNG_ALGORITHM = "numpy-pcg64-seedsequence"


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Coefficient values of every subsample, held as arrays.

    ``values[i, j, r]`` is coefficient ``coefficients[j]`` on repeat
    ``r``'s draw of ``sizes[i]`` tests. ``mean`` and ``std`` reduce it
    along the repeats axis; ``std`` is the sample std (ddof=1), and 0.0
    when every repeat agrees or there is a single repeat.
    """

    sizes: tuple[int, ...]
    repeats: int
    coefficients: tuple[str, ...]
    rng_seed: int
    rng_algorithm: str
    provenance: str  # sha256 of the canonical rank-cube serialization
    full_suite_value: dict[str, float]
    values: np.ndarray  # sizes x coefficients x repeats
    mean: np.ndarray  # sizes x coefficients
    std: np.ndarray  # sizes x coefficients
    warnings: tuple[str, ...]  # kernel warnings of the full-suite terms

    def fragment(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "repeats": self.repeats,
            "coefficients": list(self.coefficients),
            "rng_seed": self.rng_seed,
            "rng_algorithm": self.rng_algorithm,
            "provenance": self.provenance,
            "full_suite_value": dict(self.full_suite_value),
            "cells": [
                {"size": k, "coefficient": c, "values": v, "mean": m, "std": sd}
                for k, vs, ms, sds in zip(
                    self.sizes, self.values.tolist(), self.mean.tolist(), self.std.tolist()
                )
                for c, v, m, sd in zip(self.coefficients, vs, ms, sds)
            ],
        }


def _digest(cube: RankCube) -> str:
    h = hashlib.sha256()
    for test, ranks in zip(cube.suite, cube.ranks):
        h.update(repr((test, cube.policy.value, cube.algorithms, cube.seeds)).encode())
        h.update(np.ascontiguousarray(ranks).tobytes())
    return h.hexdigest()


def subsample_convergence(
    cube: RankCube,
    coefficients: Sequence[str] | None = None,
    sizes: Sequence[int] | None = None,
    repeats: int = 10,
    rng_seed: int = 0,
) -> ConvergenceReport:
    """Recompute coefficients on random test subsamples of each size.

    Deterministic for a given rng_seed: each (size, repeat) pair gets
    its own RNG stream derived from the seed, so the draws do not depend
    on evaluation order. At k = number of tests every repeat reproduces
    the full-suite value exactly. By default every coefficient defined
    for the cube's tie policy is studied.
    """
    n_tests = len(cube.suite)
    if not n_tests:
        raise ValueError("empty suite")
    if coefficients is None:
        coefficients = coefficients_for(cube.policy)
    if not coefficients:
        raise ValueError("empty coefficient set")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if sizes is None:
        sizes = range(1, n_tests + 1)
    sizes = [int(k) for k in sizes]
    for k in sizes:
        if not 1 <= k <= n_tests:
            raise ValueError(f"subsample size {k} out of range [1, {n_tests}]")

    results = [randomness(cube, c) for c in coefficients]
    terms = [np.array(r.per_test) for r in results]

    values = np.empty((len(sizes), len(coefficients), repeats))
    for i, k in enumerate(sizes):
        draws = []
        for rep in range(repeats):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=rng_seed, spawn_key=(k, rep))
            )
            draws.append(np.sort(rng.choice(n_tests, size=k, replace=False)))
        draws = np.array(draws)  # repeats x k test indexes
        for j, per_test in enumerate(terms):
            values[i, j] = 1.0 - per_test[draws].mean(axis=1)

    if repeats == 1:
        std = np.zeros(values.shape[:2])
    else:
        agree = (values == values[..., :1]).all(axis=-1)
        std = np.where(agree, 0.0, values.std(axis=-1, ddof=1))

    return ConvergenceReport(
        sizes=tuple(sizes),
        repeats=repeats,
        coefficients=tuple(coefficients),
        rng_seed=rng_seed,
        rng_algorithm=RNG_ALGORITHM,
        provenance=_digest(cube),
        full_suite_value={r.coefficient: r.value for r in results},
        values=values,
        mean=values.mean(axis=-1),
        std=std,
        warnings=tuple(w for r in results for w in r.warnings),
    )


def plot_data_csv(report: ConvergenceReport) -> list[str]:
    """Long-format CSV ``size,repeat,coefficient,value``: the header, then one piece per size."""
    pieces = ["size,repeat,coefficient,value\n"]
    for k, by_coefficient in zip(report.sizes, report.values):
        pieces.append(
            "".join(
                [
                    f"{k},{rep},{c},{value!r}\n"
                    for c, values in zip(report.coefficients, by_coefficient.tolist())
                    for rep, value in enumerate(values)
                ]
            )
        )
    return pieces


def summary_csv(report: ConvergenceReport) -> list[str]:
    """Summary CSV ``size,coefficient,mean,std``: the header, then one piece per size."""
    pieces = ["size,coefficient,mean,std\n"]
    for k, means, stds in zip(report.sizes, report.mean.tolist(), report.std.tolist()):
        pieces.append(
            "".join(
                [f"{k},{c},{m!r},{sd!r}\n" for c, m, sd in zip(report.coefficients, means, stds)]
            )
        )
    return pieces
