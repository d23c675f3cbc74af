"""Convergence study: coefficient spread under test subsampling.

For each subsample size k, k distinct tests are drawn uniformly without
replacement and the draw is repeated (ten times by default). Every
coefficient is one minus the mean of per-test terms that do not depend
on the subsample, so each is computed once over the full suite with
``concordance.randomness`` and a subsample's value is one minus the
mean over its drawn terms. Small-k spread shows how quickly a
coefficient converges to its full-suite value as the suite grows.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .concordance import coefficients_for, randomness
from .ranking import RankCube

RNG_ALGORITHM = "numpy-pcg64-seedsequence"


@dataclass(frozen=True)
class ConvergenceCell:
    size: int
    coefficient: str
    values: tuple[float, ...]
    mean: float
    std: float  # sample std (ddof=1), 0 for a single repeat


@dataclass(frozen=True)
class ConvergenceReport:
    sizes: tuple[int, ...]
    repeats: int
    coefficients: tuple[str, ...]
    rng_seed: int
    rng_algorithm: str
    provenance: str  # sha256 of the canonical rank-cube serialization
    full_suite_value: dict[str, float]
    cells: tuple[ConvergenceCell, ...]
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
                {
                    "size": c.size,
                    "coefficient": c.coefficient,
                    "values": list(c.values),
                    "mean": c.mean,
                    "std": c.std,
                }
                for c in self.cells
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
    terms = {r.coefficient: np.array(r.per_test) for r in results}

    cells = []
    for k in sizes:
        draws = []
        for rep in range(repeats):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=rng_seed, spawn_key=(k, rep))
            )
            draws.append(np.sort(rng.choice(n_tests, size=k, replace=False)))
        draws = np.array(draws)  # repeats x k test indexes
        for c in coefficients:
            values = tuple((1.0 - terms[c][draws].mean(axis=1)).tolist())
            if repeats == 1 or len(set(values)) == 1:
                std = 0.0
            else:
                std = float(np.std(values, ddof=1))
            cells.append(
                ConvergenceCell(
                    size=k,
                    coefficient=c,
                    values=values,
                    mean=float(np.mean(values)),
                    std=std,
                )
            )

    return ConvergenceReport(
        sizes=tuple(sizes),
        repeats=repeats,
        coefficients=tuple(coefficients),
        rng_seed=rng_seed,
        rng_algorithm=RNG_ALGORITHM,
        provenance=_digest(cube),
        full_suite_value={r.coefficient: r.value for r in results},
        cells=tuple(cells),
        warnings=tuple(w for r in results for w in r.warnings),
    )


def plot_data_csv(report: ConvergenceReport) -> str:
    """Long-format CSV: size,repeat,coefficient,value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["size", "repeat", "coefficient", "value"])
    for c in report.cells:
        for rep, value in enumerate(c.values):
            writer.writerow([c.size, rep, c.coefficient, repr(value)])
    return buf.getvalue()


def summary_csv(report: ConvergenceReport) -> str:
    """Summary CSV: size,coefficient,mean,std."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["size", "coefficient", "mean", "std"])
    for c in report.cells:
        writer.writerow([c.size, c.coefficient, repr(c.mean), repr(c.std)])
    return buf.getvalue()
