"""Seed-randomness coefficients, all served by one table.

Every coefficient is one minus the suite mean of a per-test agreement
term, computed by a kernel from that test's rank matrix (seeds by
algorithms). Agreement 1 means seed choice never changes the ranking.

- ``w``: Kendall's W, 12S / (n^2 (a^3 - a)).
- ``w_tied``: W_t, W with the standard t^3 - t denominator correction.
  The correction is exact only for mean-of-tied ranks, so this is the
  one coefficient that needs that tie policy.
- ``w_wasserstein``: W_w, the normalised pairwise Wasserstein-1 distance
  between the algorithms' rank distributions (``wasserstein`` module).

:data:`COEFFICIENTS` maps each name to its kernel and its tie-policy
requirement. :func:`randomness` is the single entry point used by the
CLI, the convergence study and the reports; :func:`coefficients_for`
gives the default set for a tie policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .ranking import RankMatrix, TiePolicy
from .results import TestId
from .wasserstein import wasserstein_w


def kendall_w(matrix: RankMatrix) -> tuple[float, str | None]:
    """Per-test W = 12S / (n^2 (a^3 - a)), no tie correction."""
    n, a = matrix.ranks.shape
    deviations = matrix.ranks.sum(axis=0) - n * (a + 1) / 2
    s = float(np.dot(deviations, deviations))
    w = 12.0 * s / (n * n * (a**3 - a))
    if not 0.0 <= w <= 1.0 + 1e-12:
        # Possible when non-conserving ranks (lowest-shared policy) feed
        # the uncorrected formula; reported, not clamped.
        return w, f"per-test W {w:.6g} outside [0, 1] (tie policy {matrix.policy.value})"
    return w, None


def kendall_w_tied(matrix: RankMatrix) -> tuple[float, str | None]:
    """Tie-corrected per-test W_t, for mean-of-tied ranks.

    W_t = (12 sum R_i^2 - 3 n^2 a (a+1)^2) / (n^2 a (a^2-1) - n * correction)
    with correction = sum over seeds of sum over tied groups of t^3 - t.
    A fully tied suite (denominator zero) is perfect agreement, so
    W_t = 1 with a warning.
    """
    n, a = matrix.ranks.shape
    rank_sums = matrix.ranks.sum(axis=0)
    sum_r2 = float(np.dot(rank_sums, rank_sums))
    correction = float(
        sum(t**3 - t for groups in matrix.tie_groups for t in groups)
    )
    numerator = 12.0 * sum_r2 - 3.0 * n * n * a * (a + 1) ** 2
    denominator = n * n * a * (a * a - 1) - n * correction
    if denominator == 0:
        return 1.0, "every seed fully tied; W_t defined as 1 by convention"
    return numerator / denominator, None


class Coefficient(NamedTuple):
    """A per-test kernel, returning (term, warning or None), and its tie-policy need."""

    kernel: Callable[[RankMatrix], tuple[float, str | None]]
    needs_mean_ranks: bool


COEFFICIENTS: dict[str, Coefficient] = {
    "w": Coefficient(kendall_w, needs_mean_ranks=False),
    "w_tied": Coefficient(kendall_w_tied, needs_mean_ranks=True),
    "w_wasserstein": Coefficient(wasserstein_w, needs_mean_ranks=False),
}


def coefficients_for(policy: TiePolicy) -> tuple[str, ...]:
    """Names of the coefficients defined for ranks made under ``policy``, in table order."""
    return tuple(
        name
        for name, c in COEFFICIENTS.items()
        if policy is TiePolicy.MEAN_OF_TIED or not c.needs_mean_ranks
    )


@dataclass(frozen=True)
class CoefficientResult:
    """Suite value of one coefficient with its per-test terms, in TestId order."""

    coefficient: str
    value: float
    tests: tuple[TestId, ...]
    per_test: tuple[float, ...]
    warnings: tuple[str, ...]

    def fragment(self, n_ties: int) -> dict:
        """JSON-ready report fragment."""
        return {
            "coefficient": self.coefficient,
            "value": self.value,
            "n_ties": n_ties,
            "per_test": [
                {"dataset": t.dataset, "metric": t.metric, "w": w}
                for t, w in zip(self.tests, self.per_test)
            ],
        }


def randomness(matrices: Sequence[RankMatrix], name: str) -> CoefficientResult:
    """Coefficient ``name``: 1 - mean per-test agreement over the suite.

    Kernel warnings (values outside their range, conventions applied)
    are collected per test, never clamped away.
    """
    if name not in COEFFICIENTS:
        raise ValueError(f"unknown coefficient {name!r}")
    if not matrices:
        raise ValueError("empty suite")
    kernel, needs_mean_ranks = COEFFICIENTS[name]
    ordered = sorted(matrices, key=lambda m: m.test)
    terms, warnings = [], []
    for m in ordered:
        if m.n_algorithms < 2:
            raise ValueError("need at least 2 algorithms")
        if needs_mean_ranks and m.policy is not TiePolicy.MEAN_OF_TIED:
            raise ValueError(f"{name} requires mean-of-tied ranks")
        term, warning = kernel(m)
        terms.append(term)
        if warning is not None:
            warnings.append(f"test {m.test.dataset}/{m.test.metric}: {warning}")
    return CoefficientResult(
        coefficient=name,
        value=1.0 - float(np.mean(terms)),
        tests=tuple(m.test for m in ordered),
        per_test=tuple(terms),
        warnings=tuple(warnings),
    )
