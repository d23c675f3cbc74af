"""Seed-randomness coefficients, all served by one table.

Every coefficient is one minus the suite mean of a per-test agreement
term. A kernel maps a rank cube (tests by seeds by algorithms) to the
array of per-test terms plus a warning per flagged test, keyed by test
index; :func:`randomness` hands it the cube a block of whole tests at a
time. Agreement 1 means seed choice never changes the ranking.

- ``w``: Kendall's W, 12S / (n^2 (a^3 - a)).
- ``w_tied``: W_t = S / (n SS), W's S over the ranks' own spread SS.
  SS carries Kendall's t^3 - t tie correction only for mean-of-tied
  ranks, so this is the one coefficient that needs that tie policy.
- ``w_wasserstein``: W_w, the normalised pairwise Wasserstein-1 distance
  between the algorithms' rank distributions (``wasserstein`` module).

:data:`COEFFICIENTS` maps each name to its kernel and its tie-policy
requirement. :func:`randomness` is the single entry point used by the
CLI, the convergence study and the reports; :func:`coefficients_for`
gives the default set for a tie policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .ranking import _BLOCK, RankCube, TiePolicy
from .wasserstein import wasserstein_w


def kendall_w(cube: RankCube) -> tuple[np.ndarray, dict[int, str]]:
    """Per-test W = 12S / (n^2 (a^3 - a)), no tie correction."""
    _, n, a = cube.ranks.shape
    deviations = cube.ranks.sum(axis=1) - n * (a + 1) / 2
    w = 12.0 * (deviations * deviations).sum(axis=1) / (n * n * (a**3 - a))
    # Outside [0, 1] is possible when non-conserving ranks (lowest-shared
    # policy) feed the uncorrected formula; reported, not clamped.
    outside = ~((0.0 <= w) & (w <= 1.0 + 1e-12))
    return w, {
        t: f"per-test W {w[t]:.6g} outside [0, 1] (tie policy {cube.policy.value})"
        for t in np.flatnonzero(outside).tolist()
    }


def kendall_w_tied(cube: RankCube) -> tuple[np.ndarray, dict[int, str]]:
    """Tie-corrected per-test W_t = S / (n SS), for mean-of-tied ranks.

    S is W's sum of squared rank-sum deviations and SS the ranks' own
    spread, the sum over seeds and algorithms of (r - (a+1)/2)^2. For
    mean-of-tied ranks SS is n (a^3 - a) / 12 less (t^3 - t) / 12 per tie
    group, the textbook correction, so no tie group is counted here. A
    fully tied test (SS zero) is perfect agreement, so W_t = 1 with a
    warning.
    """
    _, n, a = cube.ranks.shape
    deviations = cube.ranks.sum(axis=1) - n * (a + 1) / 2
    s = (deviations * deviations).sum(axis=1)
    spread = cube.ranks - (a + 1) / 2
    ss = (spread * spread).sum(axis=(1, 2))
    w = np.divide(s, n * ss, out=np.ones_like(s), where=ss != 0)
    return w, dict.fromkeys(
        np.flatnonzero(ss == 0).tolist(),
        "every seed fully tied; W_t defined as 1 by convention",
    )


class Coefficient(NamedTuple):
    """A kernel, returning (per-test terms, {test index: warning} in test order), and
    its tie-policy need."""

    kernel: Callable[[RankCube], tuple[np.ndarray, dict[int, str]]]
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
    """Suite value of one coefficient with its per-test terms, in the cube's suite order."""

    coefficient: str
    value: float
    per_test: tuple[float, ...]
    warnings: tuple[str, ...]


def randomness(cube: RankCube, name: str) -> CoefficientResult:
    """Coefficient ``name``: 1 - mean per-test agreement over the suite.

    The kernel is called on sub-cubes of whole tests, about
    :data:`ranking._BLOCK` ranks each, so its temporaries stay a block's
    size whatever the size of the cube; each test's term is the same as
    on the whole cube. Kernel warnings (values outside their range,
    conventions applied) are collected per test, never clamped away.
    """
    if name not in COEFFICIENTS:
        raise ValueError(f"unknown coefficient {name!r}")
    if not cube.suite:
        raise ValueError("empty suite")
    if len(cube.algorithms) < 2:
        raise ValueError("need at least 2 algorithms")
    kernel, needs_mean_ranks = COEFFICIENTS[name]
    if needs_mean_ranks and cube.policy is not TiePolicy.MEAN_OF_TIED:
        raise ValueError(f"{name} requires mean-of-tied ranks")
    step = max(1, _BLOCK // cube.ranks[0].size)
    starts = range(0, len(cube.suite), step)
    blocks = [
        kernel(replace(cube, suite=cube.suite[t : t + step], ranks=cube.ranks[t : t + step]))
        for t in starts
    ]
    terms = np.concatenate([block_terms for block_terms, _ in blocks])
    warnings = {
        start + t: text for start, (_, block) in zip(starts, blocks) for t, text in block.items()
    }
    return CoefficientResult(
        coefficient=name,
        value=1.0 - float(np.mean(terms)),
        per_test=tuple(terms.tolist()),
        warnings=tuple(
            f"test {cube.suite[t].dataset}/{cube.suite[t].metric}: {text}"
            for t, text in warnings.items()
        ),
    )
