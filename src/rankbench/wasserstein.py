"""Wasserstein kernel of the W_w randomness coefficient.

Each algorithm's ranks across seeds on one test form an empirical
distribution. The W1 distance between two equal-size distributions is
the area between their CDFs, which equals the mean absolute difference
of their order statistics. Per test, the W1 distances of all algorithm
pairs are summed and normalised by the value attained when every seed
produces the same distinct ranking (no overlap at all). The W_w
coefficient, one minus the suite mean of that ratio, is served by
``concordance.randomness`` like the other coefficients.
"""

from __future__ import annotations

import numpy as np

from .ranking import RankCube


def ww_normalizer(a: int) -> float:
    """Closed form of sum_{v=1..a} v(v-1)/2: pairwise distance of ranks 1..a."""
    return a * (a - 1) * (a + 1) / 6.0


def wasserstein_w(cube: RankCube) -> tuple[np.ndarray, dict[int, str]]:
    """Normalised pairwise W1 sum of every test; 1 = fully separated distributions.

    Sorting each test's columns along the seeds gives every algorithm's
    quantiles. At one quantile level, sorted across algorithms into
    x_(1) <= ... <= x_(a), the pairwise gaps sum to
    sum_k (2k - a - 1) x_(k); summed over levels and divided by the
    number of seeds, that is the sum of W1 over all pairs without a
    loop over pairs.
    """
    _, n, a = cube.ranks.shape
    levels = np.sort(np.sort(cube.ranks, axis=1), axis=2)
    weights = 2.0 * np.arange(1, a + 1) - a - 1
    ratio = (levels @ weights).sum(axis=1) / n / ww_normalizer(a)
    # Above 1 is only reachable when ranks were not a permutation per row
    # (lowest-shared policy); reported, never clamped.
    return ratio, {
        t: f"normalised Wasserstein ratio {ratio[t]:.6g} exceeds 1 "
        f"(tie policy {cube.policy.value})"
        for t in np.flatnonzero(ratio > 1.0 + 1e-12).tolist()
    }
