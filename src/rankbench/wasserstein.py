"""Per-test Wasserstein kernel of the W_w randomness coefficient.

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

from .ranking import RankMatrix


def ww_normalizer(a: int) -> float:
    """Closed form of sum_{v=1..a} v(v-1)/2: pairwise distance of ranks 1..a."""
    return a * (a - 1) * (a + 1) / 6.0


def wasserstein_w(matrix: RankMatrix) -> tuple[float, str | None]:
    """Normalised pairwise W1 sum of one test; 1 = fully separated distributions.

    Sorting each column along the seeds gives every algorithm's
    quantiles. At one quantile level, sorted across algorithms into
    x_(1) <= ... <= x_(a), the pairwise gaps sum to
    sum_k (2k - a - 1) x_(k); summed over levels and divided by the
    number of seeds, that is the sum of W1 over all pairs without a
    loop over pairs.
    """
    n, a = matrix.ranks.shape
    levels = np.sort(np.sort(matrix.ranks, axis=0), axis=1)
    weights = 2.0 * np.arange(1, a + 1) - a - 1
    ratio = float((levels @ weights).sum()) / n / ww_normalizer(a)
    if ratio > 1.0 + 1e-12:
        # Only reachable when ranks were not a permutation per row
        # (lowest-shared policy); reported, never clamped.
        return ratio, (
            f"normalised Wasserstein ratio {ratio:.6g} exceeds 1 "
            f"(tie policy {matrix.policy.value})"
        )
    return ratio, None
