"""Synthetic benchmark-result generator.

Produces complete result grids with controllable seed noise, tie
pileups and failure injection, used to validate coefficient sensitivity
and the convergence study. Scores are base quality levels (spaced by
quality_gap, algorithm 0 best) plus uniform per-seed noise; ties are
produced by snapping scores to a coarse grid, failures by flipping
cells to out-of-memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .results import STATUSES, Direction, MetricSpec, ResultTable, Status, TestId


@dataclass(frozen=True)
class SynthConfig:
    n_algorithms: int = 5
    n_datasets: int = 4
    n_metrics: int = 2
    n_seeds: int = 5
    quality_gap: float = 1.0
    noise_scale: float = 0.0
    tie_prob: float = 0.0
    fail_prob: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_algorithms < 2:
            raise ValueError("need at least 2 algorithms")
        if min(self.n_datasets, self.n_metrics, self.n_seeds) < 1:
            raise ValueError("counts must be >= 1")
        if not (0 <= self.quality_gap < math.inf and 0 <= self.noise_scale < math.inf):
            raise ValueError("quality_gap and noise_scale must be finite and nonnegative")
        if not math.isfinite(self.score_range):
            raise ValueError(f"score range {self.score_range} is not finite")
        for p in (self.tie_prob, self.fail_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")

    @property
    def score_range(self) -> float:
        """Spread a score can take: the quality levels plus noise on either side."""
        return self.quality_gap * (self.n_algorithms - 1) + 2.0 * self.noise_scale


def _label(prefix: str, i: int, count: int) -> str:
    # Zero-padded so lexicographic order matches numeric order.
    width = len(str(count - 1))
    return f"{prefix}{i:0{width}d}"


def generate(config: SynthConfig) -> ResultTable:
    """Deterministic synthetic table for the given config.

    Metrics alternate direction (even index higher-better, odd
    lower-better), all unbounded; algorithm 0 is always the best in
    expectation. Each cell, in (dataset, metric, algorithm, seed) order,
    draws one uniform double for its noise, then one for the tie snap if
    ``tie_prob > 0``, then one for failure if ``fail_prob > 0``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    a, nd, nm, ns = (
        config.n_algorithms,
        config.n_datasets,
        config.n_metrics,
        config.n_seeds,
    )
    algorithms = tuple(_label("alg", i, a) for i in range(a))
    datasets = [_label("data", i, nd) for i in range(nd)]
    metrics = [_label("metric", i, nm) for i in range(nm)]
    registry = {
        name: MetricSpec(
            name=name,
            direction=Direction.HIGHER_BETTER if i % 2 == 0 else Direction.LOWER_BETTER,
        )
        for i, name in enumerate(metrics)
    }

    ties, fails = config.tie_prob > 0, config.fail_prob > 0
    # Labels are zero-padded, so (dataset, metric) order is the sorted
    # suite order: axis 0 below is the test axis.
    draws = rng.random((nd * nm, a, ns, 1 + ties + fails))

    # Lower-better metrics count up from 0, higher-better ones down.
    sign = [1.0 if registry[m].direction is Direction.LOWER_BETTER else -1.0 for m in metrics]
    base = (np.tile(sign, nd)[:, None] * np.arange(a))[..., None] * config.quality_gap
    lo, hi = -config.noise_scale, config.noise_scale
    values = base + (lo + (hi - lo) * draws[..., 0])
    # Snap grid step: a quarter of the spread a score can take.
    snap_step = config.score_range / 4.0
    if ties and snap_step > 0:
        snap = draws[..., 1] < config.tie_prob
        # + 0.0 turns rint's -0.0 into the +0.0 of an integer multiple.
        values[snap] = (np.rint(values[snap] / snap_step) + 0.0) * snap_step
    status = np.zeros(values.shape, dtype=np.int8)
    if fails:
        failed = draws[..., -1] < config.fail_prob
        values[failed] = np.nan
        status[failed] = STATUSES.index(Status.OUT_OF_MEMORY)

    return ResultTable(
        suite=tuple(TestId(d, m) for d in datasets for m in metrics),
        seeds=tuple(range(ns)),
        algorithms=algorithms,
        values=np.ascontiguousarray(values.transpose(0, 2, 1)),
        status=np.ascontiguousarray(status.transpose(0, 2, 1)),
        registry=registry,
    )
