"""Framework Comparison Rank: head-to-head ranking of evaluation regimes.

Two or more frameworks (for example default hyperparameters vs tuned
ones), given as a label -> table mapping or as (label, table) pairs read
once, one table alive at a time, sharing the same algorithms and tests
are ranked against each other on every comparison unit, and the
per-framework mean rank is the FCR. Rank sums are conserved
(mean-of-tied), so FCRs always sum to f(f+1)/2.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ranking import _BLOCK, rank_cube
from .results import ResultTable, ValidationError, resolve_failures


class Granularity(Enum):
    PER_ALGORITHM_TEST = "per-algorithm-test"
    PER_TEST = "per-test"


@dataclass(frozen=True)
class FcrResult:
    ranks: dict[str, float]  # label -> mean rank
    units: int
    seeds: dict[str, int]  # label -> number of seeds averaged per unit
    warnings: tuple[str, ...] = ()


def _seed_means(values: np.ndarray, granularity: Granularity) -> np.ndarray:
    """Seed means per unit, each over a contiguous last axis (np.mean's
    summation), transposing about :data:`ranking._BLOCK` cells at a time."""
    t, s, a = values.shape
    if granularity is Granularity.PER_TEST:
        return values.reshape(t, -1).mean(axis=-1)
    means = np.empty((t, a))
    step = max(1, _BLOCK // (s * a))
    for start in range(0, t, step):
        block = values[start : start + step]
        means[start : start + step] = np.ascontiguousarray(block.transpose(0, 2, 1)).mean(axis=-1)
    return means


def _mismatch(ref_label: str, ref: tuple, label: str, table: ResultTable) -> str | None:
    algorithms, suite, registry = ref
    if (
        table.algorithms != algorithms
        or table.suite != suite
        or set(table.registry) != set(registry)
    ):
        return f"framework {label!r} grid does not match {ref_label!r}"
    for name, spec in registry.items():
        if table.registry[name].direction != spec.direction:
            return f"framework {label!r}: metric {name!r} direction mismatch"
    return None


def fcr(
    frameworks: Mapping[str, ResultTable] | Iterable[tuple[str, ResultTable]],
    granularity: Granularity = Granularity.PER_ALGORITHM_TEST,
) -> FcrResult:
    """Framework Comparison Rank over all comparison units.

    ``frameworks`` is a label -> table mapping or an iterable of
    ``(label, table)`` pairs (a repeated label is a ValueError), in
    report order, read once: each table is resolved and reduced to its
    seed means before the next is asked for. The first table is the
    reference whose grid and metric directions every other must match;
    that, then an empty suite, is checked after the last pair, so an
    error raised while making a later table wins over a mismatch.
    Per unit the frameworks' seed-mean scores (also algorithm-mean for
    per-test granularity) are ranked by the metric's direction with
    mean-of-tied; FCR is the mean rank per framework. Failed runs score
    as in :func:`resolve_failures`, so on an unbounded metric one failed
    seed makes the unit's mean infinite and ranks the framework last.
    """
    pairs = frameworks.items() if isinstance(frameworks, Mapping) else frameworks
    labels: list[str] = []
    seeds: list[tuple[int, ...]] = []
    means: list[np.ndarray] = []
    mismatch = None  # the first grid or direction mismatch
    for label, table in pairs:
        if label in labels:
            raise ValueError(f"framework label {label!r} repeated")
        labels.append(label)
        if len(labels) == 1:
            ref_label, ref = label, (table.algorithms, table.suite, table.registry)
            higher_better = table.higher_better
        elif mismatch is None:
            mismatch = _mismatch(ref_label, ref, label, table)
        if mismatch is None and table.suite:
            resolved = resolve_failures(table)
            seeds.append(resolved.seeds)
            means.append(_seed_means(resolved.values, granularity))
            del resolved
        del table  # before the next pair is made
    if len(labels) < 2:
        raise ValueError("need at least 2 frameworks")
    if mismatch is not None:
        raise ValidationError(mismatch)
    if not ref[1]:  # the reference's suite
        raise ValidationError("empty suite")

    if granularity is Granularity.PER_ALGORITHM_TEST:
        higher_better = higher_better[:, None]
    ranks = rank_cube(np.stack(means, axis=-1), higher_better)
    ranks = ranks.reshape(-1, len(labels))
    mean_ranks = ranks.sum(axis=0) / len(ranks)
    warnings = ()
    if len(set(seeds)) > 1:
        warnings = (
            "frameworks were run on different seed sets; each framework's "
            "scores are averaged over its own seeds",
        )
    return FcrResult(
        ranks={label: float(r) for label, r in zip(labels, mean_ranks)},
        units=len(ranks),
        seeds={label: len(s) for label, s in zip(labels, seeds)},
        warnings=warnings,
    )
