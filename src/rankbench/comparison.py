"""Framework Comparison Rank: head-to-head ranking of evaluation regimes.

Two or more frameworks (for example default hyperparameters vs tuned
ones), given as one label -> table mapping such as
``fcr({"default": t1, "tuned": t2})``, sharing the same algorithms and
tests are ranked against each other on every comparison unit, and the
per-framework mean rank is the FCR. Rank sums are conserved
(mean-of-tied), so FCRs always sum to f(f+1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ranking import rank_cube
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


def fcr(
    frameworks: dict[str, ResultTable],
    granularity: Granularity = Granularity.PER_ALGORITHM_TEST,
) -> FcrResult:
    """Framework Comparison Rank over all comparison units.

    ``frameworks`` maps each label to its table, in report order; a
    mapping cannot repeat a label. The first table is the reference
    whose grid and metric directions every other table must match.
    Per unit the frameworks' seed-mean scores (also algorithm-mean for
    per-test granularity) are ranked by the metric's direction with
    mean-of-tied; FCR is the mean rank per framework. Failed runs score
    as in :func:`resolve_failures`, so on an unbounded metric one failed
    seed makes the unit's mean infinite and ranks the framework last.
    """
    if len(frameworks) < 2:
        raise ValueError("need at least 2 frameworks")

    (ref_label, ref), *others = frameworks.items()
    for label, t in others:
        if (
            t.algorithms != ref.algorithms
            or t.suite != ref.suite
            or set(t.registry) != set(ref.registry)
        ):
            raise ValidationError(f"framework {label!r} grid does not match {ref_label!r}")
        for name, spec in ref.registry.items():
            if t.registry[name].direction != spec.direction:
                raise ValidationError(
                    f"framework {label!r}: metric {name!r} direction mismatch"
                )
    if not ref.suite:
        raise ValidationError("empty suite")

    tables = [resolve_failures(t) for t in frameworks.values()]

    # Seed means per unit, one column per framework. Each mean reduces a
    # contiguous last axis, the same summation as np.mean over that unit's
    # seed vector.
    higher_better = ref.higher_better
    if granularity is Granularity.PER_ALGORITHM_TEST:
        means = [np.ascontiguousarray(t.values.transpose(0, 2, 1)).mean(axis=-1) for t in tables]
        higher_better = higher_better[:, None]
    else:
        means = [t.values.reshape(len(t.suite), -1).mean(axis=-1) for t in tables]
    ranks = rank_cube(np.stack(means, axis=-1), higher_better)
    ranks = ranks.reshape(-1, len(frameworks))
    mean_ranks = ranks.sum(axis=0) / len(ranks)
    seeds = {label: len(t.seeds) for label, t in zip(frameworks, tables)}
    warnings = ()
    if len({t.seeds for t in tables}) > 1:
        warnings = (
            "frameworks were run on different seed sets; each framework's "
            "scores are averaged over its own seeds",
        )
    return FcrResult(
        ranks={label: float(r) for label, r in zip(frameworks, mean_ranks)},
        units=len(ranks),
        seeds=seeds,
        warnings=warnings,
    )
