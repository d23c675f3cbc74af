"""Per-seed rankings of algorithms from per-test scores.

Ties are resolved under one of two policies: the mean of the tied
positions (fractional ranking, "1 2.5 2.5 4") or the lowest shared
position (competition ranking, "1 2 2 4"). Tie groups are equivalence
classes under the transitive closure of |v_i - v_j| <= epsilon.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .results import OK, Direction, ResultTable, TestId, ValidationError

log = logging.getLogger(__name__)


class TiePolicy(Enum):
    MEAN_OF_TIED = "mean"
    LOWEST_SHARED_RANK = "lowest"


@dataclass(frozen=True, eq=False)
class RankCube:
    """Ranks of a whole suite: ``ranks[t, s, j]`` is the rank of
    ``algorithms[j]`` on test ``suite[t]`` under seed ``seeds[s]``.

    Tests are in TestId order. Tie groups are not stored: :func:`tie_groups`
    derives them from the ranks. Half-integer ranks from the mean policy
    are exact in binary floating point, so downstream sums stay bit-stable.
    """

    suite: tuple[TestId, ...]
    seeds: tuple[int, ...]
    algorithms: tuple[str, ...]
    policy: TiePolicy
    ranks: np.ndarray


class NonFiniteValue(ValueError):
    """A score that cannot be ranked; ``row`` indexes the leading axes of the input."""

    def __init__(self, row: tuple[int, ...], value: float) -> None:
        super().__init__(f"non-finite value {value!r}")
        self.row = row


def rank_cube(
    values: np.ndarray,
    higher_better: np.ndarray | bool,
    policy: TiePolicy = TiePolicy.MEAN_OF_TIED,
    tie_epsilon: float = 0.0,
) -> np.ndarray:
    """Rank every row along the last axis at once; the best value gets rank 1.

    ``higher_better`` broadcasts against ``values.shape[:-1]``. Each row
    is put in best-first order by one stable argsort, so exact ties keep
    input order; a new tie group starts wherever neighbours in that order
    differ by more than ``tie_epsilon``, which chains eps-close values
    (transitive closure). Returns the ranks, in the shape of ``values``.
    Raises :class:`NonFiniteValue` for the first row, in row-major order,
    that holds a non-finite value.
    """
    values = np.asarray(values, dtype=float)
    a = values.shape[-1] if values.ndim else 0
    if a < 2:
        raise ValueError("need at least 2 values to rank")
    if tie_epsilon < 0:
        raise ValueError("tie_epsilon must be nonnegative")
    finite = np.isfinite(values)
    if not finite.all():
        rows_finite = finite.all(axis=-1)
        row = np.unravel_index(int(np.argmin(rows_finite)), rows_finite.shape)
        raise NonFiniteValue(
            tuple(int(i) for i in row), float(values[row][np.argmin(finite[row])])
        )

    keys = np.where(np.asarray(higher_better)[..., None], -values, values).reshape(-1, a)
    order = np.argsort(keys, axis=1, kind="stable")
    ordered = np.take_along_axis(keys, order, axis=1)
    starts = np.ones(keys.shape, dtype=bool)
    with np.errstate(over="ignore"):  # a gap too wide for a float is still a boundary
        starts[:, 1:] = np.diff(ordered, axis=1) > tie_epsilon
    # Tie groups are the runs between starts; no run crosses a row, since
    # every row begins with a start.
    group_starts = np.flatnonzero(starts)
    group = np.cumsum(starts.ravel()) - 1
    first = (group_starts % a)[group]  # 0-based position where each cell's group begins
    if policy is TiePolicy.LOWEST_SHARED_RANK:
        ordered_ranks = first + 1.0
    else:
        sizes = np.diff(group_starts, append=starts.size)
        ordered_ranks = first + (sizes[group] + 1) / 2
    ranks = np.empty(keys.shape)
    np.put_along_axis(ranks, order, ordered_ranks.reshape(keys.shape), axis=1)
    return ranks.reshape(values.shape)


def tie_groups(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tie groups (size >= 2) of every row of ranks along the last axis.

    Under both policies a tie group shares one rank and different groups
    get different ranks, so the groups are the runs of equal values in
    each sorted row. Returns, in row-major then best-first order, each
    group's row (flat index over the leading axes) and its size.
    """
    a = ranks.shape[-1]
    ordered = np.sort(ranks.reshape(-1, a), axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    group_starts = np.flatnonzero(starts)
    sizes = np.diff(group_starts, append=starts.size)
    tied = sizes >= 2
    return group_starts[tied] // a, sizes[tied]


def rank_row(
    values: Sequence[float],
    direction: Direction,
    policy: TiePolicy = TiePolicy.MEAN_OF_TIED,
    tie_epsilon: float = 0.0,
) -> tuple[list[float], list[int]]:
    """Rank one score vector; best value gets rank 1.

    Returns the rank for each input position plus the sizes of tied
    groups (>= 2), best group first. Raises on non-finite values.
    """
    ranks = rank_cube(values, direction is Direction.HIGHER_BETTER, policy, tie_epsilon)
    return ranks.tolist(), tie_groups(ranks)[1].tolist()


def rank_table(
    table: ResultTable,
    policy: TiePolicy = TiePolicy.MEAN_OF_TIED,
    tie_epsilon: float = 0.0,
) -> RankCube:
    """Rank every (test, seed) row of a failure-resolved table into one cube.

    The cube's axes and labels are the table's: tests, seeds, algorithms.
    Every cell must have a value (run ``resolve_failures`` first).
    """
    unresolved = np.isnan(table.values) & (table.status != OK)
    if unresolved.any():
        t, s, a = np.argwhere(unresolved)[0]
        key = (table.algorithms[a], *table.suite[t], table.seeds[s])
        raise ValidationError(f"record {key} has no value; run resolve_failures first")
    try:
        ranks = rank_cube(table.values, table.higher_better[:, None], policy, tie_epsilon)
    except NonFiniteValue as exc:
        t, s = exc.row
        raise ValidationError(f"test {table.suite[t]}, seed {table.seeds[s]}: {exc}") from exc
    if log.isEnabledFor(logging.INFO):
        n_rows = ranks.shape[0] * ranks.shape[1]
        log.info("ranked %d rows: %d tie groups", n_rows, len(tie_groups(ranks)[1]))
    return RankCube(table.suite, table.seeds, table.algorithms, policy, ranks)


def count_ties(cube: RankCube) -> int:
    """Total number of tied groups (size >= 2) over all tests and seeds."""
    return len(tie_groups(cube.ranks)[1])


def ranks_to_csv(cube: RankCube) -> str:
    """Debug export: one row per (test, seed, algorithm) rank."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "metric", "seed", "algorithm", "rank"])
    for test, per_seed in zip(cube.suite, cube.ranks.tolist()):
        for seed, row in zip(cube.seeds, per_seed):
            writer.writerows(
                [test.dataset, test.metric, seed, alg, repr(rank)]
                for alg, rank in zip(cube.algorithms, row)
            )
    return buf.getvalue()
