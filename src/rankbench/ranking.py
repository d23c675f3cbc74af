"""Per-seed rankings of algorithms from per-test scores.

Ties are resolved under one of two policies: the mean of the tied
positions (fractional ranking, "1 2.5 2.5 4") or the lowest shared
position (competition ranking, "1 2 2 4"). Tie groups are equivalence
classes under the transitive closure of |v_i - v_j| <= epsilon.

Ranking works one block of whole rows, about :data:`_BLOCK` cells, at a
time: :func:`rank_cube` ranks a block into one array of ranks and
:func:`tie_groups` sorts a block to find its groups, so neither holds
more than one block's temporaries, whatever the size of the cube.

:func:`rank_table` ranks failed cells at their metric's worst bound, or
at -inf/+inf on an unbounded metric, where they form one tie group below
every OK run at any finite epsilon.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .results import ResultTable, TestId, csv_fields, resolve_failures

log = logging.getLogger(__name__)

# Cells ranked, or sorted for tie groups, at once: whole rows, at least one.
_BLOCK = 4096


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


def rank_cube(
    values: np.ndarray,
    higher_better: np.ndarray | bool,
    policy: TiePolicy = TiePolicy.MEAN_OF_TIED,
    tie_epsilon: float = 0.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Rank every row along the last axis; the best value gets rank 1.

    ``higher_better`` broadcasts against ``values.shape[:-1]``. Rows are
    ranked a block of about :data:`_BLOCK` cells at a time into one
    array, so only one block's temporaries are held: a new one, or
    ``out``, a C-contiguous float array of the values' shape, which may
    be the values themselves (a block is read before its ranks are
    written). Each row is put in best-first order by one stable argsort,
    so exact ties keep input order; a new tie group starts wherever
    neighbours in that order differ by more than ``tie_epsilon``, which
    chains eps-close values (transitive closure). Values may be -inf or
    +inf: the gap to an infinite neighbour exceeds every finite
    ``tie_epsilon``, and equal infinities tie (inf - inf is NaN, which is
    not > eps). Returns the ranks, in the shape of ``values``. Raises
    ValueError on NaN.
    """
    values = np.asarray(values, dtype=float)
    a = values.shape[-1] if values.ndim else 0
    if a < 2:
        raise ValueError("need at least 2 values to rank")
    if not 0 <= tie_epsilon < np.inf:
        raise ValueError(f"tie_epsilon must be finite and nonnegative, got {tie_epsilon}")
    if np.isnan(values).any():
        raise ValueError("non-finite value nan")

    rows = values.reshape(-1, a)
    flip = np.broadcast_to(np.asarray(higher_better), values.shape[:-1]).reshape(-1, 1)
    ranks = (np.empty(values.shape) if out is None else out).reshape(-1, a)
    step = max(1, _BLOCK // a)
    for block in (slice(start, start + step) for start in range(0, len(rows), step)):
        keys = np.where(flip[block], -rows[block], rows[block])
        order = np.argsort(keys, axis=1, kind="stable")
        ordered = np.take_along_axis(keys, order, axis=1)
        starts = np.ones(keys.shape, dtype=bool)
        # A gap too wide for a float is still a boundary; inf - inf is not.
        with np.errstate(over="ignore", invalid="ignore"):
            starts[:, 1:] = np.diff(ordered, axis=1) > tie_epsilon
        # Tie groups are the runs between starts; no run crosses a row, since
        # every row begins with a start.
        group_starts = np.flatnonzero(starts)
        group = np.cumsum(starts.ravel()) - 1
        first = (group_starts % a)[group]  # 0-based position where each cell's group begins
        # The mean of a group's positions is its first plus (size + 1) / 2.
        ordered_ranks = first + (
            1.0
            if policy is TiePolicy.LOWEST_SHARED_RANK
            else (np.diff(group_starts, append=starts.size)[group] + 1) / 2
        )
        np.put_along_axis(ranks[block], order, ordered_ranks.reshape(keys.shape), axis=1)
    return ranks.reshape(values.shape)


def tie_groups(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tie groups (size >= 2) of every row of ranks along the last axis.

    Under both policies a tie group shares one rank and different groups
    get different ranks, so the groups are the runs of equal values in
    each sorted row. Rows are sorted a block of about :data:`_BLOCK`
    cells at a time, so only one block is held sorted. Returns, in
    row-major then best-first order, each group's row (flat index over
    the leading axes) and its size.
    """
    rows = ranks.reshape(-1, ranks.shape[-1])
    step = max(1, _BLOCK // rows.shape[1])
    found = [(np.empty(0, dtype=np.intp),) * 2]  # (rows, sizes) of each block
    for start in range(0, len(rows), step):
        ordered = np.sort(rows[start : start + step], axis=1)
        # A NaN before each row makes its first rank a start.
        group_starts = np.flatnonzero(np.diff(ordered, axis=1, prepend=np.nan) != 0)
        sizes = np.diff(group_starts, append=ordered.size)
        tied = sizes >= 2
        found.append((group_starts[tied] // rows.shape[1] + start, sizes[tied]))
    return tuple(map(np.concatenate, zip(*found)))


def rank_table(
    table: ResultTable,
    policy: TiePolicy = TiePolicy.MEAN_OF_TIED,
    tie_epsilon: float = 0.0,
) -> RankCube:
    """Rank every (test, seed) row of a table into one cube, failures last.

    Failed cells are ranked by :func:`resolve_failures`, whose resolved
    values the ranks overwrite. The cube's axes and labels are the
    table's: tests, seeds, algorithms.
    """
    # resolve_failures gives a new cube, so the ranks can take its place.
    values = resolve_failures(table).values
    ranks = rank_cube(values, table.higher_better[:, None], policy, tie_epsilon, out=values)
    if log.isEnabledFor(logging.INFO):
        log.info(
            "ranked %d rows: %d tie groups",
            ranks.shape[0] * ranks.shape[1],
            len(tie_groups(ranks)[1]),
        )
    return RankCube(table.suite, table.seeds, table.algorithms, policy, ranks)


def count_ties(cube: RankCube) -> int:
    """Total number of tied groups (size >= 2) over all tests and seeds."""
    return len(tie_groups(cube.ranks)[1])


def ranks_to_csv(cube: RankCube) -> Iterator[str]:
    """Debug export: the header, then one line per (test, seed, algorithm) rank.

    Labels are quoted by :func:`results.csv_fields`, as in ``to_csv``.
    """
    field = csv_fields([*cube.algorithms, *itertools.chain.from_iterable(cube.suite)])
    algorithms = [field[alg] for alg in cube.algorithms]
    yield "dataset,metric,seed,algorithm,rank\n"
    for test, per_seed in zip(cube.suite, cube.ranks):
        for seed, row in zip(cube.seeds, per_seed.tolist()):
            prefix = f"{field[test.dataset]},{field[test.metric]},{seed},"
            yield from (f"{prefix}{alg},{rank!r}\n" for alg, rank in zip(algorithms, row))
