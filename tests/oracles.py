"""Independent brute-force oracles used by unit and acceptance tests.

Kept deliberately naive (pure Python, Fractions, explicit breakpoint
integration, one numpy generator per random draw) and separate from the
library code paths they check. One helper, :func:`table_of`, builds a
library table from plain rows.
"""

import math
from fractions import Fraction
from itertools import groupby

import numpy as np

from rankbench.concordance import randomness
from rankbench.results import OK, STATUSES, ResultTable, Status


def table_of(rows, registry, drop_incomplete=False):
    """ResultTable from rows ``(algorithm, dataset, metric, seed, value[, status])``.

    ``value`` is None for a failed run without a score; ``status`` is a
    Status and defaults to OK. ``registry`` is a dict or MetricSpecs.
    """
    if not isinstance(registry, dict):
        registry = {m.name: m for m in registry}
    rows = [(*row, Status.OK)[:6] for row in rows]
    algorithms, datasets, metrics, seeds, values, statuses = (list(c) for c in zip(*rows))
    codes = [STATUSES.index(s) for s in statuses]
    return ResultTable.from_columns(
        algorithms, datasets, metrics, seeds, values, codes, registry, drop_incomplete
    )


def scan_records(records, registry):
    """The ingest error of records ``(algorithm, dataset, metric, seed, value, status code)``.

    A plain scan in input order, one record at a time: status ok without a
    value, unknown metric, value outside bounds, non-finite ok value and
    duplicate key, in that order within a record; then fewer than 2
    algorithms, then every missing cell by test, algorithm and seed. With
    no error, returns each key's ``(value, status code)``.
    """
    if not records:
        return "no records"
    cells = {}
    for algorithm, dataset, metric, seed, value, status in records:
        key = (algorithm, dataset, metric, seed)
        spec = registry.get(metric)
        if status == OK and value is None:
            return f"record {key}: status ok but no value"
        if spec is None:
            return f"unknown metric {metric!r} (record {key})"
        if value is not None and spec.bounds and not spec.bounds[0] <= value <= spec.bounds[1]:
            return f"record {key}: value {value} outside bounds [{spec.bounds[0]}, {spec.bounds[1]}]"
        if status == OK and not math.isfinite(value):
            return f"record {key}: non-finite value {value!r}"
        if key in cells:
            return f"duplicate record for {key}"
        cells[key] = (value, status)
    algorithms = sorted({key[0] for key in cells})
    if len(algorithms) < 2:
        return "need at least 2 algorithms"
    tests = sorted({key[1:3] for key in cells})
    seeds = sorted({key[3] for key in cells})
    missing = [
        f"(algorithm={a}, dataset={d}, metric={m}, seed={s})"
        for d, m in tests
        for a in algorithms
        for s in seeds
        if (a, d, m, s) not in cells
    ]
    if missing:
        return f"incomplete grid, missing cells: {', '.join(missing)}"
    return cells


def brute_force_w(rows):
    """Concordance from the literal squared-deviation definition.

    rows: list of per-seed rank lists. Exact rational arithmetic.
    """
    n = len(rows)
    a = len(rows[0])
    rank_sums = [sum(Fraction(row[i]) for row in rows) for i in range(a)]
    mean = Fraction(n * (a + 1), 2)
    s = sum((r - mean) ** 2 for r in rank_sums)
    return 12 * s / (n * n * (a**3 - a))


def brute_force_w_tied(rows):
    """Tie-corrected concordance from the textbook formula, for mean-of-tied ranks.

    rows: list of per-seed rank lists. W_t = 12S / (n^2 (a^3 - a) - n C),
    with C the sum of t^3 - t over every run of t equal ranks in every
    row; a fully tied test (zero denominator) is 1 by convention. Exact
    rational arithmetic.
    """
    n = len(rows)
    a = len(rows[0])
    rank_sums = [sum(Fraction(row[i]) for row in rows) for i in range(a)]
    mean = Fraction(n * (a + 1), 2)
    s = sum((r - mean) ** 2 for r in rank_sums)
    runs = [len(list(run)) for row in rows for _, run in groupby(sorted(row))]
    denominator = n * n * (a**3 - a) - n * sum(t**3 - t for t in runs)
    return Fraction(1) if denominator == 0 else 12 * s / denominator


def brute_force_w1(samples1, samples2):
    """W1 via explicit CDF breakpoint integration.

    Integrates |F1 - F2| piecewise between consecutive breakpoints of
    the union of sample values.
    """
    n1, n2 = len(samples1), len(samples2)
    points = sorted(set(samples1) | set(samples2))

    def cdf(samples, n, x):
        return Fraction(sum(1 for s in samples if s <= x), n)

    total = Fraction(0)
    for left, right in zip(points, points[1:]):
        gap = Fraction(right) - Fraction(left)
        total += abs(cdf(samples1, n1, left) - cdf(samples2, n2, left)) * gap
    return total


def brute_force_pairwise_rank_distance(a):
    """Sum of |i - j| over all pairs of distinct ranks 1..a."""
    return sum(abs(i - j) for i in range(1, a + 1) for j in range(1, i))


def loop_rank_row(values, higher_better, lowest_shared, tie_epsilon):
    """One row ranked by a plain loop: sort best-first, chain eps-close neighbours.

    Returns (ranks, tie-group sizes >= 2 in best-first order); the
    reference for the vectorised ranking kernel.
    """
    sign = -1.0 if higher_better else 1.0
    order = sorted(range(len(values)), key=lambda i: sign * values[i])
    ranks = [0.0] * len(values)
    sizes = []
    pos = 0
    while pos < len(order):
        end = pos + 1
        # Equal infinities tie too, though their difference is NaN.
        while end < len(order) and (
            values[order[end]] == values[order[end - 1]]
            or abs(sign * values[order[end]] - sign * values[order[end - 1]]) <= tie_epsilon
        ):
            end += 1
        size = end - pos
        rank = pos + 1 if lowest_shared else (2 * (pos + 1) + size - 1) / 2
        for k in range(pos, end):
            ranks[order[k]] = float(rank)
        if size >= 2:
            sizes.append(size)
        pos = end
    return ranks, sizes


def loop_subsample_convergence(cube, coefficients, sizes, repeats, rng_seed):
    """(values, mean, std) of a convergence study, one generator per stream.

    Each (size k, repeat rep) draws from its own
    ``default_rng(SeedSequence(entropy=rng_seed, spawn_key=(k, rep)))``;
    each coefficient gathers its own per-test terms. The reference for
    the one-pass seeding and the batched gather of
    ``resampling.subsample_convergence``.
    """
    n_tests = len(cube.suite)
    terms = [np.array(randomness(cube, c).per_test) for c in coefficients]
    values = np.empty((len(sizes), len(coefficients), repeats))
    for i, k in enumerate(sizes):
        draws = []
        for rep in range(repeats):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=rng_seed, spawn_key=(k, rep))
            )
            draws.append(np.sort(rng.choice(n_tests, size=k, replace=False)))
        draws = np.array(draws)  # repeats x k test indexes
        for j, per_test in enumerate(terms):
            values[i, j] = 1.0 - per_test[draws].mean(axis=1)
    if repeats == 1:
        std = np.zeros(values.shape[:2])
    else:
        agree = (values == values[..., :1]).all(axis=-1)
        std = np.where(agree, 0.0, values.std(axis=-1, ddof=1))
    return values, values.mean(axis=-1), std
