"""Independent brute-force oracles used by unit and acceptance tests.

Kept deliberately naive (pure Python, Fractions, explicit breakpoint
integration) and separate from the library code paths they check. One
helper, :func:`table_of`, builds a library table from plain rows.
"""

from fractions import Fraction

from rankbench.results import STATUSES, ResultTable, Status


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
        while end < len(order) and abs(
            sign * values[order[end]] - sign * values[order[end - 1]]
        ) <= tie_epsilon:
            end += 1
        size = end - pos
        rank = pos + 1 if lowest_shared else (2 * (pos + 1) + size - 1) / 2
        for k in range(pos, end):
            ranks[order[k]] = float(rank)
        if size >= 2:
            sizes.append(size)
        pos = end
    return ranks, sizes
