import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import loop_rank_row, table_of
from rankbench import ranking
from rankbench.ranking import (
    RankCube,
    TiePolicy,
    count_ties,
    rank_cube,
    rank_table,
    ranks_to_csv,
    tie_groups,
)
from rankbench.results import (
    Direction,
    MetricSpec,
    Status,
    ingest,
    resolve_failures,
)
from rankbench.synthgen import SynthConfig, generate

HIGHER, LOWER = True, False


def group_sizes(ranks):
    return tie_groups(ranks)[1].tolist()


class TestRankRow:
    def test_fractional_ranking(self):
        ranks = rank_cube([0.9, 0.7, 0.7, 0.1], HIGHER)
        assert ranks.tolist() == [1.0, 2.5, 2.5, 4.0]
        assert group_sizes(ranks) == [2]

    def test_lower_better_mean_ties(self):
        assert rank_cube([0.0, 0.2, 0.0], LOWER).tolist() == [1.5, 3.0, 1.5]

    def test_lower_better_competition_ranking(self):
        ranks = rank_cube([0.0, 0.2, 0.0], LOWER, TiePolicy.LOWEST_SHARED_RANK)
        assert ranks.tolist() == [1.0, 3.0, 1.0]

    def test_epsilon_transitive_closure(self):
        # 0.10 and 0.18 are not within eps of each other but chain via 0.14.
        ranks = rank_cube([0.10, 0.14, 0.18, 0.5], LOWER, tie_epsilon=0.05)
        assert ranks.tolist() == [2.0, 2.0, 2.0, 4.0]
        assert group_sizes(ranks) == [3]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            rank_cube([0.1, float("nan")], HIGHER)

    def test_single_value_rejected(self):
        with pytest.raises(ValueError):
            rank_cube([0.1], HIGHER)

    def test_infinities_rank_last_and_tie(self):
        inf = float("inf")
        ranks = rank_cube([inf, 1.0, inf, -inf], LOWER, tie_epsilon=5.0)
        assert ranks.tolist() == [3.5, 2.0, 3.5, 1.0]
        assert group_sizes(ranks) == [2]
        ranks = rank_cube([-inf, 1.0, -inf, 1e308], HIGHER, tie_epsilon=1e308)
        assert ranks.tolist() == [3.5, 1.5, 3.5, 1.5]

    @pytest.mark.parametrize("eps", [float("inf"), float("nan"), -1.0])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="tie_epsilon"):
            rank_cube([0.1, 0.2], HIGHER, tie_epsilon=eps)


values_vec = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=2,
    max_size=8,
)


@given(values_vec)
def test_mean_ties_rank_sum_conserved(values):
    a = len(values)
    ranks = rank_cube(values, HIGHER, TiePolicy.MEAN_OF_TIED)
    assert ranks.sum() == a * (a + 1) / 2


@given(values_vec)
def test_lowest_rank_sum_bounded(values):
    a = len(values)
    ranks = rank_cube(values, HIGHER, TiePolicy.LOWEST_SHARED_RANK)
    assert ranks.sum() <= a * (a + 1) / 2


@given(values_vec, st.randoms(use_true_random=False))
def test_permutation_equivariance(values, rnd):
    perm = list(range(len(values)))
    rnd.shuffle(perm)
    base = rank_cube(values, HIGHER)
    permuted = rank_cube([values[p] for p in perm], HIGHER)
    assert permuted.tolist() == base[perm].tolist()


@given(st.lists(st.integers(-400, 400).map(lambda i: i / 4), min_size=2, max_size=8))
def test_monotone_transform_invariance(values):
    # Coarse grid keeps arctan injective in floating point.
    base = rank_cube(values, HIGHER)
    squashed = rank_cube([np.arctan(v) + 3.0 for v in values], HIGHER)
    assert squashed.tolist() == base.tolist()


@given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=8, unique=True))
def test_policies_agree_on_distinct_values(values):
    mean = rank_cube(values, LOWER, TiePolicy.MEAN_OF_TIED)
    lowest = rank_cube(values, LOWER, TiePolicy.LOWEST_SHARED_RANK)
    assert mean.tolist() == lowest.tolist()
    assert group_sizes(mean) == group_sizes(lowest) == []


def _table(score):
    """Build a table from score[alg][dataset][metric][seed]."""
    metrics = sorted({m for d in score.values() for m in list(d.values())[0]})
    registry = {m: MetricSpec(m, Direction.HIGHER_BETTER) for m in metrics}
    return table_of(
        (
            (alg, ds, m, seed, v, Status.OK if v is not None else Status.OUT_OF_MEMORY)
            for alg, per_ds in score.items()
            for ds, per_m in per_ds.items()
            for m, per_seed in per_m.items()
            for seed, v in enumerate(per_seed)
        ),
        registry,
    )


class TestRankTable:
    def test_dominant_algorithm_all_ones(self):
        table = _table(
            {
                "best": {"d1": {"m": [0.9, 0.8]}, "d2": {"m": [0.7, 0.9]}},
                "mid": {"d1": {"m": [0.5, 0.4]}, "d2": {"m": [0.3, 0.2]}},
                "worst": {"d1": {"m": [0.1, 0.2]}, "d2": {"m": [0.1, 0.1]}},
            }
        )
        cube = rank_table(table)
        assert cube.algorithms == ("best", "mid", "worst")
        assert np.all(cube.ranks[:, :, 0] == 1.0)  # "best" sorts first

    def test_oom_records_tie_every_seed(self):
        table = resolve_failures(
            _table(
                {
                    "a": {"d": {"m": [0.9, 0.8]}},
                    "b": {"d": {"m": [None, None]}},
                    "c": {"d": {"m": [None, None]}},
                }
            )
        )
        cube = rank_table(table)
        rows, sizes = tie_groups(cube.ranks)
        assert (rows.tolist(), sizes.tolist()) == ([0, 1], [2, 2])
        # Hand-ranked toy: failures share the bottom mid-rank.
        assert cube.ranks.tolist() == [[[1.0, 2.5, 2.5], [1.0, 2.5, 2.5]]]

    @pytest.mark.parametrize(
        "score_a, eps, expected",
        [
            # 1e17 + 1 == 1e17: no finite sentinel one past the worst OK score separates them.
            ("1e17", 0.0, [2.0, 3.0, 1.0]),
            # A sentinel 6 would chain-tie with 5 at eps 1.
            ("1", 1.0, [1.0, 3.0, 2.0]),
        ],
    )
    def test_unbounded_failure_ranks_strictly_last(self, score_a, eps, expected):
        csv_text = (
            "algorithm,dataset,metric,seed,value,status\n"
            f"a,d,loss,0,{score_a},ok\n"
            "b,d,loss,0,,timeout\n"
            "c,d,loss,0,5,ok\n"
        )
        registry = {"loss": MetricSpec("loss", Direction.LOWER_BETTER)}
        cube = rank_table(ingest(csv_text, registry), tie_epsilon=eps)
        assert cube.ranks[0, 0].tolist() == expected

    def test_ok_score_at_worst_bound_ties_with_failures(self):
        csv_text = (
            "algorithm,dataset,metric,seed,value,status\n"
            "a,d,f1,0,0.5,ok\n"
            "b,d,f1,0,0.0,ok\n"
            "c,d,f1,0,,oom\n"
        )
        registry = {"f1": MetricSpec("f1", Direction.HIGHER_BETTER, (0.0, 1.0))}
        cube = rank_table(ingest(csv_text, registry))
        assert cube.ranks[0, 0].tolist() == [1.0, 2.5, 2.5]

    def test_paper_shaped_table(self):
        registry = {f"m{i}": MetricSpec(f"m{i}", Direction.HIGHER_BETTER) for i in range(4)}
        rng = np.random.default_rng(1)
        rows = [
            (f"alg{a:02d}", f"d{d:02d}", f"m{m}", s, float(rng.random()))
            for a in range(10)
            for d in range(11)
            for m in range(4)
            for s in range(10)
        ]
        cube = rank_table(table_of(rows, registry))
        assert len(cube.suite) == 44
        assert cube.ranks.shape == (44, 10, 10)
        assert list(cube.suite) == sorted(cube.suite)


class TestCountTies:
    def test_no_ties(self):
        table = _table({"a": {"d": {"m": [0.1, 0.2]}}, "b": {"d": {"m": [0.3, 0.4]}}})
        assert count_ties(rank_table(table)) == 0

    def test_one_pair_per_seed(self):
        table = _table(
            {
                "a": {"d": {"m": [0.5, 0.5, 0.5]}},
                "b": {"d": {"m": [0.5, 0.5, 0.5]}},
                "c": {"d": {"m": [0.9, 0.9, 0.9]}},
            }
        )
        assert count_ties(rank_table(table)) == 3

    def test_hand_enumerated_groups(self):
        # seed 0: groups {a,b} and {c,d}; seed 1: group {a,b,c} -> 3 groups.
        table = _table(
            {
                "a": {"d": {"m": [0.5, 0.2]}},
                "b": {"d": {"m": [0.5, 0.2]}},
                "c": {"d": {"m": [0.7, 0.2]}},
                "d": {"d": {"m": [0.7, 0.9]}},
            }
        )
        cube = rank_table(table)
        # Independent brute-force count of equal-value groups per seed.
        expected = 0
        for seed in (0, 1):
            vals = table.values[0, seed].tolist()
            expected += sum(1 for v in set(vals) if vals.count(v) >= 2)
        assert expected == 3
        assert count_ties(cube) == expected


def test_debug_csv_export():
    table = _table({"a": {"d": {"m": [0.1]}}, "b": {"d": {"m": [0.2]}}})
    text = "".join(ranks_to_csv(rank_table(table)))
    lines = text.splitlines()
    assert lines[0] == "dataset,metric,seed,algorithm,rank"
    assert "d,m,0,b,1.0" in lines


# Scores on a coarse grid, so that exact ties (and eps-chains) are common.
tied_scores = st.integers(-4, 4).map(lambda k: k * 0.25)


@st.composite
def score_cubes(draw, scores=tied_scores):
    tests, seeds, algorithms = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(2, 6))
    size = tests * seeds * algorithms
    values = draw(st.lists(scores, min_size=size, max_size=size))
    higher = draw(st.lists(st.booleans(), min_size=tests, max_size=tests))
    return np.array(values).reshape(tests, seeds, algorithms), np.array(higher)


@given(
    score_cubes(),
    st.sampled_from(list(TiePolicy)),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
def test_cube_ranking_matches_row_by_row(cube, policy, eps):
    values, higher = cube
    ranks = rank_cube(values, higher[:, None], policy, eps)
    group_rows, sizes = tie_groups(ranks)
    lowest = policy is TiePolicy.LOWEST_SHARED_RANK
    tests, seeds, _ = values.shape
    for t in range(tests):
        for s in range(seeds):
            row = values[t, s].tolist()
            row_ranks = rank_cube(row, higher[t], policy, eps)
            assert ranks[t, s].tolist() == row_ranks.tolist()
            assert sizes[group_rows == t * seeds + s].tolist() == group_sizes(row_ranks)
            assert (row_ranks.tolist(), group_sizes(row_ranks)) == loop_rank_row(
                row, higher[t], lowest, eps
            )


# Block sizes in cells, as a function of the row length a: one row, two
# rows, three rows with a cell to spare (a short last block for most
# cubes), and less than one row, which still ranks a whole row at a time.
BLOCKS = {
    "1 row": lambda a: a,
    "2 rows": lambda a: 2 * a,
    "3 rows": lambda a: 3 * a + 1,
    "1 cell": lambda a: 1,
}


@pytest.mark.parametrize("block", BLOCKS.values(), ids=BLOCKS.keys())
@given(
    score_cubes(st.one_of(tied_scores, st.sampled_from([-np.inf, np.inf]))),
    st.sampled_from(list(TiePolicy)),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
@example(  # 5 rows: blocks of 2, 2 and 1 at "2 rows"
    (np.array([[[np.inf, 0.0, np.inf]], [[-np.inf] * 3], [[0.0, 0.25, 0.5]],
               [[1.0, -np.inf, 1.0]], [[np.inf, -np.inf, 0.0]]]),
     np.array([True, False, True, False, True])),
    TiePolicy.MEAN_OF_TIED,
    0.25,
)
def test_cube_ranking_matches_row_by_row_at_every_block_size(block, cube, policy, eps):
    values, higher = cube
    whole = rank_cube(values, higher[:, None], policy, eps)
    groups = tie_groups(whole)
    with mock.patch.object(ranking, "_BLOCK", block(values.shape[-1])):
        test_cube_ranking_matches_row_by_row.hypothesis.inner_test(cube, policy, eps)
        ranks = rank_cube(values, higher[:, None], policy, eps)
        assert ranks.tobytes() == whole.tobytes()
        in_place = values.copy()  # each block is read before its ranks are written
        rank_cube(in_place, higher[:, None], policy, eps, out=in_place)
        assert in_place.tobytes() == whole.tobytes()
        for got, want in zip(tie_groups(ranks), groups):
            assert (got.dtype, got.tolist()) == (want.dtype, want.tolist())
        assert count_ties(RankCube((), (), (), policy, ranks)) == len(groups[1])


def test_ranking_peaks_at_a_small_multiple_of_the_cube():
    # The CI step's 400k-cell grid: 400 tests x 50 seeds x 20 algorithms, a
    # 3.2 MB rank cube. Ranked whole, rank_table held about ten cube-sized
    # temporaries (10.1x the cube) and count_ties sorted a copy of it (4.0x);
    # a block at a time they peak at 1.15x (the resolved values, which the
    # ranks overwrite, and one block) and 0.13x.
    table = generate(SynthConfig(n_algorithms=20, n_datasets=100, n_metrics=4, n_seeds=50,
                                 noise_scale=0.5, tie_prob=0.1, fail_prob=0.05))
    tracemalloc.start()
    try:
        cube = rank_table(table)
        ranking_peak, held = tracemalloc.get_traced_memory()[::-1]
        tracemalloc.reset_peak()
        count_ties(cube)
        counting_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(table.suite) == 400
    assert ranking_peak < 3 * cube.ranks.nbytes
    assert counting_peak < 0.5 * cube.ranks.nbytes


def _rows(values, failed):
    tests, seeds, algorithms = values.shape
    return [
        (
            f"alg{a}", f"d{t}", "m", s,
            None if failed[t, s, a] else float(values[t, s, a]),
            Status.TIMEOUT if failed[t, s, a] else Status.OK,
        )
        for t in range(tests)
        for s in range(seeds)
        for a in range(algorithms)
    ]


@given(score_cubes(), st.randoms(use_true_random=False), st.sampled_from(list(TiePolicy)))
def test_rank_table_ignores_row_order(cube, rnd, policy):
    values, _ = cube
    failed = np.array([rnd.random() < 0.2 for _ in range(values.size)]).reshape(values.shape)
    rows = _rows(values, failed)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    registry = {"m": MetricSpec("m", Direction.LOWER_BETTER)}
    first, second = (
        rank_table(resolve_failures(table_of(r, registry)), policy, 0.25)
        for r in (rows, shuffled)
    )
    assert first.suite == second.suite
    assert first.ranks.tolist() == second.ranks.tolist()


@given(
    st.integers(1, 3).flatmap(
        lambda seeds: st.tuples(
            st.lists(st.floats(-1e300, 1e300), min_size=seeds * 4, max_size=seeds * 4),
            st.lists(st.booleans(), min_size=seeds * 4, max_size=seeds * 4),
        )
    ),
    st.sampled_from(list(Direction)),
    st.sampled_from([None, (-1e300, 1e300)]),
    st.sampled_from(list(TiePolicy)),
    st.floats(min_value=0.0, allow_infinity=False),
)
def test_failed_cell_never_outranks_ok_cell(cells, direction, bounds, policy, eps):
    scores, fails = cells
    values = np.array(scores).reshape(1, -1, 4)
    failed = np.array(fails).reshape(values.shape)
    registry = {"m": MetricSpec("m", direction, bounds)}
    table = resolve_failures(table_of(_rows(values, failed), registry))
    for ranks, row_failed in zip(rank_table(table, policy, eps).ranks[0], failed[0]):
        if row_failed.any() and not row_failed.all():
            worst_ok = ranks[~row_failed].max()
            if bounds is None:
                # Failures are at infinity, farther than any finite eps.
                assert ranks[row_failed].min() > worst_ok
            else:
                # An OK score at the worst bound ties with failures.
                assert ranks[row_failed].min() >= worst_ok


@given(
    score_cubes(),
    st.randoms(use_true_random=False),
    st.sampled_from([None, (-1.0, 1.0)]),
    st.sampled_from(list(TiePolicy)),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
def test_flipped_direction_equals_negated_values(cube, rnd, bounds, policy, eps):
    values, _ = cube
    failed = np.array([rnd.random() < 0.2 for _ in range(values.size)]).reshape(values.shape)
    flipped_bounds = None if bounds is None else (-bounds[1], -bounds[0])
    lower = {"m": MetricSpec("m", Direction.LOWER_BETTER, bounds)}
    higher = {"m": MetricSpec("m", Direction.HIGHER_BETTER, flipped_bounds)}
    first = rank_table(table_of(_rows(values, failed), lower), policy, eps)
    second = rank_table(table_of(_rows(-values, failed), higher), policy, eps)
    assert first.ranks.tolist() == second.ranks.tolist()
