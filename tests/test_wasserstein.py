import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankbench.concordance import randomness
from rankbench.ranking import RankCube, TiePolicy
from rankbench.wasserstein import wasserstein_w, ww_normalizer

from oracles import brute_force_pairwise_rank_distance, brute_force_w1
from test_concordance import cube_of, term


def w1(samples1, samples2):
    """W1 of two equal-size samples: the W_w ratio of their 2-column rank matrix.

    With two algorithms the normaliser is 1, so the ratio is the single
    pairwise distance.
    """
    ratio, _ = term(wasserstein_w, np.column_stack([samples1, samples2]))
    return ratio


class TestW1Distance:
    def test_point_masses(self):
        assert w1([1, 1], [2, 2]) == 1.0

    def test_identity(self):
        assert w1([1, 3, 2], [3, 1, 2]) == 0.0

    def test_cdf_crossing_case(self):
        assert w1([1, 3], [2, 2]) == 1.0


rank_multiset = st.lists(
    st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0, 8.0]),
    min_size=1,
    max_size=10,
)


@given(rank_multiset, st.data())
@settings(max_examples=200)
def test_quantile_formula_matches_cdf_integration(s1, data):
    s2 = data.draw(st.lists(st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.5, 8.0]),
                            min_size=len(s1), max_size=len(s1)))
    got = w1(s1, s2)
    assert got == pytest.approx(float(brute_force_w1(s1, s2)), abs=1e-12)


@given(rank_multiset, st.data())
@settings(max_examples=100)
def test_metric_axioms(s1, data):
    k = len(s1)
    grid = st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0])
    s2 = data.draw(st.lists(grid, min_size=k, max_size=k))
    s3 = data.draw(st.lists(grid, min_size=k, max_size=k))
    d12 = w1(s1, s2)
    d21 = w1(s2, s1)
    d13 = w1(s1, s3)
    d23 = w1(s2, s3)
    assert d12 == d21
    assert d12 >= 0
    assert (d12 == 0) == (sorted(s1) == sorted(s2))
    assert d13 <= d12 + d23 + 1e-12


@pytest.mark.parametrize("a", range(2, 101))
def test_normalizer_identity(a):
    summed = sum(v * (v - 1) / 2 for v in range(1, a + 1))
    assert ww_normalizer(a) == summed
    assert ww_normalizer(a) == brute_force_pairwise_rank_distance(a)


class TestWwTest:
    def test_deterministic_distinct_ranks_saturate(self):
        ratio, _ = term(wasserstein_w, [[1, 2, 3]] * 4)
        assert ratio == 1.0

    def test_identical_distributions_zero(self):
        # Both algorithms see ranks {1, 2} across seeds.
        ratio, _ = term(wasserstein_w, [[1, 2], [2, 1]])
        assert ratio == 0.0

    def test_lowest_policy_can_exceed_one(self):
        rows = [[1, 1, 1, 4]] * 2
        # Not reachable with permutation rows; constructed matrix only.
        ratio, warning = term(wasserstein_w, rows, TiePolicy.LOWEST_SHARED_RANK)
        assert (ratio, warning) == (0.9, None)  # ratio is 9/10 here, no warning

    def test_ratio_above_one_flagged(self):
        # Competition ranks of scores 0.9 0.9 0.5 0.1: pairwise distances
        # sum to 11, above the normaliser 10 of distinct ranks.
        cube = cube_of([[1, 1, 3, 4]], [[1, 2, 3, 4]], policy=TiePolicy.LOWEST_SHARED_RANK)
        result = randomness(cube, "w_wasserstein")
        assert result.per_test == pytest.approx((1.1, 1.0), abs=1e-15)
        assert result.warnings == (
            "test d000/m: normalised Wasserstein ratio 1.1 exceeds 1 (tie policy lowest)",
        )


class TestWwRandomness:
    def test_all_deterministic_zero(self):
        assert randomness(cube_of(*[[[1, 2, 3]] * 5] * 4), "w_wasserstein").value == 0.0

    def test_identical_distributions_one(self):
        assert randomness(cube_of(*[[[1, 2], [2, 1]]] * 3), "w_wasserstein").value == 1.0

    def test_row_order_never_matters(self):
        rng = np.random.default_rng(11)
        rows = [list(rng.permutation(5) + 1) for _ in range(6)]
        base, _ = term(wasserstein_w, rows)
        shuffled, _ = term(wasserstein_w, [rows[i] for i in rng.permutation(6)])
        assert base == shuffled

    def test_unit_interval_on_permutation_rows(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = int(rng.integers(2, 7))
            n = int(rng.integers(1, 6))
            rows = [list(rng.permutation(a) + 1) for _ in range(n)]
            assert 0.0 <= term(wasserstein_w, rows)[0] <= 1.0

    def test_empty_suite_rejected(self):
        empty = RankCube((), (0,), ("a", "b"), TiePolicy.MEAN_OF_TIED, np.empty((0, 1, 2)))
        with pytest.raises(ValueError, match="empty"):
            randomness(empty, "w_wasserstein")
