import numpy as np
import pytest

from rankbench.ranking import RankMatrix, TiePolicy
from rankbench.concordance import kendall_w, kendall_w_tied, randomness
from rankbench.results import TestId

from oracles import brute_force_w


def matrix_from_rows(rows, policy=TiePolicy.MEAN_OF_TIED, test=TestId("d", "m")):
    rows = np.array(rows, dtype=float)
    groups = []
    for row in rows:
        sizes = sorted(
            int(c) for c in np.unique(row, return_counts=True)[1] if c >= 2
        )
        groups.append(tuple(sizes))
    a = rows.shape[1]
    return RankMatrix(
        test=test,
        ranks=rows,
        tie_groups=tuple(groups),
        algorithms=tuple(f"a{i}" for i in range(a)),
        seeds=tuple(range(rows.shape[0])),
        policy=policy,
    )


class TestKendallW:
    def test_perfect_concordance(self):
        w, _ = kendall_w(matrix_from_rows([[1, 2, 3]] * 3))
        assert w == 1.0

    def test_complete_disagreement(self):
        w, _ = kendall_w(matrix_from_rows([[1, 2], [2, 1]]))
        assert w == 0.0

    def test_hand_evaluated_example(self):
        # R = (4, 5, 9), mean 6, S = 4 + 1 + 9 = 14, W = 168/216
        rows = [[1, 2, 3], [2, 1, 3], [1, 2, 3]]
        w, _ = kendall_w(matrix_from_rows(rows))
        assert w == pytest.approx(168 / 216, abs=1e-15)
        assert w == pytest.approx(float(brute_force_w(rows)), abs=1e-15)

    def test_oracle_equivalence_random_permutations(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a = int(rng.integers(2, 6))
            n = int(rng.integers(1, 5))
            rows = [list(rng.permutation(a) + 1) for _ in range(n)]
            w, _ = kendall_w(matrix_from_rows(rows))
            assert abs(w - float(brute_force_w(rows))) < 1e-12

    def test_single_seed_distinct_ranks(self):
        # One seed cannot disagree with itself: W = 1.
        assert kendall_w(matrix_from_rows([[3, 1, 2, 4]]))[0] == 1.0


class TestKendallWTied:
    def test_hand_evaluated_tie_correction(self):
        rows = [[1.5, 1.5, 3], [1, 2, 3], [1, 2, 3]]
        w, _ = kendall_w_tied(matrix_from_rows(rows))
        assert w == pytest.approx(186 / 198, abs=1e-15)

    def test_no_ties_equals_uncorrected(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = int(rng.integers(2, 6))
            n = int(rng.integers(1, 5))
            m = matrix_from_rows([list(rng.permutation(a) + 1) for _ in range(n)])
            assert abs(kendall_w_tied(m)[0] - kendall_w(m)[0]) < 1e-12

    def test_fully_tied_convention(self):
        result = randomness([matrix_from_rows([[2, 2, 2]] * 2)], "w_tied")
        assert result.per_test == (1.0,)
        assert any("convention" in w for w in result.warnings)

    def test_rejects_lowest_shared_ranks(self):
        m = matrix_from_rows([[1, 1, 3]], policy=TiePolicy.LOWEST_SHARED_RANK)
        with pytest.raises(ValueError, match="mean-of-tied"):
            randomness([m], "w_tied")


class TestWRandomness:
    def test_mean_of_two_tests(self):
        m1 = matrix_from_rows([[1, 2, 3]] * 3, test=TestId("d1", "m"))
        m2 = matrix_from_rows(
            [[1, 2, 3], [2, 1, 3], [1, 2, 3]], test=TestId("d2", "m")
        )
        result = randomness([m1, m2], "w")
        assert result.value == pytest.approx(1 - (1 + 168 / 216) / 2, abs=1e-12)
        assert result.value == pytest.approx(0.111111, abs=1e-6)

    def test_all_concordant_is_zero(self):
        ms = [
            matrix_from_rows([[1, 2, 3]] * 4, test=TestId(f"d{i}", "m"))
            for i in range(5)
        ]
        assert randomness(ms, "w").value == 0.0

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            randomness([], "w")

    def test_seed_permutation_invariance(self):
        rng = np.random.default_rng(3)
        rows = [list(rng.permutation(4) + 1) for _ in range(5)]
        base = matrix_from_rows(rows)
        shuffled = matrix_from_rows([rows[i] for i in rng.permutation(5)])
        for fn in (kendall_w, kendall_w_tied):
            assert fn(base)[0] == fn(shuffled)[0]

    def test_algorithm_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        rows = np.array([rng.permutation(4) + 1 for _ in range(5)], dtype=float)
        perm = rng.permutation(4)
        base = matrix_from_rows(rows)
        relabeled = matrix_from_rows(rows[:, perm])
        for fn in (kendall_w, kendall_w_tied):
            assert fn(base)[0] == pytest.approx(fn(relabeled)[0], abs=1e-12)

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(5)
        matrices = []
        for i in range(30):
            a = int(rng.integers(2, 6))
            n = int(rng.integers(1, 5))
            matrices.append(
                matrix_from_rows(
                    [list(rng.permutation(a) + 1) for _ in range(n)],
                    test=TestId(f"d{i}", "m"),
                )
            )
            assert 0.0 <= kendall_w(matrices[-1])[0] <= 1.0
        for name in ("w", "w_tied"):
            # Per-test suites, a varies, so aggregate one at a time.
            for m in matrices:
                assert 0.0 <= randomness([m], name).value <= 1.0

    def test_lowest_rank_out_of_range_flagged(self):
        # Lowest-shared ranks on a heavy tie can push Eq. 1 past 1.
        m = matrix_from_rows(
            [[1, 1, 1, 4]] * 2, policy=TiePolicy.LOWEST_SHARED_RANK
        )
        result = randomness([m], "w")
        assert kendall_w(m)[0] > 1.0
        assert result.warnings
