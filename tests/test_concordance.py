import numpy as np
import pytest
from hypothesis import given, strategies as st

from rankbench.ranking import RankCube, TiePolicy, rank_cube
from rankbench.concordance import COEFFICIENTS, kendall_w, kendall_w_tied, randomness
from rankbench.results import TestId
from rankbench.wasserstein import wasserstein_w

from oracles import brute_force_w, brute_force_w_tied
from test_ranking import score_cubes


def cube_of(*tests, policy=TiePolicy.MEAN_OF_TIED):
    """A rank cube from per-test rank matrices (seeds by algorithms) of one shape."""
    ranks = np.array(tests, dtype=float)
    _, n, a = ranks.shape
    return RankCube(
        suite=tuple(TestId(f"d{t:03d}", "m") for t in range(len(ranks))),
        seeds=tuple(range(n)),
        algorithms=tuple(f"a{i}" for i in range(a)),
        policy=policy,
        ranks=ranks,
    )


def term(kernel, rows, policy=TiePolicy.MEAN_OF_TIED):
    """(term, warning or None) of a kernel on the one-test cube of ``rows``."""
    terms, warnings = kernel(cube_of(rows, policy=policy))
    assert terms.shape == (1,)
    return float(terms[0]), warnings.get(0)


class TestKendallW:
    def test_perfect_concordance(self):
        w, _ = term(kendall_w, [[1, 2, 3]] * 3)
        assert w == 1.0

    def test_complete_disagreement(self):
        w, _ = term(kendall_w, [[1, 2], [2, 1]])
        assert w == 0.0

    def test_hand_evaluated_example(self):
        # R = (4, 5, 9), mean 6, S = 4 + 1 + 9 = 14, W = 168/216
        rows = [[1, 2, 3], [2, 1, 3], [1, 2, 3]]
        w, _ = term(kendall_w, rows)
        assert w == pytest.approx(168 / 216, abs=1e-15)
        assert w == pytest.approx(float(brute_force_w(rows)), abs=1e-15)

    def test_oracle_equivalence_random_permutations(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a = int(rng.integers(2, 6))
            n = int(rng.integers(1, 5))
            rows = [list(rng.permutation(a) + 1) for _ in range(n)]
            w, _ = term(kendall_w, rows)
            assert abs(w - float(brute_force_w(rows))) < 1e-12

    def test_single_seed_distinct_ranks(self):
        # One seed cannot disagree with itself: W = 1.
        assert term(kendall_w, [[3, 1, 2, 4]])[0] == 1.0

    def test_whole_cube_matches_oracle_per_test(self):
        rng = np.random.default_rng(43)
        tests = [[list(rng.permutation(4) + 1) for _ in range(3)] for _ in range(20)]
        terms, warnings = kendall_w(cube_of(*tests))
        assert warnings == {}
        for got, rows in zip(terms, tests):
            assert abs(got - float(brute_force_w(rows))) < 1e-12


class TestKendallWTied:
    def test_hand_evaluated_tie_correction(self):
        rows = [[1.5, 1.5, 3], [1, 2, 3], [1, 2, 3]]
        w, _ = term(kendall_w_tied, rows)
        assert w == pytest.approx(186 / 198, abs=1e-15)

    def test_tie_correction_stays_with_its_test(self):
        # The tied test's correction must not leak into the untied one.
        tied, untied = [[1.5, 1.5, 3], [1, 2, 3], [1, 2, 3]], [[1, 2, 3], [2, 1, 3], [1, 2, 3]]
        terms, _ = kendall_w_tied(cube_of(untied, tied, untied))
        assert terms.tolist() == pytest.approx([168 / 216, 186 / 198, 168 / 216], abs=1e-15)

    def test_no_ties_equals_uncorrected(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = int(rng.integers(2, 6))
            n = int(rng.integers(1, 5))
            rows = [list(rng.permutation(a) + 1) for _ in range(n)]
            assert abs(term(kendall_w_tied, rows)[0] - term(kendall_w, rows)[0]) < 1e-12

    def test_ties_match_the_exact_textbook_formula(self):
        # Coarse integer scores tie often, -inf and +inf tie among themselves,
        # and eps > 0 chains neighbours into wider groups; every term must be
        # the correctly rounded exact value.
        rng = np.random.default_rng(11)
        for _ in range(200):
            tests, n, a = (int(x) for x in rng.integers([1, 1, 2], [5, 8, 12]))
            values = rng.integers(0, rng.integers(1, 6), (tests, n, a)).astype(float)
            values[rng.random(values.shape) < 0.15] = -np.inf
            values[rng.random(values.shape) < 0.1] = np.inf
            eps = float(rng.choice([0.0, 0.0, 1.0, 2.5]))
            higher = rng.random(tests) < 0.5
            cube = ranked(values, higher, TiePolicy.MEAN_OF_TIED, eps)
            terms, warnings = kendall_w_tied(cube)
            for t, rows in enumerate(cube.ranks.tolist()):
                assert terms[t] == float(brute_force_w_tied(rows))
                assert (t in warnings) == all(len(set(row)) == 1 for row in rows)

    def test_fully_tied_convention(self):
        result = randomness(cube_of([[2, 2, 2]] * 2), "w_tied")
        assert result.per_test == (1.0,)
        assert any("convention" in w for w in result.warnings)

    def test_rejects_lowest_shared_ranks(self):
        cube = cube_of([[1, 1, 3]], policy=TiePolicy.LOWEST_SHARED_RANK)
        with pytest.raises(ValueError, match="mean-of-tied"):
            randomness(cube, "w_tied")


class TestWRandomness:
    def test_mean_of_two_tests(self):
        cube = cube_of([[1, 2, 3]] * 3, [[1, 2, 3], [2, 1, 3], [1, 2, 3]])
        result = randomness(cube, "w")
        assert result.value == pytest.approx(1 - (1 + 168 / 216) / 2, abs=1e-12)
        assert result.value == pytest.approx(0.111111, abs=1e-6)
        assert result.per_test == pytest.approx((1.0, 168 / 216), abs=1e-12)

    def test_all_concordant_is_zero(self):
        assert randomness(cube_of(*[[[1, 2, 3]] * 4] * 5), "w").value == 0.0

    def test_empty_suite_rejected(self):
        empty = RankCube((), (0,), ("a", "b"), TiePolicy.MEAN_OF_TIED, np.empty((0, 1, 2)))
        with pytest.raises(ValueError, match="empty"):
            randomness(empty, "w")

    def test_one_algorithm_rejected(self):
        with pytest.raises(ValueError, match=r"^need at least 2 algorithms$"):
            randomness(cube_of([[1], [1]]), "w")

    def test_seed_permutation_invariance(self):
        rng = np.random.default_rng(3)
        rows = [list(rng.permutation(4) + 1) for _ in range(5)]
        shuffled = [rows[i] for i in rng.permutation(5)]
        for fn in (kendall_w, kendall_w_tied):
            assert term(fn, rows)[0] == term(fn, shuffled)[0]

    def test_algorithm_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        rows = np.array([rng.permutation(4) + 1 for _ in range(5)], dtype=float)
        perm = rng.permutation(4)
        for fn in (kendall_w, kendall_w_tied):
            assert term(fn, rows)[0] == pytest.approx(term(fn, rows[:, perm])[0], abs=1e-12)

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = int(rng.integers(2, 6))
            n = int(rng.integers(1, 5))
            cube = cube_of([list(rng.permutation(a) + 1) for _ in range(n)])
            assert 0.0 <= kendall_w(cube)[0][0] <= 1.0
            # Per-test suites, a varies, so aggregate one at a time.
            for name in ("w", "w_tied"):
                assert 0.0 <= randomness(cube, name).value <= 1.0

    def test_lowest_rank_out_of_range_flagged(self):
        # Lowest-shared ranks on a heavy tie can push Eq. 1 past 1.
        rows = [[1, 1, 1, 4]] * 2
        result = randomness(cube_of(rows, policy=TiePolicy.LOWEST_SHARED_RANK), "w")
        assert term(kendall_w, rows, TiePolicy.LOWEST_SHARED_RANK)[0] > 1.0
        assert result.warnings == ("test d000/m: per-test W 1.8 outside [0, 1] (tie policy lowest)",)


def ranked(values, higher, policy, eps=0.0):
    """The rank cube of a score cube, through the library's ranking kernel."""
    return cube_of(*rank_cube(values, higher[:, None], policy, eps), policy=policy)


@given(score_cubes(), st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_w_and_ww_terms_in_unit_interval_under_mean_ranks(cube, eps):
    ranks = ranked(*cube, TiePolicy.MEAN_OF_TIED, eps)
    for kernel in (kendall_w, wasserstein_w):
        terms, warnings = kernel(ranks)
        assert np.all((0.0 <= terms) & (terms <= 1.0)), kernel.__name__
        assert warnings == {}


@given(score_cubes(), st.sampled_from(list(TiePolicy)), st.randoms(use_true_random=False))
def test_terms_invariant_under_seed_and_algorithm_permutation(cube, policy, rnd):
    values, higher = cube
    seeds, algorithms = list(range(values.shape[1])), list(range(values.shape[2]))
    rnd.shuffle(seeds)
    rnd.shuffle(algorithms)
    for name, (kernel, needs_mean_ranks) in COEFFICIENTS.items():
        if needs_mean_ranks and policy is not TiePolicy.MEAN_OF_TIED:
            continue
        base = kernel(ranked(values, higher, policy))[0].tolist()
        assert kernel(ranked(values[:, seeds], higher, policy))[0].tolist() == base, name
        assert kernel(ranked(values[:, :, algorithms], higher, policy))[0].tolist() == base, name
