"""Census, rank partitions, feasibility, and the counting pipeline."""

import math
import random
from fractions import Fraction
from math import comb

import pytest

from acbounds.bounds import atom_bound_dominates
from acbounds.exactmat import BudgetExceededError, ExactMatrix, gram_det, rank
from acbounds.hadamard import (
    E_SQUARED_UPPER,
    E_FOURTH_UPPER,
    PipelineReport,
    _census_states,
    certify_rank_partition,
    deal_leftover_columns,
    enumerate_partial_hadamard,
    feasibility_condition,
    greedy_rank_partition,
    hadamard_upper_bound_exponent,
    iter_partial_hadamard,
    masks_to_matrix,
    pipeline_bound_check,
)
from acbounds.oracle import count_sign_solutions, count_sign_solutions_columns


def test_census_base_cases():
    assert enumerate_partial_hadamard(1, 1).matrix_count == 2
    assert enumerate_partial_hadamard(2, 2).matrix_count == 8
    assert enumerate_partial_hadamard(2, 4).matrix_count == 96


def test_census_factoring_agrees_with_plain_enumeration():
    for k, n in ((2, 4), (3, 4), (4, 4), (2, 8)):
        plain = enumerate_partial_hadamard(k, n)
        factored = enumerate_partial_hadamard(k, n, fix_first_row=True)
        assert plain.matrix_count == factored.matrix_count
        assert factored.matrix_count == factored.normalized_count << n


def test_census_symmetry_divisibility():
    # closed under negating any row (2^k) and under negating column 0 (2)
    for k, n in ((2, 4), (3, 4), (2, 8)):
        count = enumerate_partial_hadamard(k, n).matrix_count
        assert count % (1 << k) == 0
        assert count % 2 == 0


def test_census_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_partial_hadamard(3, 12, budget=1000)


def _dfs_count(k, n, fix_first_row):
    return sum(1 for _ in iter_partial_hadamard(k, n, fix_first_row=fix_first_row))


def test_census_dp_matches_dfs():
    # The free DFS at n = 8 and k >= 3 would list 645,120 and 11,612,160
    # matrices, so there the oracle is the fixed-first-row DFS times 2^n
    # (negating columns maps any first row to all ones).
    for k in range(1, 5):
        for n in range(1, 9):
            fixed = _dfs_count(k, n, True)
            free = fixed << n if n == 8 and k >= 3 else _dfs_count(k, n, False)
            dp_fixed = enumerate_partial_hadamard(k, n, fix_first_row=True)
            dp_free = enumerate_partial_hadamard(k, n)
            assert (dp_fixed.normalized_count, dp_fixed.matrix_count) == (fixed, fixed << n)
            assert dp_free.normalized_count == dp_free.matrix_count == free


def test_census_closed_forms():
    h412 = comb(12, 6) * comb(6, 3) ** 2 * sum(comb(3, t) ** 4 for t in range(4))
    assert h412 == 60_614_400
    assert enumerate_partial_hadamard(4, 12, fix_first_row=True).normalized_count == h412
    h416 = enumerate_partial_hadamard(4, 16, fix_first_row=True)
    assert h416.normalized_count == 114_144_030_000
    assert h416.matrix_count == 114_144_030_000 << 16
    # Every 8 x 8 Hadamard matrix is equivalent to Sylvester's, whose
    # automorphism group has order 21504.
    full = (2**8 * math.factorial(8)) ** 2 // 21504
    assert full == 4_954_521_600
    assert enumerate_partial_hadamard(8, 8).matrix_count == full
    assert enumerate_partial_hadamard(8, 8, fix_first_row=True).matrix_count == full


def test_census_matrices_have_exact_gram():
    for masks in iter_partial_hadamard(2, 4):
        m = masks_to_matrix(masks, 4)
        assert gram_det(m) == 16


def test_greedy_partition_two_identity_blocks():
    m = ExactMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]])
    partition = greedy_rank_partition(m, 2, 2)
    assert partition is not None
    assert partition.blocks == ((0, 1), (2, 3))


def test_greedy_partition_infeasible_rank():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    assert greedy_rank_partition(m, 2, 1) is None


def test_greedy_partition_certified_on_random_inputs():
    rng = random.Random(13)
    successes = 0
    for _ in range(80):
        rows = rng.randint(1, 3)
        cols = rng.randint(2, 9)
        m = ExactMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        )
        r = rng.randint(1, rows)
        ell = rng.randint(1, 3)
        partition = greedy_rank_partition(m, r, ell)
        if partition is None:
            continue
        successes += 1
        certify_rank_partition(m, partition)  # raises on any violation
        for block in partition.blocks:
            assert rank(m.column_submatrix(block)) >= r
    assert successes > 20


def test_feasibility_examples():
    assert feasibility_condition(2, 1000, 1, 2) is True
    assert feasibility_condition(3, 12, 3, 2) is False  # r = k forces rhs = 1
    assert E_SQUARED_UPPER > Fraction(73890560, 10**7)


def test_feasibility_enclosure_is_above_e_squared():
    assert float(E_SQUARED_UPPER) > math.e**2
    assert float(E_SQUARED_UPPER) - math.e**2 < 1e-7


def test_feasibility_operating_point_at_large_scale():
    # r = floor(k/2), ell = floor(sqrt(n/(k e^4))) stays feasible well below
    # the n/15000 crossover
    for k, n in ((2, 40000), (3, 60000), (4, 120000)):
        assert n >= 15000 * k
        r = max(1, k // 2)
        ell = int(math.floor(math.sqrt(n / (k * float(E_FOURTH_UPPER)))))
        assert ell >= 2
        assert feasibility_condition(k, n, r, ell) is True


def test_desk_scale_censuses_have_no_feasible_pairs():
    # the feasibility inequality needs n in the tens of thousands; every
    # desk-scale (k, n, r, ell) must therefore report False
    for k in (1, 2, 3):
        for n in (4, 8, 12):
            for r in range(1, k + 1):
                for ell in (2, 4, 6):
                    assert feasibility_condition(k, n, r, ell) is False


def test_greedy_partition_on_wide_orthogonal_pair():
    # nonvacuous companion to the feasibility check: a 2 x 1000 orthogonal
    # pair satisfies the (1, 2) condition and the greedy build must succeed
    n = 1000
    row1 = [1] * n
    row2 = [1] * (n // 2) + [-1] * (n // 2)
    m = ExactMatrix.from_rows([row1, row2])
    assert feasibility_condition(2, n, 1, 2) is True
    partition = greedy_rank_partition(m, 1, 2)
    assert partition is not None
    certify_rank_partition(m, partition)


def test_pipeline_h24():
    report = pipeline_bound_check(2, 4, fix_first_row=False)
    assert report.ok()
    assert report.matrices_checked == 96
    assert report.max_solutions == 4
    assert report.odlyzko_count == 4


def test_pipeline_h28_factored():
    report = pipeline_bound_check(2, 8, fix_first_row=True)
    assert report.ok()
    assert report.matrices_checked == 70
    assert report.max_solutions <= 64
    assert report.halasz_checks > 0


def _per_matrix_pipeline(k, n, fix_first_row):
    """The pipeline's tallies taken matrix by matrix over the DFS census: a
    popcount Gram check, a solution count and every partition attempt on
    each matrix."""
    ref = PipelineReport(k=k, n=n, odlyzko_count=1 << (n - k))
    attempted = [(r, ell) for r in range(1, k + 1) for ell in (2, 4, 6) if r * ell <= n]
    feasible = [(r, ell) for r, ell in attempted if feasibility_condition(k, n, r, ell)]
    for masks in iter_partial_hadamard(k, n, fix_first_row=fix_first_row):
        ref.matrices_checked += 1
        wrong = sum(
            n - 2 * (masks[i] ^ masks[j]).bit_count() != (n if i == j else 0)
            for i in range(k)
            for j in range(i, k)
        )
        ref.gram_violations += wrong
        ref.exact_gram_violations += wrong > 0
        matrix = masks_to_matrix(masks, n)
        sols = count_sign_solutions(matrix)
        ref.max_solutions = max(ref.max_solutions, sols)
        ref.odlyzko_violations += sols > ref.odlyzko_count
        for r, ell in attempted:
            partition = greedy_rank_partition(matrix, r, ell)
            if partition is None:
                ref.partition_failures += (r, ell) in feasible
                continue
            ranks = [rank(matrix.column_submatrix(b))
                     for b in deal_leftover_columns(partition.blocks, n)]
            ref.halasz_violations += not atom_bound_dominates(Fraction(sols, 1 << n), ranks, ell)
            bound = float(Fraction(comb(ell, ell // 2), 1 << ell)) ** (sum(ranks) / ell) * (1 << n)
            ref.min_halasz_ratio = min(ref.min_halasz_ratio, sols / bound)
            ref.max_halasz_ratio = max(ref.max_halasz_ratio, sols / bound)
    return ref


def test_pipeline_per_state_matches_per_matrix():
    fields = (
        "matrices_checked", "max_solutions", "odlyzko_count", "gram_violations",
        "exact_gram_violations", "odlyzko_violations", "halasz_violations",
        "partition_failures", "min_halasz_ratio", "max_halasz_ratio",
    )
    cases = [(1, 4, False), (2, 4, False), (3, 4, False), (4, 4, False), (2, 8, True), (3, 8, True)]
    for k, n, fixed in cases:
        got = pipeline_bound_check(k, n, fix_first_row=fixed)
        ref = _per_matrix_pipeline(k, n, fixed)
        for field in fields:
            assert getattr(got, field) == getattr(ref, field), (k, n, fixed, field)
    # partition_sample is accepted and ignored
    assert pipeline_bound_check(3, 8, partition_sample=37) == pipeline_bound_check(3, 8)


def test_pipeline_rejects_shapes_outside_one_to_n():
    for k, n in ((5, 4), (0, 4)):
        with pytest.raises(ValueError, match=f"k={k}, n={n}"):
            pipeline_bound_check(k, n)


def test_pipeline_reaches_order_twelve_and_sixteen():
    for k, n, matrices, max_solutions in (
        (4, 12, 60_614_400, 64),
        (3, 16, 63_063_000, 1810),
        (4, 16, 114_144_030_000, 1296),
    ):
        report = pipeline_bound_check(k, n, fix_first_row=True)
        assert report.ok()
        assert report.matrices_checked == matrices
        assert report.max_solutions == max_solutions
    # One H_{4,12} state is a dead end: no fifth row extends it.
    states, _ = _census_states(4, 12, 10**8, True)
    counts = [
        count_sign_solutions_columns(
            [tuple(1 if h >> i & 1 else -1 for i in range(4)) for h, c in classes for _ in range(c)],
            (0,) * 4,
        )
        for classes in states
    ]
    assert counts.count(0) == 1


def test_exponent_assembly():
    assert hadamard_upper_bound_exponent(100, 0.1, 0.2, 0.0) == 5050
    assert hadamard_upper_bound_exponent(100, 0.1, 0.2, 0.1) == 5035
    for n in (8, 40, 200):
        trivial = n * (n + 1) // 2
        assert hadamard_upper_bound_exponent(n, 0.2, 0.5, 0.3) < trivial


def test_exponent_validation():
    with pytest.raises(ValueError):
        hadamard_upper_bound_exponent(10, 0.5, 0.2, 1.0)


def test_census_rejects_empty_shape_for_any_worker_count():
    for workers in (1, 2):
        with pytest.raises(ValueError):
            enumerate_partial_hadamard(0, 3, workers=workers)
