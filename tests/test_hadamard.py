"""Census, rank partitions, feasibility, and the counting pipeline."""

import math
import random
from fractions import Fraction

import pytest

from acbounds.exactmat import BudgetExceededError, ExactMatrix, gram_det, rank
from acbounds.hadamard import (
    E_SQUARED_UPPER,
    E_FOURTH_UPPER,
    certify_rank_partition,
    enumerate_partial_hadamard,
    feasibility_condition,
    greedy_rank_partition,
    hadamard_upper_bound_exponent,
    iter_partial_hadamard,
    masks_to_matrix,
    pipeline_bound_check,
)


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
