"""Exact linear algebra: ranks, Gram determinants, minor identities."""

import random
from itertools import combinations

import pytest

from acbounds.exactmat import (
    BudgetExceededError,
    ExactMatrix,
    SignMatrix,
    cauchy_binet_check,
    count_nonzero_minors,
    det,
    gram_det,
    rank,
    rref_fraction,
)

H24 = ExactMatrix.from_rows([[1, 1, 1, 1], [1, 1, -1, -1]])


def gauss_rank_oracle(m):
    """Independent rank computation by Fraction Gaussian elimination."""
    return len(rref_fraction(m.entries)[0])


def minor_rank_oracle(m):
    """Largest k with a nonzero k x k minor (full enumeration)."""
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = ExactMatrix.from_rows(
                    [[m.entries[i][j] for j in cols] for i in rows]
                )
                if det(sub) != 0:
                    best = k
                    break
            else:
                continue
            break
    return best


def random_matrix(rng, rows, cols, span=3):
    return ExactMatrix.from_rows(
        [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]
    )


def test_rank_examples():
    assert rank(ExactMatrix.identity(2)) == 2
    assert rank(H24) == 2
    assert rank(ExactMatrix.from_rows([[1, 1, 1]] * 3)) == 1


def test_rank_matches_gauss_and_minor_oracles():
    rng = random.Random(101)
    for _ in range(120):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6), span=2)
        r = rank(m)
        assert r == gauss_rank_oracle(m)
        assert r == minor_rank_oracle(m)


def test_rank_rejects_empty():
    with pytest.raises(ValueError):
        rank(ExactMatrix.from_rows([], cols=3))


def test_gram_det_examples():
    assert gram_det(H24) == 16  # 4^2 for orthogonal rows
    assert gram_det(ExactMatrix.from_rows([[1, 1]])) == 2
    assert gram_det(ExactMatrix.from_rows([[0, 0, 0]])) == 0


def test_gram_det_nonnegative_and_positive_iff_full_rank():
    rng = random.Random(7)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        if m.rows > m.cols:
            continue
        g = gram_det(m)
        assert g >= 0
        assert (g > 0) == (rank(m) == m.rows)


def test_cauchy_binet_smallest_case():
    lhs, rhs, equal = cauchy_binet_check(ExactMatrix.from_rows([[1, 1]]))
    assert (lhs, rhs, equal) == (2, 2, True)


def test_cauchy_binet_h24_against_direct_minor_sum():
    lhs, rhs, equal = cauchy_binet_check(H24)
    direct = sum(
        det(H24.column_submatrix(cols)) ** 2 for cols in combinations(range(4), 2)
    )
    assert equal
    assert lhs == 16
    assert rhs == direct == 16


def test_cauchy_binet_random_property():
    rng = random.Random(55)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(rows, 8)
        m = random_matrix(rng, rows, cols)
        lhs, rhs, equal = cauchy_binet_check(m)
        assert equal, (lhs, rhs, m.entries)


def test_cauchy_binet_budget():
    m = random_matrix(random.Random(1), 4, 10)
    with pytest.raises(BudgetExceededError):
        cauchy_binet_check(m, budget=5)


def test_count_nonzero_minors():
    assert count_nonzero_minors(H24) == 4  # also >= (n/k)^k = 4
    rank1 = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    assert count_nonzero_minors(rank1) == 0
    assert count_nonzero_minors(ExactMatrix.identity(2)) == 1


def test_det_matches_cofactor_expansion():
    rng = random.Random(3)

    def cofactor(m):
        n = m.rows
        if n == 1:
            return m.entries[0][0]
        total = 0
        for j in range(n):
            sub = ExactMatrix.from_rows(
                [
                    [m.entries[i][t] for t in range(n) if t != j]
                    for i in range(1, n)
                ]
            )
            total += (-1) ** j * m.entries[0][j] * cofactor(sub)
        return total

    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        assert det(m) == cofactor(m)


def test_text_and_json_round_trip():
    m = ExactMatrix.from_rows([[1, -2, 3], [0, 5, -6]])
    assert ExactMatrix.from_text(m.to_text()) == m
    assert ExactMatrix.from_json(m.to_json()) == m


def test_text_parsers_reject_a_body_that_does_not_match_the_header():
    for text in ("2 2\n0 2\n2 0\n5 5\n", "2 2\n0 2\n"):
        with pytest.raises(ValueError, match="header does not match matrix body"):
            ExactMatrix.from_text(text)
    for text in ("2 2\n+ -\n- +\n+ +\n", "2 2\n+ -\n"):
        with pytest.raises(ValueError, match="header does not match matrix body"):
            SignMatrix.from_text(text)


def test_sign_matrix_tokens_and_packing():
    s = SignMatrix.from_text("2 4\n+ + - -\n1 -1 1 -1\n")
    assert s.to_exact() == ExactMatrix.from_rows([[1, 1, -1, -1], [1, -1, 1, -1]])
    assert s.row_dot(0, 0) == 4
    assert s.row_dot(0, 1) == 0
    with pytest.raises(ValueError):
        SignMatrix.from_rows([[1, 0]])


def test_sign_matrix_round_trips_losslessly():
    rng = random.Random(11)
    for _ in range(30):
        rows = [[rng.choice((1, -1)) for _ in range(6)] for _ in range(3)]
        s = SignMatrix.from_rows(rows)
        assert s.to_exact().entries == tuple(tuple(r) for r in rows)
