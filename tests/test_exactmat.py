"""Exact linear algebra: ranks, Gram determinants, minor identities."""

import math
import random
import re
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acbounds.exactmat import (
    BudgetExceededError,
    ExactMatrix,
    cauchy_binet_check,
    count_nonzero_minors,
    det,
    gram_det,
    rank,
)
from acbounds.oracle import _integer_basis, combinatorial_dimension

H24 = ExactMatrix.from_rows([[1, 1, 1, 1], [1, 1, -1, -1]])


def rref_fraction(rows):
    """Reduced row echelon form over Q, by Fraction Gauss-Jordan elimination.

    Returns (basis, pivot_cols) where basis rows are Fraction tuples spanning
    the row space, with basis[i][pivot_cols[j]] == (1 if i == j else 0).
    """
    a = [[Fraction(x) for x in r] for r in rows]
    if not a:
        return [], []
    nrows, ncols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv_row is None:
            continue
        a[r], a[piv_row] = a[piv_row], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return [tuple(a[i]) for i in range(r)], pivots


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
    for text in ("2 2\n+ -\n- +\n+ +\n", "2 2\n+ -\n", "2 3\n+ -\n- +\n"):
        with pytest.raises(ValueError, match="header does not match matrix body"):
            ExactMatrix.from_text(text)


def test_text_reads_sign_tokens():
    m = ExactMatrix.from_text("3 4\n+ + - -\n1 -1 1 -1\n+1 - -1 +\n")
    assert m == ExactMatrix.from_rows([[1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])
    # One bare '+' or '-' makes the whole body a sign matrix: 2 is refused.
    for text in ("1 2\n+ 2\n", "2 2\n1 2\n- +\n"):
        with pytest.raises(ValueError, match="bad sign token '2'"):
            ExactMatrix.from_text(text)


def test_from_rows_takes_numpy_ints_and_refuses_non_integers():
    m = ExactMatrix.from_rows(np.array([[1, -2], [3, 4]]))
    assert m.entries == ((1, -2), (3, 4))
    assert all(type(x) is int for row in m.entries for x in row)
    for bad in (1.5, 2.0, True, np.bool_(False), "3", Fraction(1, 1)):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} is not an integer$"):
            ExactMatrix.from_rows([[1, bad]])


@st.composite
def spanning_rows(draw):
    """0-6 rows of 1-10 columns, entries in [-30, 30] with many zeros and
    units, plus optional dependent rows, zero rows and a negated row (so a
    leading entry may be negative)."""
    n = draw(st.integers(1, 10))
    entry = st.sampled_from([0, 0, 0, 1, -1]) | st.integers(-30, 30)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
    if rows and draw(st.booleans()):
        x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.insert(draw(st.integers(0, len(rows))), [a * u + b * v for u, v in zip(x, y)])
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = [-u for u in rows[i]]
    return n, rows


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spanning_rows())
def test_integer_basis_matches_fraction_rref_and_naive_enumeration(drawn):
    n, rows = drawn
    basis, pivots = rref_fraction(rows)
    denom = math.lcm(*(x.denominator for row in basis for x in row))
    scaled = [[int(x * denom) for x in row] for row in basis]
    assert _integer_basis(rows) == (pivots, denom, scaled)
    # A sign vector x lies in the row space iff it is the combination of the
    # reduced rows with weights x[pivots]: denom * x = sum x[p_i] * scaled_i.
    brute = sum(
        all(denom * x[j] == sum(x[p] * row[j] for p, row in zip(pivots, scaled)) for j in range(n))
        for x in product((1, -1), repeat=n)
    )
    count, _ = combinatorial_dimension(ExactMatrix.from_rows(rows, cols=n))
    assert count == brute
