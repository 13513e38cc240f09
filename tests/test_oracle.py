"""Brute-force oracle: atom tables, solution counts, subspace sign vectors."""

import random
from fractions import Fraction
from itertools import product

import pytest

from acbounds.bounds import halasz_atom_bound
from acbounds.exactmat import BudgetExceededError, ExactMatrix, rank
from acbounds.oracle import (
    atom_distribution,
    atom_max,
    combinatorial_dimension,
    count_sign_solutions,
    levy_lower_bound,
)
from acbounds.sweeps import tightness_system
from acbounds.system import VectorSystem

H24 = ExactMatrix.from_rows([[1, 1, 1, 1], [1, 1, -1, -1]])


def naive_atom_distribution(vectors):
    """Oracle for the oracle: direct iteration over all 2^n sign vectors."""
    n = len(vectors)
    d = len(vectors[0])
    counts = {}
    for signs in product((1, -1), repeat=n):
        p = tuple(sum(s * v[c] for s, v in zip(signs, vectors)) for c in range(d))
        counts[p] = counts.get(p, 0) + 1
    return {p: Fraction(c, 1 << n) for p, c in counts.items()}


def test_atom_distribution_two_coins():
    sys = VectorSystem.from_vectors([(1,), (1,)])
    table = atom_distribution(sys)
    assert table.probs == {
        (-2,): Fraction(1, 4),
        (0,): Fraction(1, 2),
        (2,): Fraction(1, 4),
    }
    assert table.total_mass == 1


def test_atom_distribution_single_vector():
    table = atom_distribution(VectorSystem.from_vectors([(3, -1)]))
    assert sorted(table.probs.values()) == [Fraction(1, 2), Fraction(1, 2)]


def test_atom_distribution_matches_naive():
    rng = random.Random(21)
    for _ in range(40):
        d = rng.randint(1, 3)
        n = rng.randint(1, 10)
        vectors = [
            tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)
        ]
        sys = VectorSystem.from_vectors(vectors)
        assert atom_distribution(sys).probs == naive_atom_distribution(vectors)


def test_atom_distribution_matches_naive_wider():
    rng = random.Random(22)
    vectors = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(16)]
    sys = VectorSystem.from_vectors(vectors)
    assert atom_distribution(sys).probs == naive_atom_distribution(vectors)


def test_atom_masses_share_one_fraction_per_count():
    rng = random.Random(23)
    tight = [tightness_system(d, ell) for d in (1, 2, 3) for ell in (2, 4)]
    systems = tight + [
        VectorSystem.from_vectors(
            [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, 12))]
        )
        for d in (1, 2, 3, 4)
        for _ in range(5)
    ]
    for sys in systems:
        n = sys.n
        counts = {p: int(q * (1 << n)) for p, q in naive_atom_distribution(sys.vectors).items()}
        table = atom_distribution(sys)
        assert table.probs.keys() == counts.keys()
        for p, c in counts.items():
            assert table.probs[p] == Fraction(c, 2**n)
        # Atoms with equal counts hold the same Fraction object.
        assert len({id(q) for q in table.probs.values()}) == len(set(counts.values()))
        assert table.max_atom() == Fraction(max(counts.values()), 2**n)
        # The largest atom is one of the shared masses, not a new Fraction.
        assert any(q is table.max_atom() for q in table.probs.values())
    for sys in tight:
        assert atom_max(sys) == halasz_atom_bound(sys.block_ranks(), sys.ell)


def test_atom_masses_are_dyadic():
    sys = VectorSystem.from_vectors([(1, 0), (1, 1), (0, 2)])
    for mass in atom_distribution(sys).probs.values():
        assert (8 * mass).denominator == 1


def test_atom_max_equal_weights_hits_central_binomial():
    sys = VectorSystem.from_vectors([(2,)] * 10)
    assert atom_max(sys) == Fraction(252, 1024)


def test_atom_max_dyadic_weights_all_sums_distinct():
    vectors = [(2**i,) for i in range(8)]
    assert atom_max(VectorSystem.from_vectors(vectors)) == Fraction(1, 256)


def test_atom_cap():
    sys = VectorSystem.from_vectors([(1,)] * 12)
    with pytest.raises(BudgetExceededError):
        atom_distribution(sys, cap=10)


def test_empty_system_rejected_at_construction():
    with pytest.raises(ValueError):
        VectorSystem.from_vectors([])


def test_count_sign_solutions_h24():
    assert count_sign_solutions(H24, (0, 0)) == 4
    # independent brute force
    brute = sum(
        1
        for x in product((1, -1), repeat=4)
        if sum(x) == 0 and x[0] + x[1] - x[2] - x[3] == 0
    )
    assert brute == 4


def test_count_sign_solutions_parity():
    ones = ExactMatrix.from_rows([[1, 1, 1, 1, 1]])
    assert count_sign_solutions(ones, (0,)) == 0


def test_count_sign_solutions_no_constraints():
    empty = ExactMatrix.from_rows([], cols=6)
    assert count_sign_solutions(empty) == 64


def test_count_sign_solutions_zero_rows_checks_the_target():
    empty = ExactMatrix.from_rows([], cols=5)
    assert count_sign_solutions(empty, ()) == 32
    for target in ((1,), (7, 7)):
        with pytest.raises(ValueError, match="target vector length mismatch"):
            count_sign_solutions(empty, target)
    with pytest.raises(BudgetExceededError, match="cap 4"):
        count_sign_solutions(empty, cap=4)


def test_count_sign_solutions_zero_columns_checks_the_target():
    empty = ExactMatrix.from_rows([[], []])
    assert count_sign_solutions(empty) == 1
    assert count_sign_solutions(empty, (0, 0)) == 1
    assert count_sign_solutions(empty, (0, 1)) == 0
    for target in ((), (0,), (0, 0, 0)):
        with pytest.raises(ValueError, match="target vector length mismatch"):
            count_sign_solutions(empty, target)


def test_count_sign_solutions_kernel_bound():
    rng = random.Random(31)
    for _ in range(60):
        rows = rng.randint(1, 3)
        cols = rng.randint(rows, 10)
        m = ExactMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        )
        assert count_sign_solutions(m) <= 1 << (cols - rank(m))


def test_count_sign_solutions_matches_naive():
    rng = random.Random(41)
    for _ in range(30):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 8)
        m = ExactMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        )
        b = tuple(rng.randint(-2, 2) for _ in range(rows))
        brute = sum(
            1
            for x in product((1, -1), repeat=cols)
            if all(
                sum(m.entries[i][j] * x[j] for j in range(cols)) == b[i]
                for i in range(rows)
            )
        )
        assert count_sign_solutions(m, b) == brute


def test_combinatorial_dimension_all_ones_line():
    count, d_pm = combinatorial_dimension(ExactMatrix.from_rows([[1, 1, 1, 1, 1]]))
    assert count == 2
    assert d_pm == 1.0


def test_combinatorial_dimension_full_space():
    count, d_pm = combinatorial_dimension(ExactMatrix.identity(5))
    assert count == 32
    assert d_pm == 5.0


def test_combinatorial_dimension_empty_intersection():
    count, d_pm = combinatorial_dimension(ExactMatrix.from_rows([[1, 0]]))
    assert count == 0
    assert d_pm is None


def test_combinatorial_dimension_never_exceeds_rank_bound():
    rng = random.Random(61)
    for _ in range(50):
        r = rng.randint(1, 5)
        n = rng.randint(r, 10)
        m = ExactMatrix.from_rows(
            [[rng.choice((1, -1)) for _ in range(n)] for _ in range(r)]
        )
        count, _ = combinatorial_dimension(m)
        assert count <= 1 << rank(m)


def _naive_sign_vectors_in_row_space(m):
    """Sign vectors in the row space of m, each tested by rank comparison."""
    brute = 0
    for x in product((1, -1), repeat=m.cols):
        stacked = ExactMatrix.from_rows(list(m.entries) + [list(x)])
        if rank(stacked) == rank(m):
            brute += 1
    return brute


def test_combinatorial_dimension_matches_naive_on_small_spaces():
    rng = random.Random(71)
    for _ in range(20):
        r = rng.randint(1, 3)
        n = rng.randint(r, 7)
        m = ExactMatrix.from_rows(
            [[rng.randint(-1, 1) for _ in range(n)] for _ in range(r)]
        )
        count, _ = combinatorial_dimension(m)
        assert count == _naive_sign_vectors_in_row_space(m)
    # Rank 4-6 (odd ranks and full rank r = n included): sign rows, so the
    # count is at least 2, mixed with rows in [-3, 3], so the reduced basis
    # has non-unit denominators.
    for r, n in ((4, 4), (4, 6), (4, 8), (5, 5), (5, 6), (5, 7), (5, 8), (6, 6), (6, 7), (6, 8)):
        sign_rows = rng.randint(1, r - 1)
        m = ExactMatrix.from_rows(
            [[rng.choice((1, -1)) for _ in range(n)] for _ in range(sign_rows)]
            + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r - sign_rows)]
        )
        count, _ = combinatorial_dimension(m)
        assert count >= 2
        assert count == _naive_sign_vectors_in_row_space(m)


def test_levy_radius_zero_equals_atom_max():
    rng = random.Random(81)
    for _ in range(20):
        d = rng.randint(1, 2)
        n = rng.randint(1, 8)
        sys = VectorSystem.from_vectors(
            [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)]
        )
        assert levy_lower_bound(sys, 0) == atom_max(sys)


def test_levy_covers_support_at_small_radius():
    sys = VectorSystem.from_vectors([(1,), (1,)])
    assert levy_lower_bound(sys, 2) == 1


def test_levy_huge_radius():
    sys = VectorSystem.from_vectors([(3, 1), (1, -2), (0, 5)])
    assert levy_lower_bound(sys, 100) == 1


def test_levy_negative_radius_rejected():
    sys = VectorSystem.from_vectors([(1,), (1,)])
    for centers in ("atoms", "atoms+midpoints"):
        with pytest.raises(ValueError):
            levy_lower_bound(sys, -1, centers=centers)


def test_levy_midpoint_policy_not_worse():
    sys = VectorSystem.from_vectors([(1,), (3,)])
    base = levy_lower_bound(sys, 1)
    better = levy_lower_bound(sys, 1, centers="atoms+midpoints")
    assert better >= base


def test_levy_midpoints_match_all_pairs_maximum():
    # Deduplicated midpoints must give the maximum over every atom pair,
    # here recomputed pair by pair with plain `Fraction` distances.
    rng = random.Random(29)
    for d in (1, 2, 3):
        for _ in range(3):
            vectors = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(2, 5))]
            radius = Fraction(rng.randint(1, 6), 2)
            probs = naive_atom_distribution(vectors)
            points = list(probs)

            def mass(center):
                return sum(
                    w
                    for p, w in probs.items()
                    if sum((x - c) ** 2 for x, c in zip(p, center)) <= radius**2
                )

            centers = points + [
                tuple(Fraction(a + b, 2) for a, b in zip(p, q))
                for i, p in enumerate(points)
                for q in points[i + 1 :]
            ]
            expected = max(mass(c) for c in centers)
            sys = VectorSystem.from_vectors(vectors)
            assert levy_lower_bound(sys, radius, centers="atoms+midpoints") == expected
