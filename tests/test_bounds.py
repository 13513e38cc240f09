"""Closed-form bound evaluators and the stable-rank certification."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acbounds import bounds
from acbounds.bounds import (
    BoundParams,
    ReciprocalTuple,
    _assignments,
    _distinct_permutations,
    _is_psd,
    atom_general_bound,
    central_binomial_ratio,
    enumerate_reciprocal_tuples,
    erdos_lo_bound,
    halasz_atom_bound,
    halasz_sbp_bound,
    howard_oskolkov_bound,
    improved_constant_bound,
    odlyzko_bound,
    rogozin_bound,
    sbp_general_bound,
    stable_rank,
)
from acbounds.exactmat import ExactMatrix, rank
from acbounds.oracle import atom_max
from acbounds.sweeps import tightness_system
from acbounds.system import VectorSystem


def test_odlyzko_values():
    assert odlyzko_bound(0) == 1
    assert odlyzko_bound(3) == 8
    assert odlyzko_bound(10) == 1024


def test_erdos_lo_values():
    assert erdos_lo_bound(1) == Fraction(1, 2)
    assert erdos_lo_bound(2) == Fraction(1, 2)
    assert erdos_lo_bound(10) == Fraction(252, 1024)


def test_halasz_atom_exact_value():
    assert halasz_atom_bound([3, 3], 2) == Fraction(1, 8)


def test_halasz_atom_odd_ell_rejected():
    with pytest.raises(ValueError):
        halasz_atom_bound([1], 1)
    with pytest.raises(ValueError):
        halasz_atom_bound([1, 1, 1], 3)


def test_halasz_atom_tightness_family():
    for d in (1, 2, 3):
        for ell in (2, 4):
            sys = tightness_system(d, ell)
            bound = halasz_atom_bound(sys.block_ranks(), ell)
            assert isinstance(bound, Fraction)
            assert atom_max(sys) == bound


def test_halasz_atom_fractional_exponent_stays_upper_bound():
    # non-integral exponent: value must dominate the exact power
    value = halasz_atom_bound([1, 2], 2)
    exact = float(Fraction(1, 2)) ** (3 / 2)
    assert isinstance(value, float)
    assert value >= exact


def test_halasz_atom_never_exceeds_one_and_decreases_in_ell():
    d = 3
    values = []
    for ell in (2, 4, 6):
        v = halasz_atom_bound([d] * ell, ell)
        assert v <= 1
        values.append(v)
    assert values[0] > values[1] > values[2]


def test_howard_oskolkov_values():
    assert abs(howard_oskolkov_bound(1, 1) - math.pi**1.5 / math.sqrt(2)) < 1e-12
    assert abs(howard_oskolkov_bound(1, 4) - howard_oskolkov_bound(1, 1) / 2) < 1e-12
    expected = (math.pi**1.5 * 2 / math.sqrt(2)) ** 2 / 100
    assert abs(howard_oskolkov_bound(2, 100) - expected) < 1e-9


def test_improved_constant_values():
    assert abs(improved_constant_bound(3, 3) - math.sqrt(2) ** 3 / math.sqrt(3) ** 3) < 1e-12
    assert abs(improved_constant_bound(1, 1) - math.sqrt(2 / 3)) < 1e-12


def test_improved_constant_nontrivial_where_classical_diverges():
    assert improved_constant_bound(64, 64) < 1
    assert howard_oskolkov_bound(64, 64) > 1e50


def test_improved_below_classical_on_grid():
    for m in range(1, 65):
        for d in range(1, m + 1):
            assert improved_constant_bound(d, m) <= howard_oskolkov_bound(d, m)


def test_rogozin():
    assert abs(rogozin_bound([0.5] * 4, C=2.0) - 2 / math.sqrt(2)) < 1e-12
    assert rogozin_bound([1, 1, 1, 1]) == 0.5
    with pytest.raises(ValueError):
        rogozin_bound([])
    with pytest.raises(ValueError):
        rogozin_bound([0.0, 0.0])


def test_stable_rank_identity():
    for d in (1, 2, 4):
        assert stable_rank(ExactMatrix.identity(d)).stable_rank == d


def test_stable_rank_diagonal():
    report = stable_rank(ExactMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert report.hs_norm_sq == 6
    assert report.stable_rank == 1  # floor(6/4)
    assert report.op_norm_sq_lower <= 4 <= report.op_norm_sq_upper


def test_stable_rank_orthogonal_rows_exact():
    h24 = ExactMatrix.from_rows([[1, 1, 1, 1], [1, 1, -1, -1]])
    report = stable_rank(h24)
    assert report.stable_rank == 2
    assert report.op_norm_sq_lower <= 4 <= report.op_norm_sq_upper


def test_stable_rank_bounds_certified_on_random_matrices():
    rng = random.Random(9)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 6)
        m = ExactMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        if m.is_zero():
            continue
        report = stable_rank(m)
        assert 1 <= report.stable_rank <= rank(m)
        # enclosure endpoints must agree on the floor
        assert report.hs_norm_sq / report.op_norm_sq_upper < report.stable_rank + 1
        assert report.hs_norm_sq / report.op_norm_sq_lower >= report.stable_rank
        # float convenience value sits inside the certified bracket (up to ulps)
        assert float(report.op_norm_sq_lower) * (1 - 1e-9) <= report.op_norm_sq
        assert report.op_norm_sq <= float(report.op_norm_sq_upper) * (1 + 1e-9)


def test_stable_rank_rejects_zero():
    with pytest.raises(ValueError):
        stable_rank(ExactMatrix.from_rows([[0, 0], [0, 0]]))


def _cofactor_det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
        if rows[0][j]
    )


def _psd_by_minors(mat):
    """Exact PSD criterion for a symmetric matrix: every principal minor is >= 0."""
    n = len(mat)
    return all(
        _cofactor_det([[mat[i][j] for j in idx] for i in idx]) >= 0
        for size in range(1, n + 1)
        for idx in combinations(range(n), size)
    )


def _gram(rows):
    return [[sum(a * b for a, b in zip(r1, r2)) for r2 in rows] for r1 in rows]


def _shifted(p, q, gram):
    """p*I - q*Gram."""
    n = len(gram)
    return [[p * (i == j) - q * gram[i][j] for j in range(n)] for i in range(n)]


# 5 x 8, hs = 154: its top Gram eigenvalue is about 77.98 > 154/2, so the
# stable rank is 1 (hs*I - 2*Gram is not PSD).
NON_ORTHOGONAL_5X8 = [
    [-2, 3, 3, -2, -3, -1, -2, -1],
    [1, -2, 3, 1, -1, -1, 1, 0],
    [3, -2, -3, 2, -1, 0, 2, 1],
    [3, 1, 0, 3, 1, -2, 1, -2],
    [1, 1, -3, 3, 0, 3, -2, 1],
]


def test_is_psd_matches_principal_minors():
    rng = random.Random(5)
    cases = [
        [[17, 3, -3, 0], [3, 21, 16, 16], [-3, 16, 17, 8], [0, 16, 8, 15]],  # det -5711
        [[5, 4, 3], [4, 5, 3], [3, 3, 2]],  # singular Gram matrix, PSD
        [[0, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[1, 1, 0], [1, 1, 0], [0, 0, 0]],
    ]
    for _ in range(150):
        n = rng.randint(1, 5)
        sym = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = rng.randint(-3, 3) + (6 if i == j else 0)
        cases.append(sym)
    for _ in range(150):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-2, 2) for _ in range(rng.randint(1, n))] for _ in range(n)]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        gram = _gram(rows)  # rank <= width, often singular
        cases.append(gram)
        trace = sum(gram[i][i] for i in range(n))
        cases.append(_shifted(rng.randint(0, trace), 1, gram))
    verdicts = [_is_psd(mat) for mat in cases]
    assert verdicts == [_psd_by_minors(mat) for mat in cases]
    assert verdicts[:2] == [False, True]
    assert 100 < sum(verdicts) < len(cases) - 100


def _check_stable_rank_against_minors(rows):
    report = stable_rank(ExactMatrix.from_rows(rows))
    side = rows if len(rows) <= len(rows[0]) else [list(c) for c in zip(*rows)]
    gram = _gram(side)
    hs = sum(x * x for r in rows for x in r)
    k = report.stable_rank
    assert report.hs_norm_sq == hs
    assert _psd_by_minors(_shifted(hs, k, gram))
    assert not _psd_by_minors(_shifted(hs, k + 1, gram))
    # The enclosure holds the top eigenvalue: lower < lambda_max <= upper.
    lo, hi = report.op_norm_sq_lower, report.op_norm_sq_upper
    assert _psd_by_minors(_shifted(hi.numerator, hi.denominator, gram))
    assert not _psd_by_minors(_shifted(lo.numerator, lo.denominator, gram))
    return report


def test_stable_rank_floor_matches_principal_minors():
    assert _check_stable_rank_against_minors(NON_ORTHOGONAL_5X8).stable_rank == 1
    rng = random.Random(17)
    checked = 0
    while checked < 120:
        nrows, cols = rng.randint(2, 5), rng.randint(2, 8)
        rows = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(nrows)]
        if all(x == 0 for r in rows for x in r):
            continue
        _check_stable_rank_against_minors(rows)
        checked += 1


def test_halasz_sbp_formula_substitution():
    # two identity blocks in dimension 2, C = M = 1, eps = 1/2:
    # 2^2 * ((1/sqrt(2*1)) / sqrt(2))^(2 * ceil(1)/2) = 4 / sqrt(2)
    sys = VectorSystem.from_vectors(
        [(1, 0), (0, 1), (1, 0), (0, 1)], [[0, 1], [2, 3]]
    )
    value = halasz_sbp_bound(sys, BoundParams(M=1, eps=0.5, C=1))
    assert abs(value - 4 / math.sqrt(2)) < 1e-12


def test_halasz_sbp_parameter_validation():
    with pytest.raises(ValueError):
        BoundParams(eps=1.0)
    sys = VectorSystem.from_vectors([(1,), (1,), (1,)], [[0], [1], [2]])
    with pytest.raises(ValueError):
        halasz_sbp_bound(sys, BoundParams())  # odd block count


def test_halasz_sbp_block_illustration_inequality():
    # blocks of standard basis columns: hs = sqrt(d), stable rank d; the
    # bound collapses to K^d with K <= 2 ((C/sqrt(eps))/sqrt(m))^(1/2)
    C, eps = 1.0, 0.5
    for d, ell in ((2, 4), (5, 4), (4, 8)):
        m = d * ell
        vectors = []
        for i in range(m):
            e = [0] * d
            e[i % d] = 1
            vectors.append(tuple(e))
        partition = [list(range(b * d, (b + 1) * d)) for b in range(ell)]
        sys = VectorSystem.from_vectors(vectors, partition)
        value = halasz_sbp_bound(sys, BoundParams(M=1, eps=eps, C=C))
        k_bound = 2 * ((C / math.sqrt(eps)) / math.sqrt(m)) ** 0.5
        assert value <= k_bound**d * (1 + 1e-9)


def test_reciprocal_tuples_small_cases():
    assert [t.values for t in enumerate_reciprocal_tuples(4, 4)] == [(4, 4, 4, 4)]
    assert enumerate_reciprocal_tuples(3, 4) == []
    fives = [t.values for t in enumerate_reciprocal_tuples(5, 4)]
    assert (4, 4, 4, 8, 8) in fives


def test_reciprocal_tuples_match_bounded_exhaustive_search():
    found = {t.values for t in enumerate_reciprocal_tuples(4, 4)}
    brute = set()
    for b1 in range(4, 65, 4):
        for b2 in range(b1, 65, 4):
            for b3 in range(b2, 65, 4):
                for b4 in range(b3, 65, 4):
                    if Fraction(1, b1) + Fraction(1, b2) + Fraction(1, b3) + Fraction(1, b4) == 1:
                        brute.add((b1, b2, b3, b4))
    assert found == brute


def test_reciprocal_tuples_cap():
    from acbounds.exactmat import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        enumerate_reciprocal_tuples(6, 4, cap=1)


def test_reciprocal_tuples_properties():
    for ell, divisor in ((4, 4), (5, 4), (6, 4), (3, 2), (4, 2)):
        for t in enumerate_reciprocal_tuples(ell, divisor):
            assert len(t.values) == ell
            assert all(b % divisor == 0 for b in t.values)
            assert sum(Fraction(1, b) for b in t.values) == 1
            assert list(t.values) == sorted(t.values)


def fraction_walk(ell, divisor):
    """Reference tuple walk carrying the remaining mass as a `Fraction`."""
    found = []

    def walk(prefix, count, mass):
        if count == 0:
            if mass == 0:
                found.append(tuple(prefix))
            return
        if mass <= 0:
            return
        lower = max(prefix[-1] if prefix else divisor, math.ceil(1 / mass))
        lower = -(-lower // divisor) * divisor
        for b in range(lower, math.floor(count / mass) + 1, divisor):
            walk(prefix + [b], count - 1, mass - Fraction(1, b))

    walk([], ell, Fraction(1))
    return found


def test_integer_tuple_walk_matches_the_fraction_walk_in_order():
    for divisor, top in ((2, 7), (4, 8)):
        for ell in range(1, top + 1):
            listed = [t.values for t in enumerate_reciprocal_tuples(ell, divisor)]
            assert listed == fraction_walk(ell, divisor)


TUPLE_POOL = {divisor: [t for ell in range(1, 6) for t in fraction_walk(ell, divisor)]
              for divisor in (2, 4)}


@st.composite
def candidate_tuples(draw):
    """A divisor and sorted positive multiples of it: often a reciprocal
    tuple, often one entry off from one, otherwise arbitrary."""
    divisor = draw(st.sampled_from((2, 4)))
    kind = draw(st.sampled_from(("tuple", "nudged", "free")))
    if kind == "free":
        values = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
        return divisor, sorted(divisor * v for v in values)
    values = list(draw(st.sampled_from(TUPLE_POOL[divisor])))
    if kind == "nudged":
        i = draw(st.integers(0, len(values) - 1))
        step = draw(st.sampled_from((-1, 1)))
        values[i] = max(divisor, values[i] + step * divisor)
    return divisor, sorted(values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(candidate_tuples())
def test_reciprocal_tuple_check_matches_the_fraction_sum(drawn):
    divisor, values = drawn
    if sum(Fraction(1, v) for v in values) == 1:
        assert ReciprocalTuple(tuple(values), divisor).values == tuple(values)
    else:
        with pytest.raises(ValueError, match="reciprocals must sum to 1"):
            ReciprocalTuple(tuple(values), divisor)


def test_atom_general_symmetric_case():
    # four rank-r blocks, lambda = 1, C = 1: tuple (4,4,4,4) gives 2^d (1/4)^(r/2)
    vectors = [(1, 0), (0, 1)] * 4
    partition = [[0, 1], [2, 3], [4, 5], [6, 7]]
    sys = VectorSystem.from_vectors(vectors, partition)
    value = atom_general_bound(sys, lam=1.0, C=1.0)
    assert abs(value - 4 * (1 / 4) ** 1) < 1e-12


def test_atom_general_needs_four_blocks():
    sys = VectorSystem.from_vectors([(1,), (1,), (1,)], [[0], [1], [2]])
    with pytest.raises(ValueError):
        atom_general_bound(sys, lam=1.0)


def test_atom_general_monotone_in_lambda():
    vectors = [(1, 0), (0, 1)] * 4
    partition = [[0, 1], [2, 3], [4, 5], [6, 7]]
    sys = VectorSystem.from_vectors(vectors, partition)
    prev = math.inf
    for lam in (0.25, 0.5, 0.75, 1.0):
        value = atom_general_bound(sys, lam=lam)
        assert value <= prev + 1e-15
        prev = value


def test_sbp_general_reduces_to_even_block_bound():
    # forcing the constant tuple with divisor 2 recovers the even-block bound
    # once lambda = 1/2 is absorbed into C (the sqrt(2) shift below).
    sys = VectorSystem.from_vectors(
        [(1, 0), (0, 1), (1, 0), (0, 1)], [[0, 1], [2, 3]]
    )
    ell = sys.ell
    general = sbp_general_bound(
        sys,
        BoundParams(M=1, eps=0.5, lam=0.5, C=1.0),
        divisor=2,
        tuples=[(ell,) * ell],
        include_2d_prefactor=True,
    )
    direct = halasz_sbp_bound(sys, BoundParams(M=1, eps=0.5, C=math.sqrt(2)))
    assert abs(general - direct) < 1e-12


def test_sbp_general_single_block_rejected():
    sys = VectorSystem.from_vectors([(1,), (2,)])
    with pytest.raises(ValueError):
        sbp_general_bound(sys, BoundParams())


def test_sbp_general_hs_scaling():
    # doubling every vector doubles each ||A_i||_HS and halves each factor base
    vectors = [(1, 0), (0, 1)] * 4
    partition = [[0, 1], [2, 3], [4, 5], [6, 7]]
    sys = VectorSystem.from_vectors(vectors, partition)
    doubled = VectorSystem.from_vectors(
        [tuple(2 * x for x in v) for v in vectors], partition
    )
    params = BoundParams(M=1, eps=0.5, lam=1.0, C=1.0)
    base = sbp_general_bound(sys, params)
    scaled = sbp_general_bound(doubled, params)
    # every block contributes exponent ceil(r_s/2)/4 = 1/4; total exponent 1
    assert abs(scaled - base / 2) < 1e-12


def test_central_binomial_ratio():
    assert central_binomial_ratio(2) == Fraction(1, 2)
    assert central_binomial_ratio(4) == Fraction(3, 8)
    assert central_binomial_ratio(6) == Fraction(5, 16)


def test_distinct_permutations_of_reciprocal_tuples():
    for divisor in (2, 4):
        for ell in range(1, 7):
            for tup in enumerate_reciprocal_tuples(ell, divisor=divisor):
                expected = set(permutations(tup.values))
                listed = list(_distinct_permutations(tup.values))
                assert len(listed) == len(expected)
                assert set(listed) == expected
                assert _assignments(list(range(ell)), tup.values) == expected


def test_assignments_leave_the_sbp_bounds_bit_identical(monkeypatch):
    rng = random.Random(17)
    systems = [tightness_system(d, ell) for d in (1, 2) for ell in (2, 4, 6, 8)]
    systems += [
        VectorSystem.from_vectors(
            [tuple(rng.choice((-2, -1, 1, 3)) for _ in range(2)) for _ in range(ell)],
            [[i] for i in range(ell)],
        )
        for ell in (2, 3, 4, 5, 6, 8)
    ]
    params = [BoundParams(), BoundParams(M=2.0, eps=0.3, lam=0.5, C=1.5)]

    def evaluate():
        values = []
        for sys in systems:
            for p in params:
                if sys.ell % 2 == 0:
                    values.append(halasz_sbp_bound(sys, p))
                for divisor, ells in ((2, range(2, 6)), (4, range(4, 7))):
                    if sys.ell in ells:
                        values.append(sbp_general_bound(sys, p, divisor=divisor))
        return values

    fast = evaluate()
    # The replaced helper: every ordering, deduplicated afterwards.
    monkeypatch.setattr(
        bounds,
        "_assignments",
        lambda ranks, values: set(permutations(values)) if len(values) <= 8 else None,
    )
    assert evaluate() == fast


def test_assignment_helper_greedy_above_eight_blocks():
    from acbounds.bounds import _assignments

    ranks = [5, 1, 3, 2, 4, 1, 2, 3, 1]
    tup = (4, 4, 8, 8, 16, 16, 16, 32, 32)
    assigned = _assignments(ranks, tup)
    assert len(assigned) == 1
    (greedy,) = assigned
    # largest rank paired with the smallest entry
    assert greedy[ranks.index(5)] == 4


def test_assignment_helper_enumerates_small_matchings():
    from acbounds.bounds import _assignments

    assigned = _assignments([1, 2, 3, 4], (4, 4, 4, 4))
    assert assigned == {(4, 4, 4, 4)}
    assigned = _assignments([1, 2, 2, 1, 1], (4, 4, 4, 8, 8))
    assert len(assigned) == 10  # distinct permutations of (4,4,4,8,8)
