"""The integer convolution kernel: differential and property tests.

Atom tables (a fold of two-point convolutions on sorted arrays of packed
integer keys) are compared with a naive 2^n enumeration, with the dict fold
of the solution counter and with the meet-in-the-middle solution counter,
also on the inputs where a packed key could alias: sums at the edge of the
reachable box, targets just outside it, zero vectors, d = 1, large entries
and d >= 8.  Keys too wide for int64 and counts of 2^63 or more take Python
ints, and both are checked against exact values.  The atom maximum and the
Levy lower bound, which read the integer counts without building a
`Fraction` table, are compared with the table path.  `LatticeDistribution`
operations are checked against their algebraic laws, and the replication
checks against the full-power factors they replace.
"""

import random
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from acbounds.distributions import (
    LatticeDistribution,
    _compare_with_product,
    _geometric_mean_upper,
    convolve,
    replication_atom_check,
    replication_sbp_check,
    self_convolve,
    symmetrize,
)
from acbounds import oracle
from acbounds.oracle import (
    atom_distribution,
    atom_max,
    count_sign_solutions_columns,
    levy_lower_bound,
)
from acbounds.sweeps import random_lattice_distribution
from acbounds.system import VectorSystem

# Fixed examples: the suite tests the same inputs on every run and writes
# no example database.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def signed_systems(draw, max_n, max_d=3):
    """Vector systems that always contain a zero vector, a repeated vector
    and a +-v pair, the inputs where two-point weights merge."""
    d = draw(st.integers(1, max_d))
    vector = st.tuples(*[st.integers(-2, 2)] * d)
    base = draw(st.lists(vector, min_size=1, max_size=max_n - 3))
    extra = [(0,) * d, base[0], tuple(-x for x in base[-1])]
    return VectorSystem.from_vectors(draw(st.permutations(base + extra)))


@st.composite
def distributions(draw, d, max_support=5):
    points = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=max_support,
                 unique=True)
    )
    weights = draw(st.lists(st.integers(1, 6), min_size=len(points), max_size=len(points)))
    total = sum(weights)
    return LatticeDistribution(d, {p: Fraction(w, total) for p, w in zip(points, weights)})


def distribution_tuples(size):
    return st.integers(1, 2).flatmap(lambda d: st.tuples(*[distributions(d)] * size))


def naive_counts(vectors):
    counts = {}
    for signs in product((1, -1), repeat=len(vectors)):
        point = tuple(sum(s * v[c] for s, v in zip(signs, vectors)) for c in range(len(vectors[0])))
        counts[point] = counts.get(point, 0) + 1
    return counts


@SETTINGS
@given(signed_systems(max_n=12))
def test_atom_fold_matches_naive_enumeration(system):
    n = system.n
    table = atom_distribution(system)
    expected = {p: Fraction(c, 1 << n) for p, c in naive_counts(system.vectors).items()}
    assert table.probs == expected
    assert table.total_mass == 1


@SETTINGS
@given(signed_systems(max_n=14))
def test_atom_fold_matches_meet_in_the_middle_counts(system):
    n = system.n
    table = atom_distribution(system)
    columns = list(system.vectors)
    for point, mass in table.probs.items():
        assert count_sign_solutions_columns(columns, point) == mass * (1 << n)
    outside = tuple(1 + sum(abs(v[c]) for v in columns) for c in range(system.dimension))
    assert outside not in table.probs
    assert count_sign_solutions_columns(columns, outside) == 0


def box_sums(vectors):
    """S_i = sum_j |v_j[i]|, the half-widths of the reachable box."""
    return [sum(abs(v[c]) for v in vectors) for c in range(len(vectors[0]))]


def probe_targets(vectors, counts):
    """Every atom, its neighbours, and targets just outside the reachable box
    or packing to the same key as a reachable point under a base of 2 S + 1."""
    d = len(vectors[0])
    sums = box_sums(vectors)
    base = 2 * max(sums) + 1
    targets = set(counts)
    for p in counts:
        for c in range(d):
            for step in (-1, 1):
                targets.add(p[:c] + (p[c] + step,) + p[c + 1 :])
    for c in range(d):
        for sign in (-1, 1):
            targets.add(tuple(sign * (sums[c] + 1) if i == c else 0 for i in range(d)))
            targets.add(tuple(sign * sums[c] if i == c else sign * (sums[i] + 1) for i in range(d)))
        if c + 1 < d:
            # (..., base, -1, ...) packs to the key of the origin.
            targets.add(tuple(base if i == c else -1 if i == c + 1 else 0 for i in range(d)))
    return targets


def check_against_naive(vectors):
    n = len(vectors)
    counts = naive_counts(vectors)
    system = VectorSystem.from_vectors(vectors)
    table = atom_distribution(system)
    assert table.probs == {p: Fraction(c, 1 << n) for p, c in counts.items()}
    assert atom_max(system) == Fraction(max(counts.values()), 1 << n)
    for target in probe_targets(vectors, counts):
        assert count_sign_solutions_columns(vectors, target) == counts.get(target, 0), target


LARGE = 10**6


@st.composite
def edge_systems(draw, max_n=9):
    """Systems with d in {1, 2, 8, 9}, entries small, non-positive or near
    +-10^6, and zero vectors; some have every vector equal, so their sums
    reach +-S_i exactly."""
    d = draw(st.sampled_from([1, 2, 8, 9]))
    entry = draw(
        st.sampled_from(
            [
                st.integers(-2, 2),
                st.integers(-3, 0),
                st.sampled_from([0, 1, -1]) | st.integers(LARGE - 2, LARGE + 2)
                | st.integers(-LARGE - 2, -LARGE + 2),
            ]
        )
    )
    vector = st.tuples(*[entry] * d)
    if draw(st.booleans()):
        return [draw(vector)] * draw(st.integers(1, max_n))
    return draw(st.lists(vector, min_size=1, max_size=max_n))


@SETTINGS
@given(edge_systems())
def test_packed_kernel_matches_naive_on_edge_systems(vectors):
    check_against_naive(vectors)


EDGE_EXAMPLES = [
    [(1, 0), (1, 0)],  # (5, -1) packs to 0 under base 5
    [(2, -1)] * 7,  # every vector equal: sums reach +-S_i exactly
    [(0, 0, 0)] * 4,  # zero vectors only
    [(1, 2), (0, 0), (-1, 1), (0, 0)],
    [(3,), (-1,), (0,), (2,), (2,)],  # d = 1
    [(-1, -2, 0), (-2, 0, -1), (0, -1, -2), (-1, -1, -1)],  # negative only
    [(LARGE, -LARGE), (LARGE + 1, 3), (-LARGE, 1), (1, LARGE - 1)],
    [tuple((i * j) % 5 - 2 for j in range(9)) for i in range(7)],  # d = 9
    [(1,) * 8, (1,) * 8, (0,) * 7 + (1,), (-1,) + (0,) * 7],  # d = 8
]


def test_packed_kernel_matches_naive_on_fixed_examples():
    assert count_sign_solutions_columns([(1, 0), (1, 0)], (5, -1)) == 0
    assert count_sign_solutions_columns([(1, 0), (1, 0)], (2, 0)) == 1
    for vectors in EDGE_EXAMPLES:
        check_against_naive(vectors)


def sign_sum_table(vectors):
    """The oracle's (keys, counts) table under the base the atom queries use."""
    base = 2 * max(box_sums(vectors)) + 1
    return oracle._sign_sum_table(vectors, len(vectors[0]), base), base


@SETTINGS
@given(signed_systems(max_n=13, max_d=4))
def test_array_table_matches_naive_enumeration_and_the_dict_fold(system):
    vectors = list(system.vectors)
    (keys, counts), base = sign_sum_table(vectors)
    assert keys.dtype == counts.dtype == np.int64
    key_list = keys.tolist()
    assert key_list == sorted(set(key_list))
    assert dict(zip(key_list, counts.tolist())) == oracle._packed_sign_sums(vectors, base)
    table = dict(zip(oracle._unpack_keys(keys, base, system.dimension), counts.tolist()))
    assert table == naive_counts(vectors)
    # -eps reaches -u whenever eps reaches u.
    assert all(table[tuple(-x for x in u)] == c for u, c in table.items())


def test_keys_too_wide_for_int64_are_python_ints():
    rng = random.Random(31)
    vectors = [
        tuple(rng.choice((1, -1)) * rng.randint(10**5 - 3, 10**5 + 3) for _ in range(4))
        for _ in range(8)
    ]
    vectors += [(0,) * 4, vectors[0], tuple(-x for x in vectors[1])]
    (keys, counts), base = sign_sum_table(vectors)
    assert base**4 >= 2**63
    assert keys.dtype == object and counts.dtype == np.int64
    assert dict(zip(keys.tolist(), counts.tolist())) == oracle._packed_sign_sums(vectors, base)
    check_against_naive(vectors)
    system = VectorSystem.from_vectors(vectors)
    assert levy_lower_bound(system, 0) == atom_max(system)


def test_counts_of_2_to_the_63_or_more_are_python_ints():
    # The sum of 70 coins: an int64 count would wrap at C(70, 35) > 2^63.
    system = VectorSystem.from_vectors([(1,)] * 70)
    (keys, counts), _ = sign_sum_table(list(system.vectors))
    assert keys.dtype == np.int64 and counts.dtype == object
    expected = {(2 * j - 70,): Fraction(comb(70, j), 2**70) for j in range(71)}
    table = atom_distribution(system, cap=70)
    assert table.probs == expected
    assert table.max_atom() == atom_max(system, cap=70) == Fraction(comb(70, 35), 2**70)
    assert levy_lower_bound(system, 0, cap=70) == table.max_atom()
    middle = comb(70, 34) + comb(70, 35) + comb(70, 36)
    assert levy_lower_bound(system, 2, cap=70) == Fraction(middle, 2**70)


@SETTINGS
@given(signed_systems(max_n=12, max_d=4))
def test_atom_max_matches_the_table_and_naive_enumeration(system):
    expected = Fraction(max(naive_counts(system.vectors).values()), 1 << system.n)
    assert atom_max(system) == atom_distribution(system).max_atom() == expected


def reference_levy(system, radius, centers):
    """The table path: `Fraction` masses through the public constructor, and
    every distinct atom midpoint as a centre."""
    table = atom_distribution(system)
    dist = LatticeDistribution(table.dimension, table.probs)
    best = dist.best_ball_mass(radius)
    if centers == "atoms+midpoints":
        points = list(table.probs)
        for c in {tuple(Fraction(a + b, 2) for a, b in zip(p, q))
                  for i, p in enumerate(points) for q in points[i + 1 :]}:
            best = max(best, dist.ball_mass(c, radius))
    return best


@SETTINGS
@given(
    signed_systems(max_n=9, max_d=4),
    st.sampled_from([0, 1, Fraction(3, 2), 2]),
    st.sampled_from(["atoms", "atoms+midpoints"]),
)
def test_levy_lower_bound_matches_the_table_path(system, radius, centers):
    n, d = system.n, system.dimension
    table = atom_distribution(system)
    from_counts = LatticeDistribution._from_weights(d, naive_counts(system.vectors), 1 << n)
    assert from_counts == LatticeDistribution(d, table.probs)
    assert levy_lower_bound(system, radius, centers=centers) == reference_levy(
        system, radius, centers
    )


def test_atom_max_and_levy_build_no_fraction_table(monkeypatch):
    system = VectorSystem.from_vectors([(1, 0), (1, 1), (0, 0), (-1, -1), (2, 1)])
    expected_max = atom_max(system)
    expected_levy = levy_lower_bound(system, 1, centers="atoms+midpoints")

    def forbidden(*args, **kwargs):
        raise AssertionError("table path taken")

    monkeypatch.setattr(oracle, "atom_distribution", forbidden)
    monkeypatch.setattr(LatticeDistribution, "__init__", forbidden)
    assert levy_lower_bound(system, 1, centers="atoms+midpoints") == expected_levy
    monkeypatch.setattr(oracle, "_unpack_keys", forbidden)
    assert atom_max(system) == expected_max


@SETTINGS
@given(distribution_tuples(2), st.integers(1, 5))
def test_total_mass_is_one(pair, m):
    p, q = pair
    for dist in (p, convolve(p, q), symmetrize(p), self_convolve(p, m), p.reflect()):
        assert sum(dist.atoms.values()) == 1


@SETTINGS
@given(distribution_tuples(2))
def test_convolve_is_commutative(pair):
    p, q = pair
    assert convolve(p, q) == convolve(q, p)


@SETTINGS
@given(distribution_tuples(1), st.integers(1, 6))
def test_self_convolve_equals_repeated_convolve(single, m):
    (p,) = single
    slow = p
    for _ in range(m - 1):
        slow = convolve(slow, p)
    assert self_convolve(p, m) == slow


@SETTINGS
@given(distribution_tuples(1))
def test_symmetrize_is_origin_symmetric(single):
    (p,) = single
    sym = symmetrize(p)
    assert sym.is_origin_symmetric()
    atoms = sym.atoms
    assert all(atoms[tuple(-x for x in u)] == mass for u, mass in atoms.items())


@SETTINGS
@given(distribution_tuples(1))
def test_reflect_is_an_involution(single):
    (p,) = single
    assert p.reflect().reflect() == p


@SETTINGS
@given(distribution_tuples(1))
def test_fraction_and_kernel_built_forms_agree(single):
    (p,) = single
    via_kernel = convolve(p, LatticeDistribution.delta((0,) * p.dimension))
    assert via_kernel == p
    assert via_kernel.to_json() == p.to_json()
    assert via_kernel.atoms == p.atoms


@SETTINGS
@given(st.integers(0, 2**32), st.integers(1, 2), st.booleans())
def test_generated_weights_match_the_fraction_constructor(seed, d, symmetric):
    # The generator hands integer weights with common factors to the private
    # constructor, which must reduce them to the same fields as the public one.
    p = random_lattice_distribution(random.Random(seed), d, origin_symmetric=symmetric)
    assert LatticeDistribution(d, p.atoms) == p


# Reference replication factors: the (a/2)-fold power of the symmetrized
# summand, or the a-fold power of an origin-symmetric summand.
def full_power_factor(p, a, variant):
    if variant == "symmetrized":
        return self_convolve(symmetrize(p), a // 2)
    return self_convolve(p, a)


def reference_check(tup, lhs, masses, prefactor=1):
    rhs = prefactor * _geometric_mean_upper(masses, tup)
    return lhs, rhs, _compare_with_product(lhs / prefactor, masses, tup) <= 0


REPLICATION_CASES = [
    ("symmetrized", (4, 4, 4, 4)),
    ("origin-symmetric", (2, 2)),
    ("origin-symmetric", (2, 4, 4)),
]


@SETTINGS
@given(
    distribution_tuples(4),
    st.sampled_from(REPLICATION_CASES),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3, 2)]),
)
def test_replication_matches_the_full_power_formulas(four, case, delta):
    variant, tup = case
    dists = list(four[: len(tup)])
    if variant == "origin-symmetric":
        dists = [symmetrize(p) for p in dists]
    d = dists[0].dimension
    olds = [full_power_factor(p, a, variant) for p, a in zip(dists, tup)]
    for p, a, old in zip(dists, tup, olds):
        half = self_convolve(p, a // 2)
        assert symmetrize(half) == old
        # The point factor: the mass at 0 of symmetrize(half) is sum_u half(u)^2.
        squares = sum(w * w for w in half.weights.values())
        assert Fraction(squares, half.denom**2) == old.mass_at((0,) * d)
    total = dists[0]
    for p in dists[1:]:
        total = convolve(total, p)
    for v in ((0,) * d, (1,) * d):
        expected = reference_check(tup, total.mass_at(v), [old.mass_at((0,) * d) for old in olds])
        assert replication_atom_check(dists, tup, v, variant=variant) == expected
    center = (Fraction(1, 2),) * d
    expected = reference_check(
        tup,
        total.ball_mass(center, delta),
        [old.best_ball_mass(4 * delta) for old in olds],
        prefactor=1 << d,
    )
    assert replication_sbp_check(dists, tup, delta, center, variant=variant) == expected
