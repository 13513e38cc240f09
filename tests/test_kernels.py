"""The integer convolution kernel: differential and property tests.

Atom tables (a fold of two-point convolutions) are compared with a naive
2^n enumeration and with the meet-in-the-middle solution counter;
`LatticeDistribution` operations are checked against their algebraic laws.
"""

import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from acbounds.distributions import LatticeDistribution, convolve, self_convolve, symmetrize
from acbounds.oracle import atom_distribution, count_sign_solutions_columns
from acbounds.sweeps import random_lattice_distribution
from acbounds.system import VectorSystem

# Fixed examples: the suite tests the same inputs on every run and writes
# no example database.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def signed_systems(draw, max_n):
    """Vector systems that always contain a zero vector, a repeated vector
    and a +-v pair, the inputs where two-point weights merge."""
    d = draw(st.integers(1, 3))
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
