"""Lattice distributions: exact convolution and the replication inequalities.

The package convolves on packed integer keys; the tuple-key kernel below is
the oracle it is checked against.
"""

import math
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acbounds.bounds import enumerate_reciprocal_tuples
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
from acbounds.sweeps import random_lattice_distribution


def tuple_conv(wa, wb):
    """Convolution of point -> weight maps keyed by coordinate tuples."""
    out = {}
    get = out.get
    for a, ma in wa.items():
        for b, mb in wb.items():
            key = tuple(map(add, a, b))
            out[key] = get(key, 0) + ma * mb
    return out


def slow_convolve(p, q):
    weights = tuple_conv(p.weights, q.weights)
    return LatticeDistribution._from_weights(p.dimension, weights, p.denom * q.denom)


def slow_symmetrize(p):
    reflected = {tuple(-x for x in u): w for u, w in p.weights.items()}
    weights = tuple_conv(p.weights, reflected)
    return LatticeDistribution._from_weights(p.dimension, weights, p.denom**2)


def slow_power(p, m):
    power = p
    for _ in range(m - 1):
        power = slow_convolve(power, p)
    return power


RADEMACHER = LatticeDistribution.rademacher()
TWO_COINS = LatticeDistribution(
    1, {(-2,): Fraction(1, 4), (0,): Fraction(1, 2), (2,): Fraction(1, 4)}
)


def test_delta_is_identity_element():
    p = LatticeDistribution(1, {(1,): Fraction(1, 3), (4,): Fraction(2, 3)})
    assert convolve(LatticeDistribution.delta((0,)), p) == p


def test_rademacher_convolution():
    assert convolve(RADEMACHER, RADEMACHER) == TWO_COINS


def test_support_size_bound():
    rng = random.Random(5)
    for _ in range(30):
        p = random_lattice_distribution(rng, 2)
        q = random_lattice_distribution(rng, 2)
        conv = convolve(p, q)
        assert len(conv.atoms) <= len(p.atoms) * len(q.atoms)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        convolve(RADEMACHER, LatticeDistribution.delta((0, 0)))


def test_symmetrize_constant_and_rademacher():
    assert symmetrize(LatticeDistribution.delta((7,))) == LatticeDistribution.delta((0,))
    assert symmetrize(RADEMACHER) == TWO_COINS


def test_symmetrize_output_is_origin_symmetric():
    rng = random.Random(15)
    for _ in range(40):
        p = random_lattice_distribution(rng, rng.randint(1, 2))
        assert symmetrize(p).is_origin_symmetric()


def test_self_convolve_small_powers():
    assert self_convolve(RADEMACHER, 1) == RADEMACHER
    assert self_convolve(RADEMACHER, 2) == TWO_COINS
    # power law against the slow fold
    rng = random.Random(25)
    for _ in range(10):
        p = random_lattice_distribution(rng, 1)
        slow = p
        for _ in range(4):
            slow = convolve(slow, p)
        assert self_convolve(p, 5) == slow


def test_even_self_convolution_peaks_at_origin():
    # For origin-symmetric inputs, the mass at 0 of an even convolution power
    # is the largest atom of that power.
    rng = random.Random(35)
    for _ in range(100):
        p = random_lattice_distribution(rng, rng.randint(1, 2), origin_symmetric=True)
        for m in (2, 4):
            power = self_convolve(p, m)
            origin = (0,) * p.dimension
            assert power.mass_at(origin) == power.max_atom()


def test_even_powers_of_symmetrized_inputs_peak_at_origin():
    # symmetrize(p) of an arbitrary p is origin-symmetric, so the same
    # peak-at-origin surrogate must hold for its even powers (supports <= 9)
    rng = random.Random(36)
    for _ in range(60):
        p = random_lattice_distribution(rng, rng.randint(1, 2), max_support=3)
        sym = symmetrize(p)
        assert len(sym.atoms) <= 9
        for m in (2, 4, 6):
            power = self_convolve(sym, m)
            origin = (0,) * p.dimension
            assert power.mass_at(origin) == power.max_atom()


def test_convolution_commutative_associative():
    rng = random.Random(45)
    for _ in range(20):
        p = random_lattice_distribution(rng, 1)
        q = random_lattice_distribution(rng, 1)
        r = random_lattice_distribution(rng, 1)
        assert convolve(p, q) == convolve(q, p)
        assert convolve(convolve(p, q), r) == convolve(p, convolve(q, r))


def test_replication_atom_identical_rademachers():
    dists = [RADEMACHER] * 4
    lhs, rhs, holds = replication_atom_check(dists, (4, 4, 4, 4), (0,))
    assert holds
    assert lhs == Fraction(6, 16)


def test_replication_atom_origin_symmetric_equality_case():
    lhs, rhs, holds = replication_atom_check(
        [RADEMACHER, RADEMACHER], (2, 2), (0,), variant="origin-symmetric"
    )
    assert lhs == Fraction(1, 2)
    assert holds
    # both factors are (1/2)^(1/2); the exact product equals the lhs
    assert abs(rhs - 0.5) < 1e-12


def test_replication_atom_point_outside_support():
    lhs, rhs, holds = replication_atom_check([RADEMACHER] * 4, (4, 4, 4, 4), (99,))
    assert lhs == 0
    assert holds


def test_replication_tuple_validation():
    with pytest.raises(ValueError):
        replication_atom_check([RADEMACHER] * 4, (4, 4, 4, 8), (0,))
    with pytest.raises(ValueError):
        replication_atom_check([RADEMACHER] * 2, (2, 2), (0,))  # 2N needs the variant
    skew = LatticeDistribution(1, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    with pytest.raises(ValueError):
        replication_atom_check([skew, skew], (2, 2), (0,), variant="origin-symmetric")


def test_replication_sbp_radius_zero_reduces_to_atom_with_slack():
    dists = [RADEMACHER] * 4
    lhs, rhs, holds = replication_sbp_check(dists, (4, 4, 4, 4), 0, (0,))
    atom_lhs, atom_rhs, _ = replication_atom_check(dists, (4, 4, 4, 4), (0,))
    assert holds
    assert lhs == atom_lhs
    assert rhs >= 2 * atom_rhs * (1 - 1e-12)


def test_replication_sbp_huge_radius():
    dists = [RADEMACHER] * 4
    lhs, rhs, holds = replication_sbp_check(dists, (4, 4, 4, 4), 100, (0,))
    assert lhs == 1
    assert rhs >= 2
    assert holds


def test_ball_mass_integer_and_fractional_centers_agree():
    p = TWO_COINS
    assert p.ball_mass((0,), 2) == 1
    assert p.ball_mass((Fraction(1, 2),), Fraction(3, 2)) == Fraction(3, 4)


def test_negative_radius_rejected():
    for radius in (-1, Fraction(-1, 2), -0.25):
        with pytest.raises(ValueError):
            TWO_COINS.ball_mass((0,), radius)
        with pytest.raises(ValueError):
            TWO_COINS.best_ball_mass(radius)
    with pytest.raises(ValueError):
        replication_sbp_check([RADEMACHER] * 4, (4, 4, 4, 4), -1, (0,))
    assert TWO_COINS.ball_mass((0,), 0) == Fraction(1, 2)


def fraction_compare(lhs, masses, tup):
    """Reference sign of lhs - prod m_i^(1/a_i), powering `Fraction`s."""
    lcm = math.lcm(*tup)
    right = math.prod((m ** (lcm // a) for m, a in zip(masses, tup)), start=Fraction(1))
    return (lhs**lcm > right) - (lhs**lcm < right)


COMPARE_TUPLES = [t.values for d in (2, 4) for ell in range(1, 5)
                  for t in enumerate_reciprocal_tuples(ell, d)]
UNIT_FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=40)


@st.composite
def comparisons(draw):
    """(lhs, masses, tuple), where lhs is often exactly prod m_i^(1/a_i):
    the masses are then a_i-th powers r_i^a_i and lhs is prod r_i."""
    tup = draw(st.sampled_from(COMPARE_TUPLES))
    if draw(st.booleans()):
        roots = draw(st.lists(UNIT_FRACTIONS, min_size=len(tup), max_size=len(tup)))
        masses = [r**a for r, a in zip(roots, tup)]
        lhs = math.prod(roots, start=Fraction(1)) + draw(st.sampled_from((0, 0, Fraction(1, 10**9))))
        return lhs, masses, tup
    masses = draw(st.lists(UNIT_FRACTIONS, min_size=len(tup), max_size=len(tup)))
    return draw(UNIT_FRACTIONS), masses, tup


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(comparisons())
def test_integer_comparison_matches_fraction_powering(case):
    lhs, masses, tup = case
    assert _compare_with_product(lhs, masses, tup) == fraction_compare(lhs, masses, tup)


def test_comparison_equality_cases():
    # Rademacher (2, 2): lhs 1/2 and both factors 1/2, so 1/2 = (1/2)^(1/2) (1/2)^(1/2).
    half = Fraction(1, 2)
    assert _compare_with_product(half, [half, half], (2, 2)) == 0
    assert _compare_with_product(Fraction(3, 8), [Fraction(9, 16), Fraction(1, 4)], (2, 2)) == 0
    assert _compare_with_product(Fraction(1, 4), [Fraction(1, 4)] * 4, (4, 4, 4, 4)) == 0
    assert _compare_with_product(half + Fraction(1, 10**12), [half, half], (2, 2)) == 1
    assert _compare_with_product(half - Fraction(1, 10**12), [half, half], (2, 2)) == -1
    assert _compare_with_product(Fraction(0), [Fraction(0), half], (2, 2)) == 0


@st.composite
def small_distributions(draw):
    """Up to 8 atoms with small integer weights on Z or Z^2."""
    d = draw(st.sampled_from((1, 2)))
    points = st.tuples(*[st.integers(-4, 4)] * d)
    weights = draw(st.dictionaries(points, st.integers(1, 6), min_size=1, max_size=8))
    return LatticeDistribution._from_weights(d, weights, sum(weights.values()))


def fraction_ball_mass(p, center, radius):
    """Reference ball mass from `Fraction` distances to a `Fraction` centre."""
    return sum(
        (m for x, m in p.atoms.items()
         if sum((Fraction(a) - c) ** 2 for a, c in zip(x, center)) <= radius**2),
        start=Fraction(0),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_distributions(), st.integers(0, 16), st.data())
def test_best_ball_mass_is_the_largest_atom_centred_ball(p, halves, data):
    radius = Fraction(halves, 2)
    best = p.best_ball_mass(radius)
    assert best == max(p.ball_mass(x, radius) for x in p.weights)
    assert best == max(fraction_ball_mass(p, x, radius) for x in p.weights)
    center = tuple(data.draw(st.fractions(-5, 5, max_denominator=6)) for _ in range(p.dimension))
    assert p.ball_mass(center, radius) == fraction_ball_mass(p, center, radius)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        p.best_ball_mass(-Fraction(halves + 1, 2))


# Pairs +-r far apart next to radius 1, and a three-atom plane example.  A
# base of 2 * reach + 1 decodes the difference 10 of {-5, 5} as -1, so the
# ball of radius 1 at -5 would take in 5 as well.
FAR_SUPPORTS = [
    {(-1,): 1, (1,): 1},
    {(-5,): 1, (5,): 1},
    {(-50,): 1, (50,): 1},
    {(-5, 5): 1, (5, -5): 1},
    {(5, 5): 1, (-5, -5): 1},
    {(0, 7): 1, (0, -7): 1},
    {(0, 0): 2, (3, 4): 1, (-3, -4): 1},
]


@pytest.mark.parametrize("weights", FAR_SUPPORTS)
def test_best_ball_mass_of_far_pairs_and_radii_beyond_the_diameter(weights):
    d = len(next(iter(weights)))
    p = LatticeDistribution._from_weights(d, weights, sum(weights.values()))
    assert p.best_ball_mass(1) == p.max_atom()
    diameter = max(math.dist(u, v) for u in weights for v in weights)
    for radius in (1, Fraction(3, 2), math.floor(diameter), math.ceil(diameter),
                   2 * math.ceil(diameter), 10**6):
        expected = max(fraction_ball_mass(p, x, Fraction(radius)) for x in p.weights)
        assert p.best_ball_mass(radius) == expected
    assert p.best_ball_mass(math.ceil(diameter)) == 1


def test_wrong_length_points_and_centers_rejected():
    p = LatticeDistribution(2, {(0, 0): Fraction(1, 2), (0, 4): Fraction(1, 2)})
    for query in (lambda: p.mass_at((0,)), lambda: p.ball_mass((0, 0, 0), 1)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            query()
    with pytest.raises(ValueError, match="dimension mismatch"):
        replication_sbp_check([p] * 4, (4, 4, 4, 4), 0, (0,))
    with pytest.raises(ValueError, match="dimension mismatch"):
        replication_atom_check([p] * 4, (4, 4, 4, 4), (0,))
    assert replication_sbp_check([p] * 4, (4, 4, 4, 4), 0, (0, 0))[0] == Fraction(1, 16)


def test_json_round_trip():
    p = LatticeDistribution(2, {(0, 1): Fraction(1, 3), (-1, 2): Fraction(2, 3)})
    assert LatticeDistribution.from_json(p.to_json()) == p


ORACLE_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def wide_distributions(draw, d=None, max_support=6):
    """Up to `max_support` atoms on Z^d, d in {1, 2, 3}, coordinates in +-50."""
    if d is None:
        d = draw(st.integers(1, 3))
    points = st.tuples(*[st.integers(-50, 50)] * d)
    weights = draw(st.dictionaries(points, st.integers(1, 9), min_size=1, max_size=max_support))
    return LatticeDistribution._from_weights(d, weights, sum(weights.values()))


def wide_pairs():
    return st.integers(1, 3).flatmap(lambda d: st.tuples(*[wide_distributions(d)] * 2))


ORIGIN = LatticeDistribution.delta((0, 0))
FAR = LatticeDistribution.delta((50, -50))
EDGES = LatticeDistribution(2, {(50, 50): Fraction(1, 2), (-50, -50): Fraction(1, 2)})


@ORACLE_SETTINGS
@given(wide_pairs())
@example((ORIGIN, ORIGIN))
@example((FAR, ORIGIN))
@example((FAR, EDGES))
@example((EDGES, EDGES.reflect()))
def test_convolve_matches_the_tuple_kernel(pair):
    p, q = pair
    assert convolve(p, q) == slow_convolve(p, q)


@ORACLE_SETTINGS
@given(wide_distributions(max_support=4), st.integers(1, 9))
@example(ORIGIN, 9)
@example(FAR, 9)
@example(EDGES, 9)
def test_self_convolve_matches_the_tuple_kernel(p, m):
    assert self_convolve(p, m) == slow_power(p, m)


@ORACLE_SETTINGS
@given(wide_distributions())
@example(ORIGIN)
@example(FAR)
@example(EDGES)
def test_symmetrize_matches_the_tuple_kernel(p):
    assert symmetrize(p) == slow_symmetrize(p)


@ORACLE_SETTINGS
@given(st.integers(1, 3).flatmap(lambda d: st.lists(wide_distributions(d, 3), min_size=2,
                                                    max_size=2)),
       st.data())
def test_replication_point_masses_beyond_the_reach_are_zero(dists, data):
    # The check packs every point with base B = 2M + 1, M = sum a_i * reach_i.
    # A query point with a coordinate beyond M packs onto the key of a point
    # inside the box unless it is ruled out first.
    d = dists[0].dimension
    tup = (4, 4, 4, 4)
    dists = dists * 2
    total = slow_convolve(slow_convolve(dists[0], dists[1]), slow_convolve(dists[2], dists[3]))
    reach = sum(4 * max(abs(x) for u in p.weights for x in u) for p in dists)
    base = 2 * reach + 1
    inside = data.draw(st.sampled_from(sorted(total.weights)))
    # The same key as `inside`: one coordinate shifted by B, the next by -1.
    alias = list(inside)
    alias[0] += base
    if d > 1:
        alias[1] -= 1
    for point in (inside, tuple(alias), (reach + 1,) * d, (-reach - 1,) * d):
        lhs, _, _ = replication_atom_check(dists, tup, point)
        assert lhs == total.mass_at(point)
    assert replication_atom_check(dists, tup, inside)[0] > 0
    assert replication_atom_check(dists, tup, tuple(alias))[0] == 0


def test_replication_point_masses_off_the_lattice_are_zero():
    origin_only = [LatticeDistribution.delta((0, 0))] * 4
    assert replication_atom_check(origin_only, (4, 4, 4, 4), (0, 0))[0] == 1
    # Base 1 here: every point would pack to the key 0 of the origin.
    for point in ((1, -1), (0, 1), (Fraction(1, 2), 0), (0.5, 0), (0, float("nan"))):
        assert replication_atom_check(origin_only, (4, 4, 4, 4), point)[0] == 0
    two = [TWO_COINS] * 2
    assert replication_atom_check(two, (2, 2), (Fraction(4, 2),), variant="origin-symmetric")[0] \
        == Fraction(1, 4)
    for point in ((Fraction(1, 2),), (1.5,), (Fraction(-7, 3),)):
        lhs, _, holds = replication_atom_check(two, (2, 2), point, variant="origin-symmetric")
        assert lhs == 0 and holds


@ORACLE_SETTINGS
@given(wide_distributions(), st.sampled_from((0, 1, Fraction(3, 2), 10, 60, 200)))
def test_best_ball_mass_matches_the_fraction_reference_on_wide_supports(p, radius):
    expected = max(fraction_ball_mass(p, x, Fraction(radius)) for x in p.weights)
    assert p.best_ball_mass(radius) == expected


JOIN_CASES = [
    ("origin-symmetric", (2, 2)),
    ("origin-symmetric", (2, 4, 4)),
    ("symmetrized", (4, 4, 4, 4)),
    ("symmetrized", (4, 4, 4, 8, 8)),
]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(wide_distributions(d, 2), min_size=5,
                                                    max_size=5)),
       st.sampled_from(JOIN_CASES))
@example([LatticeDistribution.delta((0,))] * 5, JOIN_CASES[0])
@example([LatticeDistribution.delta((0, 0, 0))] * 5, JOIN_CASES[1])
@example([LatticeDistribution.delta((0, 0))] * 5, JOIN_CASES[3])
def test_replication_point_join_matches_the_full_total(dists, case):
    # The point check joins two half totals; the reference is the full total.
    variant, tup = case
    dists = dists[: len(tup)]
    if variant == "origin-symmetric":
        dists = [slow_symmetrize(p) for p in dists]
    d = dists[0].dimension
    total = dists[0]
    for p in dists[1:]:
        total = slow_convolve(total, p)
    reach = sum(a * max(abs(x) for u in p.weights for x in u) for p, a in zip(dists, tup))
    base = 4 * reach + 1
    points = set(total.weights)
    for u in sorted(total.weights)[:4]:
        points.add((u[0] + 1,) + u[1:])  # next to the support, or on it
        points.add((u[0] + base,) + tuple(x - 1 for x in u[1:2]) + u[2:])  # same key as u
    points.update({(reach,) * d, (reach + 1,) * d, (-reach - 1,) * d})
    for point in points:
        lhs, _, _ = replication_atom_check(dists, tup, point, variant=variant)
        assert lhs == total.mass_at(point), point


@ORACLE_SETTINGS
@given(st.integers(1, 2).flatmap(
           lambda d: st.dictionaries(st.tuples(*[st.integers(-6, 6)] * d), st.integers(1, 5),
                                     min_size=1, max_size=4)),
       st.sampled_from([("symmetrized", (4, 4, 4, 4)), ("origin-symmetric", (2, 2))]),
       st.integers(0, 8))
# Two inputs found by search, whose factors change when the check packs with
# base 2M + 1.
@example({(5,): 4, (2,): 2, (-5,): 5}, ("symmetrized", (4, 4, 4, 4)), 8)
@example({(-2, 4): 5, (4, -2): 1, (0, -3): 1}, ("symmetrized", (4, 4, 4, 4)), 8)
def test_replication_ball_factor_of_a_dominant_input(weights, case, halves):
    # Every other input sits at the origin, so M = a_0 reach(p), and the
    # factor of p has key differences of up to 2M, all of which must decode.
    variant, tup = case
    d = len(next(iter(weights)))
    p = LatticeDistribution._from_weights(d, weights, sum(weights.values()))
    if variant == "origin-symmetric":
        p = slow_symmetrize(p)
    dists = [p] + [LatticeDistribution.delta((0,) * d)] * (len(tup) - 1)
    delta = Fraction(halves, 2)
    factors = [slow_symmetrize(slow_power(q, a // 2)) for q, a in zip(dists, tup)]
    masses = [max(fraction_ball_mass(f, x, 4 * delta) for x in f.weights) for f in factors]
    center = (Fraction(1, 2),) * d
    lhs, rhs, holds = replication_sbp_check(dists, tup, delta, center, variant=variant)
    assert lhs == fraction_ball_mass(p, center, delta)
    assert rhs == (1 << d) * _geometric_mean_upper(masses, tup)
    assert holds == (_compare_with_product(lhs / (1 << d), masses, tup) <= 0)
