"""Exact lattice distributions and the replication-trick inequalities.

Distributions are finite rational measures on Z^d, stored as integer weights
over one common denominator.  Convolution, reflection (symmetrization) and
convolution powers run on those integers; `Fraction` masses appear only at
the boundary (the constructor, `atoms` and the mass queries).  A replication
claim  lhs <= prod m_i^(1/a_i)  is settled by raising both sides to the lcm
of the a_i, which keeps the comparison exact.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import reduce
from operator import add


class LatticeDistribution:
    """Finitely supported probability distribution on Z^d with exact masses.

    The mass of point p is weights[p] / denom.  Weights are positive and
    reduced with denom by their gcd, so equal distributions have equal fields.
    """

    __slots__ = ("dimension", "weights", "denom")

    def __init__(self, dimension, atoms):
        dimension = int(dimension)
        cleaned = {}
        for point, mass in dict(atoms).items():
            point = tuple(int(x) for x in point)
            if len(point) != dimension:
                raise ValueError("atom dimension mismatch")
            mass = Fraction(mass)
            if mass < 0:
                raise ValueError("masses must be nonnegative")
            if mass:
                cleaned[point] = cleaned.get(point, 0) + mass
        denom = math.lcm(*(m.denominator for m in cleaned.values()))
        self._set(dimension, {p: int(m * denom) for p, m in cleaned.items()}, denom)

    @classmethod
    def _from_weights(cls, dimension, weights, denom) -> "LatticeDistribution":
        """Distribution with masses weights[p] / denom (positive int weights)."""
        self = cls.__new__(cls)
        self._set(dimension, weights, denom)
        return self

    def _set(self, dimension, weights, denom):
        if sum(weights.values()) != denom:
            raise ValueError("masses must sum to 1 exactly")
        g = math.gcd(*weights.values())
        if g > 1:
            weights = {p: w // g for p, w in weights.items()}
            denom //= g
        self.dimension = dimension
        self.weights = weights
        self.denom = denom

    @property
    def atoms(self) -> dict:
        """Point -> exact `Fraction` mass (a new dict on every read)."""
        denom = self.denom
        return {p: Fraction(w, denom) for p, w in self.weights.items()}

    @staticmethod
    def delta(point) -> "LatticeDistribution":
        point = tuple(int(x) for x in point)
        return LatticeDistribution(len(point), {point: Fraction(1)})

    @staticmethod
    def rademacher() -> "LatticeDistribution":
        return LatticeDistribution(1, {(1,): Fraction(1, 2), (-1,): Fraction(1, 2)})

    @staticmethod
    def from_json(obj) -> "LatticeDistribution":
        if isinstance(obj, str):
            obj = json.loads(obj)
        atoms = {tuple(a["point"]): Fraction(a["mass"]) for a in obj["atoms"]}
        return LatticeDistribution(obj["d"], atoms)

    def to_json(self) -> dict:
        return {
            "d": self.dimension,
            "atoms": [
                {"point": list(p), "mass": f"{m.numerator}/{m.denominator}"}
                for p, m in sorted(self.atoms.items())
            ],
        }

    def mass_at(self, point) -> Fraction:
        return Fraction(self.weights.get(tuple(point), 0), self.denom)

    def max_atom(self) -> Fraction:
        return Fraction(max(self.weights.values()), self.denom)

    def support(self):
        return sorted(self.weights)

    def reflect(self) -> "LatticeDistribution":
        return LatticeDistribution._from_weights(
            self.dimension,
            {tuple(-x for x in p): w for p, w in self.weights.items()},
            self.denom,
        )

    def is_origin_symmetric(self) -> bool:
        weights = self.weights
        return all(weights.get(tuple(-x for x in p)) == w for p, w in weights.items())

    def ball_mass(self, center, radius) -> Fraction:
        """Exact mass of the closed Euclidean ball of the given radius."""
        center = tuple(Fraction(c) for c in center)
        # Scale by the centers' common denominator so distances stay integral.
        scale = math.lcm(*(c.denominator for c in center))
        scaled = tuple(int(c * scale) for c in center)
        bound = math.floor((Fraction(radius) * scale) ** 2)
        total = sum(
            w
            for p, w in self.weights.items()
            if sum((scale * x - c) ** 2 for x, c in zip(p, scaled)) <= bound
        )
        return Fraction(total, self.denom)

    def best_ball_mass(self, radius) -> Fraction:
        """Max ball mass over atom centers: a certified Levy lower bound."""
        if Fraction(radius) == 0:
            return self.max_atom()
        return max(self.ball_mass(p, radius) for p in self.weights)

    def __eq__(self, other):
        return (
            isinstance(other, LatticeDistribution)
            and self.dimension == other.dimension
            and self.denom == other.denom
            and self.weights == other.weights
        )

    def __repr__(self):
        return f"LatticeDistribution(d={self.dimension}, support={len(self.weights)})"


def _conv_int(wa: dict, wb: dict) -> dict:
    """The integer convolution kernel: point -> weight maps, all pairs summed."""
    out = {}
    get = out.get
    for a, ma in wa.items():
        for b, mb in wb.items():
            key = tuple(map(add, a, b))
            out[key] = get(key, 0) + ma * mb
    return out


def convolve(p: LatticeDistribution, q: LatticeDistribution) -> LatticeDistribution:
    """Exact distribution of the sum of independent draws from p and q."""
    if p.dimension != q.dimension:
        raise ValueError("dimension mismatch")
    return LatticeDistribution._from_weights(
        p.dimension, _conv_int(p.weights, q.weights), p.denom * q.denom
    )


def symmetrize(p: LatticeDistribution) -> LatticeDistribution:
    """Distribution of X - X' for an independent copy X'; origin-symmetric."""
    return convolve(p, p.reflect())


def self_convolve(p: LatticeDistribution, m: int) -> LatticeDistribution:
    """m-fold convolution power via binary exponentiation on integer weights."""
    if m < 1:
        raise ValueError("m must be >= 1")
    base, base_denom = p.weights, p.denom
    power = m
    result = None
    result_denom = 1
    while power:
        if power & 1:
            if result is None:
                result, result_denom = base, base_denom
            else:
                result = _conv_int(result, base)
                result_denom *= base_denom
        power >>= 1
        if power:
            base = _conv_int(base, base)
            base_denom *= base_denom
    return LatticeDistribution._from_weights(p.dimension, result, result_denom)


def _validate_tuple(dists, tup, divisor):
    if len(tup) != len(dists):
        raise ValueError("tuple length must equal the number of distributions")
    total = Fraction(0)
    for a in tup:
        if a % divisor != 0 or a <= 0:
            raise ValueError(f"tuple entries must be positive multiples of {divisor}")
        total += Fraction(1, a)
    if total != 1:
        raise ValueError("tuple reciprocals must sum to 1 exactly")


def _geometric_mean_upper(masses, tup) -> float:
    """Float upper bound on prod masses[i]^(1/tup[i]) (upward-rounded)."""
    value = 1.0
    for m, a in zip(masses, tup):
        value *= float(m) ** (1.0 / a)
    for _ in range(8):
        value = math.nextafter(value, math.inf)
    return min(value, 1.0) if all(m <= 1 for m in masses) else value


def _compare_with_product(lhs: Fraction, masses, tup) -> int:
    """Sign of lhs - prod masses[i]^(1/tup[i]), exactly, via lcm powering."""
    lcm = math.lcm(*tup)
    left = lhs**lcm
    right = Fraction(1)
    for m, a in zip(masses, tup):
        right *= m ** (lcm // a)
    return (left > right) - (left < right)


def _replication(dists, tup, variant, point=None, delta=None, center=None):
    """Shared core of the two replication checks.

    Validates the inputs, convolves all of `dists`, and replicates each
    factor: variant "symmetrized" takes the (a_i/2)-fold power of the
    symmetrized summand, "origin-symmetric" the a_i-fold power of the summand
    itself.  With `point` it compares point masses (the mass at `point` of
    the total against the masses at 0 of the factors); with `delta` and
    `center` it compares ball masses.  Returns (lhs, rhs, order): order is the
    exact sign of lhs against the right side, rhs its upward-rounded float.
    """
    if variant == "symmetrized":
        divisor = 4
    elif variant == "origin-symmetric":
        divisor = 2
    else:
        raise ValueError("variant must be 'symmetrized' or 'origin-symmetric'")
    dists = list(dists)
    if not dists:
        raise ValueError("need at least one distribution")
    d = dists[0].dimension
    if any(p.dimension != d for p in dists):
        raise ValueError("dimension mismatch")
    _validate_tuple(dists, tup, divisor)
    if variant == "origin-symmetric" and not all(p.is_origin_symmetric() for p in dists):
        raise ValueError("origin-symmetric variant needs origin-symmetric inputs")

    total = reduce(convolve, dists)
    if variant == "symmetrized":
        reps = [self_convolve(symmetrize(p), a // 2) for p, a in zip(dists, tup)]
    else:
        reps = [self_convolve(p, a) for p, a in zip(dists, tup)]
    if delta is None:
        lhs = total.mass_at(point)
        masses = [rep.mass_at((0,) * d) for rep in reps]
        prefactor = 1
    else:
        lhs = total.ball_mass(center, delta)
        big_radius = 4 * Fraction(delta)
        masses = [rep.best_ball_mass(big_radius) for rep in reps]
        prefactor = 1 << d
    rhs = prefactor * _geometric_mean_upper(masses, tup)
    return lhs, rhs, _compare_with_product(lhs / prefactor, masses, tup)


def replication_atom_check(dists, tup, v, variant: str = "symmetrized"):
    """Check one instance of the replication inequality for point masses.

    variant "symmetrized": tuple entries in 4N; each factor is the mass at 0
    of the (a_i/2)-fold convolution power of the symmetrized i-th summand.
    variant "origin-symmetric": tuple entries in 2N, all inputs must be
    origin-symmetric, and the factor uses the a_i-fold power of the summand
    itself.  Returns (lhs, rhs, holds): lhs exact, rhs an upward-rounded
    float of the product, holds decided by exact rational comparison.
    """
    lhs, rhs, order = _replication(dists, tup, variant, point=v)
    return lhs, rhs, order <= 0


def replication_sbp_check(dists, tup, delta, center, variant: str = "symmetrized"):
    """Check one small-ball instance of the replication inequality.

    lhs is the exact mass of the radius-delta ball at `center` under the full
    convolution (a lower bound on its Levy function); rhs is 2^d times the
    geometric mean of best-center ball masses at radius 4*delta of the
    replicated factors.  holds is decided exactly.
    """
    lhs, rhs, order = _replication(dists, tup, variant, delta=delta, center=center)
    return lhs, rhs, order <= 0
