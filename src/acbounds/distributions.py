"""Exact lattice distributions and the replication-trick inequalities.

Distributions are finite rational measures on Z^d, stored as integer weights
over one common denominator; `Fraction` masses appear only at the boundary
(the constructor, `atoms` and the mass queries).

Every convolution runs on packed integer keys: a point u is the signed-digit
integer sum(u_i B^i), with odd B = 2M + 1 and M at least every |coordinate|
reached, so distinct points get distinct keys, adding two points is one int
addition and reflecting one negates its key.  `convolve`, `symmetrize` and
`self_convolve` (binary powering) pack their inputs once, fold them with the
one kernel `_conv_int` and decode the result once.  A replication check
packs once, with M = sum_i a_i max|coordinate of p_i|, which bounds the
total, each half power p_i^{*a_i/2} and its symmetrization.  The point
check reads the total at the packed query point (a point off the lattice or
beyond M has mass 0) and each factor as a sum of squared weights, decoding
nothing; the ball check decodes the total and the symmetrized halves, and a
ball mass sums the weights at integer squared distances from a scaled
integer centre.  Both variants of a replication claim
lhs <= prod m_i^(1/a_i)  take each factor m_i from one half power
p_i^{*a_i/2}, and the claim is settled by raising both sides to the lcm of
the a_i and cross-multiplying integer numerators and denominators.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import reduce

from .bounds import ReciprocalTuple, _nudge_up


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
        point = tuple(point)
        if len(point) != self.dimension:
            raise ValueError("point dimension mismatch")
        return Fraction(self.weights.get(point, 0), self.denom)

    def max_atom(self) -> Fraction:
        return Fraction(max(self.weights.values()), self.denom)

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
        radius = Fraction(radius)
        if radius < 0:
            raise ValueError("radius must be >= 0")
        center = tuple(Fraction(c) for c in center)
        if len(center) != self.dimension:
            raise ValueError("center dimension mismatch")
        # Scale by the centers' common denominator so distances stay integral.
        scale = math.lcm(*(c.denominator for c in center))
        scaled = tuple(int(c * scale) for c in center)
        bound = math.floor((radius * scale) ** 2)
        return Fraction(self._ball_weight(scaled, scale, bound), self.denom)

    def best_ball_mass(self, radius) -> Fraction:
        """Max ball mass over atom centers: a certified Levy lower bound."""
        radius = Fraction(radius)
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if radius == 0:
            return self.max_atom()
        bound = math.floor(radius**2)
        return Fraction(max(self._ball_weight(p, 1, bound) for p in self.weights), self.denom)

    def _ball_weight(self, scaled, scale, bound) -> int:
        """Total weight of the atoms p with |scale*p - scaled|^2 <= bound."""
        return sum(w for p, w in self.weights.items()
                   if sum((scale * x - c) ** 2 for x, c in zip(p, scaled)) <= bound)

    def __eq__(self, other):
        return (
            isinstance(other, LatticeDistribution)
            and self.dimension == other.dimension
            and self.denom == other.denom
            and self.weights == other.weights
        )

    def __repr__(self):
        return f"LatticeDistribution(d={self.dimension}, support={len(self.weights)})"


def _pack(u, base: int) -> int:
    """The signed-digit key sum(u_i base^i) of a lattice point."""
    key = 0
    for x in reversed(u):
        key = key * base + x
    return key


def _reach(p: LatticeDistribution) -> int:
    """The largest |coordinate| in the support of p."""
    return max((abs(x) for u in p.weights for x in u), default=0)


def _packed(p: LatticeDistribution, base: int) -> dict:
    return {_pack(u, base): w for u, w in p.weights.items()}


def _unpacked(weights: dict, denom: int, base: int, d: int) -> LatticeDistribution:
    """The distribution with masses weights[key] / denom at the decoded keys."""
    half = base // 2
    offset = _pack((half,) * d, base)  # shifts every digit to 0..base-1
    points = {}
    for key, w in weights.items():
        key += offset
        u = []
        for _ in range(d):
            key, digit = divmod(key, base)
            u.append(digit - half)
        points[tuple(u)] = w
    return LatticeDistribution._from_weights(d, points, denom)


def _conv_int(wa: dict, wb: dict) -> dict:
    """The convolution kernel on packed keys: all pairs summed."""
    out = {}
    get = out.get
    for a, ma in wa.items():
        for b, mb in wb.items():
            key = a + b
            out[key] = get(key, 0) + ma * mb
    return out


def _sym_int(w: dict) -> dict:
    """Packed weights of X - X' (the reflection negates every key)."""
    return _conv_int(w, {-k: c for k, c in w.items()})


def _power_int(w: dict, m: int) -> dict:
    """Packed weights of the m-fold convolution power, by binary powering."""
    result = None
    while m:
        if m & 1:
            result = w if result is None else _conv_int(result, w)
        m >>= 1
        if m:
            w = _conv_int(w, w)
    return result


def convolve(p: LatticeDistribution, q: LatticeDistribution) -> LatticeDistribution:
    """Exact distribution of the sum of independent draws from p and q."""
    if p.dimension != q.dimension:
        raise ValueError("dimension mismatch")
    base = 2 * (_reach(p) + _reach(q)) + 1
    weights = _conv_int(_packed(p, base), _packed(q, base))
    return _unpacked(weights, p.denom * q.denom, base, p.dimension)


def symmetrize(p: LatticeDistribution) -> LatticeDistribution:
    """Distribution of X - X' for an independent copy X'; origin-symmetric."""
    base = 4 * _reach(p) + 1
    return _unpacked(_sym_int(_packed(p, base)), p.denom**2, base, p.dimension)


def self_convolve(p: LatticeDistribution, m: int) -> LatticeDistribution:
    """m-fold convolution power via binary exponentiation on packed weights."""
    if m < 1:
        raise ValueError("m must be >= 1")
    base = 2 * m * _reach(p) + 1
    return _unpacked(_power_int(_packed(p, base), m), p.denom**m, base, p.dimension)


def _geometric_mean_upper(masses, tup) -> float:
    """Float upper bound on prod masses[i]^(1/tup[i]) (upward-rounded)."""
    value = _nudge_up(math.prod(float(m) ** (1.0 / a) for m, a in zip(masses, tup)), 8)
    return min(value, 1.0) if all(m <= 1 for m in masses) else value


def _compare_with_product(lhs: Fraction, masses, tup) -> int:
    """Sign of lhs - prod masses[i]^(1/tup[i]), exactly: both sides raised to
    the lcm of the tuple, then cross-multiplied as integers."""
    lcm = math.lcm(*tup)
    left, right = lhs.numerator**lcm, lhs.denominator**lcm
    for m, a in zip(masses, tup):
        left *= m.denominator ** (lcm // a)
        right *= m.numerator ** (lcm // a)
    return (left > right) - (left < right)


def _replication(dists, tup, variant, point=None, delta=None, center=None):
    """Shared core of the two replication checks.

    Validates the inputs, packs `dists` once and convolves them all.  Each
    factor comes from the half power q = p^{*a_i/2}: the "symmetrized"
    factor (p * reflect p)^{*a_i/2} and, for an origin-symmetric p, the
    "origin-symmetric" factor p^{*a_i} both equal symmetrize(q), so the
    variant only fixes the tuple divisor (4 or 2) and whether the inputs must
    be origin-symmetric.  With `point` it compares point masses: the mass at
    `point` of the total against the masses at 0 of the factors, each read
    off q as sum_u q(u)^2.  With `delta` and `center` it compares ball
    masses.  Returns (lhs, rhs, order): order is the exact sign of lhs
    against the right side, rhs its upward-rounded float.
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
    if len(tup) != len(dists):
        raise ValueError("tuple length must equal the number of distributions")
    ReciprocalTuple(tuple(sorted(tup)), divisor)
    if divisor == 2 and not all(p.is_origin_symmetric() for p in dists):
        raise ValueError("origin-symmetric variant needs origin-symmetric inputs")

    # The total, each half power and its symmetrization reach no |coordinate|
    # above sum_i a_i reach(p_i), so one base serves the whole check.
    reach = sum(a * _reach(p) for p, a in zip(dists, tup))
    base = 2 * reach + 1
    packed = [_packed(p, base) for p in dists]
    total = reduce(_conv_int, packed)
    total_denom = math.prod(p.denom for p in dists)
    halves = [(_power_int(w, a // 2), p.denom ** (a // 2))
              for w, p, a in zip(packed, dists, tup)]
    if delta is None:
        point = tuple(point)
        if len(point) != d:
            raise ValueError("point dimension mismatch")
        # A point off the lattice or beyond the reach has mass 0.
        on = all(x % 1 == 0 and abs(x) <= reach for x in point)
        weight = total.get(_pack([int(x) for x in point], base), 0) if on else 0
        lhs = Fraction(weight, total_denom)
        masses = [Fraction(sum(w * w for w in q.values()), den**2) for q, den in halves]
        prefactor = 1
    else:
        lhs = _unpacked(total, total_denom, base, d).ball_mass(center, delta)
        big_radius = 4 * Fraction(delta)
        masses = [_unpacked(_sym_int(q), den**2, base, d).best_ball_mass(big_radius)
                  for q, den in halves]
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
