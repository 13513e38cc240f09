"""Exact brute-force ground truth for anti-concentration quantities.

Atom distributions of signed vector sums, sign-solution counts of linear
systems, and lattice-point counts of subspaces are all computed exactly
(rational masses, integer counts) so that every closed-form bound in the
package can be tested against a certified oracle value.

All three fold the vectors on packed integer keys: a point u in Z^d is the
signed-digit integer sum(u_i B^i), so adding a vector is one int addition
and each vector turns a table of counts into the sum of its two shifts by
+-v (a zero vector doubles every count).  Distinct points pack to distinct
keys when every coordinate of their difference is below B in absolute value,
so B is odd and above twice the largest reachable |coordinate|:
B = 2 S + 1 with S the largest column sum S_i = sum_j |v_j[i]|.  The atom
queries read one count table checked to total 2^n: `atom_max` takes its
largest count on the packed keys, `levy_lower_bound` keeps the decoded
counts as integer weights, and only `atom_distribution` builds `Fraction`
masses, one per distinct count.  Solution counts join the packed folds of
the two column halves, after ruling out targets with some |b_i| > S_i (then
|b_i - u_i - w_i| <= 2 S_i for all half sums u, w: the join cannot alias);
subspace sign-vector counts join the decoded halves of a reduced basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .distributions import LatticeDistribution
from .exactmat import BudgetExceededError, ExactMatrix, rref_fraction
from .system import VectorSystem

ATOM_CAP_DEFAULT = 26
SOLUTION_CAP_DEFAULT = 40
COMBDIM_RANK_CAP_DEFAULT = 20


def _column_sums(vectors, d: int) -> list:
    """S_i = sum_j |v_j[i]|: every signed sum lies in the box [-S_i, S_i]."""
    return [sum(abs(v[i]) for v in vectors) for i in range(d)]


def _pack(u, base: int) -> int:
    """The signed-digit key sum(u_i base^i) of a lattice point."""
    key = 0
    for x in reversed(u):
        key = key * base + x
    return key


def _packed_sign_sums(vectors, base: int) -> dict:
    """Packed key of u -> number of sign vectors with sum(eps_i v_i) = u.

    `base` must be odd and above twice every |coordinate| reached.
    """
    counts = {0: 1}
    for v in vectors:
        s = _pack(v, base)
        out = {k + s: c for k, c in counts.items()}
        get = out.get
        for k, c in counts.items():
            k -= s
            out[k] = get(k, 0) + c
        counts = out
    return counts


def _unpack_counts(packed: dict, base: int, d: int) -> dict:
    """Decode packed keys to d-tuples, one digit of every key at a time,
    emptying `packed` first so that the two tables are never alive together."""
    half = base // 2
    # Offset by the packed (half, ..., half): the digits become 0..base-1.
    offset = _pack((half,) * d, base)
    keys = [k + offset for k in packed]
    counts = list(packed.values())
    packed.clear()
    digits = []
    for _ in range(d):
        digits.append([k % base - half for k in keys])
        keys = [k // base for k in keys]
    points = zip(*digits) if d else [()] * len(counts)
    return dict(zip(points, counts))


def _atom_counts(system: VectorSystem, cap: int) -> tuple:
    """(packed key of u -> number of sign vectors with sum(eps_i a_i) = u, base),
    checked to total 2^n.  The table's size is that of the sum lattice."""
    if system.n > cap:
        raise BudgetExceededError(f"n={system.n} exceeds enumeration cap {cap}")
    base = 2 * max(_column_sums(system.vectors, system.dimension), default=0) + 1
    counts = _packed_sign_sums(system.vectors, base)
    if sum(counts.values()) != 1 << system.n:
        raise AssertionError("atom masses must sum to 1 exactly")
    return counts, base


@dataclass(frozen=True)
class AtomTable:
    """Exact distribution of a signed vector sum: lattice point -> probability."""

    dimension: int
    probs: dict
    total_mass: Fraction

    def max_atom(self) -> Fraction:
        return max(self.probs.values())


def atom_distribution(system: VectorSystem, cap: int = ATOM_CAP_DEFAULT) -> AtomTable:
    """Exact distribution of sum(eps_i a_i) over independent Rademacher signs.

    Each distinct count of the checked fold becomes one `Fraction` mass,
    shared by the atoms that have it.
    """
    counts, base = _atom_counts(system, cap)
    denom = 1 << system.n
    masses = {c: Fraction(c, denom) for c in set(counts.values())}
    probs = _unpack_counts(counts, base, system.dimension)
    for p, c in probs.items():
        probs[p] = masses[c]
    return AtomTable(system.dimension, probs, Fraction(1))


def atom_max(system: VectorSystem, cap: int = ATOM_CAP_DEFAULT) -> Fraction:
    """sup over u of Pr[sum(eps_i a_i) = u], exactly: the largest count / 2^n."""
    counts, _ = _atom_counts(system, cap)
    return Fraction(max(counts.values()), 1 << system.n)


def levy_lower_bound(
    system: VectorSystem,
    radius,
    centers: str = "atoms",
    cap: int = ATOM_CAP_DEFAULT,
) -> Fraction:
    """Certified lower bound on the Levy concentration of the signed sum.

    Maximizes the mass of a radius ball over a finite center policy: the
    achieved atoms themselves, optionally extended by midpoints of atom
    pairs.  The true Levy function takes a sup over all real centers, so the
    returned value is a lower bound; every bound under test is an upper
    bound on the Levy function, which a lower bound can falsify.
    """
    if centers not in ("atoms", "atoms+midpoints"):
        raise ValueError("centers must be 'atoms' or 'atoms+midpoints'")
    counts, base = _atom_counts(system, cap)
    d = system.dimension
    # gcd(counts) divides their sum 2^n, so these weights reduce exactly.
    dist = LatticeDistribution._from_weights(d, _unpack_counts(counts, base, d), 1 << system.n)
    best = dist.best_ball_mass(radius)
    if centers == "atoms+midpoints":
        # One `ball_mass` pass per distinct doubled midpoint, not per pair.
        points = list(dist.weights)
        doubled = {tuple(map(add, p, q)) for i, p in enumerate(points) for q in points[i + 1 :]}
        for c in doubled:
            best = max(best, dist.ball_mass(tuple(Fraction(x, 2) for x in c), radius))
    return best


def count_sign_solutions_columns(columns, b, cap: int = SOLUTION_CAP_DEFAULT) -> int:
    """Exact |{x in {+-1}^n : sum x_j col_j = b}| for integer columns."""
    n = len(columns)
    if n > cap:
        raise BudgetExceededError(f"n={n} exceeds enumeration cap {cap}")
    if n == 0:
        return 1 if all(v == 0 for v in b) else 0
    d = len(columns[0])
    b = tuple(b)
    if len(b) != d:
        raise ValueError("target vector length mismatch")
    sums = _column_sums(columns, d)
    if any(abs(x) > s for x, s in zip(b, sums)):
        return 0
    # Meet in the middle: fold each half, then join on left + right = b.
    base = 2 * max(sums, default=0) + 1
    half = (n + 1) // 2
    left = _packed_sign_sums(columns[:half], base)
    get = _packed_sign_sums(columns[half:], base).get
    bp = _pack(b, base)
    return sum(cl * get(bp - k, 0) for k, cl in left.items())


def count_sign_solutions(a: ExactMatrix, b=None, cap: int = SOLUTION_CAP_DEFAULT) -> int:
    """Exact number of x in {+-1}^cols with A x = b (b defaults to 0).

    A matrix with zero rows imposes no constraints and yields 2^cols.
    """
    b = (0,) * a.rows if b is None else tuple(b)
    if len(b) != a.rows:
        raise ValueError("target vector length mismatch")
    columns = [a.column(j) for j in range(a.cols)]
    return count_sign_solutions_columns(columns, b, cap=cap)


def combinatorial_dimension(
    spanning: ExactMatrix, cap: int = COMBDIM_RANK_CAP_DEFAULT
):
    """Count the sign vectors inside the row space of `spanning`.

    Pivot method: reduce the spanning rows to a basis in reduced echelon
    form, scaled to integers by the common denominator `denom`.  A vector of
    the space is z.basis for z its values on the pivot coordinates, so a sign
    vector has z in {+-1}^rank, and then its pivot coordinates are +-denom.
    Each half of the basis rows, restricted to the free coordinates, is
    folded and decoded, and the pairs of half sums that add up to +-denom in
    every free coordinate are counted.  Returns
    (count, log2(count)); the log is None when count = 0.
    """
    basis, pivots = rref_fraction(spanning.entries)
    r = len(basis)
    if r > cap:
        raise BudgetExceededError(f"rank {r} exceeds enumeration cap {cap}")
    if r == 0:
        return 0, None
    denom = math.lcm(*(x.denominator for row in basis for x in row))
    free = [j for j in range(spanning.cols) if j not in pivots]
    rows = [[int(row[j] * denom) for j in free] for row in basis]
    base = 2 * max(_column_sums(rows, len(free)), default=0) + 1
    half = (r + 1) // 2
    left = _unpack_counts(_packed_sign_sums(rows[:half], base), base, len(free))
    right = _unpack_counts(_packed_sign_sums(rows[half:], base), base, len(free))
    count = sum(
        cl * cr
        for pl, cl in left.items()
        for pr, cr in right.items()
        if all(abs(a + b) == denom for a, b in zip(pl, pr))
    )
    d_pm = math.log2(count) if count > 0 else None
    return count, d_pm
