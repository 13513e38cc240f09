"""Exact brute-force ground truth for anti-concentration quantities.

Atom distributions of signed vector sums, sign-solution counts of linear
systems, and lattice-point counts of subspaces are all computed exactly
(rational masses, integer counts) so that every closed-form bound in the
package can be tested against a certified oracle value.  Atom tables fold
the integer convolution kernel of `distributions` over the vectors; solution
counts for a single target meet in the middle of two Gray-code halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .distributions import LatticeDistribution, _conv_int
from .exactmat import BudgetExceededError, ExactMatrix, rref_fraction
from .system import VectorSystem

ATOM_CAP_DEFAULT = 26
SOLUTION_CAP_DEFAULT = 40
COMBDIM_RANK_CAP_DEFAULT = 20


def signed_sum_counts(vectors) -> dict:
    """Count, for every lattice point u, the sign vectors with sum(eps_i v_i) = u.

    Gray-code iteration: each of the 2^h sign assignments is visited once and
    the running sum is updated incrementally in O(d).
    """
    vectors = [tuple(v) for v in vectors]
    h = len(vectors)
    if h == 0:
        return {(): 1}
    d = len(vectors[0])
    signs = [1] * h
    cur = [sum(v[c] for v in vectors) for c in range(d)]
    counts = {}
    key = tuple(cur)
    counts[key] = counts.get(key, 0) + 1
    for g in range(1, 1 << h):
        i = (g & -g).bit_length() - 1
        signs[i] = -signs[i]
        vi = vectors[i]
        for c in range(d):
            cur[c] += 2 * signs[i] * vi[c]
        key = tuple(cur)
        counts[key] = counts.get(key, 0) + 1
    return counts


@dataclass(frozen=True)
class AtomTable:
    """Exact distribution of a signed vector sum: lattice point -> probability."""

    dimension: int
    probs: dict
    total_mass: Fraction

    def max_atom(self) -> Fraction:
        return max(self.probs.values())

    def argmax(self):
        best = self.max_atom()
        return min(p for p, q in self.probs.items() if q == best)


def atom_distribution(system: VectorSystem, cap: int = ATOM_CAP_DEFAULT) -> AtomTable:
    """Exact distribution of sum(eps_i a_i) over independent Rademacher signs.

    Integer fold: the table of sign-vector counts is convolved with each
    vector's two-point weights {v: 1, -v: 1} ({0: 2} for a zero vector), so
    its size is that of the sum lattice, not 2^n.  The counts must total 2^n
    and become `Fraction` masses once, at the end.
    """
    n = system.n
    if n > cap:
        raise BudgetExceededError(f"n={n} exceeds enumeration cap {cap}")
    d = system.dimension
    counts = {(0,) * d: 1}
    for v in system.vectors:
        neg = tuple(-x for x in v)
        counts = _conv_int(counts, {v: 1, neg: 1} if v != neg else {v: 2})
    denom = 1 << n
    total = sum(counts.values())
    if total != denom:
        raise AssertionError("atom masses must sum to 1 exactly")
    probs = {p: Fraction(c, denom) for p, c in counts.items()}
    return AtomTable(d, probs, Fraction(total, denom))


def atom_max(system: VectorSystem, cap: int = ATOM_CAP_DEFAULT) -> Fraction:
    """sup over u of Pr[sum(eps_i a_i) = u], exactly."""
    return atom_distribution(system, cap=cap).max_atom()


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
    table = atom_distribution(system, cap=cap)
    dist = LatticeDistribution(table.dimension, table.probs)
    points = list(table.probs)
    candidates = list(points)
    if centers == "atoms+midpoints":
        for i, p in enumerate(points):
            for q in points[i + 1 :]:
                candidates.append(tuple((Fraction(a) + b) / 2 for a, b in zip(p, q)))
    return max(dist.ball_mass(c, radius) for c in candidates)


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
    half = (n + 1) // 2
    left = signed_sum_counts(columns[:half])
    right = signed_sum_counts(columns[half:])
    if n == half:
        return left.get(b, 0)
    total = 0
    for pl, cl in left.items():
        need = tuple(b[c] - pl[c] for c in range(d))
        cr = right.get(need)
        if cr:
            total += cl * cr
    return total


def count_sign_solutions(a: ExactMatrix, b=None, cap: int = SOLUTION_CAP_DEFAULT) -> int:
    """Exact number of x in {+-1}^cols with A x = b (b defaults to 0).

    A matrix with zero rows imposes no constraints and yields 2^cols.
    """
    if a.rows == 0:
        if a.cols > cap:
            raise BudgetExceededError(f"n={a.cols} exceeds enumeration cap {cap}")
        return 1 << a.cols
    if b is None:
        b = (0,) * a.rows
    columns = [a.column(j) for j in range(a.cols)]
    return count_sign_solutions_columns(columns, tuple(b), cap=cap)


def combinatorial_dimension(
    spanning: ExactMatrix, cap: int = COMBDIM_RANK_CAP_DEFAULT
):
    """Count the sign vectors inside the row space of `spanning`.

    Pivot method: reduce the spanning rows to a basis in reduced echelon
    form; a vector of the space is determined by its values on the pivot
    coordinates, so the 2^rank sign assignments of the pivots enumerate
    every candidate, each extended uniquely and tested for membership in
    {+-1}^n.  Returns (count, log2(count)); the log is None when count = 0.
    """
    basis, pivots = rref_fraction(spanning.entries)
    r = len(basis)
    if r > cap:
        raise BudgetExceededError(f"rank {r} exceeds enumeration cap {cap}")
    if r == 0:
        return 0, None
    n = spanning.cols
    denom = 1
    for row in basis:
        for x in row:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
    # Integerized basis: candidate sums must hit +-denom in every coordinate.
    int_basis = [[int(x * denom) for x in row] for row in basis]
    signs = [1] * r
    cur = [sum(int_basis[i][j] for i in range(r)) for j in range(n)]
    count = 0
    if all(v == denom or v == -denom for v in cur):
        count += 1
    for g in range(1, 1 << r):
        i = (g & -g).bit_length() - 1
        signs[i] = -signs[i]
        bi = int_basis[i]
        flip = 2 * signs[i]
        for j in range(n):
            cur[j] += flip * bi[j]
        if all(v == denom or v == -denom for v in cur):
            count += 1
    d_pm = math.log2(count) if count > 0 else None
    return count, d_pm
