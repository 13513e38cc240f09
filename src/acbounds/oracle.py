"""Exact brute-force ground truth for anti-concentration quantities.

Atom distributions of signed vector sums, sign-solution counts of linear
systems, and lattice-point counts of subspaces are all computed exactly
(rational masses, integer counts) so that every closed-form bound in the
package can be tested against a certified oracle value.  Atom tables fold
the integer convolution kernel of `distributions` over the vectors; solution
counts for a single target fold each half of the columns the same way and
join the halves, and so do subspace sign-vector counts, on the halves of a
reduced basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .distributions import LatticeDistribution, _conv_int
from .exactmat import BudgetExceededError, ExactMatrix, rref_fraction
from .system import VectorSystem

ATOM_CAP_DEFAULT = 26
SOLUTION_CAP_DEFAULT = 40
COMBDIM_RANK_CAP_DEFAULT = 20


def _sign_sum_counts(vectors, d: int) -> dict:
    """Lattice point u -> number of sign vectors with sum(eps_i v_i) = u.

    Integer fold: the table is convolved with each vector's two-point weights
    {v: 1, -v: 1} ({0: 2} for a zero vector), so its size is that of the sum
    lattice, not 2^len(vectors).
    """
    counts = {(0,) * d: 1}
    for v in vectors:
        v = tuple(v)
        neg = tuple(-x for x in v)
        counts = _conv_int(counts, {v: 1, neg: 1} if v != neg else {v: 2})
    return counts


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

    The sign-vector counts of the integer fold must total 2^n and become
    `Fraction` masses once, at the end.
    """
    n = system.n
    if n > cap:
        raise BudgetExceededError(f"n={n} exceeds enumeration cap {cap}")
    d = system.dimension
    counts = _sign_sum_counts(system.vectors, d)
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
    best = dist.best_ball_mass(radius)
    if centers == "atoms+midpoints":
        # One `ball_mass` pass per distinct doubled midpoint, not per pair.
        points = list(table.probs)
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
    # Meet in the middle: fold each half, then join on left + right = b.
    half = (n + 1) // 2
    left = _sign_sum_counts(columns[:half], d)
    right = _sign_sum_counts(columns[half:], d)
    return sum(cl * right.get(tuple(map(sub, b, pl)), 0) for pl, cl in left.items())


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
    form, scaled to integers by the common denominator `denom`.  A vector of
    the space is z.basis for z its values on the pivot coordinates, so a sign
    vector has z in {+-1}^rank, and then its pivot coordinates are +-denom.
    Each half of the basis rows, restricted to the free coordinates, is
    folded with `_sign_sum_counts`, and the pairs of half sums that add up to
    +-denom in every free coordinate are counted.  Returns
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
    half = (r + 1) // 2
    left = _sign_sum_counts(rows[:half], len(free))
    right = _sign_sum_counts(rows[half:], len(free))
    count = sum(
        cl * cr
        for pl, cl in left.items()
        for pr, cr in right.items()
        if all(abs(a + b) == denom for a, b in zip(pl, pr))
    )
    d_pm = math.log2(count) if count > 0 else None
    return count, d_pm
