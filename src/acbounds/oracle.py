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
B = 2 S + 1 with S the largest column sum S_i = sum_j |v_j[i]|.

Atom tables (and the subspace count's two halves) are two numpy arrays,
the sorted packed keys and their integer counts.  Each vector is one
vectorised step: the keys shifted by -s and by +s are concatenated, sorted
stably, and the counts of each run of equal keys are added by
`np.add.reduceat`.  Keys are decoded with array `//` and `%`, one digit at a
time.  Keys are int64 when B^d < 2^63 (every |key| is below B^d / 2, and a
key offset to nonnegative digits is below B^d), and counts are int64 when
2^n < 2^63; otherwise either array holds Python ints (`dtype=object`) and
the same code runs on it.  The atom queries read one table checked to total
2^n: `atom_max` takes its largest count, `levy_lower_bound` keeps the
decoded counts as integer weights, and only `atom_distribution` builds
`Fraction` masses, one per distinct count, handing the largest one to the
`AtomTable` so that `max_atom` compares no `Fraction`s.

Solution counts keep a dict fold, `_packed_sign_sums`: they join the packed
folds of the two column halves, after ruling out targets with some
|b_i| > S_i (then |b_i - u_i - w_i| <= 2 S_i for all half sums u, w: the join
cannot alias).  Their tables are tiny (the N-normal census solves step
systems of at most 6 columns, hundreds of times per census), and there the
numpy per-call overhead loses: on a 2-core machine, an array fold measured
4.2 -> 15.7 ms per round of the benchmark's `normal` workload and
0.5 -> 1.3 ms per `census` round.  The two folds share only `_pack` and `_column_sums`.  Subspace
sign-vector counts join the decoded halves of a reduced basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

import numpy as np

from .distributions import LatticeDistribution
from .exactmat import BudgetExceededError, ExactMatrix, _bareiss
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


def _sign_sum_table(vectors, d: int, base: int) -> tuple:
    """(keys, counts): the sorted packed keys of the sums sum(eps_i v_i) over
    all sign vectors eps, and the number of sign vectors reaching each.

    `base` must be odd and above twice every |coordinate| reached.  Keys are
    int64 when base^d < 2^63 and counts when 2^n < 2^63; otherwise the
    arrays hold Python ints.
    """
    keys = np.zeros(1, dtype=np.int64 if base**d < 1 << 63 else object)
    counts = np.ones(1, dtype=np.int64 if len(vectors) < 63 else object)
    for v in vectors:
        s = _pack(v, base)
        if s == 0:
            counts = counts + counts
            continue
        shifted = np.concatenate((keys - s, keys + s))
        order = np.argsort(shifted, kind="stable")
        shifted = shifted[order]
        starts = np.flatnonzero(np.concatenate(([True], shifted[1:] != shifted[:-1])))
        keys = shifted[starts]
        counts = np.add.reduceat(np.concatenate((counts, counts))[order], starts)
    return keys, counts


def _unpack_keys(keys, base: int, d: int) -> list:
    """The lattice points (d-tuples of ints) of packed keys, in key order."""
    half = base // 2
    # Offset by the packed (half, ..., half): the digits become 0..base-1.
    keys = keys + _pack((half,) * d, base)
    digits = []
    for _ in range(d):
        digits.append((keys % base - half).tolist())
        keys = keys // base
    return list(zip(*digits)) if d else [()] * len(keys)


def _atom_counts(system: VectorSystem, cap: int) -> tuple:
    """(keys, counts, base): the sign-sum table of the system's vectors,
    checked to total 2^n.  The table's size is that of the sum lattice."""
    if system.n > cap:
        raise BudgetExceededError(f"n={system.n} exceeds enumeration cap {cap}")
    d = system.dimension
    base = 2 * max(_column_sums(system.vectors, d), default=0) + 1
    keys, counts = _sign_sum_table(system.vectors, d, base)
    if counts.sum() != 1 << system.n:
        raise AssertionError("atom masses must sum to 1 exactly")
    return keys, counts, base


@dataclass(frozen=True)
class AtomTable:
    """Exact distribution of a signed vector sum: lattice point -> probability.

    `max_mass` is the largest value of `probs` (the same object), found on
    the integer counts when the table is built."""

    dimension: int
    probs: dict
    total_mass: Fraction
    max_mass: Fraction

    def max_atom(self) -> Fraction:
        return self.max_mass


def atom_distribution(system: VectorSystem, cap: int = ATOM_CAP_DEFAULT) -> AtomTable:
    """Exact distribution of sum(eps_i a_i) over independent Rademacher signs.

    Each distinct count of the checked fold becomes one `Fraction` mass,
    shared by the atoms that have it.
    """
    keys, counts, base = _atom_counts(system, cap)
    points = _unpack_keys(keys, base, system.dimension)
    counts = counts.tolist()
    denom = 1 << system.n
    masses = {c: Fraction(c, denom) for c in set(counts)}
    probs = dict(zip(points, map(masses.__getitem__, counts)))
    return AtomTable(system.dimension, probs, Fraction(1), masses[max(masses)])


def atom_max(system: VectorSystem, cap: int = ATOM_CAP_DEFAULT) -> Fraction:
    """sup over u of Pr[sum(eps_i a_i) = u], exactly: the largest count / 2^n."""
    _, counts, _ = _atom_counts(system, cap)
    return Fraction(int(counts.max()), 1 << system.n)


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
    keys, counts, base = _atom_counts(system, cap)
    d = system.dimension
    weights = dict(zip(_unpack_keys(keys, base, d), counts.tolist()))
    # gcd(counts) divides their sum 2^n, so these weights reduce exactly.
    dist = LatticeDistribution._from_weights(d, weights, 1 << system.n)
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


def _integer_basis(rows):
    """The reduced echelon basis of the row space of `rows`, in integers.

    Returns (pivots, denom, basis): basis[i] is denom times the i-th row of
    the reduced row echelon form over Q, and denom the least such positive
    integer.  The Bareiss echelon rows are finished without fractions: from
    the last pivot up, each row is divided by the gcd of its entries and its
    pivot column cleared from the rows above it by cross-multiplication.  A
    primitive row proportional to a reduced row r has pivot +-lcm of the
    denominators of r, so denom is the lcm of the pivots.
    """
    r, _, _, pivots, echelon = _bareiss(rows)
    for k in reversed(range(r)):
        g = math.gcd(*echelon[k])
        echelon[k] = row = [x // g for x in echelon[k]]
        p = row[pivots[k]]
        for i in range(k):
            x = echelon[i][pivots[k]]
            if x:
                echelon[i] = [p * a - x * b for a, b in zip(echelon[i], row)]
    denom = math.lcm(*(row[c] for row, c in zip(echelon, pivots)))
    return pivots, denom, [[x * (denom // row[c]) for x in row] for row, c in zip(echelon, pivots)]


def combinatorial_dimension(
    spanning: ExactMatrix, cap: int = COMBDIM_RANK_CAP_DEFAULT
):
    """Count the sign vectors inside the row space of `spanning`.

    Pivot method: reduce the spanning rows to a basis in reduced echelon
    form, scaled to integers by the common denominator `denom`
    (`_integer_basis`).  A vector of the space is z.basis for z its values
    on the pivot coordinates, so a sign vector has z in {+-1}^rank, and then
    its pivot coordinates are +-denom.
    Each half of the basis rows, restricted to the free coordinates, is
    folded into a sign-sum table and decoded, and the pairs of half sums
    that add up to +-denom in every free coordinate are counted.  Returns
    (count, log2(count)); the log is None when count = 0.
    """
    pivots, denom, basis = _integer_basis(spanning.entries)
    r = len(basis)
    if r > cap:
        raise BudgetExceededError(f"rank {r} exceeds enumeration cap {cap}")
    if r == 0:
        return 0, None
    free = [j for j in range(spanning.cols) if j not in pivots]
    rows = [[row[j] for j in free] for row in basis]
    f = len(free)
    base = 2 * max(_column_sums(rows, f), default=0) + 1
    half = (r + 1) // 2
    halves = []
    for part in (rows[:half], rows[half:]):
        keys, counts = _sign_sum_table(part, f, base)
        halves.append(list(zip(_unpack_keys(keys, base, f), counts.tolist())))
    left, right = halves
    count = sum(
        cl * cr
        for pl, cl in left
        for pr, cr in right
        if all(abs(a + b) == denom for a, b in zip(pl, pr))
    )
    d_pm = math.log2(count) if count > 0 else None
    return count, d_pm
