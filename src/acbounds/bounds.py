"""Closed-form anti-concentration bound evaluators.

The exact-constant bounds (central-binomial atom bound, classical signed-sum
bound) are evaluated as exact rationals whenever the exponent is integral.
Bounds that carry an unpinned absolute constant take it as an explicit
parameter C (default 1); nothing here invents a numeric value for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .exactmat import BudgetExceededError, ExactMatrix, NonconvergenceError
from .system import VectorSystem


def _nudge_up(x: float, steps: int = 4) -> float:
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


def odlyzko_bound(d: int) -> int:
    """Maximum number of sign vectors a d-dimensional subspace can contain: 2^d."""
    if d < 0:
        raise ValueError("d must be >= 0")
    return 1 << d


def erdos_lo_bound(n: int) -> Fraction:
    """Largest atom of a signed sum of n nonzero reals: C(n, n//2) / 2^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(comb(n, n // 2), 1 << n)


def central_binomial_ratio(ell: int) -> Fraction:
    """2^-ell * C(ell, ell/2) for even ell: the largest atom of ell coin flips."""
    if ell < 2 or ell % 2 != 0:
        raise ValueError("ell must be even and >= 2")
    return Fraction(comb(ell, ell // 2), 1 << ell)


def halasz_atom_bound(partition_ranks, ell: int):
    """Atom bound for a signed vector sum from block ranks of a partition.

    Value: (2^-ell * C(ell, ell/2)) ** (sum of ranks / ell).  Exact rational
    when the exponent is integral, otherwise a float rounded upward so the
    result stays a valid upper bound.
    """
    ranks = list(partition_ranks)
    if len(ranks) != ell:
        raise ValueError("need one rank per partition block")
    if any(r < 0 for r in ranks):
        raise ValueError("ranks must be nonnegative")
    base = central_binomial_ratio(ell)
    total = sum(ranks)
    q, rem = divmod(total, ell)
    exact = base**q
    if rem == 0:
        return exact
    frac_part = _nudge_up(float(base) ** (rem / ell))
    return _nudge_up(float(exact) * frac_part)


def atom_bound_dominates(value, partition_ranks, ell: int) -> bool:
    """Exactly decide value <= (2^-ell C(ell, ell/2))^(sum ranks / ell).

    Both sides are raised to the ell-th power, which removes the fractional
    exponent and settles the comparison in integer arithmetic.
    """
    value = Fraction(value)
    if value < 0:
        raise ValueError("value must be nonnegative")
    base = central_binomial_ratio(ell)
    return value**ell <= base ** sum(partition_ranks)


def howard_oskolkov_bound(d: int, m: int) -> float:
    """(pi^1.5 d / sqrt(2))^d * m^(-d/2): the explicit classical constant."""
    if d < 1 or m < 1:
        raise ValueError("d and m must be >= 1")
    return (math.pi**1.5 * d / math.sqrt(2)) ** d * m ** (-d / 2)


def improved_constant_bound(d: int, m: int) -> float:
    """(sqrt(2d/3))^d * m^(-d/2): stays below 1 even when d is of order m."""
    if d < 1 or m < d:
        raise ValueError("need m >= d >= 1")
    return (2 * d / (3 * m)) ** (d / 2)


def rogozin_bound(levy_complements, C: float = 1.0) -> float:
    """C / sqrt(sum of per-summand Levy complements)."""
    values = list(levy_complements)
    if C <= 0:
        raise ValueError("C must be positive")
    if any(not 0 <= v <= 1 for v in values):
        raise ValueError("entries must lie in [0, 1]")
    total = sum(values)
    if total <= 0:
        raise ValueError("sum of Levy complements must be positive")
    return C / math.sqrt(total)


@dataclass(frozen=True)
class BoundParams:
    """Shared parameter record for the small-ball bound evaluators."""

    M: float = 1.0
    eps: float = 0.5
    delta: float = 0.0
    lam: float = 1.0
    C: float = 1.0

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if not 0 < self.lam <= 1:
            raise ValueError("lambda must lie in (0, 1]")
        if self.C <= 0:
            raise ValueError("C must be positive")


# Relative width at which `stable_rank` stops tightening its enclosure of the
# squared operator norm.
ENCLOSURE_REL_TOL = 1e-12


@dataclass(frozen=True)
class StableRankReport:
    hs_norm_sq: Fraction
    op_norm_sq: float
    op_norm_sq_lower: Fraction
    op_norm_sq_upper: Fraction
    stable_rank: int


def _is_psd(mat) -> bool:
    """Exact PSD test for a symmetric integer matrix.

    Fraction-free symmetric elimination with diagonal pivots, reading and
    updating the upper triangle only: the matrix is PSD iff every pivot is
    >= 0 and a zero pivot has a zero row.  Each updated entry is a minor of
    the input, so every division is exact and each pivot has the sign of the
    corresponding pivot of rational elimination.
    """
    a = [list(row) for row in mat]
    n = len(a)
    prev = 1
    for i in range(n):
        rowi = a[i]
        p = rowi[i]
        if p < 0:
            return False
        if p == 0:
            # A PSD matrix with a zero diagonal entry has a zero row there.
            if any(rowi[j] != 0 for j in range(i + 1, n)):
                return False
            continue
        for j in range(i + 1, n):
            f = rowi[j]
            rowj = a[j]
            for l in range(j, n):
                rowj[l] = (p * rowj[l] - f * rowi[l]) // prev
        prev = p
    return True


def stable_rank(m: ExactMatrix) -> StableRankReport:
    """floor(||A||_HS^2 / ||A||^2) with a certified floor.

    The squared Hilbert-Schmidt norm is an exact integer.  The floor is
    decided exactly: floor >= k iff hs*I - k*Gram is PSD (an exact integer
    test), so the returned stable rank is certified, and the operator-norm
    enclosure is then tightened by exact PSD bisection until both endpoints
    give the same floor and a relative width of ENCLOSURE_REL_TOL.
    """
    if m.rows == 0 or m.is_zero():
        raise ValueError("stable rank needs a nonzero matrix")
    hs = sum(x * x for row in m.entries for x in row)
    side = m if m.rows <= m.cols else m.transpose()
    gram = side.gram().entries  # the smaller of A A^T and A^T A
    n = len(gram)

    def op_at_most(p: int, q: int) -> bool:
        """The top eigenvalue of Gram is <= p/q, i.e. p*I - q*Gram is PSD."""
        shifted = [
            [p * (1 if i == j else 0) - q * gram[i][j] for j in range(n)] for i in range(n)
        ]
        return _is_psd(shifted)

    # floor >= k iff the top eigenvalue is <= hs/k.  The top eigenvalue is at
    # least the largest diagonal entry, so the floor is at most hs // that;
    # binary-search the largest k that passes.
    k, top = 1, min(n, hs // max(gram[i][i] for i in range(n)))
    while k < top:
        mid = (k + top + 1) // 2
        if op_at_most(hs, mid):
            k = mid
        else:
            top = mid - 1
    if not op_at_most(hs, k):
        raise NonconvergenceError("stable rank floor could not be certified")

    # Certified bracket for the top eigenvalue: (hs/(k+1), hs/k].
    lo, hi = Fraction(hs, k + 1), Fraction(hs, k)
    for _ in range(80):
        if float(hi - lo) <= ENCLOSURE_REL_TOL * float(hi):
            break
        mid = (lo + hi) / 2
        if op_at_most(mid.numerator, mid.denominator):
            hi = mid
        else:
            lo = mid
    else:
        raise NonconvergenceError("operator norm enclosure did not tighten")
    if math.floor(hs / hi) != k or math.floor(Fraction(hs) / lo) < k:
        raise NonconvergenceError("enclosure endpoints disagree on the floor")

    op_float = float((lo + hi) / 2)
    return StableRankReport(Fraction(hs), op_float, lo, hi, k)


def halasz_sbp_bound(system: VectorSystem, params: BoundParams) -> float:
    """Small-ball bound from block Hilbert-Schmidt norms and stable ranks.

    2^d * prod over blocks of (C M / (sqrt(eps ell) ||A_i||_HS)) raised to
    ceil((1-eps) r_s(A_i)) / ell.  Requires an even number of blocks; this is
    `sbp_general_bound` at the constant tuple (ell, ..., ell) with lambda = 1
    and the 2^d prefactor.
    """
    ell = system.ell
    if ell % 2 != 0 or ell < 2:
        raise ValueError("number of blocks must be even and >= 2")
    return sbp_general_bound(
        system,
        replace(params, lam=1.0),
        divisor=2,
        tuples=[(ell,) * ell],
        include_2d_prefactor=True,
    )


@dataclass(frozen=True)
class ReciprocalTuple:
    """Nondecreasing positive integers, each divisible by `divisor`, with
    reciprocals summing to exactly 1."""

    values: tuple
    divisor: int

    def __post_init__(self):
        if self.divisor not in (2, 4):
            raise ValueError("divisor must be 2 or 4")
        if any(v % self.divisor != 0 or v <= 0 for v in self.values):
            raise ValueError(f"entries must be positive multiples of {self.divisor}")
        if list(self.values) != sorted(self.values):
            raise ValueError("entries must be nondecreasing")
        common = math.lcm(*self.values)
        if sum(common // v for v in self.values) != common:
            raise ValueError("reciprocals must sum to 1 exactly")


def enumerate_reciprocal_tuples(ell: int, divisor: int = 4, cap: int = 100000):
    """All nondecreasing tuples (b_1..b_ell) in (divisor*N)^ell with
    sum of reciprocals exactly 1, by branch and bound on remaining mass.

    Each candidate b satisfies b >= previous entry, 1/b <= remaining mass,
    and remaining_count/b >= remaining mass (else the tail cannot reach 1).
    """
    if divisor not in (2, 4):
        raise ValueError("divisor must be 2 or 4")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    results = []

    def walk(prefix, remaining_count, num, den):
        # The remaining mass num/den >= 0 is in lowest terms.
        if num == 0:
            if remaining_count == 0:
                results.append(ReciprocalTuple(tuple(prefix), divisor))
                if len(results) > cap:
                    raise BudgetExceededError(f"more than {cap} tuples")
            return
        # 1/b <= num/den  =>  b >= den/num
        lower = max(prefix[-1] if prefix else divisor, -(-den // num))
        lower = -(-lower // divisor) * divisor
        # remaining_count * (1/b) >= num/den  =>  b <= count*den/num (no b at count 0)
        upper = remaining_count * den // num
        for b in range(lower, upper + 1, divisor):
            rest, whole = num * b - den, den * b
            g = math.gcd(rest, whole)
            walk(prefix + [b], remaining_count - 1, rest // g, whole // g)

    walk([], ell, 1, 1)
    return results


def _distinct_permutations(values):
    """Each distinct ordering of a multiset once, in lexicographic order."""
    items = sorted(values)
    n = len(items)
    while True:
        yield tuple(items)
        i = n - 2
        while i >= 0 and items[i] >= items[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while items[j] <= items[i]:
            j -= 1
        items[i], items[j] = items[j], items[i]
        items[i + 1 :] = reversed(items[i + 1 :])


def _assignments(ranks, tup_values):
    """Distinct pairings of tuple entries to blocks, for small block counts."""
    if len(tup_values) <= 8:
        return set(_distinct_permutations(tup_values))
    # Greedy: largest rank gets the smallest entry (maximizes the exponent
    # weight on the most anti-concentrated block).
    order = sorted(range(len(ranks)), key=lambda i: -ranks[i])
    assigned = [0] * len(ranks)
    for pos, b in zip(order, sorted(tup_values)):
        assigned[pos] = b
    return {tuple(assigned)}


def atom_general_bound(
    system: VectorSystem,
    lam: float,
    C: float = 1.0,
    divisor: int = 4,
    use_tuple_denominator: bool = False,
) -> float:
    """Atom bound for independent (not necessarily Rademacher) coefficients.

    2^d * min over reciprocal tuples of (C/(ell*lam)) ** (sum r_i/(2 b_i)).
    `use_tuple_denominator` switches the base to C/(b_i*lam) per factor,
    the natural per-block variant of the same bound.
    """
    if not 0 < lam <= 1:
        raise ValueError("lambda must lie in (0, 1]")
    if C <= 0:
        raise ValueError("C must be positive")
    tuples = enumerate_reciprocal_tuples(system.ell, divisor=divisor)
    if not tuples:
        raise ValueError(f"no reciprocal tuples of length {system.ell} with divisor {divisor}")
    ranks = system.block_ranks()
    ell = system.ell
    best = math.inf
    for tup in tuples:
        for assigned in _assignments(ranks, tup.values):
            if use_tuple_denominator:
                value = 1.0
                for r, b in zip(ranks, assigned):
                    value *= (C / (b * lam)) ** (r / (2 * b))
            else:
                exponent = sum(r / (2 * b) for r, b in zip(ranks, assigned))
                value = (C / (ell * lam)) ** exponent
            best = min(best, value)
    return float(2**system.dimension) * best


def sbp_general_bound(
    system: VectorSystem,
    params: BoundParams,
    divisor: int = 4,
    include_2d_prefactor: bool = False,
    tuples=None,
) -> float:
    """Small-ball bound minimized over reciprocal tuples.

    min over tuples of prod over blocks of
        (C M / (sqrt(eps b_i lambda) ||A_i||_HS)) ** (ceil((1-eps) r_s)/b_i).
    The 2^d prefactor is off by default (matching the tuple-form statement)
    and can be switched on to match the fixed-tuple form; see README.
    """
    if tuples is None:
        tuples = enumerate_reciprocal_tuples(system.ell, divisor=divisor)
    else:
        tuples = [
            t if isinstance(t, ReciprocalTuple) else ReciprocalTuple(tuple(sorted(t)), divisor)
            for t in tuples
        ]
    if not tuples:
        raise ValueError(f"no reciprocal tuples of length {system.ell} with divisor {divisor}")
    reports = [stable_rank(system.block_matrix(i)) for i in range(system.ell)]
    hs_norms = [math.sqrt(float(r.hs_norm_sq)) for r in reports]
    exponents = [math.ceil((1 - params.eps) * r.stable_rank) for r in reports]
    best = math.inf
    for tup in tuples:
        for assigned in _assignments(exponents, tup.values):
            value = 1.0
            for hs, e, b in zip(hs_norms, exponents, assigned):
                base = params.C * params.M / (math.sqrt(params.eps * b * params.lam) * hs)
                value *= base ** (e / b)
            best = min(best, value)
    if include_2d_prefactor:
        best *= float(2**system.dimension)
    return best
