"""Census of orthogonal-row sign matrices and the rank-partition machinery.

Rows are bit-packed ints, so the pairwise-orthogonality test during the
depth-first search is a single xor + popcount.  Counting is exact; the
optional first-row normalization divides out the column-negation symmetry
(count of labeled matrices = 2^n times the normalized count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bounds import atom_bound_dominates
from .exactmat import BudgetExceededError, ExactMatrix, rank
from .oracle import count_sign_solutions_columns

# Rational upper enclosure of e^2, tight to 1e-7: keeps the strict
# feasibility inequality certified when it reports True.
E_SQUARED_UPPER = Fraction(73890561, 10**7)
E_FOURTH_UPPER = E_SQUARED_UPPER * E_SQUARED_UPPER


@dataclass(frozen=True)
class CensusResult:
    k: int
    n: int
    matrix_count: int
    normalized_count: int
    first_row_fixed: bool
    nodes_visited: int

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "count": str(self.matrix_count),
            "normalized_count": str(self.normalized_count),
            "first_row_fixed": self.first_row_fixed,
            "nodes_visited": self.nodes_visited,
        }


def _census_dfs(k: int, n: int, budget: int, fix_first_row: bool, counter):
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    full = (1 << n) - 1

    chosen = []
    # Iterative DFS with explicit candidate iterators per level.
    iters = [iter((full,)) if fix_first_row else iter(range(1 << n))]
    while iters:
        try:
            cand = next(iters[-1])
        except StopIteration:
            iters.pop()
            if chosen:
                chosen.pop()
            continue
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceededError(f"DFS budget {budget} exceeded")
        if all(n - 2 * ((cand ^ prev).bit_count()) == 0 for prev in chosen):
            chosen.append(cand)
            if len(chosen) == k:
                yield tuple(chosen)
                chosen.pop()
            else:
                iters.append(iter(range(1 << n)))


def iter_partial_hadamard(k: int, n: int, budget: int = 10**8, fix_first_row: bool = False):
    """Yield every k x n orthogonal-row sign matrix as a tuple of row masks.

    Lexicographic DFS over bit-packed rows; each candidate row is tested for
    orthogonality against all chosen rows with one xor + popcount.  `budget`
    caps the number of candidate placements.  With `fix_first_row` only
    matrices whose first row is all ones are produced (one representative
    per column-negation orbit).
    """
    return _census_dfs(k, n, budget, fix_first_row, [0])


def enumerate_partial_hadamard(
    k: int, n: int, budget: int = 10**8, fix_first_row: bool = False, workers: int = 1
) -> CensusResult:
    """Exact count of k x n sign matrices with pairwise orthogonal rows.

    `workers` is accepted for compatibility and ignored: the count is one
    serial DFS.
    """
    counter = [0]
    normalized = sum(1 for _ in _census_dfs(k, n, budget, fix_first_row, counter))
    total = normalized * (1 << n) if fix_first_row else normalized
    return CensusResult(k, n, total, normalized, fix_first_row, counter[0])


def masks_to_matrix(masks, n: int) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [[1 if (m >> j) & 1 else -1 for j in range(n)] for m in masks]
    )


@dataclass(frozen=True)
class RankPartition:
    r: int
    ell: int
    blocks: tuple  # disjoint tuples of column indices, each of rank >= r


def greedy_rank_partition(m: ExactMatrix, r: int, ell: int):
    """Build an (r, ell)-rank partition greedily, or return None.

    Runs ell rounds; each round scans the unused columns in order and keeps
    any column that enlarges the span of the current block (independence
    tested by exact elimination).  On success every block is re-certified
    with an exact rank computation.  Failure is an expected outcome for
    infeasible inputs, not an error.
    """
    if m.rows == 0:
        raise ValueError("empty matrix")
    if r < 1 or ell < 1:
        raise ValueError("need r >= 1 and ell >= 1")
    if r > m.rows:
        return None
    used = set()
    blocks = []
    cols = [tuple(Fraction(m.entries[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    for _ in range(ell):
        basis = []  # eliminated spanning rows with leading pivots
        block = []
        for j in range(m.cols):
            if j in used:
                continue
            vec = list(cols[j])
            for piv_idx, row in basis:
                f = vec[piv_idx]
                if f != 0:
                    for t in range(len(vec)):
                        vec[t] -= f * row[t]
            piv = next((t for t, x in enumerate(vec) if x != 0), None)
            if piv is None:
                continue
            inv = vec[piv]
            basis.append((piv, [x / inv for x in vec]))
            block.append(j)
            if len(block) == r:
                break
        if len(block) < r:
            return None
        used.update(block)
        blocks.append(tuple(block))
    partition = RankPartition(r, ell, tuple(blocks))
    certify_rank_partition(m, partition)
    return partition


def certify_rank_partition(m: ExactMatrix, partition: RankPartition) -> None:
    """Re-verify disjointness and the per-block rank certificate exactly."""
    seen = set()
    for block in partition.blocks:
        for j in block:
            if j in seen:
                raise AssertionError("rank partition blocks overlap")
            seen.add(j)
        if rank(m.column_submatrix(block)) < partition.r:
            raise AssertionError("rank partition block fails its rank certificate")


def feasibility_condition(k: int, n: int, r: int, ell: int) -> bool:
    """Certified evaluation of (e^2 ell)^k < (n/r)^(k-r) in exact rationals.

    e^2 is replaced by a rational upper enclosure, so True is certified;
    False may occasionally be conservative within the enclosure width.
    """
    if not (2 <= ell and 1 <= r <= k <= n):
        raise ValueError("need 2 <= ell and 1 <= r <= k <= n")
    lhs = (E_SQUARED_UPPER * ell) ** k
    rhs = Fraction(n, r) ** (k - r)
    return lhs < rhs


def hadamard_upper_bound_exponent(n: int, c1: float, c2: float, C: float) -> float:
    """Exponent binom(n+1, 2) - C (c2^2 - c1^2) n^2 / 2 of the assembled count bound."""
    if not 0 < c1 < c2 < 1:
        raise ValueError("need 0 < c1 < c2 < 1")
    if C < 0:
        raise ValueError("C must be >= 0")
    return comb(n + 1, 2) - C * (c2**2 - c1**2) * n**2 / 2


@dataclass
class PipelineReport:
    k: int
    n: int
    matrices_checked: int = 0
    gram_violations: int = 0
    odlyzko_violations: int = 0
    halasz_violations: int = 0
    halasz_checks: int = 0
    feasible_pairs: tuple = ()
    attempted_pairs: tuple = ()
    partition_failures: int = 0
    max_solutions: int = 0
    odlyzko_count: int = 0
    min_halasz_ratio: float = math.inf
    max_halasz_ratio: float = 0.0

    def ok(self) -> bool:
        return (
            self.gram_violations == 0
            and self.odlyzko_violations == 0
            and self.halasz_violations == 0
            and self.partition_failures == 0
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "matrices_checked": self.matrices_checked,
            "gram_violations": self.gram_violations,
            "odlyzko_violations": self.odlyzko_violations,
            "halasz_violations": self.halasz_violations,
            "halasz_checks": self.halasz_checks,
            "feasible_pairs": [list(p) for p in self.feasible_pairs],
            "attempted_pairs": [list(p) for p in self.attempted_pairs],
            "partition_failures": self.partition_failures,
            "max_solutions": self.max_solutions,
            "odlyzko_count": self.odlyzko_count,
            "min_halasz_ratio": self.min_halasz_ratio,
            "max_halasz_ratio": self.max_halasz_ratio,
        }


def _atom_bound_dominates(solutions: int, n: int, ranks, ell: int) -> bool:
    """Exactly decide solutions/2^n <= (2^-ell C(ell, ell/2))^(sum r/ell)."""
    return atom_bound_dominates(Fraction(solutions, 1 << n), ranks, ell)


def pipeline_bound_check(
    k: int,
    n: int,
    budget: int = 10**8,
    fix_first_row: bool = True,
    partition_sample: int = 1,
) -> PipelineReport:
    """Exhaustively verify the counting pipeline over one census.

    For every enumerated matrix: the Gram matrix must equal n*I (hence its
    determinant is n^k exactly), the number of sign solutions of H x = 0
    must not exceed the subspace count 2^(n-k), and for every even-ell
    rank partition the greedy construction finds, the central-binomial atom
    bound must dominate the exact solution count (decided rationally).
    Partition attempts run on every `partition_sample`-th matrix.
    """
    report = PipelineReport(k=k, n=n, odlyzko_count=1 << (n - k))
    feasible = [
        (r, ell)
        for r in range(1, k + 1)
        for ell in (2, 4, 6)
        if r * ell <= n and feasibility_condition(k, n, r, ell)
    ]
    attempted = [(r, ell) for r in range(1, k + 1) for ell in (2, 4, 6) if r * ell <= n]
    report.feasible_pairs = tuple(feasible)
    report.attempted_pairs = tuple(attempted)
    solution_memo = {}
    for masks in iter_partial_hadamard(k, n, budget=budget, fix_first_row=fix_first_row):
        report.matrices_checked += 1
        # Exact Gram via popcount dot products: must be n on the diagonal,
        # 0 off it, which pins gram_det to n^k.
        for i in range(k):
            for j in range(i, k):
                dot = n - 2 * ((masks[i] ^ masks[j]).bit_count())
                expected = n if i == j else 0
                if dot != expected:
                    report.gram_violations += 1
        columns = tuple(
            tuple(1 if (masks[i] >> j) & 1 else -1 for i in range(k)) for j in range(n)
        )
        memo_key = tuple(sorted(columns))
        sols = solution_memo.get(memo_key)
        if sols is None:
            sols = count_sign_solutions_columns(list(columns), (0,) * k)
            solution_memo[memo_key] = sols
        report.max_solutions = max(report.max_solutions, sols)
        if sols > report.odlyzko_count:
            report.odlyzko_violations += 1
        if (report.matrices_checked - 1) % partition_sample == 0 and attempted:
            matrix = masks_to_matrix(masks, n)
            for r, ell in attempted:
                partition = greedy_rank_partition(matrix, r, ell)
                if partition is None:
                    if (r, ell) in feasible:
                        report.partition_failures += 1
                    continue
                ranks = [rank(matrix.column_submatrix(b)) for b in partition.blocks]
                # Cover the leftover columns so the partition bound applies
                # to the full system: extras only increase block ranks.
                leftover = [j for j in range(n) if not any(j in b for b in partition.blocks)]
                if leftover:
                    blocks = [list(b) for b in partition.blocks]
                    for idx, j in enumerate(leftover):
                        blocks[idx % ell].append(j)
                    ranks = [rank(matrix.column_submatrix(b)) for b in blocks]
                report.halasz_checks += 1
                ratio_bound = _atom_bound_dominates(sols, n, ranks, ell)
                if not ratio_bound:
                    report.halasz_violations += 1
                bound_float = float(Fraction(comb(ell, ell // 2), 1 << ell)) ** (
                    sum(ranks) / ell
                ) * (1 << n)
                if bound_float > 0:
                    ratio = sols / bound_float
                    report.min_halasz_ratio = min(report.min_halasz_ratio, ratio)
                    report.max_halasz_ratio = max(report.max_halasz_ratio, ratio)
    if report.min_halasz_ratio is math.inf:
        report.min_halasz_ratio = 0.0
    return report
