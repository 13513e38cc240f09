"""Census of orthogonal-row sign matrices and the rank-partition machinery.

Counts and the pipeline check come from a DP over column classes, the
pipeline checking one matrix per DP state; `iter_partial_hadamard` yields the
matrices themselves by a DFS over bit-packed rows, one xor + popcount per
orthogonality test.  Counting is exact; the optional first-row normalization
divides out the column-negation symmetry (count of labeled matrices = 2^n
times the normalized count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .bounds import atom_bound_dominates
from .exactmat import BudgetExceededError, ExactMatrix, _bareiss, rank
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
    nodes_visited: int  # (state, split) pairs the class DP examined

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "count": str(self.matrix_count),
            "normalized_count": str(self.normalized_count),
            "first_row_fixed": self.first_row_fixed,
            "nodes_visited": self.nodes_visited,
        }


def iter_partial_hadamard(k: int, n: int, budget: int = 10**8, fix_first_row: bool = False):
    """Yield every k x n orthogonal-row sign matrix as a tuple of row masks.

    Lexicographic DFS over bit-packed rows; each candidate row is tested for
    orthogonality against all chosen rows with one xor + popcount.  `budget`
    caps the number of candidate placements.  With `fix_first_row` only
    matrices whose first row is all ones are produced (one representative
    per column-negation orbit).
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    full = (1 << n) - 1
    placements = 0
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
        placements += 1
        if placements > budget:
            raise BudgetExceededError(f"DFS budget {budget} exceeded")
        if all(n - 2 * ((cand ^ prev).bit_count()) == 0 for prev in chosen):
            chosen.append(cand)
            if len(chosen) == k:
                yield tuple(chosen)
                chosen.pop()
            else:
                iters.append(iter(range(1 << n)))


def _census_states(k: int, n: int, budget: int, fix_first_row: bool):
    """Final states of the column-class DP and the (state, split) pairs examined.

    A state is the sorted tuple of (column history, class size) pairs, bit i
    of a history being the sign of row i; its weight counts the matrices with
    that column multiset up to negated rows.  A new row splits each class of
    size c as j/(c - j), in C(c, j) ways, and is orthogonal to row i iff n/2
    columns agree with row i.  Children equal up to negated rows merge.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    first = 1 if fix_first_row else 0
    states = {((first, n),): 1}
    splits = 0
    width = (2 * n).bit_length()
    for row in range(first, k):
        # Field i of a packed sum holds twice the agreements with row i.
        target = sum(n << (width * i) for i in range(row))
        children = {}
        for classes, weight in states.items():
            splits += math.prod(c + 1 for _, c in classes)
            if splits > budget:
                raise BudgetExceededError(f"census DP budget {budget} exceeded")
            agree = [[sum(2 * (j if h >> i & 1 else c - j) << (width * i) for i in range(row))
                      for j in range(c + 1)] for h, c in classes]
            for js in product(*(range(c + 1) for _, c in classes)):
                if sum(a[j] for a, j in zip(agree, js)) != target:
                    continue
                split = []
                for (h, c), j in zip(classes, js):
                    split += [(h | 1 << row, j)] * (j > 0) + [(h, c - j)] * (j < c)
                # Negating rows keeps every count: key a child by the least of
                # its forms with one class's history xored to 0.
                key = min(tuple(sorted((h ^ h0, c) for h, c in split)) for h0, _ in split)
                w = weight * math.prod(comb(c, j) for (_, c), j in zip(classes, js))
                children[key] = children.get(key, 0) + w
        states = children
    return states, splits


def enumerate_partial_hadamard(
    k: int, n: int, budget: int = 10**8, fix_first_row: bool = False, workers: int = 1
) -> CensusResult:
    """Exact count of k x n sign matrices with pairwise orthogonal rows.

    Sums the state weights of the column-class DP (`_census_states`).
    `budget` caps the (state, split) pairs examined, which `nodes_visited`
    reports.  `workers` is accepted and ignored; it stays because the
    benchmark's census workload passes it.
    """
    states, splits = _census_states(k, n, budget, fix_first_row)
    normalized = sum(states.values())
    total = normalized << n if fix_first_row else normalized
    return CensusResult(k, n, total, normalized, fix_first_row, splits)


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
    tested by fraction-free elimination).  On success every block is re-certified
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
    cols = [m.column(j) for j in range(m.cols)]
    for _ in range(ell):
        block = []
        for j in range(m.cols):
            if j in used:
                continue
            if _bareiss([cols[t] for t in block] + [cols[j]])[0] > len(block):
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


def deal_leftover_columns(blocks, n: int) -> list:
    """Blocks extended by every column in range(n) that none of them uses,
    dealt round-robin in index order.  Extra columns only raise block ranks,
    so every bound that consumes the partition stays valid."""
    blocks = [list(b) for b in blocks]
    used = {j for b in blocks for j in b}
    for idx, j in enumerate(j for j in range(n) if j not in used):
        blocks[idx % len(blocks)].append(j)
    return blocks


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
    """Tallies of `pipeline_bound_check`, one representative per DP state.

    `matrices_checked` and the violation counts are in matrices, a state
    counting once per matrix it stands for; `gram_violations` counts wrong
    row pairs.  `halasz_checks` and `partition_failures` count (state, pair)
    attempts.
    """

    k: int
    n: int
    matrices_checked: int = 0
    gram_violations: int = 0
    exact_gram_violations: int = 0
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
            and self.exact_gram_violations == 0
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
            "exact_gram_violations": self.exact_gram_violations,
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


def pipeline_bound_check(
    k: int,
    n: int,
    budget: int = 10**8,
    fix_first_row: bool = True,
    partition_sample: int = 1,
) -> PipelineReport:
    """Verify the counting pipeline over one census, once per class-DP state.

    Solution counts, Gram matrices and column ranks depend only on the
    columns up to order and negated rows, which a `_census_states` state
    fixes.  Each state's representative deals its classes' columns round
    robin in key order.  Its `ExactMatrix.gram` must be n*I, its count of
    sign solutions of H x = 0 at most 2^(n-k), and for each even-ell rank
    partition the greedy construction finds, the central-binomial atom bound
    must dominate that count (decided rationally); `PipelineReport` gives
    the units.  `budget` caps the DP's (state, split) pairs.
    `partition_sample` is accepted and ignored; it stays because the
    benchmark's census workload and its self-test pass it.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    report = PipelineReport(k=k, n=n, odlyzko_count=1 << (n - k))
    attempted = [(r, ell) for r in range(1, k + 1) for ell in (2, 4, 6) if r * ell <= n]
    report.attempted_pairs = tuple(attempted)
    report.feasible_pairs = tuple(p for p in attempted if feasibility_condition(k, n, *p))
    states, _ = _census_states(k, n, budget, fix_first_row)
    for classes, weight in states.items():
        columns = [tuple(1 if h >> i & 1 else -1 for i in range(k))
                   for t in range(max(c for _, c in classes)) for h, c in classes if t < c]
        matrix = ExactMatrix.from_rows(zip(*columns))
        report.matrices_checked += weight
        gram = matrix.gram().entries
        wrong = sum(gram[i][j] != (n if i == j else 0) for i in range(k) for j in range(i, k))
        report.gram_violations += wrong * weight
        report.exact_gram_violations += weight if wrong else 0
        sols = count_sign_solutions_columns(columns, (0,) * k)
        report.max_solutions = max(report.max_solutions, sols)
        if sols > report.odlyzko_count:
            report.odlyzko_violations += weight
        for r, ell in attempted:
            partition = greedy_rank_partition(matrix, r, ell)
            if partition is None:
                if (r, ell) in report.feasible_pairs:
                    report.partition_failures += 1
                continue
            # Cover the leftover columns so the partition bound applies
            # to the full system.
            blocks = deal_leftover_columns(partition.blocks, n)
            ranks = [rank(matrix.column_submatrix(b)) for b in blocks]
            report.halasz_checks += 1
            if not atom_bound_dominates(Fraction(sols, 1 << n), ranks, ell):
                report.halasz_violations += weight
            atom = float(Fraction(comb(ell, ell // 2), 1 << ell))
            bound_float = atom ** (sum(ranks) / ell) * (1 << n)
            if bound_float > 0:
                ratio = sols / bound_float
                report.min_halasz_ratio = min(report.min_halasz_ratio, ratio)
                report.max_halasz_ratio = max(report.max_halasz_ratio, ratio)
    if report.min_halasz_ratio is math.inf:
        report.min_halasz_ratio = 0.0
    return report
