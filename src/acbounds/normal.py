"""Commutator-constrained sign matrices: step systems, rank profiles, censuses,
and the numeric optimization of the six case constants.

A target matrix N fixes the constraint M M^T - M^T M = N.  Building M row and
column at a time turns each step into a linear system T_k x_k = N'_k over the
undetermined sign entries; everything about those systems here is exact.  The
exhaustive census (n <= 5) builds M that way, one hook (row k and column k) at
a time, as a level-by-level tree of int8 numpy arrays pruned to the partials
that extend to a full solution; the step systems of a level are slices of its
array, checked against the children.  The case-constant solver works in
normalized coordinates (s, t scaled by n), where the exponent functions are
homogeneous of degree two, and scans every case along a closed-form curve, so
no case needs a fixed-point loop (see `solve_case_constants`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactmat import BudgetExceededError, ExactMatrix, rank
from .oracle import count_sign_solutions


# ---------------------------------------------------------------------------
# Commutator test


def commutator(m: ExactMatrix) -> ExactMatrix:
    """M M^T - M^T M, exactly."""
    if m.rows != m.cols:
        raise ValueError("commutator needs a square matrix")
    left = m.gram()
    right = m.transpose().gram()
    return ExactMatrix.from_rows(
        [
            [left.entries[i][j] - right.entries[i][j] for j in range(m.cols)]
            for i in range(m.rows)
        ]
    )


def is_n_normal(m, n_target: ExactMatrix) -> bool:
    """Exact test of M M^T - M^T M = N, via the matrix identity and the
    entrywise row/column form; the two must agree (asserted)."""
    if hasattr(m, "to_exact"):
        m = m.to_exact()
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    if n_target.rows != m.rows or n_target.cols != m.cols:
        raise ValueError("target dimension mismatch")
    matrix_form = commutator(m) == n_target
    n = m.rows
    entry_form = True
    for i in range(n):
        for j in range(n):
            row_dot = sum(m.entries[i][t] * m.entries[j][t] for t in range(n))
            col_dot = sum(m.entries[t][i] * m.entries[t][j] for t in range(n))
            if row_dot - col_dot != n_target.entries[i][j]:
                entry_form = False
                break
        if not entry_form:
            break
    if matrix_form != entry_form:
        raise AssertionError("matrix and entrywise normality tests disagree")
    return matrix_form


# ---------------------------------------------------------------------------
# Partial matrices and step systems


@dataclass(frozen=True)
class PartialMatrix:
    """State after step k: blocks A_k (k x k), B_k (k x (n-k)), C_k ((n-k) x k)
    and the diagonal d_{k+1}..d_n; the rest of the lower-right block is
    undetermined.  All determined entries are +-1."""

    n: int
    k: int
    a: tuple
    b: tuple
    c: tuple
    diag: tuple

    def __post_init__(self):
        n, k = self.n, self.k
        if not 1 <= k <= n - 1:
            raise ValueError("need 1 <= k <= n-1")
        if len(self.a) != k or any(len(r) != k for r in self.a):
            raise ValueError("A block shape mismatch")
        if len(self.b) != k or any(len(r) != n - k for r in self.b):
            raise ValueError("B block shape mismatch")
        if len(self.c) != n - k or any(len(r) != k for r in self.c):
            raise ValueError("C block shape mismatch")
        if len(self.diag) != n - k:
            raise ValueError("diagonal length mismatch")
        for group in (self.a, self.b, self.c, (self.diag,)):
            for row in group:
                for x in row:
                    if x not in (1, -1):
                        raise ValueError("determined entries must be +-1")

    @staticmethod
    def from_full(m, k: int) -> "PartialMatrix":
        """The step-k restriction of a full matrix: an ExactMatrix, a
        SignMatrix, or a sequence of rows."""
        if hasattr(m, "to_exact"):
            m = m.to_exact()
        rows = getattr(m, "entries", m)
        n = len(rows)
        a = tuple(tuple(rows[i][:k]) for i in range(k))
        b = tuple(tuple(rows[i][k:]) for i in range(k))
        c = tuple(tuple(rows[i][:k]) for i in range(k, n))
        diag = tuple(rows[i][i] for i in range(k, n))
        return PartialMatrix(n, k, a, b, c, diag)


def build_t_system(p: PartialMatrix, n_target: ExactMatrix):
    """Assemble the step system (T_k, N'_k) a step-(k+1) choice must solve.

    T_k = [U V] where U holds the first k rows of B_{k+1} and V^T the first
    k columns of C_{k+1}; the right side folds the already-determined
    A_{k+1} contribution into the target entries N_{k+1,i} for i in [k].
    """
    n, k = p.n, p.k
    if n_target.rows != n or n_target.cols != n:
        raise ValueError("target dimension mismatch")
    # A_{k+1}: A_k extended by the first column of B_k, the first row of C_k,
    # and the diagonal entry d_{k+1}.
    a_next = [list(p.a[i]) + [p.b[i][0]] for i in range(k)]
    a_next.append(list(p.c[0]) + [p.diag[0]])
    u = [p.b[i][1:] for i in range(k)]  # first k rows of B_{k+1}
    v = [tuple(p.c[j][i] for j in range(1, n - k)) for i in range(k)]  # (C_{k+1} cols)^T
    t_rows = [tuple(u[i]) + tuple(v[i]) for i in range(k)]
    t_k = ExactMatrix.from_rows(t_rows, cols=2 * (n - k - 1))
    nprime = tuple(
        n_target.entries[k][i]
        - sum(a_next[k][t] * a_next[i][t] for t in range(k + 1))
        + sum(a_next[t][k] * a_next[t][i] for t in range(k + 1))
        for i in range(k)
    )
    return t_k, nprime


def step_vector(m, k: int) -> tuple:
    """The step-(k+1) unknowns read off a full matrix M: the new row of
    B_{k+1} followed by the negated new column of C_{k+1}."""
    if hasattr(m, "to_exact"):
        m = m.to_exact()
    n = m.rows
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    row_part = tuple(m.entries[k][k + 1 :])
    col_part = tuple(-m.entries[i][k] for i in range(k + 1, n))
    return row_part + col_part


# ---------------------------------------------------------------------------
# Rank profiles


@dataclass(frozen=True)
class RankProfile:
    """The four-piece step-rank profile determined by breakpoints 1 <= s <= t <= n."""

    n: int
    s: int
    t: int

    def __post_init__(self):
        if not 1 <= self.s <= self.t <= self.n:
            raise ValueError("need 1 <= s <= t <= n")


def rank_profile_value(profile: RankProfile, i: int) -> int:
    n, s, t = profile.n, profile.s, profile.t
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    if i <= s:
        return i
    if i <= t:
        return s
    if i <= 2 * n - s - t:
        return s + t - i
    return 2 * n - 2 * i


# ---------------------------------------------------------------------------
# Random low-rank experiment


def random_rank_experiment(m: int, gamma: float, trials: int, seed: int):
    """Monte Carlo frequency of rank(M) <= gamma*m for uniform sign matrices,
    next to the uncalibrated reference 2^(-(1-gamma)^2 m^2) (the subexponential
    correction is set to zero, so this is a comparison, not an assertion)."""
    if m < 1 or m > 24:
        raise ValueError("need 1 <= m <= 24")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        rows = [[rng.choice((1, -1)) for _ in range(m)] for _ in range(m)]
        if rank(ExactMatrix.from_rows(rows)) <= gamma * m:
            hits += 1
    bound = 2.0 ** (-((1 - gamma) ** 2) * m * m)
    return hits / trials, bound


def exhaustive_low_rank_probability(m: int, gamma: float) -> Fraction:
    """Exact Pr[rank <= gamma*m] by enumerating all 2^(m^2) sign matrices (m <= 3)."""
    if m > 3:
        raise BudgetExceededError("exhaustive rank probability limited to m <= 3")
    total = 1 << (m * m)
    hits = 0
    for bits in range(total):
        rows = [
            [1 if (bits >> (i * m + j)) & 1 else -1 for j in range(m)] for i in range(m)
        ]
        if rank(ExactMatrix.from_rows(rows)) <= gamma * m:
            hits += 1
    return Fraction(hits, total)


# ---------------------------------------------------------------------------
# Case-constant optimization (normalized coordinates, n = 1)


def _f(alpha, s, t):
    return (1 - alpha) * t * t - s * s / 2 - 1 + s


def _g1(s, t):
    return t * t - 3 * s * s + 2 * s + s * t - 2 * t


def _g2(s, t):
    return 1 + s * s + t * t + s * t - 2 * s - 2 * t


def case_functions(s: float, t: float, alpha: float):
    """The three normalized exponent functions (f, g1, g2)."""
    return _f(alpha, s, t), _g1(s, t), _g2(s, t)


def h_case_function(s: float, t: float, beta_small: float) -> float:
    """g1 sharpened by the step-census improvement: g1 - beta_small^2 / 2."""
    return _g1(s, t) - beta_small * beta_small / 2


def _elementwise_max(a, b):
    """max(a, b) over arrays, with Python's tie and NaN rule: b only if b > a.

    (np.maximum returns its second operand on a -0.0 / 0.0 tie and NaN
    whenever either operand is NaN.)
    """
    return np.where(b > a, b, a)


def _pointwise_restriction(g_val, s, t, eps, maximum=max):
    """The beta with min(g, f(beta - eps)) = -beta at a fixed point (s, t), t < 1.

    Both g + beta and f(beta - eps) + beta increase in beta, so the root of
    their minimum is the larger of their two roots: -g and the closed form
    of f(beta - eps) = -beta.  With maximum=_elementwise_max, s, t and g_val
    may be arrays.
    """
    return maximum(-g_val, (s * s / 2 + 1 - s - (1 + eps) * t * t) / (1 - t * t))


# Grid spacing of the scans in s and t; it is also the lower end of the s range.
GRID_STEP = 1e-4
# Low-rank threshold gamma (rank <= gamma * m) recorded with the solved constants.
GAMMA = 0.75


def _scan_grid(lo, hi):
    """The scan points after lo: lo + i (hi - lo) / steps for i = 1..steps."""
    steps = max(1, int(round((hi - lo) / GRID_STEP)))
    return lo + np.arange(1, steps + 1) * (hi - lo) / steps


def _grid_pick(best_s, best_v, grid, values):
    """The point a scalar scan keeps: starting from (best_s, best_v), each
    grid value strictly below the best so far replaces it.  That is the first
    of the least values, if it is below best_v; NaN never replaces, and a NaN
    best_v is never replaced."""
    values = np.where(np.isnan(values), math.inf, values)
    i = int(np.argmin(values))
    if values[i] < best_v:
        return float(grid[i]), float(values[i])
    return best_s, best_v


def _minimize_scalar(fn, fn_array, lo, hi):
    """Grid scan at GRID_STEP then golden-section refinement to ~1e-13.

    The grid is evaluated in one numpy array pass, fn_array(grid), and the
    refinement calls fn on floats.  fn_array(grid) must equal
    [fn(x) for x in grid] bit for bit; then the result is bit-identical to a
    scalar scan's.
    """
    grid = _scan_grid(lo, hi)
    best_s, best_v = _grid_pick(lo, fn(lo), grid, fn_array(grid))
    a = max(lo, best_s - 2 * GRID_STEP)
    b = min(hi, best_s + 2 * GRID_STEP)
    inv_phi = (math.sqrt(5) - 1) / 2
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(200):
        if b - a < 1e-13:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fn(x2)
    mid = (a + b) / 2
    v_mid = fn(mid)
    if v_mid < best_v:
        return mid, v_mid
    return best_s, best_v


@dataclass(frozen=True)
class CaseRestriction:
    case_id: int
    beta: float  # math.inf when the case's constraint set is empty
    s: float
    t: float


@dataclass(frozen=True)
class CaseAnalysis:
    restrictions: tuple
    worst_beta: float
    c_dv: float
    eps: float


@dataclass(frozen=True)
class CaseConstants:
    """Solved constants record: alpha = beta - eps by construction."""

    alpha: float
    beta: float
    gamma: float
    beta_improve: float
    delta_improve: float


def _boundary_case(case_id, g_fn, t_of_s, s_lo, s_hi, eps):
    def value(s, maximum=max):
        t = t_of_s(s)
        return _pointwise_restriction(g_fn(s, t), s, t, eps, maximum)

    s_best, v_best = _minimize_scalar(
        value, lambda s: value(s, _elementwise_max), s_lo, s_hi
    )
    return CaseRestriction(case_id, v_best, s_best, t_of_s(s_best))


def _crossing_case(case_id, g_fn, s_lo, s_hi, eps, sharpen=0.0):
    """Least -h on the crossing {f(-h - eps) = h} over s in [s_lo, s_hi], h = g - sharpen.

    This is the fixed point beta = min_s -h(s, t_{beta-eps}(s)) of the
    f = h crossing, because beta + h(s, t_{beta-eps}(s)) increases in beta.
    Substituting beta = -h turns the crossing into gap(s, t) = 0, which is
    quadratic in s at fixed t and increasing in t at fixed s.  One scan over
    t in [1/2, 1] takes the least -h over the in-range roots s; the crossing's
    points at the two ends of the s range, found by bisection in t, are the
    other candidates, since a t-scan cannot stop exactly on them.
    """

    def h(s, t):
        return g_fn(s, t) - sharpen

    def gap(s, t):
        return (t * t - 1) * h(s, t) + (1 + eps) * t * t - s * s / 2 + s - 1

    def feasible(s, t):
        # s_lo <= s <= s_hi and max(s, 1 - s) <= t <= 1 - s / 2, for floats
        # and arrays alike
        return (s_lo <= s) & (s <= s_hi) & (s <= t) & (1 - s <= t) & (t <= 1 - s / 2)

    def best_at(t):
        # gap(., t) = a s^2 + b s + c, read off at s = 0 and s = +-1; the
        # roots come from the cancellation-free form, and a may vanish.
        c, up, down = gap(0.0, t), gap(1.0, t), gap(-1.0, t)
        a, b = (up + down) / 2 - c, (up - down) / 2
        disc = b * b - 4 * a * c
        if disc < 0:
            return math.inf, math.nan
        q = -(b + math.copysign(math.sqrt(disc), b)) / 2
        roots = ([c / q] if q else []) + ([q / a] if a else [])
        return min(((-h(s, t), s) for s in roots if feasible(s, t)), default=(math.inf, math.nan))

    def best_values(t):
        # best_at(t)[0] over an array of t.  A root that best_at leaves out
        # (disc < 0, q == 0 or a == 0) comes out NaN or infinite here and
        # fails `feasible`, so it stays at inf; the two roots are compared
        # as best_at's (-h, s) tuples are.
        c, up, down = gap(0.0, t), gap(1.0, t), gap(-1.0, t)
        a, b = (up + down) / 2 - c, (up - down) / 2
        disc = b * b - 4 * a * c
        best, best_s = np.full_like(t, math.inf), np.full_like(t, math.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -(b + np.copysign(np.sqrt(disc), b)) / 2
            for s in (c / q, q / a):
                v = -h(s, t)
                take = feasible(s, t) & ((v < best) | ((v == best) & (s < best_s)))
                best, best_s = np.where(take, v, best), np.where(take, s, best_s)
        return best

    t_scan, v_scan = _minimize_scalar(lambda t: best_at(t)[0], best_values, 0.5, 1.0)
    candidates = [(v_scan, best_at(t_scan)[1], t_scan)]
    for s in (s_lo, s_hi):
        lo, hi = max(s, 1 - s), 1 - s / 2
        if lo <= hi and gap(s, lo) <= 0 <= gap(s, hi):
            mid = (lo + hi) / 2
            while lo < mid < hi:
                lo, hi = (mid, hi) if gap(s, mid) <= 0 else (lo, mid)
                mid = (lo + hi) / 2
            candidates.append((-h(s, lo), s, lo))
    beta, s, t = min(candidates, key=lambda c: c[0])
    if beta == math.inf:
        return CaseRestriction(case_id, math.inf, math.nan, math.nan)
    return CaseRestriction(case_id, beta, s, t)


def solve_case_constants(eps: float = 1e-6) -> CaseAnalysis:
    """Solve all six case restrictions on the normalized exponent system.

    Cases 1-4 sit on boundary curves of the feasible (s, t) region, where the
    pointwise restriction has a closed form, and are scanned in s.  Cases 5
    and 6 live on the f = g2 / f = g1 crossing curves; each is the least -g
    on its crossing, written as gap(s, t) = 0 and scanned once in t (see
    `_crossing_case`).  Each scan evaluates its GRID_STEP grid in one numpy
    array pass, bit-identical to a scalar scan, and refines the best grid
    point by scalar golden-section search.  eps must satisfy 0 <= eps < 1.
    """
    if not 0 <= eps < 1:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    lo = GRID_STEP
    cases = (
        _boundary_case(1, _g1, lambda s: 1 - s, lo, 0.5, eps),
        _boundary_case(2, _g1, lambda s: 1 - s / 2, lo, 0.5, eps),
        _boundary_case(3, _g2, lambda s: 1 - s / 2, 0.5, 2 / 3, eps),
        _boundary_case(4, _g2, lambda s: s, 0.5, 2 / 3, eps),
        _crossing_case(5, _g2, 0.5, 2 / 3, eps),
        _crossing_case(6, _g1, lo, 0.5, eps),
    )
    worst = min(c.beta for c in cases)
    return CaseAnalysis(cases, worst, 1 - worst, eps)


@dataclass(frozen=True)
class ImprovedAnalysis:
    delta_improve: float
    new_worst_beta: float
    new_c_dv: float
    case_small_s: CaseRestriction
    case_sharpened: CaseRestriction
    baseline: CaseAnalysis
    constants: CaseConstants


def improved_case_constants(beta_small: float, eps: float = 1e-6) -> ImprovedAnalysis:
    """Re-solve the binding crossing case with the sharpened exponent.

    The crossing case is split at s = 1/10: below it the unsharpened curve
    applies (and restricts nothing at these scales), above it g1 is replaced
    by g1 - beta_small^2/2, which shifts the least -g on the crossing up by
    a positive margin.  Returns the margin, the new worst-case restriction,
    and the resulting counting exponent.
    """
    if not 0 <= beta_small <= 2**-10:
        raise ValueError("beta_small must lie in [0, 2^-10]")
    baseline = solve_case_constants(eps=eps)
    sharpen = beta_small * beta_small / 2
    case61 = _crossing_case(61, _g1, GRID_STEP, 0.1, eps)
    case62 = _crossing_case(62, _g1, 0.1, 0.5, eps, sharpen=sharpen)
    others = [c.beta for c in baseline.restrictions if c.case_id != 6]
    new_worst = min(others + [case61.beta, case62.beta])
    delta = new_worst - baseline.worst_beta
    constants = CaseConstants(
        alpha=new_worst - eps,
        beta=new_worst,
        gamma=GAMMA,
        beta_improve=beta_small,
        delta_improve=delta,
    )
    return ImprovedAnalysis(delta, new_worst, 1 - new_worst, case61, case62, baseline, constants)


# ---------------------------------------------------------------------------
# Exhaustive partial-matrix census


@dataclass(frozen=True)
class PartialCensus:
    n: int
    normal_count: int
    partial_counts: dict
    roundtrip_ok: bool
    extension_bound_ok: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "normal_count": self.normal_count,
            "partial_counts": {str(k): v for k, v in sorted(self.partial_counts.items())},
            "roundtrip_ok": self.roundtrip_ok,
            "extension_bound_ok": self.extension_bound_ok,
        }


def _target_is_plausible(entries, n) -> bool:
    # The commutator of any real matrix is symmetric with zero diagonal; over
    # sign matrices every entry is even and a difference of two dot products
    # of length n, so at most 2n in size.
    for i in range(n):
        if entries[i][i] != 0:
            return False
        for j in range(i + 1, n):
            if entries[i][j] != entries[j][i] or entries[i][j] % 2 != 0:
                return False
            if abs(entries[i][j]) > 2 * n:
                return False
    return True


def _sign_rows(m: int) -> np.ndarray:
    """All 2^m sign vectors of length m, as the rows of an int8 array."""
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    return (1 - 2 * bits).astype(np.int8)


# Children examined at once while the step tree grows; it bounds the size of
# the int8 temporaries (n = 5 has up to 2.2 million candidates at one level).
_TREE_CHUNK = 1 << 16


def _hook_dots(m: np.ndarray, k: int) -> np.ndarray:
    """row_k . row_i - col_k . col_i, i < k, for each matrix of the stack m."""
    row_dots = np.einsum("mt,mit->mi", m[:, k], m[:, :k])
    return row_dots - np.einsum("mt,mti->mi", m[:, :, k], m[:, :, :k])


def _children(nodes: np.ndarray, k: int, target: np.ndarray):
    """Every level-k node with every sign of its hook (row k right of the
    diagonal, column k below it), kept where the k equations
    row_k . row_i - col_k . col_i = N_ki, i < k, hold.  Returns the kept
    children and the index of each one's parent in `nodes`."""
    n, free = nodes.shape[1], nodes.shape[1] - k - 1
    hooks = _sign_rows(2 * free)
    per_chunk = max(1, _TREE_CHUNK // len(hooks))
    kept, parents = [nodes[:0]], [np.arange(0)]
    for lo in range(0, len(nodes), per_chunk):
        block = nodes[lo : lo + per_chunk]
        kids = np.repeat(block, len(hooks), axis=0)
        grid = kids.reshape(len(block), len(hooks), n, n)
        grid[:, :, k, k + 1 :] = hooks[:, :free]
        grid[:, :, k + 1 :, k] = hooks[:, free:]
        keep = np.flatnonzero(np.all(_hook_dots(kids, k) == target[k, :k], axis=1))
        kept.append(kids[keep])
        parents.append(lo + keep // len(hooks))
    return np.concatenate(kept), np.concatenate(parents)


def _step_tree(n: int, target_entries) -> list:
    """The hook-by-hook build of the N-normal sign matrices, pruned to live nodes.

    Level k holds the matrices with rows and columns 0..k-1 and the diagonal
    filled in (zeros elsewhere) whose equations (j, i), i < j < k, hold.
    Level 0 is the 2^n diagonals, level k+1 the `_children` of level k, and
    level n the N-normal matrices.  Then every node without a level-n
    descendant is dropped, so level k holds exactly the distinct k-partial
    restrictions of the N-normal matrices.  Returns [(nodes, parent)] for
    levels 0..n: nodes is an (L, n, n) int8 array and parent[j] the index
    of node j's parent in the level above (None at level 0).  Entries are
    +-1 and every dot product is at most n in size, so int8 is exact.
    """
    target = np.array(target_entries, dtype=np.int8)
    diagonals = np.zeros((1 << n, n, n), dtype=np.int8)
    diagonals[:, np.arange(n), np.arange(n)] = _sign_rows(n)
    levels = [(diagonals, None)]
    for k in range(n):
        levels.append(_children(levels[-1][0], k, target))
    # Prune backwards: a node lives if some node of the next level names it.
    for k in range(n - 1, -1, -1):
        nodes, parent = levels[k]
        live = np.zeros(len(nodes), dtype=bool)
        live[levels[k + 1][1]] = True
        levels[k] = (nodes[live], None if parent is None else parent[live])
        levels[k + 1] = (levels[k + 1][0], np.cumsum(live)[levels[k + 1][1]] - 1)
    return levels


def _step_systems(nodes: np.ndarray, k: int, target: np.ndarray):
    """The step systems (T_k, N'_k) of the level-k nodes, as int8 arrays of
    shape (L, k, free) and (L, k).  Row i of T_k is row i right of column k,
    then column i below row k; N'_k is target row k less the row-k dots of the
    (k+1) x (k+1) corner plus its column-k dots (hook k is still zero, so the
    full dots are the corner's).  |N'| <= 2n + 2(k + 1), so int8 is exact."""
    t_k = np.concatenate([nodes[:, :k, k + 1 :], nodes[:, k + 1 :, :k].transpose(0, 2, 1)], axis=2)
    return t_k, target[k, :k] - _hook_dots(nodes, k)


def partial_census(n: int, n_target: ExactMatrix) -> PartialCensus:
    """Exhaustive census of step-k restrictions of commutator-constrained matrices.

    Builds M hook by hook in the pruned step tree of `_step_tree`, whose
    level k holds the distinct k-partial restrictions of the matrices with
    M M^T - M^T M = N and whose level n holds those matrices; every leaf is
    rechecked against the commutator.  The step systems (T_k, N'_k) of each
    level come from `_step_systems`; it is verified, exactly, that every live
    child's step vector solves its parent's system, and, once per distinct
    system, that no partial with it has more children than its sign-solution
    count, nor that count exceeds 2^(free - rank T_k).  Implausible targets
    give an empty census without building the tree.
    """
    if n < 1 or n > 5:
        raise ValueError("census limited to n <= 5")
    if n_target.rows != n or n_target.cols != n:
        raise ValueError("target dimension mismatch")
    if not _target_is_plausible(n_target.entries, n):
        return PartialCensus(n, 0, {k: 0 for k in (n, *range(1, n))}, True, True)
    levels = _step_tree(n, n_target.entries)
    target = np.array(n_target.entries, dtype=np.int8)
    leaves = levels[n][0]
    flip = leaves.transpose(0, 2, 1)
    if not np.all(leaves @ flip - flip @ leaves == target):
        raise AssertionError("a step-tree leaf fails the commutator identity")
    partial_counts = {k: len(levels[k][0]) for k in (n, *range(1, n))}
    roundtrip_ok = extension_ok = True
    for k in range(1, n):
        free = 2 * (n - k - 1)
        nodes = levels[k][0]
        kids, parent = levels[k + 1]
        t_k, nprime = _step_systems(nodes, k, target)
        # The step vector of each child: its new row of B, then its negated new column of C.
        steps = np.concatenate([kids[:, k, k + 1 :], -kids[:, k + 1 :, k]], axis=1)
        roundtrip_ok &= np.array_equal(np.einsum("cif,cf->ci", t_k[parent], steps), nprime[parent])
        keys = np.concatenate([t_k.reshape(len(nodes), k * free), nprime], axis=1)
        _, first, which = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        most = np.zeros(len(first), dtype=np.int64)
        np.maximum.at(most, which, np.bincount(parent, minlength=len(nodes)))
        for j, extensions in zip(first.tolist(), most.tolist()):
            t_exact = ExactMatrix.from_rows(t_k[j].tolist(), cols=free)
            solutions = count_sign_solutions(t_exact, nprime[j].tolist())
            extension_ok &= extensions <= solutions <= 1 << (free - rank(t_exact))
    return PartialCensus(n, len(leaves), partial_counts, roundtrip_ok, extension_ok)
