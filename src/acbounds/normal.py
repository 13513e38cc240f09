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
homogeneous of degree two; each case is the least value over candidate points
that are real roots of explicit polynomials (see `solve_case_constants`)."""

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


def is_n_normal(m: ExactMatrix, n_target: ExactMatrix) -> bool:
    """Exact test of M M^T - M^T M = N, via the matrix identity and the
    entrywise row/column form; the two must agree (asserted)."""
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
        """The step-k restriction of a full matrix: an ExactMatrix or a
        sequence of rows."""
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


def step_vector(m: ExactMatrix, k: int) -> tuple:
    """The step-(k+1) unknowns read off a full matrix M: the new row of
    B_{k+1} followed by the negated new column of C_{k+1}."""
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


def _pointwise_restriction(g_val, s, t, eps):
    """The beta with min(g, f(beta - eps)) = -beta at a fixed point (s, t), t < 1.

    Both g + beta and f(beta - eps) + beta increase in beta, so the root of
    their minimum is the larger of their two roots: -g and the closed form
    of f(beta - eps) = -beta.
    """
    return max(-g_val, (s * s / 2 + 1 - s - (1 + eps) * t * t) / (1 - t * t))


# Lower end of the s range of the cases that reach towards s = 0.
GRID_STEP = 1e-4
# Low-rank threshold gamma (rank <= gamma * m) recorded with the solved constants.
GAMMA = 0.75


def _coefficients(p, degree=2) -> np.ndarray:
    """The coefficients, constant first, of a polynomial p(x) of degree 2 or 4,
    read off p at x = 0, +-1 and, for degree 4, +-2.  Where p returns the
    coefficients of a polynomial in t, the result is the array whose entry
    [i, j] multiplies x^i t^j."""
    c0, up, down = p(0.0), p(1.0), p(-1.0)
    even, odd = (up + down) / 2 - c0, (up - down) / 2
    if degree == 2:
        return np.array([c0, odd, even])
    up, down = p(2.0), p(-2.0)
    c3, c4 = ((up - down) / 2 - 2 * odd) / 6, ((up + down) / 2 - c0 - 4 * even) / 12
    return np.array([c0, odd - c3, even - c4, c3, c4])


def _product(a, b) -> np.ndarray:
    """The product of two polynomials in s and t given as coefficient arrays."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for (i, j), x in np.ndenumerate(a):
        out[i : i + b.shape[0], j : j + b.shape[1]] += x * b
    return out


def _resultant(a, k) -> np.ndarray:
    """The resultant in s of A = a0 + a1 s + a2 s^2 and K = k0 + k1 s + k2 s^2 + k3 s^3,
    whose coefficients are polynomials in t of one length: the Sylvester
    determinant, expanded.  a2 K reduced once by A is m2 s^2 + m1 s + a2 k0."""
    (a0, a1, a2), (k0, k1, k2, k3) = a, k
    c = np.convolve
    m1, m2, a2k0 = c(a2, k1) - c(k3, a0), c(a2, k2) - c(k3, a1), c(a2, k0)
    return (
        c(c(m1, m1), a0) - c(a2k0, c(m1, a1) + 2 * c(m2, a0)) + c(c(a2k0, a2k0), a2)
        + c(m2, c(k0, c(a1, a1)) - c(k1, c(a1, a0)) + c(k2, c(a0, a0)))
    )


def _quadratic_roots(c, b, a) -> list:
    """The real roots of a x^2 + b x + c by the cancellation-free formula; a may vanish."""
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2
    return ([c / q] if q else []) + ([q / a] if a else [])


def _real_roots(coeffs, lo, hi) -> list:
    """The real roots in [lo, hi] of sum_k coeffs[k] x^k: in closed form up to
    degree 2, else the eigenvalues of the companion matrix that are real to
    1e-7, each polished by two Newton steps."""
    c = coeffs.tolist()
    while c and c[-1] == 0:
        c.pop()
    if len(c) <= 3:
        return [x for x in _quadratic_roots(*c, *[0.0] * (3 - len(c))) if lo <= x <= hi]
    companion = np.eye(len(c) - 1, k=-1)
    companion[:, -1] = -np.array(c[:-1]) / c[-1]
    z = np.linalg.eigvals(companion)
    roots = []
    for x in z.real[abs(z.imag) <= 1e-7].tolist():
        for _ in range(2):
            value = slope = 0.0
            for a in reversed(c):
                value, slope = value * x + a, slope * x + value
            x -= value / slope if slope else 0.0
        roots += [x] if lo <= x <= hi else []
    return roots


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


def _boundary_case(case_id, g_fn, line, s_lo, s_hi, eps):
    """Least pointwise restriction on the line t = t0 + t1 s, s in [s_lo, s_hi].

    There it is max(u, N / D) with u = -g, N = s^2/2 + 1 - s - (1 + eps) t^2
    and D = 1 - t^2 > 0, all quadratics in s.  Its least value lies at an
    end, at a stationary point of u or of N / D, or where u = N / D: at the
    roots of u', N' D - N D' and u D - N.  Ties go to the smallest s.
    """
    t0, t1 = line
    u = _coefficients(lambda s: -g_fn(s, t0 + t1 * s))
    num = _coefficients(lambda s: s * s / 2 + 1 - s - (1 + eps) * (t0 + t1 * s) ** 2)
    den = np.array([1 - t0 * t0, -2 * t0 * t1, -t1 * t1])
    crossing = np.convolve(u, den)
    crossing[:3] -= num
    stationary = np.convolve(num[1:] * (1, 2), den) - np.convolve(num, den[1:] * (1, 2))
    candidates = [s_lo, s_hi]
    for c in (u[1:] * (1, 2), stationary, crossing):
        candidates += _real_roots(c, s_lo, s_hi)

    def value(s):
        t = t0 + t1 * s
        return _pointwise_restriction(g_fn(s, t), s, t, eps)

    beta, s = min((value(s), s) for s in candidates)
    return CaseRestriction(case_id, beta, s, t0 + t1 * s)


def _crossing_case(case_id, g_fn, s_lo, s_hi, eps, sharpen=0.0):
    """Least -h on the crossing {f(-h - eps) = h} inside P, h = g - sharpen.

    P is s_lo <= s <= s_hi, max(s, 1 - s) <= t <= 1 - s/2.  The least -h is
    the fixed point beta = min_s -h(s, t_{beta-eps}(s)), as beta + h(s,
    t_{beta-eps}(s)) increases in beta.  beta = -h turns the crossing into
    gap = (t^2 - 1) w + eps + s - s^2/2 = 0, w = h + 1 + eps: quadratic in s,
    increasing in t.  The least -h on it lies at an end s = s_lo or s_hi
    (bisection in t), on an edge t = s (s >= 1/2), t = 1 - s (s <= 1/2) or
    t = 1 - s/2 (gap is a quartic in s there), or where also h_s gap_t -
    h_t gap_s = 0, on gap = 0 the cubic K = 2t h_s w + (s - 1) h_t = 0: its t
    are roots of the resultant in s of gap and K, of degree 8 in t, and its s
    solve gap(., t) = 0.  Without a candidate in P the case is empty (inf).
    """

    def gap(s, t):
        return (t * t - 1) * (g_fn(s, t) - sharpen) + (1 + eps) * t * t - s * s / 2 + s - 1

    # Coefficient arrays of w, gap and K, [i, j] multiplying s^i t^j; h has
    # total degree 2, so h_s = w[1:, :2] * (1, 2)^T and h_t = w[:, 1:3] * (1, 2).
    w = np.zeros((3, 5))
    w[:, :3] = _coefficients(lambda s: _coefficients(lambda t: g_fn(s, t)))
    w[0, 0] += 1 + eps - sharpen
    gap_st = np.roll(w, 2, axis=1) - w
    gap_st[:, 0] += (eps, 1.0, -0.5)
    k = np.zeros((4, 5))
    k[:, 1:] = 2 * _product(w[1:, :2] * [[1.0], [2.0]], w[:, :3])
    k[1:, :2] += w[:, 1:3] * (1.0, 2.0)
    k[:3, :2] -= w[:, 1:3] * (1.0, 2.0)
    # The resultant's coefficients above t^8 cancel; in floats they are rounding residue.
    points = [(s, t) for t in _real_roots(_resultant(gap_st, k)[:9], 0.5, 1.0)
              for s in _quadratic_roots(*_coefficients(lambda s: gap(s, t)).tolist())]
    for t0, t1, lo, hi in ((0.0, 1.0, max(s_lo, 0.5), s_hi), (1.0, -1.0, s_lo, min(s_hi, 0.5)),
                           (1.0, -0.5, s_lo, s_hi)):
        if lo < hi:
            edge = _coefficients(lambda s: gap(s, t0 + t1 * s), 4)
            points += [(s, t0 + t1 * s) for s in _real_roots(edge, lo, hi)]
    for s in (s_lo, s_hi):
        lo, hi = max(s, 1 - s), 1 - s / 2
        if lo <= hi and gap(s, lo) <= 0 <= gap(s, hi):
            mid = (lo + hi) / 2
            while lo < mid < hi:
                lo, hi = (mid, hi) if gap(s, mid) <= 0 else (lo, mid)
                mid = (lo + hi) / 2
            points.append((s, lo))
    inside = [(sharpen - g_fn(s, t), s, t) for s, t in points
              if s_lo <= s <= s_hi and max(s, 1 - s) <= t <= 1 - s / 2]
    return CaseRestriction(case_id, *min(inside, default=(math.inf, math.nan, math.nan)))


def solve_case_constants(eps: float = 1e-6) -> CaseAnalysis:
    """Solve all six case restrictions on the normalized exponent system.

    Cases 1-4 lie on boundary lines of the feasible (s, t) region, where the
    pointwise restriction has a closed form (`_boundary_case`); cases 5 and 6
    are the least -g on the f = g2 / f = g1 crossings (`_crossing_case`).
    Each is the least value over candidate points that are real roots, in
    floats, of explicit polynomials of degree <= 8.  Needs 0 <= eps < 1.
    """
    if not 0 <= eps < 1:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    lo = GRID_STEP
    cases = (
        _boundary_case(1, _g1, (1.0, -1.0), lo, 0.5, eps),
        _boundary_case(2, _g1, (1.0, -0.5), lo, 0.5, eps),
        _boundary_case(3, _g2, (1.0, -0.5), 0.5, 2 / 3, eps),
        _boundary_case(4, _g2, (0.0, 1.0), 0.5, 2 / 3, eps),
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
