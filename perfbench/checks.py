"""Checks of the program's outputs, made apart from the program.

Every check recomputes what it compares against in its own arithmetic
(plain enumeration, closed forms, direct products over supports, numpy
eigenvalues) or tests a property the method must have.  None of them reads
a stored copy of an earlier output.  A check raises `CheckError` on the
first fault it finds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from math import comb
from operator import neg

import numpy as np

PUBLISHED_BETAS = {2: 0.307, 3: 0.3125, 4: 0.323, 5: 0.307, 6: 0.302}
CASE1_PUBLISHED = 0.425
C_DV_LIMIT = 0.698
BLOCK = 4096  # sign vectors per numpy block in the enumerations below


class CheckError(AssertionError):
    """An output of the program failed a check."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Shared exact helpers


def exact_rank(rows) -> int:
    """Rank over the rationals by Gauss-Jordan elimination on Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def sign_blocks(width: int):
    """All 2^width sign vectors as rows of +-1, in blocks of at most BLOCK
    rows, so that the checks' memory stays below the program's."""
    cols = np.arange(width)
    for start in range(0, 1 << width, BLOCK):
        bits = np.arange(start, min(start + BLOCK, 1 << width), dtype=np.int64)[:, None] >> cols & 1
        yield 1 - 2 * bits


def sign_sum_counts(vectors, dimension) -> dict:
    """Plain 2^n enumeration: lattice point -> number of sign vectors."""
    counts = {}
    for signs in product((1, -1), repeat=len(vectors)):
        point = tuple(
            sum(s * v[c] for s, v in zip(signs, vectors)) for c in range(dimension)
        )
        counts[point] = counts.get(point, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# atoms


def halasz_dominates(max_count: int, n: int, ranks, ell: int) -> tuple:
    """(lhs, rhs) of max_count/2^n <= (C(ell, ell/2)/2^ell)^(sum ranks/ell),
    both sides raised to the ell-th power and cleared of denominators."""
    total = sum(ranks)
    return max_count**ell * 2 ** (ell * total), comb(ell, ell // 2) ** total * 2 ** (n * ell)


def block_ranks(system) -> list:
    d = system.dimension
    return [
        exact_rank([[system.vectors[j][r] for j in block] for r in range(d)])
        for block in system.partition
    ]


def check_atoms(system, own_ranks, output, tight: bool, plain_counts=None) -> None:
    """One atoms item: table, block ranks, bound value and bound decision.

    `own_ranks` are the block ranks from `block_ranks`; `plain_counts`, when
    given, is the table from `sign_sum_counts`."""
    table, ranks, bound, dominates = output
    n = len(system.vectors)
    full = 1 << n
    bad = next((p for p, q in table.probs.items() if q.numerator <= 0 or full % q.denominator), None)
    require(bad is None, f"atom {bad} has a mass that is not k/2^{n}")
    counts = {p: q.numerator * (full // q.denominator) for p, q in table.probs.items()}
    require(sum(counts.values()) == full, "atom masses do not sum to 1")
    bad = next((p for p, c in counts.items() if counts.get(tuple(map(neg, p))) != c), None)
    require(bad is None, f"count({bad}) != count(-{bad})")
    require(list(ranks) == own_ranks, f"block ranks {list(ranks)} != {own_ranks}")
    lhs, rhs = halasz_dominates(max(counts.values()), n, own_ranks, len(system.partition))
    require(lhs <= rhs, "largest atom exceeds the Halasz bound")
    require(dominates is True, "bound decision is not True")
    if tight:
        require(lhs == rhs, "tightness system does not attain the bound")
        require(table.max_atom() == bound, "tightness system: max atom != bound value")
    if plain_counts is not None:
        require(counts == plain_counts, "atom table differs from plain enumeration")


# ---------------------------------------------------------------------------
# replication


def _weights(dist) -> tuple:
    """Integer weights over a common denominator."""
    denom = 1
    for m in dist.values():
        denom = denom * m.denominator // math.gcd(denom, m.denominator)
    return {p: int(m * denom) for p, m in dist.items()}, denom


def _conv(a: dict, b: dict) -> dict:
    out = {}
    for p, x in a.items():
        for q, y in b.items():
            key = tuple(u + v for u, v in zip(p, q))
            out[key] = out.get(key, 0) + x * y
    return out


def replicated_factor(atoms: dict, a: int, symmetrized: bool) -> tuple:
    """(weights, denominator) of the a-fold (or a/2-fold symmetrized) power."""
    w, denom = _weights(atoms)
    if symmetrized:
        w = _conv(w, {tuple(-x for x in p): m for p, m in w.items()})
        denom *= denom
        a //= 2
    out, out_denom = w, denom
    for _ in range(a - 1):
        out = _conv(out, w)
        out_denom *= denom
    return out, out_denom


def best_ball_weight(weights: dict, radius_sq: Fraction) -> int:
    """Largest weight of a closed ball centred at an atom (numpy distances)."""
    points = list(weights)
    pts = np.array(points, dtype=np.int64)
    diff = pts[:, None, :] - pts[None, :, :]
    inside = (diff * diff).sum(axis=2) * radius_sq.denominator <= radius_sq.numerator
    w = np.array([weights[p] for p in points], dtype=object)
    return max(inside.astype(object) @ w)


def direct_lhs(dists, hit) -> Fraction:
    """Mass of the sum of independent draws where `hit(point)` holds, as a
    direct product over the supports."""
    supports = [list(p.items()) for p in dists]
    total = Fraction(0)
    for combo in product(*supports):
        if hit(tuple(map(sum, zip(*(pt for pt, _ in combo))))):
            prod = Fraction(1)
            for _, m in combo:
                prod *= m
            total += prod
    return total


def replication_reference(inst) -> tuple:
    """The instance recomputed apart from the program: (left side as a
    direct product over the supports, exact right side as numerator and
    denominator of its lcm-th power)."""
    d = len(next(iter(inst.atoms[0])))
    if inst.small_ball:
        radius_sq = inst.delta * inst.delta

        def hit(p):
            return sum((x - c) ** 2 for x, c in zip(p, inst.center)) <= radius_sq

    else:

        def hit(p):
            return p == inst.point

    lhs = direct_lhs(inst.atoms, hit)
    lcm = 1
    for a in inst.tup:
        lcm = lcm * a // math.gcd(lcm, a)
    right_num, right_den = 1, 1
    for atoms, a in zip(inst.atoms, inst.tup):
        weights, denom = replicated_factor(atoms, a, inst.variant == "symmetrized")
        require(sum(weights.values()) == denom, "a replicated factor does not have mass 1")
        if inst.small_ball:
            m = best_ball_weight(weights, (4 * inst.delta) ** 2)
        else:
            m = weights.get((0,) * d, 0)
        right_num *= m ** (lcm // a)
        right_den *= denom ** (lcm // a)
    return lhs, right_num, right_den


def check_replication(inst, output, reference=None) -> None:
    """One replication instance; `reference`, from `replication_reference`,
    is given for the subsample that is recomputed in full."""
    lhs, rhs, holds = output
    require(holds is True, "replication inequality reported as violated")
    require(0 <= lhs <= 1, f"left side {lhs} is not a probability")
    require(float(lhs) <= rhs, f"left side {lhs} above the rounded-up right side {rhs}")
    if reference is None:
        return
    own_lhs, right_num, right_den = reference
    require(own_lhs == lhs, "left side differs from the direct product")
    d = len(next(iter(inst.atoms[0])))
    lcm = 1
    for a in inst.tup:
        lcm = lcm * a // math.gcd(lcm, a)
    left = (lhs / (1 << d) if inst.small_ball else lhs) ** lcm
    require(left * right_den <= right_num, "own integer powering finds a violation")


def check_rademacher(output) -> None:
    lhs, rhs, holds = output
    require(holds is True and lhs == Fraction(1, 2), f"(2, 2) case: lhs {lhs}, not 1/2")
    require(rhs >= 0.5, f"(2, 2) case: rhs {rhs} below 1/2")


# ---------------------------------------------------------------------------
# census


def normalized_census(k: int, n: int) -> int:
    """Closed form for k x n orthogonal-row sign matrices with first row all ones."""
    if k == 1:
        return 1
    if n % 2:
        return 0
    count = comb(n, n // 2)
    if k == 2:
        return count
    if n % 4:
        return 0
    count *= comb(n // 2, n // 4) ** 2
    if k == 3:
        return count
    if k == 4:
        return count * sum(comb(n // 4, t) ** 4 for t in range(n // 4 + 1))
    raise ValueError("closed form known for k <= 4 only")


def check_count(k, n, fixed, result) -> None:
    normalized = normalized_census(k, n)
    require(result.matrix_count == normalized << n, f"H({k},{n}) count {result.matrix_count}")
    own = normalized if fixed else normalized << n
    require(result.normalized_count == own, f"H({k},{n}) enumerated {result.normalized_count}")


def plain_solution_count(rows) -> int:
    """|{x in {+-1}^n : H x = 0}| by enumerating all 2^n sign vectors."""
    n = len(rows[0])
    h = np.array(rows, dtype=np.int64).T
    return sum(int(np.all(signs @ h == 0, axis=1).sum()) for signs in sign_blocks(n))


def check_pipeline(k, n, fixed, sample_rows, report) -> None:
    normalized = normalized_census(k, n)
    own = normalized if fixed else normalized << n
    require(report.matrices_checked == own, f"pipeline checked {report.matrices_checked}")
    require(
        report.gram_violations == report.odlyzko_violations == report.halasz_violations == 0,
        "pipeline reports violations",
    )
    require(report.partition_failures == 0, "pipeline reports partition failures")
    require(report.max_solutions <= 1 << (n - k), "solution count above 2^(n-k)")
    sols = plain_solution_count(sample_rows)
    # For k <= 3 every census matrix has the same column multiset up to
    # column and row negation, so one plain count is the maximum.
    if k <= 3:
        require(report.max_solutions == sols, f"max_solutions {report.max_solutions} != {sols}")
    else:
        require(sols <= report.max_solutions, f"a matrix has {sols} > max_solutions")


def check_stable_rank(rows, report) -> None:
    k, n = len(rows), len(rows[0])
    require(report.stable_rank == k, f"stable rank {report.stable_rank} != {k}")
    require(report.hs_norm_sq == k * n, "Hilbert-Schmidt norm is not k*n")
    m = np.array(rows, dtype=np.float64)
    top = float(np.linalg.eigvalsh(m @ m.T)[-1])
    tol = 1e-9 * top
    require(
        report.op_norm_sq_lower <= top + tol and top - tol <= report.op_norm_sq_upper,
        f"enclosure [{float(report.op_norm_sq_lower)}, {float(report.op_norm_sq_upper)}] "
        f"misses the top eigenvalue {top}",
    )


# ---------------------------------------------------------------------------
# normal


def commutator_census(n: int, targets) -> list:
    """For each target N, the number of n x n sign matrices with M M^T - M^T M = N."""
    want = np.array(targets, dtype=np.int64)[None]
    counts = np.zeros(len(targets), dtype=np.int64)
    for block in sign_blocks(n * n):
        mats = block.reshape(-1, n, n)
        flip = mats.transpose(0, 2, 1)
        comm = mats @ flip - flip @ mats
        counts += np.all(comm[:, None] == want, axis=(2, 3)).sum(axis=0)
    return [int(c) for c in counts]


def check_partial_census(own_count: int, census) -> None:
    require(census.normal_count == own_count, f"normal_count {census.normal_count} != {own_count}")
    require(census.partial_counts.get(census.n) == own_count, "partial_counts[n] != normal_count")
    require(census.roundtrip_ok, "step systems fail the round trip")
    require(census.extension_bound_ok, "extension count above the subspace bound")


def _f(alpha, s, t):
    return (1 - alpha) * t * t - s * s / 2 - 1 + s


def _g1(s, t):
    return t * t - 3 * s * s + 2 * s + s * t - 2 * t


def _check_crossing(c, eps, sharpen) -> None:
    """At a crossing case's (s, t): f(beta - eps) = g1 - sharpen = -beta."""
    h = _g1(c.s, c.t) - sharpen
    require(
        abs(_f(c.beta - eps, c.s, c.t) - h) <= 1e-9 and abs(h + c.beta) <= 1e-9,
        f"case {c.case_id}: f, g and -beta disagree at (s, t) = ({c.s}, {c.t})",
    )


def check_case_constants(analysis, eps) -> None:
    betas = {c.case_id: c.beta for c in analysis.restrictions}
    require(
        0.5 - 2 * eps <= betas[1] <= 0.5 and betas[1] >= CASE1_PUBLISHED,
        f"case 1: {betas[1]} outside [1/2 - 2 eps, 1/2] or below 0.425",
    )
    for cid, published in PUBLISHED_BETAS.items():
        require(abs(betas[cid] - published) <= 1e-3, f"case {cid}: {betas[cid]} vs {published}")
    require(analysis.c_dv < C_DV_LIMIT, f"c_dv {analysis.c_dv} not below {C_DV_LIMIT}")
    require(analysis.worst_beta == min(betas.values()), "worst beta is not the minimum")
    _check_crossing(next(c for c in analysis.restrictions if c.case_id == 6), eps, 0.0)


def check_improved(improved, eps, beta_small) -> None:
    check_case_constants(improved.baseline, eps)
    require(improved.delta_improve > 0, f"delta_improve {improved.delta_improve} not positive")
    require(improved.new_c_dv < C_DV_LIMIT, f"improved c_dv {improved.new_c_dv}")
    _check_crossing(improved.case_sharpened, eps, beta_small * beta_small / 2)
