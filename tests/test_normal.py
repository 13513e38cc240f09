"""Commutator machinery, step systems, rank profiles, case constants."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acbounds import normal
from acbounds.exactmat import ExactMatrix
from acbounds.exactmat import rank
from acbounds.normal import (
    PartialCensus,
    PartialMatrix,
    RankProfile,
    build_t_system,
    case_functions,
    commutator,
    exhaustive_low_rank_probability,
    h_case_function,
    improved_case_constants,
    is_n_normal,
    partial_census,
    random_rank_experiment,
    rank_profile_value,
    solve_case_constants,
    step_vector,
)
from acbounds.oracle import count_sign_solutions

ZERO2 = ExactMatrix.from_rows([[0, 0], [0, 0]])
ZERO3 = ExactMatrix.from_rows([[0] * 3 for _ in range(3)])
ZERO4 = ExactMatrix.from_rows([[0] * 4 for _ in range(4)])


def sign_matrices(n):
    for bits in range(1 << (n * n)):
        yield ExactMatrix.from_rows(
            [[1 if (bits >> (i * n + j)) & 1 else -1 for j in range(n)] for i in range(n)]
        )


def test_symmetric_matrices_are_normal():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 4)
        upper = [[rng.choice((1, -1)) for _ in range(n)] for _ in range(n)]
        sym = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        zero = ExactMatrix.from_rows([[0] * n for _ in range(n)])
        assert is_n_normal(ExactMatrix.from_rows(sym), zero)


def test_rotation_like_matrix_is_normal():
    assert is_n_normal(ExactMatrix.from_rows([[1, 1], [-1, 1]]), ZERO2)


def test_wrong_target_rejected():
    m = ExactMatrix.from_rows([[1, 1], [1, -1]])
    wrong = ExactMatrix.from_rows([[0, 2], [2, 0]])
    assert not is_n_normal(m, wrong)


def test_matrix_and_entrywise_forms_agree_on_random_pairs():
    rng = random.Random(17)
    for _ in range(10000):
        n = rng.randint(1, 3)
        m = ExactMatrix.from_rows(
            [[rng.choice((1, -1)) for _ in range(n)] for _ in range(n)]
        )
        target = commutator(m) if rng.random() < 0.5 else ExactMatrix.from_rows(
            [[2 * rng.randint(-2, 2) if i != j else 0 for j in range(n)] for i in range(n)]
        )
        # is_n_normal computes both forms and raises if they ever disagree
        is_n_normal(m, target)


def test_build_t_system_hand_example():
    p = PartialMatrix(3, 1, ((1,),), ((1, 1),), ((1,), (1,)), (1, 1))
    t, nprime = build_t_system(p, ZERO3)
    assert t.entries == ((1, 1),)
    assert t.rows == 1 and t.cols == 2
    assert nprime == (0,)


def test_step_system_roundtrip_on_enumerated_normals():
    for n, zero in ((2, ZERO2), (3, ZERO3)):
        for m in sign_matrices(n):
            if commutator(m) != zero:
                continue
            for k in range(1, n):
                p = PartialMatrix.from_full(m, k)
                t, nprime = build_t_system(p, zero)
                x = step_vector(m, k)
                cols = 2 * (n - k - 1)
                assert len(x) == cols
                lhs = tuple(
                    sum(t.entries[i][j] * x[j] for j in range(cols)) for i in range(k)
                )
                assert lhs == nprime


def test_step_system_boundary_has_zero_columns():
    m = ExactMatrix.from_rows([[1, 1], [-1, 1]])
    p = PartialMatrix.from_full(m, 1)
    t, nprime = build_t_system(p, ZERO2)
    assert t.cols == 0
    assert nprime == (0,)


def test_rank_profile_boundary_values():
    prof = RankProfile(10, 4, 7)  # feasible: s/2 < n - t < s
    assert rank_profile_value(prof, 4) == 4  # i = s
    assert rank_profile_value(prof, 7) == 4  # i = t
    assert rank_profile_value(prof, 10) == 0  # i = n lands on 2n - 2i


def test_rank_profile_continuity_across_pieces():
    for n, s, t in ((10, 4, 7), (12, 5, 8), (9, 3, 7)):
        prof = RankProfile(n, s, t)
        assert rank_profile_value(prof, s) == s
        assert rank_profile_value(prof, s + 1) == s or s + 1 > t
        # piece 2 -> 3 boundary: s + t - t = s
        assert rank_profile_value(prof, t) == s
        # piece 3 -> 4 boundary: s + t - (2n - s - t) == 2n - 2(2n - s - t)
        b = 2 * n - s - t
        if t < b <= n:
            assert rank_profile_value(prof, b) == s + t - b


def test_rank_profile_nonnegative_on_feasible_range():
    # feasible breakpoints satisfy s/2 < n - t < s, hence s + t > n
    n = 20
    for s in range(1, 2 * n // 3 + 1):
        for t in range(s, n + 1):
            if not (s / 2 < n - t < s):
                continue
            prof = RankProfile(n, s, t)
            for i in range(1, n + 1):
                assert rank_profile_value(prof, i) >= 0


def test_rank_profile_validation():
    with pytest.raises(ValueError):
        RankProfile(5, 3, 2)
    with pytest.raises(ValueError):
        rank_profile_value(RankProfile(5, 2, 3), 6)


def test_random_rank_experiment_matches_exhaustive_small_case():
    assert exhaustive_low_rank_probability(2, 0.5) == Fraction(1, 2)
    empirical, bound = random_rank_experiment(2, 0.5, trials=4000, seed=97)
    assert abs(empirical - 0.5) < 0.05
    assert bound == 0.5


def test_random_rank_experiment_gamma_zero():
    empirical, _ = random_rank_experiment(3, 0.0, trials=200, seed=1)
    assert empirical == 0.0


def test_random_rank_experiment_deterministic():
    a = random_rank_experiment(4, 0.75, trials=300, seed=5)
    b = random_rank_experiment(4, 0.75, trials=300, seed=5)
    assert a == b


def test_case_functions_at_origin():
    f, g1, g2 = case_functions(0.0, 0.0, 0.0)
    assert (f, g1, g2) == (-1.0, 0.0, 1.0)


def test_case_function_monotonicity_in_t():
    # f increases with t; g1 and g2 decrease (finite differences on samples)
    step = 1e-6
    rng = random.Random(23)
    for _ in range(200):
        s = rng.uniform(0.05, 0.65)
        t = rng.uniform(max(s, 1 - s) + 0.01, 1 - s / 2 - 0.01)
        alpha = rng.uniform(0.0, 0.9)
        f0, g10, g20 = case_functions(s, t, alpha)
        f1, g11, g21 = case_functions(s, t + step, alpha)
        assert f1 > f0
        assert g11 < g10
        assert g21 < g20


def test_h_case_function_shift():
    beta = 2**-10
    _, g1, _ = case_functions(0.3, 0.7, 0.0)
    assert h_case_function(0.3, 0.7, beta) == g1 - beta * beta / 2


def test_case_constants_reproduce_known_fixed_points():
    analysis = solve_case_constants()
    betas = {c.case_id: c.beta for c in analysis.restrictions}
    # cases 2..6 match the published case values within the stated tolerance
    assert abs(betas[2] - 0.307) < 1e-3
    assert abs(betas[3] - 0.3125) < 1e-3
    assert abs(betas[4] - 0.323) < 1e-3
    assert abs(betas[5] - 0.307) < 1e-3
    assert abs(betas[6] - 0.302) < 1e-3
    # exact closed forms for the two boundary cases that admit them:
    # case 2 minimizes 1 - 3s + 3.25 s^2 (min 4/13); case 3 minimizes
    # s - 0.75 s^2 on [1/2, 2/3] (value 5/16 at s = 1/2)
    assert abs(betas[2] - 4 / 13) < 1e-9
    assert abs(betas[3] - 5 / 16) < 1e-9
    # on the curve t = 1 - s the extension-count branch solves
    # beta (2s - s^2) = s - s^2/2 identically in s, i.e. beta = 1/2 exactly
    # (that curve contains the symmetric point (1/2, 1/2), where 1/2 is tight)
    assert abs(betas[1] - 0.5) < 1e-4
    assert analysis.worst_beta == betas[6]
    assert analysis.c_dv < 0.698


def test_case_constants_runtime_budget():
    import time

    start = time.monotonic()
    solve_case_constants()
    assert time.monotonic() - start < 10


# Case betas the solver must reproduce within 1e-12; the crossing cases come
# from the fixed-point iteration that the closed-form crossing scan replaced.
PINNED_BETAS = {
    1e-6: {1: 0.4999983544485777, 4: 0.32386562124293267, 5: 0.307211817804929,
           6: 0.30296063189773204},
    # case 5's minimum sits at the end s = 1/2 of its s range
    1e-4: {5: 0.30720532331282047},
}
# (case, g index in case_functions, s range, sharpen) of the crossing cases
# checked at beta_small = 2^-10.
CROSSINGS = ((5, 2, (0.5, 2 / 3), 0.0), (6, 1, (1e-4, 0.5), 0.0),
             (62, 1, (0.1, 0.5), 2.0**-21))


def _crossing_restrictions(eps=1e-6):
    improved = improved_case_constants(2**-10, eps=eps)
    found = {c.case_id: c for c in improved.baseline.restrictions}
    found[61], found[62] = improved.case_small_s, improved.case_sharpened
    return found


def _crossing_gap(s, t, eps, which, sharpen):
    """f(-h - eps) - h at (s, t), h = g - sharpen, from case_functions alone."""
    h = case_functions(s, t, 0.0)[which] - sharpen
    return case_functions(s, t, -h - eps)[0] - h, h


def test_case_constants_match_pinned_values():
    for eps, pins in PINNED_BETAS.items():
        betas = {c.case_id: c.beta for c in solve_case_constants(eps).restrictions}
        for case_id, beta in pins.items():
            assert abs(betas[case_id] - beta) <= 1e-12, (eps, case_id)
    found = _crossing_restrictions()
    assert abs(found[62].beta - 0.30296107672347694) <= 1e-12
    # below s = 1/10 the crossing leaves the feasible t range everywhere
    assert found[61].beta == math.inf


@pytest.mark.parametrize("eps", sorted(PINNED_BETAS))
def test_crossing_restrictions_lie_on_their_crossing(eps):
    found = _crossing_restrictions(eps)
    for case_id, which, (s_lo, s_hi), sharpen in CROSSINGS:
        c = found[case_id]
        assert s_lo <= c.s <= s_hi
        assert max(c.s, 1 - c.s) <= c.t <= 1 - c.s / 2
        h = case_functions(c.s, c.t, 0.0)[which] - sharpen
        assert abs(case_functions(c.s, c.t, c.beta - eps)[0] - h) <= 1e-12
        assert abs(h + c.beta) <= 1e-12


@pytest.mark.parametrize("eps", sorted(PINNED_BETAS))
def test_crossing_restrictions_are_least_on_sampled_crossings(eps):
    # Sample s over each range, bracket the crossing in t by sign changes of
    # f(-h - eps) - h on a t grid, bisect, and compare -h with beta.
    found = _crossing_restrictions(eps)
    for case_id, which, (s_lo, s_hi), sharpen in CROSSINGS:
        beta = found[case_id].beta
        sampled = []
        for i in range(201):
            s = s_lo + (s_hi - s_lo) * i / 200
            t_lo, t_hi = max(s, 1 - s), 1 - s / 2
            grid = [t_lo + (t_hi - t_lo) * j / 40 for j in range(41)]
            for lo, hi in zip(grid, grid[1:]):
                hi_positive = _crossing_gap(s, hi, eps, which, sharpen)[0] > 0
                if (_crossing_gap(s, lo, eps, which, sharpen)[0] > 0) == hi_positive:
                    continue
                for _ in range(60):
                    mid = (lo + hi) / 2
                    if (_crossing_gap(s, mid, eps, which, sharpen)[0] > 0) == hi_positive:
                        hi = mid
                    else:
                        lo = mid
                sampled.append(-_crossing_gap(s, lo, eps, which, sharpen)[1])
        assert sampled, case_id
        assert beta <= min(sampled) + 1e-12, case_id
        assert min(sampled) - beta < 1e-4, case_id


# ---------------------------------------------------------------------------
# The grid scan that the candidate-point solver replaced, kept as its oracle.
# Each case is scanned at GRID_STEP in one numpy array pass, bit-identical to
# a scalar loop, and the best grid point is refined by golden-section search.


def _scan_grid(lo, hi):
    """The scan points after lo: lo + i (hi - lo) / steps for i = 1..steps."""
    steps = max(1, int(round((hi - lo) / normal.GRID_STEP)))
    return lo + np.arange(1, steps + 1) * (hi - lo) / steps


def _grid_pick(best_s, best_v, grid, values):
    """The point a scalar scan keeps: starting from (best_s, best_v), each
    grid value strictly below the best so far replaces it.  NaN never
    replaces, and a NaN best_v is never replaced."""
    values = np.where(np.isnan(values), math.inf, values)
    i = int(np.argmin(values))
    if values[i] < best_v:
        return float(grid[i]), float(values[i])
    return best_s, best_v


def _elementwise_max(a, b):
    """max(a, b) over arrays, with Python's tie and NaN rule: b only if b > a."""
    return np.where(b > a, b, a)


def _minimize_scalar(fn, fn_array, lo, hi):
    """Grid scan at GRID_STEP, fn_array(grid) == [fn(x) for x in grid], then
    golden-section refinement to ~1e-13 around the best grid point."""
    grid = _scan_grid(lo, hi)
    best_s, best_v = _grid_pick(lo, fn(lo), grid, fn_array(grid))
    a = max(lo, best_s - 2 * normal.GRID_STEP)
    b = min(hi, best_s + 2 * normal.GRID_STEP)
    inv_phi = (math.sqrt(5) - 1) / 2
    x1, x2 = b - inv_phi * (b - a), a + inv_phi * (b - a)
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
    return (mid, v_mid) if v_mid < best_v else (best_s, best_v)


def _scan_boundary(g_fn, t_of_s, s_lo, s_hi, eps):
    def value(s, maximum=max):
        t = t_of_s(s)
        return maximum(-g_fn(s, t), (s * s / 2 + 1 - s - (1 + eps) * t * t) / (1 - t * t))

    s, v = _minimize_scalar(value, lambda s: value(s, _elementwise_max), s_lo, s_hi)
    return v, s, t_of_s(s)


def _scan_crossing(g_fn, s_lo, s_hi, eps, sharpen=0.0):
    """One scan over t in [1/2, 1] of the least -h over the in-range roots s
    of gap(., t) = 0, plus the crossing's points at the two ends of the s
    range, found by bisection in t."""

    def h(s, t):
        return g_fn(s, t) - sharpen

    def gap(s, t):
        return (t * t - 1) * h(s, t) + (1 + eps) * t * t - s * s / 2 + s - 1

    def feasible(s, t):
        return (s_lo <= s) & (s <= s_hi) & (s <= t) & (1 - s <= t) & (t <= 1 - s / 2)

    def best_at(t):
        c, up, down = gap(0.0, t), gap(1.0, t), gap(-1.0, t)
        a, b = (up + down) / 2 - c, (up - down) / 2
        disc = b * b - 4 * a * c
        if disc < 0:
            return math.inf, math.nan
        q = -(b + math.copysign(math.sqrt(disc), b)) / 2
        roots = ([c / q] if q else []) + ([q / a] if a else [])
        return min(((-h(s, t), s) for s in roots if feasible(s, t)), default=(math.inf, math.nan))

    def best_values(t):
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
    return (beta, s, t) if beta < math.inf else (math.inf, math.nan, math.nan)


def scan_restrictions(eps, beta_small=None):
    """{case id: (beta, s, t)} from the scans: cases 1-6 and, with
    beta_small, 61 and 62."""
    g1, g2, lo = normal._g1, normal._g2, normal.GRID_STEP
    found = {
        1: _scan_boundary(g1, lambda s: 1 - s, lo, 0.5, eps),
        2: _scan_boundary(g1, lambda s: 1 - s / 2, lo, 0.5, eps),
        3: _scan_boundary(g2, lambda s: 1 - s / 2, 0.5, 2 / 3, eps),
        4: _scan_boundary(g2, lambda s: s, 0.5, 2 / 3, eps),
        5: _scan_crossing(g2, 0.5, 2 / 3, eps),
        6: _scan_crossing(g1, lo, 0.5, eps),
    }
    if beta_small is not None:
        found[61] = _scan_crossing(g1, lo, 0.1, eps)
        found[62] = _scan_crossing(g1, 0.1, 0.5, eps, sharpen=beta_small * beta_small / 2)
    return found


def _scalar_scan(lo, hi, fn):
    """The grid points and the point kept by the scalar loop the array pass
    replaced: (grid, values, (best_s, best_v))."""
    steps = max(1, int(round((hi - lo) / normal.GRID_STEP)))
    grid = [lo + i * (hi - lo) / steps for i in range(1, steps + 1)]
    values = [fn(s) for s in grid]
    return grid, values, _scalar_pick(lo, fn(lo), grid, values)


def _scalar_pick(best_s, best_v, grid, values):
    for s, v in zip(grid, values):
        if v < best_v:
            best_s, best_v = s, v
    return best_s, best_v


@pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-4, 5e-4])
def test_array_grid_matches_scalar_grid(monkeypatch, eps):
    # The oracle at beta_small = 2^-10 runs all eight scans: cases 1-6, 61,
    # and 62 sharpened by 2^-21.
    scans = []
    minimize = _minimize_scalar

    def record(fn, fn_array, lo, hi):
        scans.append((fn, fn_array, lo, hi))
        return minimize(fn, fn_array, lo, hi)

    monkeypatch.setitem(globals(), "_minimize_scalar", record)
    scan_restrictions(eps, 2**-10)
    assert len(scans) == 8
    for fn, fn_array, lo, hi in scans:
        grid, values, pick = _scalar_scan(lo, hi, fn)
        array_grid = _scan_grid(lo, hi)
        array_values = fn_array(array_grid)
        assert [x.hex() for x in array_grid.tolist()] == [x.hex() for x in grid]
        assert [v.hex() for v in array_values.tolist()] == [v.hex() for v in values]
        picked = _grid_pick(lo, fn(lo), array_grid, array_values)
        assert [x.hex() for x in picked] == [x.hex() for x in pick]


def test_grid_pick_keeps_the_first_least_value():
    grid = np.array([1.0, 2.0, 3.0, 4.0])
    pick = _grid_pick
    # the first of tied minima
    assert pick(0.0, 5.0, grid, np.array([3.0, 1.0, 2.0, 1.0])) == (2.0, 1.0)
    # NaN never wins, and an all-NaN grid keeps lo
    assert pick(0.0, 5.0, grid, np.array([math.nan, 2.0, math.nan, math.nan])) == (2.0, 2.0)
    assert pick(0.0, 5.0, grid, np.full(4, math.nan)) == (0.0, 5.0)
    # lo stays when nothing is strictly smaller than its value
    assert pick(0.0, 1.0, grid, np.array([1.0, 2.0, 1.0, math.inf])) == (0.0, 1.0)
    # -0.0 and 0.0 tie, so the first of them is kept with its sign
    s, v = pick(0.0, 1.0, grid, np.array([2.0, 0.0, -0.0, 0.5]))
    assert (s, v.hex()) == (2.0, (0.0).hex())


SPECIAL = [-1.0, -0.0, 0.0, 0.5, 1.0, math.inf, -math.inf, math.nan]
VALUES = st.sampled_from(SPECIAL)


def test_elementwise_max_is_pythons_max():
    pairs = [(a, b) for a in SPECIAL for b in SPECIAL]
    got = _elementwise_max(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]))
    assert [v.hex() for v in got.tolist()] == [max(a, b).hex() for a, b in pairs]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(VALUES, st.lists(VALUES, min_size=1, max_size=12))
def test_grid_pick_matches_the_scalar_loop(v_lo, values):
    grid = [float(i) for i in range(1, len(values) + 1)]
    expected = _scalar_pick(0.0, v_lo, grid, values)
    picked = _grid_pick(0.0, v_lo, np.array(grid), np.array(values))
    assert [x.hex() for x in picked] == [x.hex() for x in expected]


# (g index in case_functions, s range, t on a boundary line or None on a crossing)
CASE_SHAPES = {
    1: (1, (1e-4, 0.5), lambda s: 1 - s),
    2: (1, (1e-4, 0.5), lambda s: 1 - s / 2),
    3: (2, (0.5, 2 / 3), lambda s: 1 - s / 2),
    4: (2, (0.5, 2 / 3), lambda s: s),
    5: (2, (0.5, 2 / 3), None),
    6: (1, (1e-4, 0.5), None),
    61: (1, (1e-4, 0.1), None),
    62: (1, (0.1, 0.5), None),
}


def _assert_is_a_witness(case_id, c, eps, sharpen=0.0):
    """(s, t) lies where the case lives, and beta is the case's value there:
    the pointwise restriction on a boundary line; -h on gap = 0, in P, on a
    crossing."""
    which, (s_lo, s_hi), line = CASE_SHAPES[case_id]
    s, t = c.s, c.t
    assert s_lo <= s <= s_hi, case_id
    g = case_functions(s, t, 0.0)[which]
    if line is not None:
        assert t == line(s), case_id
        assert c.beta == max(-g, (s * s / 2 + 1 - s - (1 + eps) * t * t) / (1 - t * t)), case_id
    else:
        assert max(s, 1 - s) <= t <= 1 - s / 2, case_id
        gap, h = _crossing_gap(s, t, eps, which, sharpen)
        assert abs(gap) <= 1e-12 and c.beta == -h, case_id


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, 0.999, exclude_max=True), st.floats(0.0, 2.0**-10))
def test_candidate_points_are_never_above_the_scan(eps, beta_small):
    improved = improved_case_constants(beta_small, eps=eps)
    found = {c.case_id: c for c in improved.baseline.restrictions}
    found[61], found[62] = improved.case_small_s, improved.case_sharpened
    for case_id, (beta, _, _) in scan_restrictions(eps, beta_small).items():
        c = found[case_id]
        assert c.beta <= beta + 1e-12, (case_id, c.beta, beta)
        if c.beta < math.inf:
            _assert_is_a_witness(case_id, c, eps, beta_small * beta_small / 2 if case_id == 62 else 0.0)
        else:
            assert math.isnan(c.s) and math.isnan(c.t)


def test_case_6_at_eps_0_7386_lies_on_an_edge_below_the_scan():
    # The least -g1 on the crossing lies on the edge t = 1 - s, which the
    # scan's t grid misses by 6.6e-5; a bisection over 20,001 values of s
    # gives 0.2500262.
    eps = 0.7386
    case6 = solve_case_constants(eps).restrictions[5]
    _assert_is_a_witness(6, case6, eps)
    assert case6.t == 1 - case6.s
    assert abs(case6.beta - 0.2500245) < 1e-7
    assert case6.beta < scan_restrictions(eps)[6][0] - 1e-5


def test_case_1_at_eps_0_is_one_half():
    # max(-g1, 1/2) on t = 1 - s: -g1 = 1 - 3s + 3s^2 <= 1/2 from s* = (3 - sqrt 3)/6 on.
    case1 = solve_case_constants(0.0).restrictions[0]
    assert abs(case1.beta - 0.5) <= 1e-15
    assert (3 - math.sqrt(3)) / 6 - 1e-9 <= case1.s <= 0.5


def test_boundary_case_finds_a_stationary_point_of_the_closed_form():
    # With g = 10 the restriction is the closed form N / D alone; on t = 1/2
    # it is (s^2/2 + 1 - s - 1/4) / (3/4) at eps = 0, least at s = 1.
    c = normal._boundary_case(0, lambda s, t: 10.0, (0.5, 0.0), 0.5, 1.5, 0.0)
    assert (c.s, c.t) == (1.0, 0.5) and c.beta == pytest.approx(1 / 3, abs=1e-15)


def test_resultant_is_the_sylvester_determinant():
    rng = np.random.default_rng(5)
    a, k = rng.uniform(-2, 2, (3, 5)), rng.uniform(-2, 2, (4, 5))
    res = normal._resultant(a, k)
    for t in (-1.5, 0.0, 0.5, 0.9, 2.0):
        ca, ck = [np.polyval(row[::-1], t) for row in a], [np.polyval(row[::-1], t) for row in k]
        sylvester = np.zeros((5, 5))
        for i in range(3):
            sylvester[i, i : i + 3] = ca[::-1]
        for i in range(2):
            sylvester[3 + i, i : i + 4] = ck[::-1]
        det = np.linalg.det(sylvester)
        assert abs(np.polyval(res[::-1], t) - det) <= 1e-9 * max(1.0, abs(det))


def test_real_roots_finds_the_roots_in_range():
    inside = [0.1, 0.35, 0.5, 0.9]
    coeffs = np.polynomial.polynomial.polyfromroots(inside + [-0.7, 1.4 + 0.3j, 1.4 - 0.3j]).real
    assert np.allclose(sorted(normal._real_roots(coeffs, 0.0, 1.0)), inside, rtol=0, atol=1e-12)
    # degree <= 2 in closed form, with vanishing leading coefficients
    assert normal._real_roots(np.array([-0.5, 1.0, 0.0, 0.0]), 0.0, 1.0) == [0.5]
    assert sorted(normal._real_roots(np.array([0.06, -0.5, 1.0]), 0.0, 1.0)) == pytest.approx([0.2, 0.3])
    assert normal._real_roots(np.array([1.0, 0.0, 1.0]), -5.0, 5.0) == []
    assert normal._real_roots(np.zeros(5), 0.0, 1.0) == []


def test_coefficients_read_off_values():
    def quartic(x):
        return 3 - 2 * x + x * x - 5 * x**3 + 7 * x**4

    assert normal._coefficients(quartic, 4).tolist() == [3, -2, 1, -5, 7]
    g1 = normal._coefficients(lambda s: normal._coefficients(lambda t: normal._g1(s, t)))
    assert g1.tolist() == [[0, -2, 1], [2, 1, 0], [-3, 0, 0]]


def test_case_constants_reject_bad_inputs():
    for eps in (math.nan, math.inf, -0.5, 1.0, 5.0):
        with pytest.raises(ValueError):
            solve_case_constants(eps)
        with pytest.raises(ValueError):
            improved_case_constants(2**-10, eps=eps)
    for beta_small in (math.nan, -1e-9, 2**-9):
        with pytest.raises(ValueError):
            improved_case_constants(beta_small)


def test_improved_constants_zero_is_identity():
    result = improved_case_constants(0.0)
    assert result.delta_improve == 0.0
    assert result.new_worst_beta == result.baseline.worst_beta


def test_improved_constants_positive_margin():
    result = improved_case_constants(2**-10)
    assert result.delta_improve > 0
    assert result.new_worst_beta > 0.302
    assert result.new_c_dv < 0.698
    assert result.constants.alpha == result.constants.beta - result.baseline.eps
    assert result.constants.beta_improve == 2**-10


def test_partial_census_n2_matches_direct_enumeration():
    census = partial_census(2, ZERO2)
    direct = sum(1 for m in sign_matrices(2) if commutator(m) == ZERO2)
    assert census.normal_count == direct == 12
    assert census.partial_counts[1] == 12
    assert census.roundtrip_ok and census.extension_bound_ok


def test_partial_census_n3_regression():
    census = partial_census(3, ZERO3)
    assert census.normal_count == 80  # pinned after the first exhaustive run
    assert census.roundtrip_ok and census.extension_bound_ok
    assert census.partial_counts[3] == 80


def test_partial_census_n4_regression():
    census = partial_census(4, ZERO4)
    assert census.normal_count == 2096  # pinned after the first exhaustive run
    assert census.partial_counts == {1: 736, 2: 1520, 3: 2096, 4: 2096}
    assert census.roundtrip_ok and census.extension_bound_ok


def test_partial_census_odd_parity_target_empty():
    odd = ExactMatrix.from_rows([[0, 1], [1, 0]])
    census = partial_census(2, odd)
    assert census.normal_count == 0


def test_partial_census_lower_bound_from_symmetric_matrices():
    for n, zero in ((2, ZERO2), (3, ZERO3)):
        census = partial_census(n, zero)
        assert census.normal_count >= 1 << (n * (n + 1) // 2)


ZERO5 = ExactMatrix.from_rows([[0] * 5 for _ in range(5)])


def _oracle_normals(n, target):
    """Brute-force filter: every sign matrix (as row tuples) with
    M M^T - M^T M = target, checked entry by entry with early exit."""
    from itertools import product

    pairs = [(i, j) for i in range(n) for j in range(n)]
    out = []
    for rows in product(tuple(product((1, -1), repeat=n)), repeat=n):
        for i, j in pairs:
            row_dot = sum(a * b for a, b in zip(rows[i], rows[j]))
            col_dot = sum(rows[t][i] * rows[t][j] for t in range(n))
            if row_dot - col_dot != target.entries[i][j]:
                break
        else:
            out.append(rows)
    return out


def _oracle_census(n, target, normals):
    """The census by regrouping the oracle's matrices by their k-partials."""
    partial_counts = {n: len(normals)}
    roundtrip_ok = extension_ok = True
    for k in range(1, n):
        partials = {}
        for rows in normals:
            partials.setdefault(PartialMatrix.from_full(rows, k), []).append(rows)
        partial_counts[k] = len(partials)
        free = 2 * (n - k - 1)
        for p, members in partials.items():
            t_k, nprime = build_t_system(p, target)
            extensions = set()
            for rows in members:
                x = step_vector(ExactMatrix.from_rows(rows), k)
                extensions.add(x)
                lhs = tuple(sum(t_k.entries[i][j] * x[j] for j in range(free)) for i in range(k))
                roundtrip_ok &= lhs == nprime
            solutions = count_sign_solutions(t_k, nprime)
            extension_ok &= len(extensions) <= solutions <= 1 << (free - rank(t_k))
    return PartialCensus(n, len(normals), partial_counts, roundtrip_ok, extension_ok)


def _tree_leaves(n, target):
    return [tuple(map(tuple, m)) for m in normal._step_tree(n, target.entries)[n][0].tolist()]


def _assert_step_systems_match_build_t_system(n, target):
    """`_step_systems` on every live node of every level against the scalar
    `build_t_system` of the node's partial."""
    levels = normal._step_tree(n, target.entries)
    array = np.array(target.entries, dtype=np.int8)
    for k in range(1, n):
        nodes = levels[k][0]
        t_k, nprime = normal._step_systems(nodes, k, array)
        assert t_k.shape == (len(nodes), k, 2 * (n - k - 1)) and nprime.shape == (len(nodes), k)
        for node, t_rows, rhs in zip(nodes.tolist(), t_k.tolist(), nprime.tolist()):
            t_ref, rhs_ref = build_t_system(PartialMatrix.from_full(node, k), target)
            assert tuple(map(tuple, t_rows)) == t_ref.entries and tuple(rhs) == rhs_ref


def _assert_tree_matches_oracle(n, target):
    _assert_step_systems_match_build_t_system(n, target)
    normals = _oracle_normals(n, target)
    leaves = _tree_leaves(n, target)
    assert len(set(leaves)) == len(leaves)
    assert set(leaves) == set(normals)
    census = partial_census(n, target)
    assert census == _oracle_census(n, target, normals)
    regrouped = {k: len({PartialMatrix.from_full(m, k) for m in leaves}) for k in range(1, n)}
    assert census.partial_counts == {**regrouped, n: len(leaves)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_step_tree_matches_oracle_on_zero_target(n):
    _assert_tree_matches_oracle(n, ExactMatrix.from_rows([[0] * n for _ in range(n)]))


SIGN_MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(SIGN_MATRICES)
def test_step_tree_matches_oracle_on_commutators(rows):
    _assert_tree_matches_oracle(len(rows), commutator(ExactMatrix.from_rows(rows)))


@pytest.mark.parametrize(
    "entries",
    [
        [[0, 2], [2, 2]],
        [[0, 2], [-2, 0]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 8], [8, 0]],
        [[0, 256], [256, 0]],
    ],
)
def test_implausible_targets_give_an_empty_census_without_a_tree(monkeypatch, entries):
    n = len(entries)
    target = ExactMatrix.from_rows(entries)
    assert _oracle_normals(n, target) == []

    def no_tree(*args):
        raise AssertionError("the step tree was built")

    monkeypatch.setattr(normal, "_step_tree", no_tree)
    census = partial_census(n, target)
    assert census == PartialCensus(n, 0, {k: 0 for k in range(1, n + 1)}, True, True)


@pytest.mark.parametrize(
    "entries",
    [
        [[0, 2], [2, 0]],
        [[0, 2, 0], [2, 0, 0], [0, 0, 0]],
        [[0, 2, 2], [2, 0, 2], [2, 2, 0]],
        [[0, 6, 0, 0], [6, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    ],
)
def test_plausible_targets_without_normals_give_an_empty_census(entries):
    # These pass the plausibility filter, so the tree is built and pruned to
    # empty levels; the census over those levels must still come out empty.
    n = len(entries)
    target = ExactMatrix.from_rows(entries)
    assert normal._target_is_plausible(target.entries, n)
    _assert_tree_matches_oracle(n, target)
    assert _oracle_normals(n, target) == []
    census = partial_census(n, target)
    assert census == PartialCensus(n, 0, {k: 0 for k in range(1, n + 1)}, True, True)


def test_roundtrip_check_catches_a_shifted_step_system(monkeypatch):
    systems = normal._step_systems

    def shifted(nodes, k, target):
        t_k, nprime = systems(nodes, k, target)
        nprime[:, 0] += 2
        return t_k, nprime

    monkeypatch.setattr(normal, "_step_systems", shifted)
    assert not partial_census(3, ZERO3).roundtrip_ok


def test_extension_bound_check_catches_a_low_solution_count(monkeypatch):
    monkeypatch.setattr(normal, "count_sign_solutions", lambda t_k, nprime: 0)
    census = partial_census(3, ZERO3)
    assert census.roundtrip_ok
    assert not census.extension_bound_ok


def test_partial_census_n5_zero_target():
    census = partial_census(5, ZERO5)
    assert census.normal_count == 49792
    assert census.partial_counts == {1: 2336, 2: 14784, 3: 32000, 4: 49792, 5: 49792}
    assert census.roundtrip_ok and census.extension_bound_ok


def test_step_systems_match_build_t_system_on_n5_zero_target():
    _assert_step_systems_match_build_t_system(5, ZERO5)


def test_n5_zero_target_leaves_are_closed_under_the_symmetries():
    # -M, M^T, P M P^T and D M D keep M M^T - M^T M = 0; adjacent
    # transpositions and single sign flips generate every P and D.
    leaves = normal._step_tree(5, ZERO5.entries)[5][0]
    assert len(leaves) == 49792

    def as_set(mats):
        return {m.tobytes() for m in mats}

    found = as_set(leaves)
    assert as_set(-leaves) == found
    assert as_set(leaves.transpose(0, 2, 1)) == found
    for i in range(4):
        order = list(range(5))
        order[i], order[i + 1] = order[i + 1], order[i]
        assert as_set(leaves[:, order][:, :, order]) == found
    for i in range(5):
        flip = np.ones(5, dtype=np.int8)
        flip[i] = -1
        assert as_set(leaves * flip[:, None] * flip[None, :]) == found
