"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Stated runtime limits are asserted alongside the mathematical checks.
"""

import math
import random
import time
from fractions import Fraction

from acbounds.bounds import (
    howard_oskolkov_bound,
    improved_constant_bound,
    stable_rank,
)
from acbounds.distributions import LatticeDistribution, replication_atom_check
from acbounds.exactmat import ExactMatrix, cauchy_binet_check, rank
from acbounds.hadamard import (
    enumerate_partial_hadamard,
    feasibility_condition,
    greedy_rank_partition,
    certify_rank_partition,
    iter_partial_hadamard,
    masks_to_matrix,
    pipeline_bound_check,
)
from acbounds.normal import (
    case_functions,
    commutator,
    improved_case_constants,
    is_n_normal,
    partial_census,
    solve_case_constants,
)
from acbounds.oracle import atom_max, combinatorial_dimension
from acbounds.sweeps import (
    run_elo_sweep,
    run_halasz_sweep,
    run_replication_sweep,
    tightness_system,
)

# Census counts pinned by the first exhaustive runs (regression values).
PINNED_H44 = 768
PINNED_H28 = 17920
PINNED_H312 = 1513881600


def _report(num, ok, detail, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {num:02d}: {status}{timing} - {detail}")


def test_criterion_01_halasz_atom_sweep():
    start = time.monotonic()
    report = run_halasz_sweep(instances=500, seed=2024, d_max=4, n_max=20)
    tight = tightness_system(3, 4)
    from acbounds.bounds import halasz_atom_bound

    ratio_one = atom_max(tight) == halasz_atom_bound(tight.block_ranks(), tight.ell)
    elapsed = time.monotonic() - start
    ok = report.ok() and ratio_one and elapsed < 120
    _report(1, ok, f"500 systems, violations={len(report.violations)}, "
                   f"tight ratio 1: {ratio_one}", elapsed)
    assert report.ok()
    assert ratio_one
    assert elapsed < 120


def test_criterion_02_erdos_littlewood_offord():
    start = time.monotonic()
    report = run_elo_sweep(instances=500, seed=7, n_max=20)
    elapsed = time.monotonic() - start
    ok = report.ok() and report.tight_count > 0 and elapsed < 60
    _report(2, ok, f"500 scalar systems, violations={len(report.violations)}, "
                   f"equal-weight ties={report.tight_count}", elapsed)
    assert report.ok()
    assert report.tight_count > 0
    assert elapsed < 60


def test_criterion_03_subspace_sign_vector_counts():
    start = time.monotonic()
    rng = random.Random(16)
    worst = 0.0
    for _ in range(200):
        r = rng.randint(1, 10)
        n = rng.randint(max(2, r), 16)
        spanning = ExactMatrix.from_rows(
            [[rng.choice((1, -1)) for _ in range(n)] for _ in range(r)]
        )
        count, _ = combinatorial_dimension(spanning)
        cap = 1 << rank(spanning)
        assert count <= cap
        worst = max(worst, count / cap)
    elapsed = time.monotonic() - start
    _report(3, True, f"200 subspaces, max fill ratio {worst:.3f}", elapsed)


def test_criterion_04_replication_inequalities():
    start = time.monotonic()
    rep4 = run_replication_sweep(instances=1000, seed=41, variant="symmetrized")
    rep2 = run_replication_sweep(instances=1000, seed=42, variant="origin-symmetric")
    r = LatticeDistribution.rademacher()
    lhs, _, holds = replication_atom_check([r, r], (2, 2), (0,), variant="origin-symmetric")
    equality = holds and lhs == Fraction(1, 2)
    elapsed = time.monotonic() - start
    ok = rep4.ok() and rep2.ok() and equality and elapsed < 120
    _report(4, ok, f"1000+1000 instances, violations={len(rep4.violations)}+"
                   f"{len(rep2.violations)}, (2,2) equality at 1/2: {equality}", elapsed)
    assert rep4.ok() and rep2.ok()
    assert equality
    assert elapsed < 120


def test_criterion_05_minor_sum_identity():
    start = time.monotonic()
    rng = random.Random(5)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(rows, 10)
        m = ExactMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        )
        lhs, rhs, equal = cauchy_binet_check(m)
        assert equal and lhs == rhs  # zero tolerance
    elapsed = time.monotonic() - start
    _report(5, True, "200 exact minor-sum identities, zero tolerance", elapsed)


def test_criterion_06_census_regressions():
    start = time.monotonic()
    assert enumerate_partial_hadamard(1, 1).matrix_count == 2
    assert enumerate_partial_hadamard(2, 2).matrix_count == 8
    counts = {
        "H(4)": (enumerate_partial_hadamard(4, 4).matrix_count, PINNED_H44),
        "H_{2,8}": (enumerate_partial_hadamard(2, 8).matrix_count, PINNED_H28),
        "H_{3,12}": (
            enumerate_partial_hadamard(3, 12, fix_first_row=True).matrix_count,
            PINNED_H312,
        ),
    }
    for name, (got, pinned) in counts.items():
        assert got == pinned, f"{name}: {got} != pinned {pinned}"
    # per-matrix invariants over every census matrix, checked once per
    # class-DP state on one representative and weighted by the matrices the
    # state stands for (first row fixed for the larger censuses; both checked
    # properties are invariant under column negation).  partition_sample is
    # ignored: every state gets its partition attempts.
    reports = [
        pipeline_bound_check(4, 4, fix_first_row=False, partition_sample=1),
        pipeline_bound_check(2, 8, fix_first_row=True, partition_sample=1),
        pipeline_bound_check(3, 12, fix_first_row=True, partition_sample=991),
    ]
    elapsed = time.monotonic() - start
    ok = all(r.gram_violations == 0 and r.odlyzko_violations == 0 for r in reports)
    checked = sum(r.matrices_checked for r in reports)
    _report(6, ok and elapsed < 600,
            f"counts pinned {sorted(v[0] for v in counts.values())}, "
            f"{checked} matrices re-verified", elapsed)
    assert ok
    assert all(r.exact_gram_violations == 0 for r in reports)
    assert elapsed < 600


def test_criterion_07_rank_partitions_from_feasibility():
    start = time.monotonic()
    feasible_seen = 0
    for k in (1, 2, 3):
        for n in (4, 8, 12):
            pairs = [
                (r, ell)
                for r in range(1, k + 1)
                for ell in (2, 4, 6)
                if feasibility_condition(k, n, r, ell)
            ]
            if not pairs:
                continue
            for masks in iter_partial_hadamard(k, n, fix_first_row=True):
                matrix = masks_to_matrix(masks, n)
                for r, ell in pairs:
                    feasible_seen += 1
                    partition = greedy_rank_partition(matrix, r, ell)
                    assert partition is not None
                    certify_rank_partition(matrix, partition)
    # The inequality only activates at much larger n; make the greedy claim
    # nonvacuous there with a wide orthogonal pair satisfying it.
    n = 1000
    wide = ExactMatrix.from_rows([[1] * n, [1] * (n // 2) + [-1] * (n // 2)])
    assert feasibility_condition(2, n, 1, 2)
    partition = greedy_rank_partition(wide, 1, 2)
    assert partition is not None
    certify_rank_partition(wide, partition)
    elapsed = time.monotonic() - start
    _report(7, True, f"desk-scale feasible pairs: {feasible_seen} (inequality "
                     f"activates at n=1000 companion; greedy certified)", elapsed)


def _case1_closed_form_holds():
    """Exact check of the case-1 identities on the curve t = 1 - s.

    f(beta) + beta = (beta - 1/2) s (2 - s) has degree 1 in beta and 2 in s,
    and -g1 = 1 - 3s + 3s^2 has degree 2 in s, so agreement on this 2 x 3
    grid of distinct rationals proves both identities for every s.
    """
    half = Fraction(1, 2)
    for s in (Fraction(1, 7), Fraction(1, 3), half):
        for beta in (Fraction(17, 40), Fraction(3, 5)):
            f, g1, _ = case_functions(s, 1 - s, beta)
            if f + beta != (beta - half) * s * (2 - s):
                return False
            if -g1 != 1 - 3 * s + 3 * s * s:
                return False
    return True


def test_criterion_08_case_constants():
    start = time.monotonic()
    analysis = solve_case_constants()
    betas = {c.case_id: c.beta for c in analysis.restrictions}
    improved = improved_case_constants(2**-10)
    elapsed = time.monotonic() - start
    expected = {1: 0.425, 2: 0.307, 3: 0.3125, 4: 0.323, 5: 0.307, 6: 0.302}
    deviations = {cid: abs(betas[cid] - expected[cid]) for cid in (2, 3, 4, 5, 6)}
    # Case 1 is the smallest beta on t = 1 - s (0 < s <= 1/2) with
    # min(g1, f(beta - eps)) = -beta. By the closed form checked below, and
    # -g1 = 3 (s - 1/2)^2 + 1/4 >= 1/4, the fixed point is exactly 1/2 at
    # eps = 0 and 1/2 - eps (1 - s*)^2 / (s* (2 - s*)) with s* = (3 - sqrt 3)/6
    # otherwise, a coefficient of about 1.65. The published 0.425 lies below
    # it: at beta = 17/40, f + beta = -(3/40) s (2 - s) < 0, so it is a valid
    # restriction for case 1 but not its fixed point.
    case1_closed_form = _case1_closed_form_holds()
    case1_fixed_point = 0.5 - 2 * analysis.eps <= betas[1] <= 0.5
    case1_published_valid = betas[1] >= expected[1]
    ok = (
        all(dev <= 1e-3 for dev in deviations.values())
        and case1_closed_form
        and case1_fixed_point
        and case1_published_valid
        and analysis.c_dv < 0.698
        and improved.delta_improve > 0
        and improved.new_worst_beta > 0.302
        and elapsed < 10
    )
    got = {cid: round(betas[cid], 4) for cid in sorted(betas)}
    _report(8, ok, f"betas {got} vs {expected}; case 1 {betas[1]:.8f} vs closed "
                   f"form 1/2, published 0.425 valid: {case1_published_valid}; "
                   f"c_dv={analysis.c_dv:.5f}; delta={improved.delta_improve:.2e}",
            elapsed)
    assert analysis.c_dv < 0.698
    assert improved.delta_improve > 0
    assert improved.new_worst_beta > 0.302
    assert elapsed < 10
    for cid in (2, 3, 4, 5, 6):
        assert deviations[cid] <= 1e-3, f"case {cid}: {betas[cid]} vs {expected[cid]}"
    assert case1_closed_form, "case 1: closed forms of f + beta and -g1 fail on t = 1 - s"
    assert case1_fixed_point, f"case 1: computed {betas[1]}, fixed point 1/2 - O(eps)"
    assert case1_published_valid, f"case 1: computed {betas[1]} below the published 0.425"


def test_criterion_09_normal_census_roundtrip():
    start = time.monotonic()
    for n in (2, 3, 4):
        zero = ExactMatrix.from_rows([[0] * n for _ in range(n)])
        census = partial_census(n, zero)
        assert census.roundtrip_ok
        assert census.extension_bound_ok
        assert census.normal_count >= 1 << (n * (n + 1) // 2)
        # re-run the defining identity through both formulas on every matrix
        found = 0
        for bits in range(1 << (n * n)):
            m = ExactMatrix.from_rows(
                [
                    [1 if (bits >> (i * n + j)) & 1 else -1 for j in range(n)]
                    for i in range(n)
                ]
            )
            if commutator(m) == zero:
                assert is_n_normal(m, zero)
                found += 1
        assert found == census.normal_count
    elapsed = time.monotonic() - start
    _report(9, True, "normal censuses n=2,3,4: both identity forms, step "
                     "systems, and symmetric lower bounds verified", elapsed)


def test_criterion_10_stable_rank():
    start = time.monotonic()
    # orthogonal-row census matrices: stable rank equals the row count
    # (every normalized matrix for the small censuses, samples of the rest)
    for k, n in ((2, 4), (3, 4), (4, 4)):
        for masks in iter_partial_hadamard(k, n, fix_first_row=True):
            assert stable_rank(masks_to_matrix(masks, n)).stable_rank == k
    for k, n in ((2, 8), (3, 12)):
        sampled = 0
        for idx, masks in enumerate(iter_partial_hadamard(k, n, fix_first_row=True)):
            if idx % 37 == 0:
                sampled += 1
                report = stable_rank(masks_to_matrix(masks, n))
                assert report.stable_rank == k
                if sampled == 12:
                    break
        assert sampled > 0
    report = stable_rank(ExactMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert report.stable_rank == 1
    rng = random.Random(10)
    agreements = 0
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 7)
        m = ExactMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        if m.is_zero():
            continue
        rep = stable_rank(m)
        lo_floor = rep.hs_norm_sq / rep.op_norm_sq_upper
        hi_floor = rep.hs_norm_sq / rep.op_norm_sq_lower
        assert math.floor(lo_floor) in (rep.stable_rank, rep.stable_rank - 1)
        assert lo_floor < rep.stable_rank + 1
        assert hi_floor >= rep.stable_rank
        assert 1 <= rep.stable_rank <= rank(m)
        agreements += 1
    elapsed = time.monotonic() - start
    _report(10, True, f"census stable ranks exact; {agreements} certified floors",
            elapsed)


def test_criterion_11_constant_comparison_grid():
    start = time.monotonic()
    worst_gap = math.inf
    for m in range(1, 65):
        for d in range(1, m + 1):
            new = improved_constant_bound(d, m)
            old = howard_oskolkov_bound(d, m)
            assert new <= old
            worst_gap = min(worst_gap, old / new)
    elapsed = time.monotonic() - start
    _report(11, True, f"grid 1<=d<=m<=64 dominated, min ratio {worst_gap:.3f}",
            elapsed)
