"""Self-tests of the benchmark's checks: each must pass a real output and
reject a corrupted copy of it.  A last test shows that the traced run's
figures do not grow with the number of rounds.

Run from the root of a source checkout:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

M = run.import_package()
RESULTS = []


def expect(name, check, good, corruptions):
    """`check(good)` must pass and `check(bad)` must raise for every corruption."""
    ok = True
    try:
        check(good)
    except checks.CheckError as exc:
        ok = False
        print(f"FAIL {name}: a real output was rejected: {exc}")
    for label, bad in corruptions:
        try:
            check(bad)
        except checks.CheckError:
            continue
        ok = False
        print(f"FAIL {name}: accepted a corrupted output ({label})")
    RESULTS.append(ok)
    if ok:
        print(f"ok   {name}: real output passes, {len(corruptions)} corruptions rejected")


def replace_case(analysis, case_id, **changes):
    cases = tuple(
        dataclasses.replace(c, **changes) if c.case_id == case_id else c for c in analysis.restrictions
    )
    return dataclasses.replace(analysis, restrictions=cases)


def test_atoms():
    rng = random.Random(3)
    system = next(s for s in iter(lambda: M.sweeps.random_vector_system(rng, 2, 8), None) if s.n >= 6)
    table, ranks, bound, dom = workloads._atoms_run(M, system)
    plain = checks.sign_sum_counts(system.vectors, system.dimension)
    probs = dict(table.probs)
    p, q = sorted(probs)[:2]
    step = Fraction(1, 1 << system.n)
    moved = dict(probs)
    moved[p] -= step
    moved[q] += step
    moved = {k: v for k, v in moved.items() if v}
    mirrored = dict(probs)  # move mass onto the mirror image, keeping the total
    far = max(probs, key=lambda u: sum(abs(x) for x in u))
    mirrored[far] += mirrored.pop(tuple(-x for x in far))

    ranks_own = checks.block_ranks(system)

    def check(out):
        checks.check_atoms(system, ranks_own, out, False, plain)

    def with_probs(pr):
        return dataclasses.replace(table, probs=pr), ranks, bound, dom

    expect("atoms", check, (table, ranks, bound, dom), [
        ("mass moved between two atoms", with_probs(moved)),
        ("mass moved onto a mirror atom", with_probs(mirrored)),
        ("block rank off by one", (table, tuple(r + 1 for r in ranks), bound, dom)),
        ("bound decision flipped", (table, ranks, bound, False)),
    ])
    expect("atoms without plain table", lambda out: checks.check_atoms(system, ranks_own, out, False),
           (table, ranks, bound, dom), [("mass moved onto a mirror atom", with_probs(mirrored))])
    tight = M.sweeps.tightness_system(2, 4)
    out = workloads._atoms_run(M, tight)
    tight_ranks = checks.block_ranks(tight)
    expect("atoms tightness", lambda o: checks.check_atoms(tight, tight_ranks, o, True), out, [
        ("bound value off", (out[0], out[1], out[2] * 2, out[3])),
    ])


def test_replication():
    wl = workloads.setup_replication(M, 5)
    recomputed = sorted((i for i in wl.items if i.name.endswith("recomputed")), key=lambda i: i.name)
    for item in recomputed[::5]:
        out = item.run()
        lhs, rhs, holds = out
        expect(f"replication {item.name}", item.check, out, [
            ("left side changed", (lhs + Fraction(1, 97), max(rhs, float(lhs) + 0.02), holds)),
            ("decision flipped", (lhs, rhs, False)),
            ("rounded right side below the left", (lhs, float(lhs) / 2 - 1e-9, holds)),
        ])
    out = next(i for i in wl.items if i.name.startswith("rademacher")).run()
    expect("replication rademacher", checks.check_rademacher, out, [
        ("left side not 1/2", (Fraction(1, 3), out[1], out[2])),
    ])


def test_census():
    result = M.hadamard.enumerate_partial_hadamard(3, 8, fix_first_row=True)
    expect("census count", lambda o: checks.check_count(3, 8, True, o), result, [
        ("count off by one", dataclasses.replace(result, matrix_count=result.matrix_count + 1)),
        ("enumerated count off by one",
         dataclasses.replace(result, normalized_count=result.normalized_count - 1)),
    ])
    rows = workloads.random_census_matrix(random.Random(1), 3, 8)
    report = M.hadamard.pipeline_bound_check(3, 8, fix_first_row=True, partition_sample=37)
    expect("census pipeline", lambda o: checks.check_pipeline(3, 8, True, rows, o), report, [
        ("one matrix missed", dataclasses.replace(report, matrices_checked=report.matrices_checked - 1)),
        ("a Gram violation", dataclasses.replace(report, gram_violations=1)),
        ("max solutions off by one", dataclasses.replace(report, max_solutions=report.max_solutions + 1)),
    ])
    rows = workloads.random_census_matrix(random.Random(2), 4, 16)
    rep = M.bounds.stable_rank(M.exactmat.ExactMatrix.from_rows(rows))
    expect("census stable rank", lambda o: checks.check_stable_rank(rows, o), rep, [
        ("stable rank off by one", dataclasses.replace(rep, stable_rank=rep.stable_rank - 1)),
        ("enclosure below the eigenvalue", dataclasses.replace(
            rep, op_norm_sq_lower=rep.op_norm_sq_lower - 1, op_norm_sq_upper=rep.op_norm_sq_lower - 1 / 2)),
    ])


def test_normal():
    n = 3
    target = [[0] * n for _ in range(n)]
    census = M.normal.partial_census(n, M.exactmat.ExactMatrix.from_rows(target))
    own = checks.commutator_census(n, [target])[0]
    expect("normal census", lambda o: checks.check_partial_census(own, o), census, [
        ("count off by one", dataclasses.replace(census, normal_count=census.normal_count + 1)),
        ("round trip failed", dataclasses.replace(census, roundtrip_ok=False)),
    ])
    eps = 1e-6
    analysis = M.normal.solve_case_constants(eps=eps)
    beta = {c.case_id: c for c in analysis.restrictions}
    expect("normal constants", lambda o: checks.check_case_constants(o, eps), analysis, [
        ("case 1 below its window", replace_case(analysis, 1, beta=0.5 - 3 * eps)),
        ("case 1 above 1/2", replace_case(analysis, 1, beta=0.5 + eps)),
        ("case 3 off the table", replace_case(analysis, 3, beta=beta[3].beta + 2e-3)),
        ("case 6 beta outside its fixed point", replace_case(analysis, 6, beta=beta[6].beta + 1e-6)),
        ("case 6 s moved", replace_case(analysis, 6, s=beta[6].s + 1e-6)),
        ("c_dv too large", dataclasses.replace(analysis, c_dv=0.6981)),
    ])
    improved = M.normal.improved_case_constants(2**-10, eps=eps)
    sharpened = improved.case_sharpened
    expect("normal improved", lambda o: checks.check_improved(o, eps, 2**-10), improved, [
        ("no improvement", dataclasses.replace(improved, delta_improve=0.0)),
        ("sharpened beta moved", dataclasses.replace(
            improved, case_sharpened=dataclasses.replace(sharpened, beta=sharpened.beta + 1e-7))),
    ])


def test_tracer_per_round():
    """The traced figures are set-up plus one round, however many rounds ran."""
    import tracing

    figures = []
    for rounds in (1, 3):
        m = run.import_package()
        tracer = tracing.Tracer()
        tracer.install()
        system = m.sweeps.random_vector_system(random.Random(4), 3, 10)
        tracer.end_setup()
        for _ in range(rounds):
            workloads._atoms_run(m, system)
        layer = tracer.layer_metrics(rounds)
        figures.append({k: v for k, v in layer.items() if not k.endswith("_s")})
    ok = figures[0] == figures[1] and figures[0]["oracle.atom_distribution.calls"] == 1
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} traced calls and work counts are per round")


if __name__ == "__main__":
    test_atoms()
    test_replication()
    test_census()
    test_normal()
    test_tracer_per_round()  # last: it wraps the package's functions
    print(f"{sum(RESULTS)} of {len(RESULTS)} checks behave")
    sys.exit(0 if all(RESULTS) else 1)
