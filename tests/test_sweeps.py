"""Randomized sweep generators: structural guarantees and determinism."""

import json
import math
import random
from fractions import Fraction
from itertools import product

from acbounds import distributions, sweeps
from acbounds.distributions import (
    LatticeDistribution,
    _replication,
    convolve,
    replication_atom_check,
    replication_sbp_check,
)
from acbounds.sweeps import (
    random_lattice_distribution,
    random_vector_system,
    run_elo_sweep,
    run_halasz_sweep,
    run_replication_sweep,
    tightness_system,
)


def test_random_system_partitions_are_valid():
    rng = random.Random(2)
    for _ in range(60):
        sys = random_vector_system(rng, d_max=3, n_max=10)
        assert sys.ell % 2 == 0
        covered = sorted(j for b in sys.partition for j in b)
        assert covered == list(range(sys.n))
        assert all(any(v) for v in sys.vectors)


def test_tightness_system_shape():
    sys = tightness_system(3, 4)
    assert sys.n == 12
    assert sys.block_ranks() == (3, 3, 3, 3)


def test_vector_system_json_round_trip():
    from acbounds.system import VectorSystem

    rng = random.Random(8)
    sys = random_vector_system(rng, d_max=3, n_max=8)
    assert VectorSystem.from_json(sys.to_json()) == sys


def test_random_distribution_constraints():
    rng = random.Random(4)
    for _ in range(60):
        p = random_lattice_distribution(rng, 2, origin_symmetric=True)
        assert p.is_origin_symmetric()
        assert len(p.atoms) <= 5
        assert sum(p.atoms.values()) == 1


def test_sweeps_deterministic_for_fixed_seed():
    a = run_halasz_sweep(instances=10, seed=3)
    b = run_halasz_sweep(instances=10, seed=3)
    assert a.to_json() == b.to_json()


def test_small_sweeps_pass():
    assert run_halasz_sweep(instances=25, seed=1).ok()
    assert run_elo_sweep(instances=40, seed=1).ok()
    assert run_replication_sweep(instances=40, seed=1).ok()
    assert run_replication_sweep(instances=40, seed=1, variant="origin-symmetric").ok()
    assert run_replication_sweep(instances=25, seed=1, small_ball=True).ok()


def test_rademacher_pair_is_an_exact_tie():
    rademacher = LatticeDistribution.rademacher()
    lhs, rhs, order = _replication(
        [rademacher, rademacher], (2, 2), "origin-symmetric", point=(0,)
    )
    assert lhs == Fraction(1, 2)
    assert order == 0
    assert rhs > 0.5  # the float side is rounded up, so it never ties


def _slow_origin_symmetric_order(dists, tup, point):
    """Sign of lhs^L - prod m_i^(L/a_i) for the origin-symmetric variant, from
    a direct sum over the product of the supports and repeated convolutions."""
    d = len(point)
    lhs = sum(
        (math.prod(m for _, m in combo) for combo in product(*(p.atoms.items() for p in dists))
         if tuple(sum(u[c] for u, _ in combo) for c in range(d)) == point),
        Fraction(0),
    )
    lcm = math.lcm(*tup)
    right = Fraction(1)
    for p, a in zip(dists, tup):
        power = p
        for _ in range(a - 1):
            power = convolve(power, p)
        right *= power.mass_at((0,) * d) ** (lcm // a)
    left = lhs**lcm
    return (left > right) - (left < right)


def test_replication_sweep_counts_exact_ties(monkeypatch):
    calls = []

    def recording(dists, tup, variant, **kwargs):
        calls.append((dists, tup, kwargs["point"]))
        return _replication(dists, tup, variant, **kwargs)

    monkeypatch.setattr(sweeps, "_replication", recording)
    report = run_replication_sweep(300, seed=42, variant="origin-symmetric")
    ties = sum(_slow_origin_symmetric_order(*call) == 0 for call in calls)
    assert report.tight_count == ties == 1


def _replay(record):
    dists = [LatticeDistribution.from_json(obj) for obj in record["dists"]]
    tup, variant = tuple(record["tuple"]), record["variant"]
    if "point" in record:
        return replication_atom_check(dists, tup, tuple(record["point"]), variant=variant)
    return replication_sbp_check(dists, tup, Fraction(record["delta"]), tuple(record["center"]),
                                 variant=variant)


def test_replication_violations_replay(monkeypatch):
    # A comparison that fails on a pattern of the left side, the factors and
    # the tuple marks about a third of the instances as violations; a replayed
    # record reaches the same decision only if it rebuilds all three.
    def patterned(lhs, masses, tup):
        key = lhs.numerator + lhs.denominator + sum(m.denominator for m in masses) + sum(tup)
        return 1 if key % 3 == 0 else -1

    monkeypatch.setattr(distributions, "_compare_with_product", patterned)
    for variant in ("symmetrized", "origin-symmetric"):
        for small_ball in (False, True):
            report = run_replication_sweep(30, seed=5, variant=variant, small_ball=small_ball)
            records = json.loads(json.dumps(report.violations))
            assert 0 < len(records) < 30
            for record in records:
                assert record["variant"] == variant
                assert _replay(record)[2] is False
    monkeypatch.undo()
    assert all(_replay(record)[2] for record in records)
