"""Seeded randomized verification sweeps: oracle values vs closed-form bounds.

Every sweep takes an explicit seed and reports it, so runs are reproducible
byte for byte.  Violations are collected, never swallowed; an empty
violation list is the pass condition.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from .bounds import (
    atom_bound_dominates,
    enumerate_reciprocal_tuples,
    erdos_lo_bound,
    halasz_atom_bound,
)
from .distributions import LatticeDistribution, _replication
from .hadamard import deal_leftover_columns, greedy_rank_partition
from .oracle import atom_max
from .system import VectorSystem


def _random_nonzero_vector(rng, d, span=2):
    while True:
        v = tuple(rng.randint(-span, span) for _ in range(d))
        if any(v):
            return v


def random_vector_system(rng, d_max: int = 4, n_max: int = 20) -> VectorSystem:
    """Random integer system with an even-block partition found greedily.

    Blocks come from a greedy rank partition of the column matrix; leftover
    columns are dealt round-robin onto the blocks (extra columns only raise
    block ranks, so every bound that consumes the partition stays valid).
    """
    d = rng.randint(1, d_max)
    n = rng.randint(max(2, d), n_max)
    vectors = [_random_nonzero_vector(rng, d) for _ in range(n)]
    system = VectorSystem.from_vectors(vectors)
    matrix = system.full_matrix()
    ell_choices = [ell for ell in (2, 4, 6) if ell <= n]
    ell = rng.choice(ell_choices)
    for r in range(min(d, n // ell), 0, -1):
        found = greedy_rank_partition(matrix, r, ell)
        if found is not None:
            return VectorSystem.from_vectors(vectors, deal_leftover_columns(found.blocks, n))
    raise AssertionError("rank-1 partition must exist for nonzero vectors")


def tightness_system(d: int, ell: int) -> VectorSystem:
    """The standard-basis round-robin family: the atom bound is attained."""
    if ell % 2 != 0 or ell < 2:
        raise ValueError("ell must be even and >= 2")
    vectors = []
    for i in range(ell * d):
        e = [0] * d
        e[i % d] = 1
        vectors.append(tuple(e))
    partition = [tuple(range(b * d, (b + 1) * d)) for b in range(ell)]
    return VectorSystem.from_vectors(vectors, partition)


@dataclass
class SweepReport:
    instances: int
    seed: int
    violations: list
    max_ratio: float
    tight_count: int

    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return asdict(self)


def run_halasz_sweep(
    instances: int = 500,
    seed: int = 0,
    d_max: int = 4,
    n_max: int = 20,
) -> SweepReport:
    """Exact atom maxima of random systems vs the central-binomial rank bound,
    followed by the tightness family, where the bound must be attained."""
    rng = random.Random(seed)
    violations = []
    max_ratio = 0.0
    tight = 0
    for idx in range(instances):
        system = random_vector_system(rng, d_max=d_max, n_max=n_max)
        oracle = atom_max(system)
        ranks = system.block_ranks()
        bound = halasz_atom_bound(ranks, system.ell)
        # exact decision (removes the fractional exponent by powering)
        if not atom_bound_dominates(oracle, ranks, system.ell):
            violations.append({"instance": idx, "system": system.to_json()})
        bound_frac = Fraction(bound) if not isinstance(bound, Fraction) else bound
        ratio = float(oracle) / float(bound_frac)
        max_ratio = max(max_ratio, ratio)
        if oracle == bound_frac:
            tight += 1
    for d in (1, 2, 3):
        for ell in (2, 4):
            system = tightness_system(d, ell)
            oracle = atom_max(system)
            bound = halasz_atom_bound(system.block_ranks(), system.ell)
            if not (isinstance(bound, Fraction) and oracle == bound):
                violations.append({"instance": f"tightness d={d} ell={ell}"})
            else:
                tight += 1
                max_ratio = max(max_ratio, 1.0)
    return SweepReport(instances, seed, violations, max_ratio, tight)


def random_lattice_distribution(rng, d: int, max_support: int = 5, span: int = 2,
                                origin_symmetric: bool = False) -> LatticeDistribution:
    """Random finitely supported rational distribution on Z^d (support
    capped at `max_support` points, reflections included)."""
    points = set()
    target = rng.randint(1, max_support)
    for _ in range(20):
        if len(points) >= target:
            break
        p = tuple(rng.randint(-span, span) for _ in range(d))
        if origin_symmetric:
            pair = {p, tuple(-x for x in p)}
            if len(points | pair) <= max_support:
                points |= pair
        else:
            points.add(p)
    if not points:
        points.add((0,) * d)
    weights = {}
    for p in sorted(points):
        neg = tuple(-x for x in p)
        if origin_symmetric and neg in weights:
            weights[p] = weights[neg]
        else:
            weights[p] = rng.randint(1, 5)
    return LatticeDistribution._from_weights(d, weights, sum(weights.values()))


def run_replication_sweep(
    instances: int = 1000,
    seed: int = 0,
    variant: str = "symmetrized",
    small_ball: bool = False,
) -> SweepReport:
    """Random exact-convolution instances of the replication inequality."""
    rng = random.Random(seed)
    divisor = 4 if variant == "symmetrized" else 2
    violations = []
    max_ratio = 0.0
    tight = 0
    low, high = max(2, divisor), 4 if small_ball else 5
    tuples_of = {  # each ell's tuples, enumerated once
        ell: [
            t.values
            for t in enumerate_reciprocal_tuples(ell, divisor=divisor, cap=10000)
            if max(t.values) <= (8 if small_ball else 16)
        ]
        for ell in range(low, high + 1)
    }
    for idx in range(instances):
        d = rng.randint(1, 2)
        ell = rng.randint(low, high)
        if not tuples_of[ell]:
            continue
        tup = rng.choice(tuples_of[ell])
        origin_symmetric = variant == "origin-symmetric"
        max_support = 3 if small_ball else 5
        dists = [
            random_lattice_distribution(
                rng, d, max_support=max_support, origin_symmetric=origin_symmetric
            )
            for _ in range(ell)
        ]
        if small_ball:
            delta = Fraction(rng.randint(0, 4), 2)
            center = tuple(rng.randint(-2, 2) for _ in range(d))
            lhs, rhs, order = _replication(dists, tup, variant, delta=delta, center=center)
            query = {"delta": str(delta), "center": list(center)}
        else:
            v = tuple(rng.randint(-3, 3) for _ in range(d))
            lhs, rhs, order = _replication(dists, tup, variant, point=v)
            query = {"point": list(v)}
        if order > 0:  # the record replays through replication_*_check
            violations.append({"instance": idx, "tuple": list(tup), "variant": variant,
                               "dists": [p.to_json() for p in dists], **query})
        if rhs > 0:
            max_ratio = max(max_ratio, float(lhs) / rhs)
        if order == 0:
            tight += 1
    return SweepReport(instances, seed, violations, max_ratio, tight)


def run_elo_sweep(instances: int = 500, seed: int = 0, n_max: int = 20) -> SweepReport:
    """Exact atom maxima of scalar systems with nonzero weights vs the
    central-binomial bound; every fourth instance uses equal weights, where
    the bound is attained exactly."""
    rng = random.Random(seed)
    violations = []
    max_ratio = 0.0
    tight = 0
    for idx in range(instances):
        n = rng.randint(1, n_max)
        if idx % 4 == 0:
            w = rng.choice([x for x in range(-5, 6) if x])
            vectors = [(w,)] * n
        else:
            vectors = [(rng.choice([x for x in range(-5, 6) if x]),) for _ in range(n)]
        system = VectorSystem.from_vectors(vectors)
        oracle = atom_max(system)
        bound = erdos_lo_bound(n)
        if oracle > bound:
            violations.append({"instance": idx, "system": system.to_json()})
        max_ratio = max(max_ratio, float(oracle / bound))
        if idx % 4 == 0 and oracle != bound:
            violations.append({"instance": idx, "reason": "equal weights must be tight"})
        elif idx % 4 == 0:
            tight += 1
    return SweepReport(instances, seed, violations, max_ratio, tight)
