"""Weighted vector systems: the shared input type for atom and small-ball bounds.

A system is a list of integer vectors a_1..a_n in Z^d together with a chosen
partition of the index set into blocks.  Block ranks are computed exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .exactmat import ExactMatrix, int_tuple, rank


@dataclass(frozen=True)
class VectorSystem:
    dimension: int
    vectors: tuple  # tuple of n integer tuples, each of length `dimension`
    partition: tuple  # tuple of blocks; each block a tuple of 0-based indices

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not self.vectors:
            raise ValueError("system must contain at least one vector")
        for v in self.vectors:
            if len(v) != self.dimension:
                raise ValueError("vector dimension mismatch")
            for x in v:
                if not isinstance(x, int):
                    raise ValueError("vector entries must be ints")
        if not self.partition:
            raise ValueError("partition must have at least one block")
        seen = set()
        for block in self.partition:
            if not block:
                raise ValueError("partition blocks must be nonempty")
            for i in block:
                if not 0 <= i < len(self.vectors):
                    raise ValueError("partition index out of range")
                if i in seen:
                    raise ValueError("partition blocks must be disjoint")
                seen.add(i)
        if len(seen) != len(self.vectors):
            raise ValueError("partition must cover every vector index")

    @staticmethod
    def from_vectors(vectors, partition=None) -> "VectorSystem":
        vectors = tuple(map(int_tuple, vectors))
        if not vectors:
            raise ValueError("system must contain at least one vector")
        d = len(vectors[0])
        if partition is None:
            partition = (tuple(range(len(vectors))),)
        else:
            partition = tuple(map(int_tuple, partition))
        return VectorSystem(d, vectors, partition)

    @property
    def n(self) -> int:
        return len(self.vectors)

    @property
    def ell(self) -> int:
        return len(self.partition)

    def full_matrix(self) -> ExactMatrix:
        """The d x n matrix whose columns are the vectors."""
        return ExactMatrix.from_rows(
            [[self.vectors[i][coord] for i in range(self.n)] for coord in range(self.dimension)]
        )

    def block_matrix(self, i) -> ExactMatrix:
        block = self.partition[i]
        return ExactMatrix.from_rows(
            [[self.vectors[j][coord] for j in block] for coord in range(self.dimension)]
        )

    def block_ranks(self) -> tuple:
        return tuple(rank(self.block_matrix(i)) for i in range(self.ell))

    def to_json(self) -> dict:
        return {
            "d": self.dimension,
            "vectors": [list(v) for v in self.vectors],
            "partition": [list(b) for b in self.partition],
        }

    @staticmethod
    def from_json(obj) -> "VectorSystem":
        if isinstance(obj, str):
            obj = json.loads(obj)
        for key in ("d", "vectors"):
            if key not in obj:
                raise ValueError(f"system JSON has no {key!r} key")
        sys = VectorSystem.from_vectors(obj["vectors"], obj.get("partition"))
        if sys.dimension != obj["d"]:
            raise ValueError("declared dimension does not match vectors")
        return sys
