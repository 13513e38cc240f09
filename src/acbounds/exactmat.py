"""Exact integer matrix arithmetic: rank, determinants, Gram products, minors.

Everything here is exact.  Entries are arbitrary-precision ints, elimination
is fraction-free (Bareiss pivoting), and minor sums are enumerated, so ranks,
determinants, and counts are certified rather than approximate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import index


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the caller-supplied work budget."""


class NonconvergenceError(RuntimeError):
    """An iterative certification failed to reach the requested accuracy."""


_INT_ONLY = frozenset((int,))
_SIGN_TOKENS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def int_tuple(values) -> tuple:
    """`values` as a tuple of exact ints.

    Python and numpy integers pass (by `operator.index`).  A bool, a float
    (even 2.0) or any other non-integer raises a ValueError naming it, so
    that input such as 1.5 is refused rather than truncated.
    """
    values = tuple(values)
    if _INT_ONLY.issuperset(map(type, values)):
        return values
    for x in values:
        if isinstance(x, bool) or not hasattr(x, "__index__"):
            raise ValueError(f"{x!r} is not an integer")
    return tuple(map(index, values))


@dataclass(frozen=True)
class ExactMatrix:
    """Dense integer matrix.  `entries` is a tuple of row tuples.

    `rows == 0` is allowed (a constraint-free system); `cols` must then be
    given explicitly.  Operations that need a nonempty matrix check for it.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for x in row:
                if not isinstance(x, int):
                    raise ValueError("entries must be ints")

    @staticmethod
    def from_rows(rows, cols=None) -> "ExactMatrix":
        rows = tuple(map(int_tuple, rows))
        if not rows:
            if cols is None:
                raise ValueError("empty matrix needs explicit cols")
            return ExactMatrix(0, cols, ())
        return ExactMatrix(len(rows), len(rows[0]), rows)

    @staticmethod
    def identity(n) -> "ExactMatrix":
        return ExactMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_text(text) -> "ExactMatrix":
        """Parse the shared matrix text format: "rows cols" then row lines.

        A body with any bare '+' or '-' token is a sign matrix: each of its
        tokens must then be '+', '+1', '1', '-' or '-1'.
        """
        lines = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        r, c = map(int, lines[0])
        body = lines[1:]
        if len(body) != r:
            raise ValueError("header does not match matrix body")
        if any("+" in row or "-" in row for row in body):
            bad = next((tok for row in body for tok in row if tok not in _SIGN_TOKENS), None)
            if bad is not None:
                raise ValueError(f"bad sign token {bad!r}")
            rows = [[_SIGN_TOKENS[tok] for tok in row] for row in body]
        else:
            rows = [[int(tok) for tok in row] for row in body]
        m = ExactMatrix.from_rows(rows, cols=c)
        if m.rows != r or m.cols != c:
            raise ValueError("header does not match matrix body")
        return m

    @staticmethod
    def from_json(obj) -> "ExactMatrix":
        if isinstance(obj, str):
            obj = json.loads(obj)
        for key in ("rows", "cols", "entries"):
            if key not in obj:
                raise ValueError(f"matrix JSON has no {key!r} key")
        m = ExactMatrix.from_rows(obj["entries"], cols=obj["cols"])
        if m.rows != obj["rows"] or m.cols != obj["cols"]:
            raise ValueError("header does not match matrix body")
        return m

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": [list(r) for r in self.entries]}

    def to_text(self) -> str:
        body = "\n".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"{self.rows} {self.cols}\n{body}\n"

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "ExactMatrix":
        if self.rows == 0:
            raise ValueError("cannot transpose an empty matrix")
        return ExactMatrix.from_rows(zip(*self.entries))

    def column_submatrix(self, cols) -> "ExactMatrix":
        return ExactMatrix.from_rows([tuple(r[j] for j in cols) for r in self.entries])

    def gram(self) -> "ExactMatrix":
        """M * M^T, exactly."""
        return ExactMatrix.from_rows(
            [[sum(a * b for a, b in zip(r1, r2)) for r2 in self.entries] for r1 in self.entries]
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


def _bareiss(rows):
    """Fraction-free (Bareiss) elimination of a copy of `rows`.

    Returns (rank, sign, last_pivot, pivots, echelon): sign is
    (-1)^(row swaps) and last_pivot the last nonzero pivot, so a square
    matrix of full rank has determinant sign * last_pivot; echelon holds the
    rank nonzero rows left by the elimination, which span the row space of
    `rows`, and pivots[i] is the pivot column of echelon[i].  Every
    intermediate entry is a minor of the input, so each division is exact.
    """
    a = [list(r) for r in rows]
    if not a:
        return 0, 1, 1, [], []
    nrows, ncols = len(a), len(a[0])
    r = 0
    sign = 1
    prev = 1
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        piv_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv_row is None:
            continue
        if piv_row != r:
            a[r], a[piv_row] = a[piv_row], a[r]
            sign = -sign
        piv = a[r][c]
        for i in range(r + 1, nrows):
            aic = a[i][c]
            rowi = a[i]
            rowr = a[r]
            for j in range(c + 1, ncols):
                rowi[j] = (piv * rowi[j] - aic * rowr[j]) // prev
            rowi[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return r, sign, prev, pivots, a[:r]


def rank(m: ExactMatrix) -> int:
    """Exact rank over the rationals via fraction-free elimination."""
    if m.rows == 0:
        raise ValueError("rank of an empty matrix is undefined here")
    return _bareiss(m.entries)[0]


def det(m: ExactMatrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    r, sign, last_pivot, _, _ = _bareiss(m.entries)
    return sign * last_pivot if r == m.rows else 0


def gram_det(m: ExactMatrix) -> int:
    """Exact det(M * M^T).  Requires rows <= cols."""
    if m.rows == 0:
        raise ValueError("empty matrix")
    if m.rows > m.cols:
        raise ValueError("gram_det requires rows <= cols")
    return det(m.gram())


def cauchy_binet_check(m: ExactMatrix, budget: int = 10**6):
    """Compare det(M M^T) against the sum of squared maximal minors.

    Returns (lhs, rhs, equal).  `equal` must be True for every integer matrix
    with rows <= cols; a False here means an arithmetic bug, not bad input.
    """
    if m.rows == 0:
        raise ValueError("empty matrix")
    if m.rows > m.cols:
        raise ValueError("cauchy_binet_check requires rows <= cols")
    n_minors = comb(m.cols, m.rows)
    if n_minors > budget:
        raise BudgetExceededError(f"{n_minors} minors exceed budget {budget}")
    lhs = gram_det(m)
    rhs = 0
    for cols in combinations(range(m.cols), m.rows):
        rhs += det(m.column_submatrix(cols)) ** 2
    return lhs, rhs, lhs == rhs


def count_nonzero_minors(m: ExactMatrix, budget: int = 10**6) -> int:
    """Exact number of maximal (rows x rows) submatrices with nonzero determinant."""
    if m.rows == 0:
        raise ValueError("empty matrix")
    if m.rows > m.cols:
        raise ValueError("count_nonzero_minors requires rows <= cols")
    n_minors = comb(m.cols, m.rows)
    if n_minors > budget:
        raise BudgetExceededError(f"{n_minors} minors exceed budget {budget}")
    return sum(1 for cols in combinations(range(m.cols), m.rows) if det(m.column_submatrix(cols)) != 0)
