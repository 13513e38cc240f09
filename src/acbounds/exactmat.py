"""Exact integer matrix arithmetic: rank, determinants, Gram products, minors.

Everything here is exact.  Entries are arbitrary-precision ints, elimination
is fraction-free (Bareiss pivoting), and minor sums are enumerated, so ranks,
determinants, and counts are certified rather than approximate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the caller-supplied work budget."""


class NonconvergenceError(RuntimeError):
    """An iterative certification failed to reach the requested accuracy."""


def _text_body(text):
    """Split the shared matrix text format into (rows, cols, body lines)."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    r, c = (int(tok) for tok in lines[0].split())
    if len(lines) != 1 + r:
        raise ValueError("header does not match matrix body")
    return r, c, lines[1:]


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
        rows = tuple(tuple(int(x) for x in r) for r in rows)
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
        """Parse the shared matrix text format: "rows cols" then row lines."""
        r, c, body = _text_body(text)
        rows = [[int(tok) for tok in ln.split()] for ln in body]
        m = ExactMatrix.from_rows(rows, cols=c)
        if m.rows != r or m.cols != c:
            raise ValueError("header does not match matrix body")
        return m

    @staticmethod
    def from_json(obj) -> "ExactMatrix":
        if isinstance(obj, str):
            obj = json.loads(obj)
        m = ExactMatrix.from_rows(obj["entries"], cols=obj.get("cols"))
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


@dataclass(frozen=True)
class SignMatrix:
    """{+1,-1} matrix with bit-packed rows: bit j of row_masks[i] set <=> entry +1."""

    rows: int
    cols: int
    row_masks: tuple

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("sign matrix must be nonempty")
        if len(self.row_masks) != self.rows:
            raise ValueError("row count mismatch")
        full = (1 << self.cols) - 1
        for m in self.row_masks:
            if not 0 <= m <= full:
                raise ValueError("row mask out of range")

    @staticmethod
    def from_rows(rows) -> "SignMatrix":
        rows = [tuple(r) for r in rows]
        masks = []
        for r in rows:
            mask = 0
            for j, x in enumerate(r):
                if x == 1:
                    mask |= 1 << j
                elif x != -1:
                    raise ValueError("entries must be +1 or -1")
            masks.append(mask)
        return SignMatrix(len(rows), len(rows[0]), tuple(masks))

    @staticmethod
    def from_text(text) -> "SignMatrix":
        """Text format accepts '+'/'-' or '1'/'-1' tokens."""
        r, c, body = _text_body(text)
        rows = []
        for ln in body:
            row = []
            for tok in ln.split():
                if tok in ("+", "+1", "1"):
                    row.append(1)
                elif tok in ("-", "-1"):
                    row.append(-1)
                else:
                    raise ValueError(f"bad sign token {tok!r}")
            rows.append(row)
        m = SignMatrix.from_rows(rows)
        if m.rows != r or m.cols != c:
            raise ValueError("header does not match matrix body")
        return m

    def entry(self, i, j) -> int:
        return 1 if (self.row_masks[i] >> j) & 1 else -1

    def to_exact(self) -> ExactMatrix:
        return ExactMatrix.from_rows(
            [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]
        )

    def row_dot(self, i, j) -> int:
        # +-1 dot product: n minus twice the number of disagreeing positions.
        return self.cols - 2 * (self.row_masks[i] ^ self.row_masks[j]).bit_count()


def _bareiss(rows):
    """Fraction-free (Bareiss) elimination of a copy of `rows`.

    Returns (rank, sign, last_pivot): sign is (-1)^(row swaps) and last_pivot
    the last nonzero pivot, so a square matrix of full rank has determinant
    sign * last_pivot.  Every intermediate entry is a minor of the input, so
    each division is exact.
    """
    a = [list(r) for r in rows]
    if not a:
        return 0, 1, 1
    nrows, ncols = len(a), len(a[0])
    r = 0
    sign = 1
    prev = 1
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
        r += 1
    return r, sign, prev


def rank(m: ExactMatrix) -> int:
    """Exact rank over the rationals via fraction-free elimination."""
    if m.rows == 0:
        raise ValueError("rank of an empty matrix is undefined here")
    return _bareiss(m.entries)[0]


def det(m: ExactMatrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    r, sign, last_pivot = _bareiss(m.entries)
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


def rref_fraction(rows):
    """Reduced row echelon form over Q.

    Returns (basis, pivot_cols) where basis rows are Fraction tuples spanning
    the row space, with basis[i][pivot_cols[j]] == (1 if i == j else 0).
    """
    a = [[Fraction(x) for x in r] for r in rows]
    if not a:
        return [], []
    nrows, ncols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv_row is None:
            continue
        a[r], a[piv_row] = a[piv_row], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return [tuple(a[i]) for i in range(r)], pivots
