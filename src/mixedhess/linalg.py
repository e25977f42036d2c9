"""Exact rational linear algebra.

Everything verdict-bearing in this package reduces to ranks, kernels and
inverses of matrices over Q.  Ranks run fraction-free (Bareiss) over
integers after clearing denominators row by row; kernels and inverses
use reduced row echelon form over Fractions with sparse row operations:
each elimination step touches only the columns where the normalized
pivot row is nonzero, and only the rows with a nonzero entry in the
pivot column.

Sparse vectors are dicts keyed by arbitrary totally-ordered keys
(exponent tuples in practice).  :class:`RowSpace` is an incremental span
tracker for such vectors: pivot keys are always the graded-lex-largest
key of the stored row, so insertion order never changes the computed
rank.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Sequence

Row = "list[Fraction]"


def _int_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for row in rows:
        fr = [c if isinstance(c, Fraction) else Fraction(c) for c in row]
        lcm = 1
        for c in fr:
            d = c.denominator
            if d != 1:
                g = _gcd(lcm, d)
                lcm = lcm // g * d
        out.append([int(c * lcm) for c in fr])
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def matrix_rank(rows: Sequence[Sequence], *, stop_at: int | None = None) -> int:
    """Exact rank via fraction-free elimination on integer rows.

    ``stop_at`` allows an early exit once the rank reaches that value
    (useful when only "is it full rank" matters).
    """
    m = _int_rows(rows)
    nrows = len(m)
    if nrows == 0:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, nrows):
            row_r = m[r]
            v = row_r[col]
            row_p = m[rank]
            for c in range(col + 1, ncols):
                row_r[c] = (p * row_r[c] - v * row_p[c]) // prev
            row_r[col] = 0
        prev = p
        rank += 1
        if rank == nrows or (stop_at is not None and rank >= stop_at):
            break
    return rank


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fractions; returns (rref, pivot cols).

    Pivot columns are scanned left to right, so they are canonical for
    the matrix regardless of row order.
    """
    m = [[c if isinstance(c, Fraction) else Fraction(c) for c in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        # Columns left of col are zero in every row from rank down.
        nz = [c for c in range(col, ncols) if prow[c]]
        p = prow[col]
        for c in nz:
            prow[c] /= p
        for r in range(nrows):
            row = m[r]
            factor = row[col]
            if r != rank and factor:
                for c in nz:
                    row[c] -= factor * prow[c]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m[:rank], pivots


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column (ascending)."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for r, p in enumerate(pivots):
            if red[r][j]:
                vec[p] = -red[r][j]
        basis.append(vec)
    return basis


def invert(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Inverse of a square rational matrix; raises ValueError if singular."""
    n = len(rows)
    aug = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("inverse of a non-square matrix")
        fr = [c if isinstance(c, Fraction) else Fraction(c) for c in row]
        fr += [Fraction(1) if j == i else Fraction(0) for j in range(n)]
        aug.append(fr)
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


# -- sparse vectors -------------------------------------------------------


def sparse_axpy(target: dict, c: Fraction, vec: dict) -> None:
    """target += c * vec, dropping entries that cancel to zero."""
    for k, v in vec.items():
        s = target.get(k)
        if s is None:
            target[k] = c * v
        else:
            s = s + c * v
            if s:
                target[k] = s
            else:
                del target[k]


class RowSpace:
    """Incremental span of sparse vectors keyed by comparable keys.

    Pivot rows are normalized (pivot coefficient 1) and stored keyed by
    their largest key, so reduction strictly decreases the top key and
    always terminates.  Rows are not back-reduced against later pivots;
    only the rank and membership tests are exposed.
    """

    def __init__(self):
        self.pivots: dict[Hashable, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        row = dict(vec)
        while row:
            top = max(row)
            piv = self.pivots.get(top)
            if piv is None:
                return row
            sparse_axpy(row, -row[top], piv)
        return row

    def insert(self, vec: dict) -> bool:
        """Add a vector to the span; True if the rank grew."""
        row = self.reduce(vec)
        if not row:
            return False
        top = max(row)
        inv = Fraction(1) / row[top]
        self.pivots[top] = {k: inv * v for k, v in row.items()}
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


def sparse_rref(rows: Iterable[dict]) -> dict[Hashable, dict]:
    """Fully reduced echelon form of sparse rows.

    Returns a map pivot-key -> row (pivot coefficient 1, other pivot
    keys eliminated everywhere).  The pivot-key set is canonical for the
    row space: it does not depend on the order rows arrive in, because a
    key is a pivot iff adding columns in graded-lex-descending order
    grows the rank there.
    """
    pivots: dict[Hashable, dict] = {}
    for vec in rows:
        row = dict(vec)
        # Pivot rows are fully reduced, so one subtraction per pivot key
        # present removes it without reintroducing any other pivot key.
        hits = [k for k in row if k in pivots]
        while hits:
            for k in hits:
                c = row.get(k)
                if c:
                    sparse_axpy(row, -c, pivots[k])
            hits = [k for k in row if k in pivots]
        if not row:
            continue
        top = max(row)
        inv = Fraction(1) / row[top]
        row = {k: inv * v for k, v in row.items()}
        for other in pivots.values():
            c = other.get(top)
            if c:
                sparse_axpy(other, -c, row)
        pivots[top] = row
    return pivots
