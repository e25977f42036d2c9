"""Exact rational linear algebra, on two elimination paths.

Everything verdict-bearing in this package reduces to ranks, spans,
kernels and inverses of matrices over Q.

* :func:`matrix_rank` runs fraction-free (Bareiss) over integers after
  clearing denominators row by row.  It serves the dense matrices of
  evaluated Hessians and multiplication maps.
* :class:`RowSpace` does all Fraction elimination.  It tracks the span
  of sparse vectors, dicts keyed by totally-ordered keys (exponent
  tuples in practice); each pivot is the largest key of its stored row,
  so insertion order never changes the computed rank.
  :func:`sparse_rref` fully reduces its pivot rows in one
  back-substitution pass, and :func:`rref`, :func:`kernel_basis` and
  :func:`invert` run dense matrices through it with column j keyed -j.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Sequence


def _int_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for row in rows:
        fr = [c if isinstance(c, Fraction) else Fraction(c) for c in row]
        lcm = math.lcm(*(c.denominator for c in fr))
        out.append([c.numerator * (lcm // c.denominator) for c in fr])
    return out


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

    Column j is keyed -j, so :func:`sparse_rref` picks pivots left to
    right; the reduced form is unique, so it does not depend on row order.
    """
    ncols = len(rows[0]) if rows else 0
    reduced = sparse_rref({-j: c for j, c in enumerate(row) if c} for row in rows)
    pivots = sorted(-key for key in reduced)
    dense = []
    for p in pivots:
        row = [Fraction(0)] * ncols
        for key, v in reduced[-p].items():
            row[-key] = v
        dense.append(row)
    return dense, pivots


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
        aug.append(list(row) + [int(j == i) for j in range(n)])
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
    :func:`sparse_rref` does that once, after the last insert.
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
    keys eliminated everywhere), in ascending pivot order.  The rows go
    through a :class:`RowSpace`, whose pivot keys are the leading keys of
    the span and so do not depend on the order rows arrive in; one
    back-substitution pass then makes the form unique.
    """
    space = RowSpace()
    for vec in rows:
        space.insert(vec)
    reduced: dict[Hashable, dict] = {}
    for top in sorted(space.pivots):
        row = dict(space.pivots[top])
        # Every smaller pivot row is fully reduced, so one subtraction per
        # pivot key present removes it without reintroducing another.
        for k in [k for k in row if k in reduced]:
            sparse_axpy(row, -row[k], reduced[k])
        reduced[top] = row
    return reduced
