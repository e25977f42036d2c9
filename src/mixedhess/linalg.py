"""Exact rational linear algebra, on two elimination paths.

Everything verdict-bearing in this package reduces to ranks, spans,
kernels and inverses of matrices over Q.

* :func:`matrix_rank` is a sparse fraction-free elimination over the
  integers, for evaluated Hessians and multiplication maps, which are
  mostly zeros.  Each row is scaled once by the lcm of its denominators
  and kept as {col: int}.  Pivots are chosen Markowitz-style (the
  sparsest row, at its least shared column); a row is cleared by a
  nonzero multiple of itself minus a multiple of the pivot row, then
  divided by its content.  Every step multiplies a row by a nonzero
  scalar or adds a multiple of another row to it, so no step changes
  the rank, and no Fraction is built.
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


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Exact rank by sparse fraction-free elimination on integer rows.

    Entries are ints or Fractions.  Each row is first scaled by the lcm
    of its denominators and kept as {col: int} without its zeros.  Each
    step pivots on the remaining row with the fewest nonzeros, at its
    column held by the fewest rows (Markowitz), and clears that column
    from every other row as ``(p/g)*row - (v/g)*pivot`` with
    ``g = gcd(p, v)``.  No remaining row then holds the pivot column, so
    the pivot row adds exactly one to their rank and leaves.  An update
    replaces a row by a nonzero multiple of itself minus a multiple of
    the pivot row, and dividing a row by its content scales it by a
    nonzero integer; neither changes the rank.
    """
    active: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        lcm = math.lcm(*(c.denominator for c in row))
        vec = {j: c.numerator * (lcm // c.denominator) for j, c in enumerate(row) if c}
        if vec:
            active[i] = vec
            for c in vec:
                holders.setdefault(c, set()).add(i)
    rank = 0
    while active:
        i = min(active, key=lambda r: len(active[r]))
        piv = active.pop(i)
        col = min(piv, key=lambda c: len(holders[c]))
        for c in piv:
            holders[c].discard(i)
        p = piv[col]
        for r in holders.pop(col):
            row = active[r]
            g = math.gcd(p, row[col])
            a, b = p // g, row[col] // g
            new = {c: a * v for c, v in row.items()}
            del new[col]
            for c, v in piv.items():
                if c == col:
                    continue
                s = new.get(c, 0) - b * v
                if s:
                    if c not in new:
                        holders[c].add(r)
                    new[c] = s
                else:
                    del new[c]
                    holders[c].discard(r)
            if new:
                content = math.gcd(*new.values())
                if content != 1:
                    new = {c: v // content for c, v in new.items()}
                active[r] = new
            else:
                del active[r]
        rank += 1
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
