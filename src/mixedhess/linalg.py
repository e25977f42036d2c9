"""Exact rational linear algebra on one elimination loop.

Everything verdict-bearing in this package reduces to ranks, spans and
echelon forms of matrices over Q, and all of them run through
:class:`RowSpace`, a sparse fraction-free elimination over the integers.
The one inverse, of the socle pairing, is read off
:func:`_integer_rref` by `apolarity`, as integer rows over one common
denominator.

* Vectors are dicts keyed by totally-ordered keys (exponent tuples in
  practice).  A vector entering the loop is scaled once by the lcm of
  its denominators and divided by its content, so it is kept as
  {key: int}; scaling by a nonzero rational keeps the line it spans.
* :class:`RowSpace` stores primitive integer pivot rows under their
  largest key.  A vector is reduced while its top key is a pivot key by
  ``(p/g)*row - (v/g)*pivot`` with ``g = gcd(p, v)``, then divided by
  its content.  Each step multiplies the row by a nonzero integer and
  subtracts a multiple of a stored row, so the row lies in the span
  before the step exactly when it does after it; the top key strictly
  decreases, so reduction terminates.
* :func:`matrix_rank` runs rows through that loop, each given either
  as a ``{column: value}`` mapping of its nonzero cells or as a dense
  sequence, on the matrix's short side: rank is invariant under
  transposition, and every row beyond the rank is reduced to zero, so
  a matrix with more nonzero rows than nonzero columns runs its
  columns instead.  :func:`_integer_rref` back-substitutes its pivot
  rows with the same update.  A row whose entries are all ints enters
  the loop without a denominator pass; evaluated Hessians and
  multiplication maps arrive that way.  The only Fractions this module
  makes are in the output of :func:`sparse_rref`, which divides each
  row of :func:`_integer_rref` by its pivot entry; :func:`rref` runs
  dense matrices through it with column j keyed -j.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Sequence


def _primitive(vec: dict) -> dict:
    """The integer vector on the line of ``vec`` with content 1.  An
    all-int vector skips the pass that clears denominators."""
    if all(type(c) is int for c in vec.values()):
        row = {k: c for k, c in vec.items() if c}
    else:
        lcm = math.lcm(*(c.denominator for c in vec.values()))
        row = {k: c.numerator * (lcm // c.denominator) for k, c in vec.items() if c}
    content = math.gcd(*row.values())
    if content > 1:
        row = {k: c // content for k, c in row.items()}
    return row


def _eliminate(row: dict, key: Hashable, piv: dict) -> dict:
    """``(p/g)*row - (v/g)*piv`` divided by its content, where p and v
    are the entries of piv and row at key and ``g = gcd(p, v)``; the
    result has no entry at key."""
    p, v = piv[key], row[key]
    g = math.gcd(p, v)
    a, b = p // g, v // g
    new = {k: a * c for k, c in row.items()} if a != 1 else dict(row)
    for k, c in piv.items():
        s = new.get(k, 0) - b * c
        if s:
            new[k] = s
        else:
            del new[k]
    content = math.gcd(*new.values())
    if content > 1:
        new = {k: c // content for k, c in new.items()}
    return new


class RowSpace:
    """Incremental span of sparse vectors keyed by comparable keys.

    Pivot rows are primitive integer rows stored under their largest
    key, so insertion order never changes the pivot keys.  Rows are not
    back-reduced against later pivots; :func:`sparse_rref` does that
    once, after the last insert.
    """

    def __init__(self):
        self.pivots: dict[Hashable, dict[Hashable, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """A nonzero multiple of the remainder of vec, or {} if vec lies
        in the span."""
        row = _primitive(vec)
        pivots = self.pivots
        while row:
            top = max(row)
            piv = pivots.get(top)
            if piv is None:
                break
            row = _eliminate(row, top, piv)
        return row

    def insert(self, vec: dict) -> bool:
        """Add a vector to the span; True if the rank grew."""
        row = self.reduce(vec)
        if not row:
            return False
        self.pivots[max(row)] = row
        return True


def matrix_rank(rows: Iterable[dict | Sequence]) -> int:
    """Exact rank of a matrix of ints or Fractions.

    A row is either a ``{column: value}`` mapping or a dense sequence,
    whose column j is keyed j; zero values are dropped either way, so a
    sparse producer hands over its nonzero cells and nothing else.
    When the nonzero rows outnumber the nonzero columns, the transpose
    is ranked instead, so fewer rows go through the loop only to
    reduce to zero.  The sparsest column gets the largest key, ties
    going to the column that appears first, so rows pivot on their
    sparsest columns, and the sparsest rows enter first; both keep the
    pivot rows short.
    The rows go through :meth:`RowSpace.reduce` and each nonzero
    remainder is stored as a pivot directly, so that
    :meth:`RowSpace.insert` counts only span inserts.
    """
    cells = (
        row.items() if isinstance(row, dict) else enumerate(row) for row in rows
    )
    vecs = [vec for vec in ({j: c for j, c in row if c} for row in cells) if vec]
    counts: dict = {}
    for vec in vecs:
        for j in vec:
            counts[j] = counts.get(j, 0) + 1
    if len(vecs) > len(counts):
        # Rank the transpose: column i of it is row i, with its count.
        cols: dict = {j: {} for j in counts}
        for i, vec in enumerate(vecs):
            for j, c in vec.items():
                cols[j][i] = c
        counts = {i: len(vec) for i, vec in enumerate(vecs)}
        vecs = list(cols.values())
    order = sorted(counts, key=counts.__getitem__, reverse=True)
    key = {j: k for k, j in enumerate(order)}
    space = RowSpace()
    for vec in sorted(vecs, key=len):
        rem = space.reduce({key[j]: c for j, c in vec.items()})
        if rem:
            space.pivots[max(rem)] = rem
    return space.rank


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


def sparse_rref(rows: Iterable[dict]) -> dict[Hashable, dict]:
    """Fully reduced echelon form of sparse rows.

    Returns a map pivot-key -> row (pivot coefficient 1, other pivot
    keys eliminated everywhere), in ascending pivot order: the rows of
    :func:`_integer_rref`, each divided by its pivot entry, which makes
    the form unique.
    """
    return {
        top: {k: Fraction(c, row[top]) for k, c in row.items()}
        for top, row in _integer_rref(rows).items()
    }


def _integer_rref(rows: Iterable[dict]) -> dict[Hashable, dict[Hashable, int]]:
    """The fully reduced echelon form before its division: a map
    pivot-key -> primitive integer row, in ascending pivot order, whose
    other pivot keys are eliminated everywhere.

    The rows go through a :class:`RowSpace`, whose pivot keys are the
    leading keys of the span and so do not depend on the order rows
    arrive in; one integer back-substitution pass follows.  As in
    :func:`matrix_rank`, each nonzero remainder is stored as a pivot
    directly.
    """
    space = RowSpace()
    for vec in rows:
        rem = space.reduce(vec)
        if rem:
            space.pivots[max(rem)] = rem
    reduced: dict[Hashable, dict] = {}
    for top in sorted(space.pivots):
        row = space.pivots[top]
        # Every smaller pivot row is fully reduced, so one elimination per
        # pivot key present removes it without reintroducing another.
        for k in [k for k in row if k in reduced]:
            row = _eliminate(row, k, reduced[k])
        reduced[top] = row
    return reduced
