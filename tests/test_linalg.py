"""Exact rational linear algebra: ranks, echelon forms, inverses, spans."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mixedhess import (
    MixedHessian,
    Polynomial,
    VarSet,
    bigraded_decomposition,
    bigraded_hessian,
    build_algebra,
    dual_mixed_hessian,
    evaluate_matrix,
    mixed_hessian,
    parse_polynomial,
    rank_at,
)
from mixedhess import hessians
from mixedhess.linalg import (
    RowSpace,
    matrix_rank,
    rref,
    sparse_rref,
)

from conftest import dense_cells, dense_inverse, dense_random_form, dense_rref


def _random_matrix(rng, nrows, ncols, bound=9):
    return [
        [Fraction(rng.randint(-bound, bound)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_rank_identity_and_zero():
    eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert matrix_rank(eye) == 4
    assert matrix_rank([[Fraction(0)] * 3 for _ in range(2)]) == 0
    assert matrix_rank([]) == 0
    assert matrix_rank([[], []]) == 0


def test_rank_dependent_rows():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert matrix_rank(rows) == 2


def test_rank_handles_fractions():
    singular = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(1)],
    ]
    assert matrix_rank(singular) == 1
    regular = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1, 5), Fraction(1)],
    ]
    assert matrix_rank(regular) == 2


def _bareiss_rank(rows):
    """The dense fraction-free (Bareiss) rank matrix_rank replaced; kept
    as an oracle.  Denominators are cleared row by row first."""
    m = []
    for row in rows:
        fr = [Fraction(c) for c in row]
        lcm = math.lcm(*(c.denominator for c in fr))
        m.append([c.numerator * (lcm // c.denominator) for c in fr])
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
        if rank == nrows:
            break
    return rank


@st.composite
def _rank_matrices(draw):
    """Integer or mixed int/Fraction matrices of any shape, with entries
    up to 10**6 in size at densities from 5% to 100%, some zero rows and
    columns, and some rows that are sums of others."""
    nrows, ncols = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    density = draw(st.sampled_from([0.05, 0.15, 0.4, 0.7, 1.0]))
    fractions = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        if rng.random() >= density:
            return 0
        v = rng.randint(-10**6, 10**6)
        if fractions and rng.random() < 0.5:
            return Fraction(v, rng.randint(1, 10**3))
        return v

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        rows[i] = [0] * ncols
    for _ in range(draw(st.integers(0, 4))):
        picked = rng.sample(rows, rng.randint(1, len(rows)))
        rows.append([sum(col) for col in zip(*picked)])
    rng.shuffle(rows)
    return rows


@settings(max_examples=300, deadline=None)
@given(_rank_matrices())
def test_rank_matches_bareiss_oracle(rows):
    assert matrix_rank(rows) == _bareiss_rank(rows)
    transposed = [list(col) for col in zip(*rows)]
    assert matrix_rank(transposed) == _bareiss_rank(rows)


@st.composite
def _shaped_matrices(draw):
    """Tall, wide or square matrices of any rank: the product of random
    nrows x r and r x ncols factors, of ints or of ints and Fractions,
    with some rows and columns then set to zero."""
    short, extra = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    nrows, ncols = draw(st.sampled_from([
        (short + extra, short), (short, short + extra), (short, short)
    ]))
    r = draw(st.integers(0, short))
    fractions = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        v = rng.randint(-9, 9)
        return Fraction(v, rng.randint(2, 9)) if fractions and rng.random() < 0.5 else v

    left = [[entry() for _ in range(r)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(r)]
    rows = [
        [sum((left[i][t] * right[t][j] for t in range(r)), 0) for j in range(ncols)]
        for i in range(nrows)
    ]
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        rows[i] = [0] * ncols
    return rows


@settings(max_examples=300, deadline=None)
@given(_shaped_matrices(), st.booleans())
@example([[1, 0], [0, 2], [3, 0], [0, 0]], False)
@example([[Fraction(1, 2), 0, 1], [0, 0, 0]], True)
def test_rank_is_the_rank_of_the_transpose(rows, as_mapping):
    # matrix_rank eliminates on the short side, so a tall matrix and its
    # wide transpose take different routes to one dense Fraction rank.
    def given_as(matrix):
        if not as_mapping:
            return matrix
        # Explicit zeros stay in the odd columns.
        return [{j: c for j, c in enumerate(row) if c or j % 2} for row in matrix]

    transposed = [list(col) for col in zip(*rows)]
    rank = len(dense_rref(rows)[1])
    assert matrix_rank(given_as(rows)) == matrix_rank(given_as(transposed)) == rank


@st.composite
def _keyed_rows(draw):
    """A matrix from ``_rank_matrices`` and the same matrix as
    ``{column: value}`` rows.  Columns are keyed by negative ints, by
    tuples or by both, in shuffled order; some rows keep explicit zero
    values, and zero rows may come as empty mappings."""
    rows = draw(_rank_matrices())
    ncols = len(rows[0])
    rng = random.Random(draw(st.integers(0, 2**32)))
    style = draw(st.sampled_from(["negative", "tuple", "mixed"]))
    keys = [
        -1 - j if style == "negative" or (style == "mixed" and j % 2)
        else (j % 3, -j)
        for j in range(ncols)
    ]
    rng.shuffle(keys)
    mapped = []
    for row in rows:
        keep_zeros = rng.random() < 0.3
        cells = [(keys[j], c) for j, c in enumerate(row) if c or keep_zeros]
        rng.shuffle(cells)
        mapped.append(dict(cells))
    return rows, mapped


@settings(max_examples=300, deadline=None)
@given(_keyed_rows())
def test_rank_of_mapping_rows_matches_dense(case):
    rows, mapped = case
    assert matrix_rank(mapped) == matrix_rank(rows) == _bareiss_rank(rows)


def test_rank_of_mapping_rows_edge_cases():
    assert matrix_rank([{}, {}]) == 0
    assert matrix_rank([{-2: 0, (1, 0): 0}]) == 0
    rows = [{(0, 1): 0, -3: 2}, {-3: Fraction(4, 3)}, {}, {(0, 1): Fraction(1, 2), -3: 1}]
    assert matrix_rank(rows) == 2
    # A dense row and a mapping row in one matrix share column keys.
    assert matrix_rank([[0, 5], {1: Fraction(10)}]) == 1


_ORACLE_POINTS = pytest.mark.parametrize(
    "point",
    [(3, -1, 0, 2), (Fraction(1, 2), Fraction(-3, 7), 0, Fraction(5, 3))],
    ids=["int-point", "fraction-point"],
)


@_ORACLE_POINTS
def test_rank_at_matches_oracle_on_dual_hessians(point):
    rng = random.Random(6)
    alg = build_algebra(dense_random_form(rng, 4, 4))
    d = alg.socle_degree
    fractional = False
    for l in range(d + 1):
        for k in range(l + 1):
            h = dual_mixed_hessian(alg, l, k)
            fractional |= any(
                c.denominator != 1
                for row in h.cells for p in row.values() for c in p.terms.values()
            )
            assert rank_at(h, point) == _bareiss_rank(evaluate_matrix(h, point))
    assert fractional


def _bihomogeneous_form(rng):
    """Every monomial of bidegree (2, 2) in x1, x2 | u1, u2, with nonzero
    single-digit coefficients."""
    vs = VarSet(("x1", "x2", "u1", "u2"), (0, 0, 1, 1))
    terms = {
        (a, 2 - a, b, 2 - b): rng.choice([1, -1]) * rng.randint(1, 9)
        for a in range(3)
        for b in range(3)
    }
    return Polynomial(vs, terms)


def _shared_entry_matrix():
    """A hand-built matrix in which one Fraction-coefficient polynomial
    object fills cells of all three rows, and the cells not stored are
    zero.  The third row is the sum of the first two, so the rank is 2,
    and only a scaling by whole rows keeps that: p has denominators 2
    and 3, q has 5."""
    vs = VarSet(("x1", "x2", "x3", "x4"))
    p = Polynomial(vs, {(2, 0, 0, 0): Fraction(1, 2), (0, 1, 1, 0): Fraction(-2, 3)})
    q = Polynomial(vs, {(0, 0, 0, 2): Fraction(1, 5), (1, 1, 0, 0): 1})
    cells = ({0: p, 1: q, 3: p}, {1: p, 2: p, 3: q}, {0: p, 1: p + q, 2: p, 3: p + q})
    m = (1, 0, 0, 0)
    return MixedHessian(vs, cells, (m,) * 3, (m,) * 4, "hessian", (1, 1))


@_ORACLE_POINTS
def test_rank_at_matches_oracle_on_plain_bigraded_and_shared_entries(point):
    rng = random.Random(6)
    alg = build_algebra(dense_random_form(rng, 4, 4))
    d = alg.socle_degree
    matrices = [
        mixed_hessian(alg, k, l)
        for k in range(d + 1)
        for l in range(d + 1 - k)
    ]
    bialg = build_algebra(_bihomogeneous_form(rng))
    pieces = bigraded_decomposition(bialg)
    matrices += [bigraded_hessian(bialg, r, c) for r in pieces for c in pieces]
    matrices.append(_shared_entry_matrix())
    for h in matrices:
        assert rank_at(h, point) == _bareiss_rank(evaluate_matrix(h, point))
    shared = matrices[-1]
    assert shared.cells[0][0] is shared.cells[1][2] is shared.cells[2][0]
    assert rank_at(shared, point) == 2


def test_rank_at_scales_exactly():
    vs = VarSet(("x", "y"))
    x, y, one = (parse_polynomial(t, vs) for t in ("x", "y", "1"))
    m = (1, 0)

    def hessian(cells):
        return MixedHessian(vs, cells, (m, m), (m, m), "hessian", (1, 1))

    # [[x, 1], [1, y]] is singular at (1/2, 2); scaling the point alone
    # to (1, 4) would make it regular.
    h = hessian(({0: x, 1: one}, {0: one, 1: y}))
    assert rank_at(h, (Fraction(1, 2), 2)) == 1
    assert rank_at(h, (Fraction(1, 2), 3)) == 2
    # The second row is twice the first; dropping the coefficient
    # denominators would make the rows independent.
    half, third = Fraction(1, 2), Fraction(1, 3)
    h = hessian(
        ({0: x.scale(half), 1: y.scale(third)}, {0: x, 1: y.scale(2 * third)})
    )
    assert rank_at(h, (5, 7)) == 1


def _vanishing_cells_matrix():
    """[[x - y, 1, 0], [z, x - y, 1], [x - y, x - y, 0]]: the cells
    x - y are structurally nonzero, so they are in ``_int_rows``, but
    they evaluate to 0 wherever x = y, and there the third row is 0."""
    vs = VarSet(("x", "y", "z"))
    x, y, z, one = (parse_polynomial(t, vs) for t in ("x", "y", "z", "1"))
    m = (1, 0, 0)
    cells = ({0: x - y, 1: one}, {0: z, 1: x - y, 2: one}, {0: x - y, 1: x - y})
    return MixedHessian(vs, cells, (m,) * 3, (m,) * 3, "hessian", (1, 1))


@pytest.mark.parametrize(
    "point, rank",
    [
        ((2, 2, 5), 2),
        ((Fraction(1, 3), Fraction(1, 3), Fraction(-4, 7)), 2),
        ((0, 0, 0), 2),
        ((3, 1, 5), 3),
    ],
    ids=["x=y", "x=y-fractions", "origin", "x!=y"],
)
def test_rank_at_with_cells_that_vanish_at_the_point(monkeypatch, point, rank):
    h = _vanishing_cells_matrix()
    assert all(p.terms for row in dense_cells(h) for p in row[:2])
    seen = []

    def recording(rows):
        seen.extend(rows)
        return matrix_rank(rows)

    monkeypatch.setattr(hessians, "matrix_rank", recording)
    assert rank_at(h, point) == rank
    assert rank == _bareiss_rank(evaluate_matrix(h, point))
    # rank_at hands over only the cells that are nonzero at the point.
    dense = evaluate_matrix(h, point)
    assert [sorted(row) for row in seen] == [
        [j for j, c in enumerate(row) if c] for row in dense
    ]
    assert all(isinstance(c, int) and c for row in seen for c in row.values())


def test_rref_pivots():
    rows = [
        [Fraction(0), Fraction(2), Fraction(4)],
        [Fraction(1), Fraction(1), Fraction(1)],
    ]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert reduced[0][0] == 1 and reduced[0][1] == 0
    assert reduced[1][1] == 1


def _sparse_inverse(rows):
    """Inverse of a square matrix read off one `sparse_rref` of [A | I],
    the route `GradedAlgebra.pairing_inverse` takes: column j of A is
    keyed n + j above column i of I keyed i, so A takes every pivot iff
    it is invertible, and the row with pivot n + t ends in row t of the
    inverse.  None when A is singular."""
    n = len(rows)
    reduced = sparse_rref(
        {n + j: v for j, v in enumerate(row) if v} | {i: 1}
        for i, row in enumerate(rows)
    )
    if any(top < n for top in reduced):
        return None
    return [
        [reduced[n + t].get(i, Fraction(0)) for i in range(n)] for t in range(n)
    ]


def _product(a, b):
    return [
        [sum((x * b[t][j] for t, x in enumerate(row)), Fraction(0)) for j in range(len(b[0]))]
        for row in a
    ]


def test_invert_roundtrip():
    rng = random.Random(5)
    while True:
        rows = _random_matrix(rng, 4, 4)
        if matrix_rank(rows) == len(rows):
            break
    inv = _sparse_inverse(rows)
    prod = _product(rows, inv)
    for i in range(4):
        for j in range(4):
            assert prod[i][j] == (1 if i == j else 0)


# Mostly zeros, so pivot rows are sparse and many rows skip an update.
_entries = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


@st.composite
def _sparse_matrices(draw, square=False):
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 7))
    rows = []
    for _ in range(nrows):
        if draw(st.integers(0, 4)) == 0:
            rows.append([Fraction(0)] * ncols)
        else:
            rows.append([draw(_entries) for _ in range(ncols)])
    if square and draw(st.booleans()):
        for i in range(nrows):
            rows[i][i] += 1
    return rows


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices())
def test_sparse_rref_matches_dense_oracle(rows):
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == dense_rref(rows)


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices(square=True))
def test_sparse_invert_is_an_inverse(rows):
    n = len(rows)
    inv = _sparse_inverse(rows)
    if matrix_rank(rows) < n:
        assert inv is None
        return
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert _product(inv, rows) == eye
    assert inv == dense_inverse(rows)


def test_sparse_rref_matches_dense_rank():
    rng = random.Random(9)
    for _ in range(10):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        dense = _random_matrix(rng, nrows, ncols, bound=3)
        sparse = [
            {j: v for j, v in enumerate(row) if v}
            for row in dense
        ]
        basis = sparse_rref(sparse)
        assert len(basis) == matrix_rank(dense)
        for pivot, row in basis.items():
            assert row[pivot] == 1


_sparse_rows = st.lists(
    st.dictionaries(
        st.integers(0, 6),
        st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
        max_size=5,
    ),
    max_size=7,
)


@settings(max_examples=200, deadline=None)
@given(_sparse_rows, st.randoms(use_true_random=False))
def test_sparse_rref_ignores_row_order(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    reduced = sparse_rref(rows)
    assert sparse_rref(shuffled) == reduced
    for pivot, row in reduced.items():
        assert row[pivot] == 1
        assert all(row.get(other, 0) == 0 for other in reduced if other != pivot)


def _sparse_axpy(target, c, vec):
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


class _FractionRowSpace:
    """The Fraction row space RowSpace replaced; kept as an oracle.
    Pivot rows are normalized (pivot coefficient 1) and stored keyed by
    their largest key."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, vec):
        row = dict(vec)
        while row:
            top = max(row)
            piv = self.pivots.get(top)
            if piv is None:
                return row
            _sparse_axpy(row, -row[top], piv)
        return row

    def insert(self, vec):
        row = self.reduce(vec)
        if not row:
            return False
        top = max(row)
        inv = Fraction(1) / row[top]
        self.pivots[top] = {k: inv * v for k, v in row.items()}
        return True

    def contains(self, vec):
        return not self.reduce(vec)


def _fraction_sparse_rref(rows):
    """The Fraction back-substitution sparse_rref replaced; an oracle."""
    space = _FractionRowSpace()
    for vec in rows:
        space.insert(vec)
    reduced = {}
    for top in sorted(space.pivots):
        row = dict(space.pivots[top])
        for k in [k for k in row if k in reduced]:
            _sparse_axpy(row, -row[k], reduced[k])
        reduced[top] = row
    return reduced


@st.composite
def _exponent_rows(draw):
    """Sparse rows keyed by exponent tuples, as in the quadric check,
    with int entries or Fractions of numerators up to 10**6 and
    denominators up to 10**3; some rows are zero, duplicated (possibly
    rescaled) or sums of other rows."""
    nvars = draw(st.integers(1, 4))
    keys = draw(
        st.lists(
            st.tuples(*[st.integers(0, 3)] * nvars), min_size=1, max_size=10,
            unique=True,
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    fractions = draw(st.booleans())

    def entry():
        v = rng.choice([rng.randint(-3, 3), rng.randint(-10**6, 10**6)]) or 1
        if fractions and rng.random() < 0.5:
            return Fraction(v, rng.randint(1, 10**3))
        return v

    rows = [
        {k: entry() for k in rng.sample(keys, rng.randint(1, len(keys)))}
        for _ in range(draw(st.integers(0, 8)))
    ]
    rows += [{} for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0, 6))):
        if not rows:
            break
        kind = rng.choice(["duplicate", "scaled", "sum"])
        if kind == "sum":
            total = {}
            for row in rng.sample(rows, rng.randint(1, len(rows))):
                _sparse_axpy(total, Fraction(rng.randint(-2, 2) or 1), row)
            rows.append(total)
        else:
            row = rng.choice(rows)
            c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            rows.append(dict(row) if kind == "duplicate" else {k: c * v for k, v in row.items()})
    rng.shuffle(rows)
    probes = [{k: entry()} for k in keys] + [
        {k: entry() for k in rng.sample(keys, rng.randint(1, len(keys)))}
        for _ in range(3)
    ]
    return rows, probes


@settings(max_examples=300, deadline=None)
@given(_exponent_rows())
def test_row_space_matches_fraction_oracle(case):
    rows, probes = case
    space, oracle = RowSpace(), _FractionRowSpace()
    for vec in rows:
        assert (not space.reduce(vec)) == oracle.contains(vec)
        assert space.insert(vec) == oracle.insert(vec)
        assert space.rank == len(oracle.pivots)
    for vec in rows + probes:
        assert (not space.reduce(vec)) == oracle.contains(vec)
    assert sparse_rref(rows) == _fraction_sparse_rref(rows)


def test_row_space_incremental():
    space = RowSpace()
    assert space.insert({0: Fraction(1), 1: Fraction(2)})
    assert not space.insert({0: Fraction(2), 1: Fraction(4)})
    assert space.insert({1: Fraction(1)})
    assert space.rank == 2
    assert not space.reduce({0: Fraction(3), 1: Fraction(-1)})
    assert space.reduce({2: Fraction(1)})


def test_eliminations_do_not_count_as_span_inserts(monkeypatch):
    # A trace counts RowSpace.insert calls as the quadric check's span
    # inserts, so matrix_rank and sparse_rref store their pivots directly.
    def refuse(self, vec):
        raise AssertionError("RowSpace.insert called")

    monkeypatch.setattr(RowSpace, "insert", refuse)
    rows = [[1, 2, 0], [2, 4, 0], [0, 1, 1]]
    assert matrix_rank(rows) == 2
    assert rref(rows)[1] == [0, 1]
