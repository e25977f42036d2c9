"""Higher Hessian matrices of a graded Artinian Gorenstein algebra.

For quotient bases B_k and B_l of the algebra built from a dual generator
f, the mixed Hessian of order (k, l) is the matrix whose (i, j) entry is
the polynomial obtained by letting the product of the i-th degree-k and
j-th degree-l basis monomials act on f as a differential operator.  The
order (1, 1) case is the classical Hessian of second partials.

Two variants matter alongside the plain matrix:

* the *dual* mixed Hessian, whose rows are indexed by the dual basis of
  B_l under the socle pairing rather than by monomials.  Its evaluation
  at a suitable point recovers, up to a factorial, the matrix of
  multiplication by a power of a linear form (see `lefschetz`);
* *bigraded* blocks, which restrict rows and columns to pieces of fixed
  bidegree when the variables split into two blocks.

The matrices are sparse: an operator X^g kills f unless g divides a
term of f, so most cells are zero, and more so as they grow.  So a
matrix stores only its nonzero cells, one {column: entry} dict per
row, and the work of building and reading one follows those cells,
not its rows times its columns.  The cells are built from the terms of
f, in one pass over the (term, divisor) pairs that `apolarity` also
walks for the catalecticant.  Point evaluation (`rank_at`) goes
through an integer index of the cells built once per matrix, and
hands the rank loop only the cells that are nonzero at the point.  The
dual matrix adds up the cells of the plain one.

Every matrix whose cells are derivatives of a polynomial f is built by
one constructor, `_hessian_of`, which records f on the matrix as its
`generator`: the mixed and dual Hessians, bigraded blocks, and the
Perazzo Hessian and Jacobian of `families`.  Matrices without a
generator are built by hand (tests, and the graph-side oracle
`complexes.incidence_gradient_matrix`).

Rank questions about these matrices are answered by `generic_rank`,
which is exact whenever it can be and otherwise reports a sampled rank
together with a Schwartz-Zippel failure bound.  Its ladder, in order:
empty or constant matrices; a sampled rank that reaches min(shape); a
sampled rank that meets the torus-slice bound below (every matrix with
a generator); a symbolic determinant, for square matrices up to a size
cap; the probabilistic label.

The torus-slice bound.  Let G be the torus of the t in (C*)^n with
t^e the same value lambda(t) for every term e of f.  A cell of a matrix
built from f is X^(a+b) f for row and column monomials a and b, and
X^g f(t.x) = lambda(t) t^(-g) X^g f(x) for t in G, so
H(t.x) = lambda(t) D_r(t) H(x) D_c(t) with invertible diagonal D_r and
D_c: the rank is constant on G-orbits.  The dual Hessian is P H with P
constant and invertible, so the same holds for it, and its rank at each
point and its rank(C) below are those of H.  Let m be the rank of the
term differences e - e_0 and J a set of m variables on whose columns
those differences still have rank m.  Every x in (C*)^n is
G-equivalent to a point with x_k = 1 for k outside J: taking
t_k = 1/x_k there, the conditions t^(e - e_0) = 1 ask the columns J to
solve a linear system in log t whose right-hand side lies in the column
space of the differences, which the columns J span.  So the generic
rank of H is the generic rank of its slice, H with x_k = 1 outside J, a
matrix over Q[x_J].  Write the slice as a constant matrix C: one row
per line of the smaller side of H, one column per (index on the other
side, slice monomial), holding the coefficient of that monomial.  A
constant vector v with v C = 0 has v H = 0 on the slice, and constant
vectors independent over Q stay independent over Q(x_J); so the
generic rank is at most rank(C).  A sampled rank that meets rank(C) is
therefore the generic rank.  J is taken greedily with the variables in
fewest terms first (`_torus_slice`), which closes every deficient cell
the repository ships; another valid J gives another valid, possibly
looser, bound.  The bound is computed only after a sampled point falls
short of min(shape), so full-rank cells never pay for it.

Each matrix and each answer about it is computed once per algebra.
`mixed_hessian` caches the order-(k, l) matrix on the algebra, so the
Hessian ranks of a report, its WLP and SLP checks and the dual Hessians
all read one object.  That object memoizes its rank at each point, its
`generic_rank` certificate per `SamplingConfig`, whether its symbolic
determinant vanishes, and its torus-slice bound.  Each is a pure
function of the matrix and its key (the sampled points come from an RNG
seeded by the config and the matrix's kind, orders and shape), so a
memoized answer is the one a fresh computation would give.  The caches
live on per-report objects: nothing is shared between algebras.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Sequence

from .apolarity import (
    GradedAlgebra,
    InvariantViolation,
    _apolar_terms,
    _splits,
    bigraded_decomposition,
)
from .config import DEFAULT_CONFIG, SamplingConfig
from .linalg import RowSpace, matrix_rank
from .polyring import Polynomial, VarSet, _int_scaled


# A nonzero entry of a row scaled to integer coefficients: its terms
# as (exponent vector, int coefficient) pairs.
_IntEntry = tuple[tuple[tuple[int, ...], int], ...]


class SymbolicCapExceeded(RuntimeError):
    """A symbolic determinant was requested beyond the configured cap."""


class RankCertificate(NamedTuple):
    """Result of a rank computation on a polynomial matrix.

    mode is "exact" when the value is proven (dimension bound met,
    constant entries, a sampled rank that met the torus-slice upper
    bound rank(C), or a symbolic determinant decided it) and
    "probabilistic" when it is the maximum rank seen over sampled
    points; in the latter case failure_bound bounds the probability
    that the true generic rank is larger.  trials and sample_bound echo
    the configured sampling budget, not the number of points ranked:
    an exact certificate can stop after one point.
    """

    rank: int
    mode: str
    trials: int = 0
    sample_bound: int = 0
    failure_bound: Fraction | None = None
    note: str = ""

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"


class MixedHessian:
    """A matrix of polynomial entries with labelled rows and columns.

    cells holds one dict per row, mapping each column whose entry is
    nonzero to that entry; a column missing from it holds zero, and no
    stored entry is the zero polynomial.  row_basis and col_basis hold
    the exponent tuples of the monomials indexing each side; for kind
    "dual" the rows stand for the dual-basis elements of those
    monomials.  orders records (k, l) for graded matrices and the pair
    of bidegrees for bigraded blocks.  generator is the polynomial f
    whose derivatives fill the cells (`_hessian_of` sets it), for the
    torus-slice rung of `generic_rank`; None for a matrix built by hand.
    Two matrices compare by identity.
    """

    def __init__(
        self, varset, cells, row_basis, col_basis, kind, orders, generator=None
    ):
        self.varset: VarSet = varset
        self.cells: tuple[dict[int, Polynomial], ...] = cells
        self.row_basis: tuple[tuple[int, ...], ...] = row_basis
        self.col_basis: tuple[tuple[int, ...], ...] = col_basis
        self.kind: str = kind
        self.orders: tuple = orders
        self.generator: Polynomial | None = generator
        # Rank facts computed once per matrix: the rank at a point, keyed
        # by the point's tuple; the `generic_rank` certificate, keyed by
        # ("generic", config); whether the symbolic determinant vanishes,
        # keyed by "det"; the torus-slice bound, keyed by "slice".
        self._memo: dict = {}

    @property
    def nrows(self) -> int:
        return len(self.row_basis)

    @property
    def ncols(self) -> int:
        return len(self.col_basis)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @cached_property
    def _int_rows(self) -> tuple[tuple[tuple[int, _IntEntry], ...], ...]:
        """Each row's cells as (column, ((exps, n), ...)), the row scaled
        by the lcm of its coefficient denominators so that every n is an
        int.  Built once per matrix, for `rank_at`."""
        out = []
        for row in self.cells:
            lcm = math.lcm(
                *(c.denominator for p in row.values() for c in p.terms.values())
            )
            out.append(tuple(
                (j, tuple((e, c.numerator * (lcm // c.denominator))
                          for e, c in p.terms.items()))
                for j, p in row.items()
            ))
        return tuple(out)

    def max_entry_degree(self) -> int:
        """The largest degree of a nonzero entry (0 when there is none),
        read off `_int_rows`."""
        return max(
            (sum(e) for row in self._int_rows for _, terms in row for e, _ in terms),
            default=0,
        )


def mixed_hessian(alg: GradedAlgebra, k: int, l: int) -> MixedHessian:
    """The order-(k, l) Hessian: rows B_k, columns B_l, entries of
    degree d - k - l where d is the socle degree.  Built once per
    algebra: later calls return the same cached object."""
    d = alg.socle_degree
    if not (0 <= k and 0 <= l and k + l <= d):
        raise ValueError(f"orders ({k}, {l}) out of range for socle degree {d}")
    h = alg._hessian_cache.get((k, l))
    if h is None:
        h = alg._hessian_cache[(k, l)] = _hessian_of(
            alg.f, alg.quotient_basis(k), alg.quotient_basis(l), "mixed", (k, l)
        )
    return h


def _hessian_of(
    f: Polynomial,
    rows_b: Sequence[tuple[int, ...]],
    cols_b: Sequence[tuple[int, ...]],
    kind: str,
    orders: tuple,
    cells: tuple[dict[int, Polynomial], ...] | None = None,
) -> MixedHessian:
    """The matrix of f with rows rows_b and columns cols_b, its cells
    X^(a+b) f (`_entries`) unless given, and f as its generator.  Every
    matrix built from f comes through here, so each gets the
    torus-slice rung; only the dual Hessian passes its own cells, P
    times those of a plain Hessian (module docstring)."""
    if cells is None:
        cells = _entries(f, rows_b, cols_b)
    return MixedHessian(
        f.varset, cells, tuple(rows_b), tuple(cols_b), kind, orders, f
    )


def _entries(
    f: Polynomial,
    rows_b: Sequence[tuple[int, ...]],
    cols_b: Sequence[tuple[int, ...]],
) -> tuple[dict[int, Polynomial], ...]:
    """The cells of the matrix whose entry (i, j) is X^g f, g the
    product of the i-th row and j-th column monomials.  The rows share
    one degree k and the columns one degree l, so g has degree m = k + l.

    Built from the terms of f in one pass: each term c*x^b adds
    c*falling(b, g)*x^(b-g) to X^g f for every degree-m divisor g of b,
    and every other X^g kills f.  Then each nonzero X^g f fills the
    cells (a, g - a) with a a row monomial dividing g and g - a a column
    monomial, so the work follows the nonzero entries, not the rows
    times the columns.  Each distinct X^g f is one (immutable)
    polynomial shared by its cells; each row lists its columns in
    ascending order."""
    table: list[dict[int, Polynomial]] = [{} for _ in rows_b]
    if not rows_b or not cols_b:
        return tuple(table)
    k = sum(rows_b[0])
    row_of = {alpha: i for i, alpha in enumerate(rows_b)}
    col_of = {beta: j for j, beta in enumerate(cols_b)}
    acted: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for b, g, rest, falling in _apolar_terms(f, k + sum(cols_b[0])):
        acted.setdefault(g, {})[rest] = f.terms[b] * falling
    for g, terms in acted.items():
        poly = Polynomial(f.varset, terms)
        for alpha, beta, _ in _splits(g, k):
            i = row_of.get(alpha)
            if i is None:
                continue
            j = col_of.get(beta)
            if j is not None:
                table[i][j] = poly
    return tuple(dict(sorted(row.items())) for row in table)


def dual_mixed_hessian(alg: GradedAlgebra, l: int, k: int) -> MixedHessian:
    """Hessian with rows the duals of B_l and columns B_k.

    Row i is the linear combination of the rows of the plain order
    (d - l, k) Hessian given by the i-th column of the inverse pairing
    matrix in degree l.  Entries are polynomials of degree l - k.  Each
    row t of the inverse is read once, and the cells of inner row t are
    added into the rows it has an entry for, in ascending t per cell,
    each scaled by its inverse entry; sums that cancel are dropped.  The
    algebra inverts the pairing against F = scale*f, so f's inverse is
    scale times its integer rows over their common denominator.
    """
    d = alg.socle_degree
    if not (0 <= k <= l <= d):
        raise ValueError(f"need 0 <= k <= l <= socle degree, got ({l}, {k})")
    inner = mixed_hessian(alg, d - l, k)
    rows: list[dict[int, Polynomial]] = [{} for _ in alg.quotient_basis(l)]
    denom, inverse = alg.pairing_inverse(l)
    for inv_row, inner_row in zip(inverse, inner.cells):
        for i, v in inv_row.items():
            c = Fraction(v * alg.scale, denom)
            row = rows[i]
            for j, p in inner_row.items():
                row[j] = row[j] + p.scale(c) if j in row else p.scale(c)
    cells = tuple({j: row[j] for j in sorted(row) if row[j].terms} for row in rows)
    return _hessian_of(
        alg.f, alg.quotient_basis(l), inner.col_basis, "dual", (l, k), cells
    )


def bigraded_hessian(
    alg: GradedAlgebra,
    row_bidegree: tuple[int, int],
    col_bidegree: tuple[int, int],
) -> MixedHessian:
    """Block of the mixed Hessian with rows and columns restricted to
    quotient-basis monomials of the given bidegrees."""
    pieces = bigraded_decomposition(alg)
    return _hessian_of(
        alg.f,
        pieces.get(row_bidegree, ()),
        pieces.get(col_bidegree, ()),
        "bigraded",
        (row_bidegree, col_bidegree),
    )


# -- evaluation and rank ----------------------------------------------------


def evaluate_matrix(
    h: MixedHessian, point: Sequence[Fraction | int]
) -> list[list[Fraction]]:
    """The dense matrix of values at the point: each stored cell is
    evaluated, sharing monomial powers across cells (the same exponent
    patterns recur throughout the matrix), and every other cell is 0."""
    if len(point) != h.varset.size:
        raise ValueError(
            f"point has {len(point)} coordinates, expected {h.varset.size}"
        )
    pt = [Fraction(c) for c in point]
    cache: dict[tuple[int, ...], Fraction] = {}

    def mono(e: tuple[int, ...]) -> Fraction:
        v = cache.get(e)
        if v is None:
            v = Fraction(1)
            for i, a in enumerate(e):
                if a:
                    v *= pt[i] ** a
            cache[e] = v
        return v

    zero = Fraction(0)
    out = []
    for row in h.cells:
        values = [zero] * h.ncols
        for j, p in row.items():
            values[j] = sum((c * mono(e) for e, c in p.terms.items()), zero)
        out.append(values)
    return out


def rank_at(h: MixedHessian, point: Sequence[Fraction | int]) -> int:
    """Exact rank of the matrix evaluated at one point.

    Only the stored cells are evaluated, through the matrix's
    `_int_rows` index, built on the first call.  Each row goes to
    `matrix_rank` as a ``{column: value}`` mapping of the cells that are
    nonzero at the point, so no zero cell is written or scanned.  The
    matrix is evaluated in ints, scaled in ways that keep the rank.  A
    point with Fraction coordinates is scaled by their common
    denominator D, and a monomial of degree k is weighted by
    D^(top - k), top the largest entry degree: together they multiply
    the matrix by D^top.  Each row is scaled by the lcm of its
    coefficient denominators.  The rank is memoized on the matrix,
    keyed by the point.
    """
    if h.nrows == 0 or h.ncols == 0:
        return 0
    if len(point) != h.varset.size:
        raise ValueError(
            f"point has {len(point)} coordinates, expected {h.varset.size}"
        )
    key = tuple(point)
    rank = h._memo.get(key)
    if rank is not None:
        return rank
    denom, pt = _int_scaled(point)
    top = h.max_entry_degree() if denom != 1 else 0
    cache: dict[tuple[int, ...], int] = {}

    def mono(e: tuple[int, ...]) -> int:
        v = denom ** (top - sum(e)) if denom != 1 else 1
        for x, a in zip(pt, e):
            if a:
                v *= x**a
        cache[e] = v
        return v

    rows = []
    for row in h._int_rows:
        out = {}
        for j, terms in row:
            acc = 0
            for e, n in terms:
                m = cache.get(e)
                if m is None:
                    m = mono(e)
                acc += n * m
            if acc:
                out[j] = acc
        rows.append(out)
    rank = h._memo[key] = matrix_rank(rows)
    return rank


def symbolic_det(h: MixedHessian, cap: int) -> Polynomial:
    """Exact determinant by cofactor expansion with memoized minors.

    Rows are pre-sorted so those with the fewest cells come first, and
    only stored cells are expanded, which keeps the recursion shallow on
    the structured matrices this package produces.  Sizes beyond the cap
    raise SymbolicCapExceeded rather than risk an infeasible expansion.
    """
    n = h.nrows
    if n != h.ncols:
        raise ValueError("determinant of a non-square matrix")
    if n > cap:
        raise SymbolicCapExceeded(f"matrix size {n} exceeds symbolic cap {cap}")
    one = Polynomial.constant(h.varset, Fraction(1))
    if n == 0:
        return one

    order = sorted(range(n), key=lambda i: len(h.cells[i]))
    # parity of the row permutation applied by the sort
    sign = 1
    seen = order[:]
    for i in range(n):
        while seen[i] != i:
            j = seen[i]
            seen[i], seen[j] = seen[j], seen[i]
            sign = -sign
    rows = [h.cells[i] for i in order]

    zero = Polynomial.zero(h.varset)
    memo: dict[int, Polynomial] = {0: one}

    def minor(mask: int) -> Polynomial:
        got = memo.get(mask)
        if got is not None:
            return got
        depth = n - mask.bit_count()
        row = rows[depth]
        acc = zero
        pos = 0
        rest = mask
        while rest:
            low = rest & -rest
            c = low.bit_length() - 1
            p = row.get(c)
            if p is not None:
                sub = minor(mask & ~low)
                if not sub.is_zero():
                    term = p * sub
                    acc = acc + (term if pos % 2 == 0 else -term)
            pos += 1
            rest &= rest - 1
        memo[mask] = acc
        return acc

    det = minor((1 << n) - 1)
    return det.scale(Fraction(sign)) if sign < 0 else det


def _det_vanishes(h: MixedHessian, cap: int) -> bool | None:
    """Whether the symbolic determinant of h vanishes identically, or
    None when h is not square or larger than the cap.  Memoized on the
    matrix: the answer does not depend on the cap once it is computed."""
    if h.nrows != h.ncols or h.nrows > cap:
        return None
    vanishes = h._memo.get("det")
    if vanishes is None:
        vanishes = h._memo["det"] = symbolic_det(h, cap).is_zero()
    return vanishes


def _torus_slice(f: Polynomial) -> tuple[int, ...]:
    """The slice variables J of f: a basis of the column space of the
    term differences e - e_0, one column per variable, taken greedily
    with the variables in fewest terms first (ties by index).  A variable
    enters only when its column raises the rank of the columns already
    in J, so J ends with m variables, m the rank of the differences."""
    exps = list(f.terms)
    occurs = [sum(1 for e in exps if e[k]) for k in range(f.varset.size)]
    space = RowSpace()
    chosen = []
    for k in sorted(range(f.varset.size), key=occurs.__getitem__):
        rem = space.reduce({i: e[k] - exps[0][k] for i, e in enumerate(exps)})
        if rem:
            space.pivots[max(rem)] = rem
            chosen.append(k)
    return tuple(chosen)


def _slice_bound(h: MixedHessian) -> int:
    """rank(C), an upper bound on the generic rank of a matrix with a
    generator (see the module docstring).  Each row of C is one
    line of the smaller side of h, and its columns are keyed by (index on
    the other side, slice monomial): the coefficient sums of h's entries
    with x_k set to 1 outside J.  Rows of `_int_rows` carry different
    integer scales, which scale rows or columns of C and keep its rank.
    Memoized on the matrix."""
    bound = h._memo.get("slice")
    if bound is None:
        J = _torus_slice(h.generator)
        by_row = h.nrows <= h.ncols
        lines: list[dict] = [{} for _ in range(min(h.shape))]
        for i, row in enumerate(h._int_rows):
            for j, terms in row:
                line, other = (lines[i], j) if by_row else (lines[j], i)
                for e, n in terms:
                    key = (other, tuple(e[k] for k in J))
                    line[key] = line.get(key, 0) + n
        bound = h._memo["slice"] = matrix_rank(lines)
    return bound


def generic_rank(
    h: MixedHessian, config: SamplingConfig = DEFAULT_CONFIG
) -> RankCertificate:
    """Rank of the matrix at a generic point.

    Exactness ladder: empty or constant matrices are decided directly;
    a sampled rank that reaches min(nrows, ncols) is already proof; for
    a matrix with a generator, the first point that falls short of it
    computes the torus-slice bound (module docstring), an upper bound
    on the generic rank, and sampling stops at the first point that
    meets it; square matrices within the symbolic cap get an exact
    determinant (deciding full versus not, and pinning rank n-1 when
    the sampled rank sits there).  Anything else is reported as
    probabilistic with a Schwartz-Zippel bound on the chance the
    sampled maximum missed the true generic rank.  A sampled rank above
    the torus-slice bound raises InvariantViolation.

    The certificate is memoized on the matrix, keyed by the whole
    config: every rung reads only the matrix and the config.
    """
    key = ("generic", config)
    cert = h._memo.get(key)
    if cert is None:
        cert = h._memo[key] = _generic_rank(h, config)
    return cert


def _generic_rank(h: MixedHessian, config: SamplingConfig) -> RankCertificate:
    n, m = h.shape
    bound = min(n, m)
    if bound == 0:
        return RankCertificate(0, "exact", note="empty matrix")
    deg = h.max_entry_degree()
    if deg == 0:
        rank = rank_at(h, (0,) * h.varset.size)
        return RankCertificate(rank, "exact", note="constant entries")

    rng = config.rng("generic-rank", h.kind, h.orders, n, m)
    best = 0
    for _ in range(config.trials):
        point = [
            rng.randint(-config.sample_bound, config.sample_bound)
            for _ in range(h.varset.size)
        ]
        best = max(best, rank_at(h, point))
        if best == bound:
            note = "sampled rank reached the dimension bound"
        elif h.generator is None or best < _slice_bound(h):
            continue
        elif best == _slice_bound(h):
            note = "sampled rank met the torus-slice bound"
        else:
            raise InvariantViolation(
                f"sampled rank {best} exceeds the torus-slice bound "
                f"{_slice_bound(h)}"
            )
        return RankCertificate(
            best,
            "exact",
            trials=config.trials,
            sample_bound=config.sample_bound,
            note=note,
        )

    vanishes = _det_vanishes(h, config.symbolic_cap)
    if vanishes is not None:
        if not vanishes:
            return RankCertificate(
                n, "exact", note="nonzero symbolic determinant"
            )
        if best == n - 1:
            return RankCertificate(
                n - 1,
                "exact",
                trials=config.trials,
                sample_bound=config.sample_bound,
                note="vanishing symbolic determinant, sampled rank n-1",
            )
        note = "vanishing symbolic determinant, sampled rank below n-1"
    else:
        note = "sampled rank below the dimension bound"

    size = 2 * config.sample_bound + 1
    minor_degree = (best + 1) * deg
    per_trial = Fraction(min(minor_degree, size), size)
    return RankCertificate(
        best,
        "probabilistic",
        trials=config.trials,
        sample_bound=config.sample_bound,
        failure_bound=per_trial**config.trials,
        note=note,
    )
