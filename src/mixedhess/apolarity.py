"""Apolarity: catalecticant matrices and the graded Artinian Gorenstein
algebra cut out by the annihilator of a homogeneous polynomial.

Given homogeneous f of degree d, the operators of degree k map onto the
space of (d-k)-th order derivatives of f; the catalecticant is that map
written in monomial bases.  Its rank is the Hilbert function value h_k,
its pivot columns (graded-lex order) give a deterministic monomial basis
of the degree-k piece of the quotient algebra, and its kernel is the
degree-k slice of the annihilator.

One integer table of F = m*f, m the lcm of the denominators of f's
coefficients, gives the catalecticant, the socle pairing and (in
`lefschetz`) the multiplication maps, in divided powers x^[b] = x^b/b!
(Iarrobino-Kanev): F = sum phi(b) x^[b] with phi(b) = m*c_b*b! an int.
X^r F = sum_a phi(a + r) x^[a], so row x^r of the degree-k catalecticant
maps column x^a to phi(a + r), r! times the row m*c_b*falling(b, a) of
ordinary derivatives: the reduced forms, quotient bases and Hilbert
values are f's.  (X^a X^g)(F) = phi(a + g), so the pairing of A_k with
A_(d-k) against F is the block of the degree-(d-k) catalecticant on
rows B_k and columns B_(d-k).

The quadric-generation test works degree by degree.  For 3 <= k <= d
it asks whether x*Ann_{k-1}, the span of (variable * annihilator_{k-1}),
is all of Ann_k; it always lies inside.  Let D_j be the degree-j
monomials that divide some term of f, and N_j the other ones.

- Every monomial of N_j kills f, and the catalecticant only sees D_j,
  so Ann_j = span(N_j) (+) K_j, where K_j is the catalecticant kernel:
  supported on D_j, of dimension |D_j| - h_j.
- The monomials M_k = x*N_{k-1} lie in N_k and in x*Ann_{k-1}.  Both
  spaces contain span(M_k), so they are equal iff they are equal once
  the M_k coordinates are dropped; as one lies in the other, iff their
  dimensions agree there.
- With M_k dropped, x*Ann_{k-1} is spanned by the shifts of K_{k-1}
  (the shifts of N_{k-1} vanish), and Ann_k is span(G_k) (+) K_k, where
  G_k holds the monomials of N_k outside M_k.  Its dimension is
  |D_k| - h_k + |G_k|.
- A monomial e of N_k lies in G_k iff all its degree-(k-1) divisors
  e/x_w, one for each of the |supp e| variables w dividing e, lie in
  D_{k-1}: iff exactly |supp e| pairs (m, w) with m in D_{k-1} have
  m*x_w = e.  So counting the shifts of D_{k-1} decides G_k, every
  coordinate kept is x_v*m with m in D_{k-1}, and the elimination never
  sees the rest of the degree-k monomial basis.
- D_j is the column set of the degree-j catalecticant.  Row operations
  keep a column zero exactly when it was zero, so D_j is also the set
  of keys of the reduced catalecticant, and it is read off there.

At k = d+1 the annihilator is all of Q_{d+1}, and the step is decided
by the number r of variables alone (given h_1 = r).  Dually, x*Ann_d
misses part of Q_{d+1} iff some nonzero g of degree d+1 has every
partial derivative in the annihilator's perp, the line spanned by f.
By the Euler relation such a g is l*f/(d+1) for a linear form l, so a
failure is a nonzero l with l*f_i = lambda_i*f for every first partial
f_i.  The lambda_i are not all zero, since the f_i are not, so l
divides f (Q[x] is a UFD).  Writing f = l*g gives f_i = lambda_i*g, so
h_1 <= 1.  Hence the step is spanned for r >= 2, and for r = 1
(f = c*x^d) the form l = x witnesses that it fails.

`_lift` transports the algebra of f to that of F = f*u: F's scale is
f's, phi_F(b*u) = phi(b), and the degree-k divisors of b*u are x^a
(|a| = k) and x^a*u (|a| = k-1).  So Cat_k(F) has two blocks with
disjoint rows and columns: Cat_k(f), columns times u^0 and rows times
u^1, and Cat_(k-1)(f), columns times u^1 and rows times u^0.  Its
unique reduced echelon form is the union of theirs, and a fixed last
exponent keeps the key order: f's reduced rows with keys extended,
sorted by pivot.  So h'_k = h_k + h_(k-1).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from .linalg import RowSpace, _integer_rref, sparse_rref
from .polyring import Polynomial, _int_scaled, grlex_key


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def _splits(exps: tuple[int, ...], k: int) -> list[tuple]:
    """(a, exps - a, falling(exps, a)) for every exponent vector a <= exps
    with |a| = k, each once.  The positions above 1 branch into the
    exponents that still leave |a| = k reachable; the rest of the degree
    is a combination of positions of exponent 1, which falling does not
    see.  Each divisor is made into a tuple once."""
    room = sum(exps)
    if not 0 <= k <= room:
        return []
    ones = [i for i, cap in enumerate(exps) if cap == 1]
    highs = [(i, cap) for i, cap in enumerate(exps) if cap > 1]
    choices: list = [((), k, 1)]
    for _, cap in highs:
        room -= cap
        choices = [
            (chosen + (e,), left - e, fall * math.perm(cap, e))
            for chosen, left, fall in choices
            for e in range(max(0, left - room), min(cap, left) + 1)
        ]
    out = []
    for chosen, left, fall in choices:
        a, rest = [0] * len(exps), list(exps)
        for (i, cap), e in zip(highs, chosen):
            a[i], rest[i] = e, cap - e
        for combo in combinations(ones, left):
            a1, rest1 = a.copy(), rest.copy()
            for i in combo:
                a1[i], rest1[i] = 1, 0
            out.append((tuple(a1), tuple(rest1), fall))
    return out


def _apolar_terms(f: Polynomial, k: int) -> Iterator[tuple]:
    """(b, a, b - a, falling) for every term c*x^b of f and every
    degree-k divisor x^a of x^b, in the order of f's terms: X^a sends
    that term to c*falling*x^(b-a), falling = falling(b, a) a positive
    int.  Every other pair (b, a) of degree k acts as zero."""
    for b in f.terms:
        for a, rest, falling in _splits(b, k):
            yield b, a, rest, falling


def _catalecticant_rows(f: Polynomial, phi: dict, k: int) -> dict:
    """Rows of the degree-k catalecticant of F in divided powers, given
    phi, F's divided-power coefficient of each term of f (module
    docstring): row x^r maps column x^a to phi(a + r).  Only columns
    that divide a term of f are kept; the dropped ones are identically
    zero, so ranks and pivot columns are unaffected."""
    rows: dict = {}
    for b, a, rest, _ in _apolar_terms(f, k):
        rows.setdefault(rest, {})[a] = phi[b]
    return rows


class GradedAlgebra:
    """The standard graded Artinian Gorenstein quotient attached to a
    homogeneous dual generator f of degree d >= 1.

    Carries scale, the lcm m of the denominators of f's coefficients,
    and per degree k = 0..d: the Hilbert value h_k, a deterministic
    quotient basis of monomials named by their exponent tuples (the
    catalecticant pivot columns, graded-lex descending), and the
    integer catalecticant of F = m*f in divided powers together with
    its reduced form (module docstring).  `ann_basis` reads K_k, the
    annihilator vectors supported on D_k, off the reduced catalecticant
    on each call, uncached.  The monomials outside D_k, which complete
    K_k to Ann_k, are never listed.  The pairing between complementary
    degrees is a block of the catalecticant; its inverse is cached on
    first use, as sparse integer rows over one common denominator.
    `hessians.mixed_hessian` caches each order-(k, l) Hessian here too,
    so every check of one report reads the same matrix and with it the
    rank facts memoized on that matrix.
    """

    def __init__(
        self,
        f: Polynomial,
        scale: int,
        hilbert: tuple[int, ...],
        quotient_bases: tuple[tuple[tuple[int, ...], ...], ...],
        catalecticants: tuple[dict, ...],
        reduced_catalecticants: tuple[dict, ...],
        warnings: tuple[str, ...],
    ):
        self.f = f
        self.scale = scale
        self.varset = f.varset
        self.socle_degree = len(hilbert) - 1
        self.hilbert = hilbert
        self._quotient_bases = quotient_bases
        self._catalecticants = catalecticants
        self._reduced = reduced_catalecticants
        self.warnings = warnings
        self.i1_zero = hilbert[1] == f.varset.size if self.socle_degree >= 1 else False
        self._support_cache: dict[int, frozenset[tuple[int, ...]]] = {}
        self._pairing_inv_cache: dict[int, tuple[int, list[dict[int, int]]]] = {}
        self._hessian_cache: dict = {}

    # -- basic queries -------------------------------------------------

    @property
    def codimension(self) -> int:
        return self.hilbert[1]

    def dim(self, k: int) -> int:
        if 0 <= k <= self.socle_degree:
            return self.hilbert[k]
        return 0

    def quotient_basis(self, k: int) -> tuple[tuple[int, ...], ...]:
        if 0 <= k <= self.socle_degree:
            return self._quotient_bases[k]
        return ()

    def _support(self, k: int) -> frozenset[tuple[int, ...]]:
        """D_k, the degree-k monomials dividing some term of f, read off
        the reduced catalecticant (0 <= k <= d)."""
        cached = self._support_cache.get(k)
        if cached is None:
            cached = frozenset(e for row in self._reduced[k].values() for e in row)
            self._support_cache[k] = cached
        return cached

    def ann_basis(self, k: int) -> tuple[Polynomial, ...]:
        """K_k, the annihilator vectors supported on D_k (() outside
        0..d): one per non-pivot column of the reduced catalecticant, in
        graded-lex descending order of that column.  The rest of Ann_k is
        span(N_k), the monomials outside D_k."""
        if not 0 <= k <= self.socle_degree:
            return ()
        red = self._reduced[k]
        return tuple(
            Polynomial(
                self.varset,
                {e: Fraction(1)}
                | {p: -prow[e] for p, prow in red.items() if prow.get(e)},
            )
            for e in sorted(self._support(k) - red.keys(), reverse=True)
        )

    # -- pairing -------------------------------------------------------

    def pairing_matrix(self, k: int) -> list[dict[int, int]]:
        """Sparse integer rows of the perfect pairing A_k x A_{d-k} -> K
        against F = scale*f, in the chosen quotient bases: row i maps j to
        (alpha_i * gamma_j)(F) wherever that is nonzero (0 <= k <= d).

        That is the block of the degree-(d-k) catalecticant on rows B_k
        and columns B_(d-k) (module docstring)."""
        rows = self._catalecticants[self.socle_degree - k]
        col_of = {
            g: j for j, g in enumerate(self.quotient_basis(self.socle_degree - k))
        }
        return [
            {col_of[g]: v for g, v in rows.get(a, {}).items() if g in col_of}
            for a in self.quotient_basis(k)
        ]

    def pairing_inverse(self, k: int) -> tuple[int, list[dict[int, int]]]:
        """The inverse of `pairing_matrix(k)` as (D, rows): a positive int
        D and sparse integer rows, one per element of B_{d-k}, where row t
        maps i to D times entry (t, i) wherever that is nonzero.  D is the
        least common denominator of the inverse.

        Read off the fully reduced integer echelon form of the rows
        [P | I], with column j of P keyed h + j above column i of I keyed
        i.  P is invertible iff it takes every pivot, and then the row
        with pivot h + t is p_t times the unit vector t followed by p_t
        times row t of the inverse, for a nonzero int p_t.  That row is
        primitive, so row t of the inverse has least denominator |p_t|,
        and D is the lcm of the p_t."""
        cached = self._pairing_inv_cache.get(k)
        if cached is not None:
            return cached
        pairing = self.pairing_matrix(k)
        h = len(pairing)
        reduced = _integer_rref(
            {h + j: v for j, v in row.items()} | {i: 1}
            for i, row in enumerate(pairing)
        )
        if any(top < h for top in reduced):
            raise InvariantViolation(f"pairing matrix in degree {k} is singular")
        denom = math.lcm(*(row[top] for top, row in reduced.items()))
        inv = []
        for top, row in reduced.items():
            scale = denom // row[top]
            inv.append({i: v * scale for i, v in row.items() if i < h})
        self._pairing_inv_cache[k] = denom, inv
        return denom, inv


def build_algebra(f: Polynomial) -> GradedAlgebra:
    """Construct the graded algebra data for a homogeneous f of degree >= 1.

    Variables that f does not involve are dropped (with a warning) so the
    algebra lives in its essential variable set whenever the excess is
    just unused coordinates.  A genuinely degenerate first degree (linear
    relations among first partials) is kept and reported as a warning.
    """
    d = f.homogeneous_degree()
    if f.is_zero() or d is None:
        raise ValueError("dual generator must be homogeneous and nonzero")
    if d < 1:
        raise ValueError("dual generator must have degree >= 1")

    f, warnings = _essential(f)
    scale, coeffs = _int_scaled(f.terms.values())
    phi = {
        b: n * math.prod(map(math.factorial, b)) for b, n in zip(f.terms, coeffs)
    }
    hilbert: list[int] = []
    bases: list[tuple[tuple[int, ...], ...]] = []
    catalecticants: list[dict] = []
    reduced: list[dict] = []
    for k in range(d + 1):
        rows = _catalecticant_rows(f, phi, k)
        catalecticants.append(rows)
        red = sparse_rref(rows.values())
        reduced.append(red)
        bases.append(tuple(sorted(red, key=grlex_key, reverse=True)))
        hilbert.append(len(red))

    for k in range(d + 1):
        if hilbert[k] != hilbert[d - k]:
            raise InvariantViolation(
                f"Hilbert symmetry failed: h_{k}={hilbert[k]} vs h_{d-k}={hilbert[d-k]}"
            )
    if hilbert[0] != 1 or hilbert[d] != 1:
        raise InvariantViolation("socle dimensions are not 1")

    if hilbert[1] < f.varset.size:
        warnings.append(
            "degree-one annihilator is nonzero (linear relation among "
            "first partials); algebra kept in the given variables"
        )
    return GradedAlgebra(
        f, scale, tuple(hilbert), tuple(bases), tuple(catalecticants),
        tuple(reduced), tuple(warnings),
    )


def _essential(f: Polynomial) -> tuple[Polynomial, list[str]]:
    """f in the variables it uses, with a warning naming the dropped ones."""
    used = sorted({i for e in f.terms for i, v in enumerate(e) if v})
    if len(used) == f.varset.size:
        return f, []
    dropped = [n for i, n in enumerate(f.varset.names) if i not in used]
    terms = {tuple(e[i] for i in used): c for e, c in f.terms.items()}
    warning = "dropped unused variables: " + ", ".join(dropped)
    return Polynomial(f.varset.restrict(used), terms), [warning]


def _lift(alg: GradedAlgebra, lifted: Polynomial) -> GradedAlgebra:
    """The algebra of `lifted`, alg's generator times a fresh last variable,
    transported (module docstring); any other `lifted` raises InvariantViolation."""
    F, warnings = _essential(lifted)
    expected = {b + (1,): c for b, c in alg.f.terms.items()}
    if F.varset.names[:-1] != alg.varset.names or F.terms != expected:
        raise InvariantViolation(f"{lifted} is not the base times a fresh variable")
    # h'_1 = h_1 + 1, so F has the base's linear warning, always its last.
    warnings += alg.warnings[-1:] if not alg.i1_zero else []
    cats, reds = [], []
    for k in range(alg.socle_degree + 2):
        cat, red = {}, {}
        # Block j is Cat_(k-j)(f), columns times u^j and rows times
        # u^(1-j); each new column key is made once for both tables.
        for j in (0, 1):
            if 0 <= k - j <= alg.socle_degree:
                rows = alg._catalecticants[k - j]
                up = {a: a + (j,) for row in rows.values() for a in row}
                for r, row in rows.items():
                    cat[r + (1 - j,)] = {up[a]: v for a, v in row.items()}
                for p, row in alg._reduced[k - j].items():
                    red[up[p]] = {up[a]: v for a, v in row.items()}
        cats.append(cat)
        reds.append(dict(sorted(red.items())))
    bases = tuple(tuple(sorted(red, key=grlex_key, reverse=True)) for red in reds)
    return GradedAlgebra(
        F, alg.scale, tuple(map(len, reds)), bases, tuple(cats), tuple(reds),
        tuple(warnings),
    )


# -- quadric generation ---------------------------------------------------


class QuadricsCheck(NamedTuple):
    """Outcome of the generated-by-quadrics test.

    ``failing_degrees`` lists every degree k in 3..d+1 where the span of
    (variables * annihilator_{k-1}) is a proper subspace of the degree-k
    annihilator; empty iff ``presented`` (given a zero linear slice).
    """

    presented: bool
    failing_degrees: tuple[int, ...]
    dim_ann_2: int
    reason: str | None = None


def ann_generated_by_quadrics(alg: GradedAlgebra) -> QuadricsCheck:
    """Exact degree-by-degree test that the annihilator ideal is
    generated in degrees <= 2."""
    d = alg.socle_degree
    r = alg.varset.size
    dim_ann_2 = math.comb(r + 1, 2) - alg.dim(2) if d >= 2 else 0
    if not alg.i1_zero:
        return QuadricsCheck(False, (1,), dim_ann_2, "nonzero linear annihilator slice")

    failing: list[int] = []
    for k in range(3, d + 1):
        if not _degree_step_spanned(alg, k):
            failing.append(k)
    # Closed form of the degree-(d+1) step; the module docstring proves it.
    if d + 1 >= 3 and r == 1:
        failing.append(d + 1)
    return QuadricsCheck(not failing, tuple(failing), dim_ann_2)


def _step_coordinates(alg: GradedAlgebra, k: int) -> tuple[dict, set]:
    """The shifts x_v*m of each m in D_{k-1} (a list indexed by v, keyed
    by m) and the coordinates D_k and G_k that the degree-k step keeps,
    G_k found by counting the shifts as the module docstring proves."""
    r = alg.varset.size
    here = alg._support(k)
    shifts = {
        m: [m[:v] + (m[v] + 1,) + m[v + 1 :] for v in range(r)]
        for m in alg._support(k - 1)
    }
    hits = Counter(e for row in shifts.values() for e in row)
    return shifts, {e for e, n in hits.items() if e in here or n == len(e) - e.count(0)}


def _degree_step_spanned(alg: GradedAlgebra, k: int) -> bool:
    """Does variables * Ann_{k-1} span Ann_k?  (It is always contained.)

    Decided with the M_k coordinates dropped, as the module docstring
    proves.  The basis of K_{k-1} is shifted by each variable and cut
    to the coordinates D_k and G_k; the shifts span Ann_k iff they
    reach rank |D_k| + |G_k| - h_k.
    """
    shifts, kept = _step_coordinates(alg, k)
    target = len(kept) - alg.dim(k)
    if target == 0:
        return True
    space = RowSpace()
    count = 0
    for g in alg.ann_basis(k - 1):
        for v in range(alg.varset.size):
            shifted = {}
            for e, c in g.terms.items():
                s = shifts[e][v]
                if s in kept:
                    shifted[s] = c
            if shifted and space.insert(shifted):
                count += 1
                if count == target:
                    return True
    return space.rank == target


# -- bigraded structure ----------------------------------------------------


def bigraded_decomposition(alg: GradedAlgebra) -> dict:
    """Split every quotient basis by bidegree: ``pieces[(i, j)]`` lists
    the exponent tuples of the basis monomials of x-degree i and
    u-degree j in the ambient graded-lex order.

    Requires a bihomogeneous f over a block-structured VarSet.  The
    monomial quotient bases are automatically compatible with the
    splitting because the catalecticant is block-diagonal across
    bidegrees, so pivot columns drop into well-defined pieces.
    """
    if alg.varset.blocks is None:
        raise ValueError("VarSet has no x/u block structure")
    bd = alg.f.bidegree()
    if bd is None:
        raise ValueError("dual generator is not bihomogeneous")
    d1, d2 = bd
    pieces: dict = {}
    for k in range(alg.socle_degree + 1):
        for m in alg.quotient_basis(k):
            key = alg.varset.bidegree_of(m)
            pieces.setdefault(key, []).append(m)
    pieces = {key: tuple(val) for key, val in pieces.items()}
    for (i, j), val in pieces.items():
        dual = pieces.get((d1 - i, d2 - j), ())
        if len(dual) != len(val):
            raise InvariantViolation(
                f"bigraded duality failed at piece ({i}, {j})"
            )
    return pieces


def unimodality_check(hilbert: Sequence[int]) -> bool:
    """True iff the vector rises (weakly) to a peak and then falls."""
    rising = True
    for a, b in zip(hilbert, hilbert[1:]):
        if rising:
            if b < a:
                rising = False
        elif b > a:
            return False
    return True
