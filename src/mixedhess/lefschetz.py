"""Weak and strong Lefschetz property checks via Hessian rank criteria.

The decision procedures here rest on two routes to the same rank:

* the *multiplication route* builds the matrix of mu : A_k -> A_l,
  v |-> (power of a linear form) * v, directly from the algebra, in
  the divided powers of `apolarity` (F = m*f = sum phi(b) x^[b]).
  Column x^beta is X^beta F = sum_a phi(a + beta) x^[a], row x^beta of
  the degree-(d-k) catalecticant.  L = sum a_v X_v contracts,
  X_v x^[a] = x^[a - e_v], and the coefficient of L^(l-k) X^beta F at
  x^[g] is (X^g L^(l-k) X^beta)(F), which the inverse pairing turns into
  coordinates in B_l.  The form and the inverse pairing are integers
  over common denominators, so the route yields the integer matrix D*M
  for one positive D, with the rank of M.  Only `generalization_check`
  divides by D;
* the *Hessian route* evaluates a dual mixed Hessian at the point of
  coefficients of the linear form and scales by a factorial.

`generalization_check` verifies entrywise that the two routes agree.
The property checks use the Hessian route for verdicts (it exposes the
generic behaviour as a polynomial matrix) and the multiplication route
to confirm at sampled points; any disagreement raises
InvariantViolation, since it would falsify the underlying identity.

Both checks rest on one identity: the plain mixed Hessian of order
(d-i-j, i), evaluated at the coefficient point of l, has the rank of
multiplication by l^j from A_i to A_{i+j}.  A property is a list of such
cells (i, j), decided by one routine: WLP is the cell (floor(d/2), 1),
SLP the cells (k, d-2k) for k = 1..floor(d/2).

A verdict is *exact* when it is witnessed by a point (positive) or by an
exact rank certificate of the failing cell (negative): a sampled rank
that met the cell's torus-slice bound, or a vanishing symbolic
determinant.  It is *probabilistic* when it relies on sampled ranks
alone, in which case the attached certificates carry failure bounds.

The cells together form the rank table (`rank_table`): r(i, j), the
generic rank of l^j: A_i -> A_(i+j), for i >= 0, j >= 1, i + j <= d.
The Gorenstein pairing makes multiplication by l^j from A_(d-i-j) the
transpose of the one from A_i, so r(i, j) = r(d-i-j, j) and only half
the cells are ranked; their matrices are the ones the WLP and SLP
checks read, with the same memoized certificates.  A cell with i = 0
is 1 without a matrix: l^d acts on f as d! f(a), nonzero for a generic
point a, so no power l^j with j <= d vanishes in A.  The table fixes
the generic Jordan type (`jordan_type`): the strings [a, b], each a
basis vector of A_a with its images up to A_b, occur
N(a,b) - N(a-1,b) - N(a,b+1) + N(a-1,b+1) times, with N(a, b) =
r(a, b-a), N(a, a) = h_a, and N = 0 off the range, since N(a, b)
counts the strings with start <= a and end >= b (`string_rank`).
A fresh variable u tensors A with Q[u]/(u^2), the string [0, 1]
(`families`, Lemma A), and the graded Clebsch-Gordan rule
(`lift_jordan_type`) sends [a, b] to [a, b+1], plus [a+1, b] when
b > a: the whole table of a lift follows from its base's, and
`lifted_rank` reads one cell of it ranking only the base cells it needs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .apolarity import GradedAlgebra, InvariantViolation
from .config import DEFAULT_CONFIG, SamplingConfig
from .hessians import (
    MixedHessian,
    RankCertificate,
    _det_vanishes,
    _slice_bound,
    dual_mixed_hessian,
    evaluate_matrix,
    generic_rank,
    mixed_hessian,
    rank_at,
)
from .linalg import matrix_rank
from .polyring import LinearForm, _int_scaled, _linear_power_terms


class LefschetzVerdict(NamedTuple):
    """Outcome of a weak or strong Lefschetz check.

    witness is a linear form certifying a positive verdict (None when
    the property fails or no sampled witness avoided the degeneracy
    f = 0 at its coefficient point).  profile lists the ranks of every
    multiplication step A_i -> A_{i+1} at the reference point, and
    failing_step names the (source, target) degrees responsible for a
    negative verdict.
    """

    property: str
    holds: bool
    witness: LinearForm | None
    evidence: tuple[RankCertificate, ...]
    mode: str
    profile: tuple[int, ...] | None
    failing_step: tuple[int, int] | None
    trials: int
    seed: int
    notes: tuple[str, ...] = ()


# -- multiplication route ---------------------------------------------------


def mult_map_matrix(
    alg: GradedAlgebra, k: int, l: int, L: LinearForm
) -> list[list[int]]:
    """The matrix N = D*M, for M the matrix of multiplication by
    L^(l-k) from A_k to A_l in the chosen quotient bases (rows indexed
    by B_l, columns by B_k) and D = `_mult_map_denominator(alg, k, l, L)`.
    N has M's rank; its entries are ints.

    Built without Hessians, in divided powers (module docstring): column
    beta is the stored catalecticant row X^beta F, the coefficients of L
    scaled by the lcm of their denominators contract it l-k times (the
    power is never expanded), and its coefficients at B_(d-l) meet only
    the nonzero entries of the integer inverse pairing rows.  Every sum
    is of ints.
    """
    d = alg.socle_degree
    if not (0 <= k <= l <= d):
        raise ValueError(f"need 0 <= k <= l <= {d}, got ({k}, {l})")
    if L.varset != alg.f.varset:
        raise ValueError("linear form lives in a different variable set")
    l_coeffs = _int_scaled(L.coeffs)[1]
    rows = alg._catalecticants[d - k]
    inverse = dict(zip(alg.quotient_basis(d - l), alg.pairing_inverse(l)[1]))
    cols_b = alg.quotient_basis(k)
    matrix = [[0] * len(cols_b) for _ in range(alg.dim(l))]
    for j, beta in enumerate(cols_b):
        for e, c in _linear_power_terms(l_coeffs, rows.get(beta, {}), l - k).items():
            for i, v in inverse.get(e, {}).items():
                matrix[i][j] += v * c
    return matrix


def _mult_map_denominator(
    alg: GradedAlgebra, k: int, l: int, L: LinearForm
) -> int:
    """The D with `mult_map_matrix(alg, k, l, L)` = D*M: lcm_L^(l-k) *
    D_l, the lcm of the denominators of L and the common denominator of
    the degree-l inverse pairing.  The scale m of F = m*f cancels: the
    columns carry it and the inverse pairing divides it out."""
    return _int_scaled(L.coeffs)[0] ** (l - k) * alg.pairing_inverse(l)[0]


def rank_profile(alg: GradedAlgebra, L: LinearForm) -> tuple[int, ...]:
    """Ranks of multiplication by L on each step A_i -> A_{i+1}, each
    the rank of the integer matrix `mult_map_matrix` returns.

    The Gorenstein pairing forces the profile to be palindromic
    (rank at step i equals rank at step d-1-i); a violation would mean
    the algebra data is inconsistent, so it raises rather than returns.
    """
    d = alg.socle_degree
    ranks = []
    for i in range(d):
        m = mult_map_matrix(alg, i, i + 1, L)
        ranks.append(matrix_rank(m))
    for i in range(d):
        if ranks[i] != ranks[d - 1 - i]:
            raise InvariantViolation(
                f"rank profile breaks duality at step {i}: {ranks}"
            )
    return tuple(ranks)


def full_profile(alg: GradedAlgebra) -> tuple[int, ...]:
    """The profile a weak Lefschetz element would realize."""
    h = alg.hilbert
    return tuple(min(h[i], h[i + 1]) for i in range(alg.socle_degree))


def generalization_check(
    alg: GradedAlgebra, k: int, l: int, L: LinearForm
) -> dict:
    """Entrywise comparison of the two routes to the matrix of
    multiplication by L^(l-k): the multiplication route against the
    dual mixed Hessian evaluated at the coefficient point and scaled
    by (l-k)!.  Exact arithmetic; returns a report dict with the matrix
    of the multiplication route, the one place its integer matrix is
    divided by its denominator."""
    denom = _mult_map_denominator(alg, k, l, L)
    m = [[Fraction(v, denom) for v in row] for row in mult_map_matrix(alg, k, l, L)]
    dual = dual_mixed_hessian(alg, l, k)
    factor = math.factorial(l - k)
    evaluated = evaluate_matrix(dual, L.perp())
    rows = zip(m, evaluated, strict=True)
    worst = max(
        (abs(a - factor * b) for mr, er in rows for a, b in zip(mr, er, strict=True)),
        default=Fraction(0),
    )
    return {
        "matches": worst == 0,
        "factorial": factor,
        "shape": (len(m), len(m[0]) if m else 0),
        "max_discrepancy": worst,
        "matrix": m,
    }


# -- witness sampling -------------------------------------------------------


def sample_points(alg: GradedAlgebra, config: SamplingConfig, tag: str):
    """Yield up to `trials` integer points at which the dual generator
    does not vanish (degenerate draws are re-rolled a bounded number of
    times instead of consuming a trial), within 4*trials draws.  Points
    are drawn as they are asked for, so a caller that stops early draws
    no more."""
    rng = config.rng(tag, alg.socle_degree, alg.hilbert)
    n = alg.f.varset.size
    found = 0
    for _ in range(4 * config.trials):
        pt = tuple(
            rng.randint(-config.sample_bound, config.sample_bound)
            for _ in range(n)
        )
        if alg.f.evaluate(pt) != 0:
            yield pt
            found += 1
            if found == config.trials:
                return


def _linear_form(alg: GradedAlgebra, point) -> LinearForm:
    return LinearForm(
        alg.f.varset, tuple(Fraction(c) for c in point)
    )


def _confirm_routes(
    alg: GradedAlgebra, h: MixedHessian, point, step: tuple[int, int],
    profile: tuple[int, ...] | None,
) -> int:
    """Check at one point that the Hessian-route rank equals the
    multiplication-route rank for the named step, and return it.  Given
    the rank profile at the same point, a one-degree step's rank is read
    off it instead of building the map again."""
    hess_rank = rank_at(h, point)
    if profile is not None:
        mult_rank = profile[step[0]]
    else:
        m = mult_map_matrix(alg, step[0], step[1], _linear_form(alg, point))
        mult_rank = matrix_rank(m)
    if hess_rank != mult_rank:
        raise InvariantViolation(
            f"rank disagreement at step {step}: Hessian route {hess_rank}, "
            f"multiplication route {mult_rank}"
        )
    return hess_rank


# -- property checks --------------------------------------------------------


def _cell_hessian(alg: GradedAlgebra, i: int, j: int) -> MixedHessian:
    """Criterion matrix of cell (i, j): the order-(d-i-j, i) Hessian."""
    return mixed_hessian(alg, alg.socle_degree - i - j, i)


def wlp_criterion_matrix(alg: GradedAlgebra) -> MixedHessian:
    """The single Hessian whose generic rank decides the weak Lefschetz
    property: order (q, q) for socle degree 2q+1, order (q-1, q) for
    socle degree 2q."""
    return _cell_hessian(alg, alg.socle_degree // 2, 1)


def _decide(
    alg: GradedAlgebra, config: SamplingConfig, name: str, cells: tuple,
    generic_note: str, profile_on_failure: bool,
) -> LefschetzVerdict:
    """Decide a property given as cells (i, j, step, witness note,
    confirmation note with {} for the rank).  A point where every cell
    has full rank is a witness; otherwise the first cell whose generic
    rank falls short names its step in a negative verdict, and when none
    does the property holds without a witness.

    The witness search stops at the first point where a cell loses rank
    if that cell is proven short of full rank at every point: its
    symbolic determinant vanishes identically (square cells within the
    symbolic cap, tested first), or its torus-slice bound, an upper
    bound on its generic rank, is below min(shape).  Then no later point
    can be a witness, so the verdict is the one the full search gives.
    The negative branch certifies the cell through `generic_rank`, whose
    memoized torus-slice bound or determinant makes a deficient cell
    exact, and confirms its rank at the first point against the
    multiplication route, read off the rank profile there when the
    verdict carries one.  Points are drawn only as the search asks for
    them."""
    mats = [_cell_hessian(alg, i, j) for i, j, *_ in cells]
    notes: list[str] = []
    first = None
    for pt in sample_points(alg, config, f"{name.lower()}-witness"):
        if first is None:
            first = pt
        short = next((m for m in mats if rank_at(m, pt) != min(m.shape)), None)
        if short is None:
            witness = _linear_form(alg, pt)
            profile = rank_profile(alg, witness)
            if profile != full_profile(alg):
                raise InvariantViolation(
                    "criterion matrix has full rank at a witness whose "
                    f"multiplication profile {profile} is not full"
                )
            evidence = tuple(
                RankCertificate(min(m.shape), "exact", config.trials,
                                config.sample_bound, note=witness_note)
                for (_, _, _, witness_note, _), m in zip(cells, mats)
            )
            return LefschetzVerdict(
                name, True, witness, evidence, "exact", profile, None,
                config.trials, config.seed, tuple(notes),
            )
        if (
            _det_vanishes(short, config.symbolic_cap)
            or _slice_bound(short) < min(short.shape)
        ):
            break
    if first is None:
        notes.append(
            "no sample point avoided the vanishing locus of the generator"
        )

    evidence = []
    for (_, _, step, _, confirm_note), m in zip(cells, mats):
        cert = generic_rank(m, config)
        evidence.append(cert)
        if cert.rank < min(m.shape):
            profile = None
            if first is not None:
                if profile_on_failure:
                    profile = rank_profile(alg, _linear_form(alg, first))
                confirmed = _confirm_routes(alg, m, first, step, profile)
                notes.append(confirm_note.format(confirmed))
            return LefschetzVerdict(
                name, False, None, tuple(evidence), cert.mode, profile, step,
                config.trials, config.seed, tuple(notes),
            )

    notes.append(generic_note)
    mode = "exact" if all(c.is_exact for c in evidence) else "probabilistic"
    return LefschetzVerdict(
        name, True, None, tuple(evidence), mode, None, None,
        config.trials, config.seed, tuple(notes),
    )


# The certificate of a cell with i = 0 or i + j = d.
_UNIT_CELL = RankCertificate(1, "exact", note=(
    "l^d acts on f as d! f(a), nonzero at a generic point, so l^j is "
    "nonzero in A"
))


def _cell_rank(
    alg: GradedAlgebra, i: int, j: int, config: SamplingConfig
) -> RankCertificate:
    """The certified r(i, j), through the cell of its dual pair with
    2i + j >= d; a cell with i = 0 or i + j = d ranks no matrix."""
    i = max(i, alg.socle_degree - i - j)
    if i + j == alg.socle_degree:
        return _UNIT_CELL
    return generic_rank(_cell_hessian(alg, i, j), config)


def rank_table(
    alg: GradedAlgebra, config: SamplingConfig = DEFAULT_CONFIG
) -> dict[tuple[int, int], RankCertificate]:
    """The certified generic rank r(i, j) of l^j: A_i -> A_(i+j) for
    every cell, i >= 0, j >= 1, i + j <= d (module docstring).  A cell
    with 2i + j >= d is ranked through `_cell_hessian` and
    `generic_rank`, and its dual (d-i-j, j) carries the same
    certificate; the cells with i = 0 and their duals, i + j = d, are 1
    and rank no matrix."""
    d = alg.socle_degree
    return {
        (i, j): _cell_rank(alg, i, j, config)
        for j in range(1, d + 1)
        for i in range(d - j + 1)
    }


def lifted_rank(
    alg: GradedAlgebra,
    lifts: int,
    i: int,
    j: int,
    config: SamplingConfig = DEFAULT_CONFIG,
) -> RankCertificate:
    """r(i, j) of the algebra of f times `lifts` fresh variables, from
    the base's cells alone.  A lift's strings [a, b+1] and [a+1, b]
    (`lift_jordan_type`) give r'(i, j) = r(i, j-1) + r(i-1, j+1) for
    j >= 1 and h'_i = h_i + h_(i-1), so the recursion ranks only the
    base cells it reaches, each dual pair once.  Exact when every such
    cell is; otherwise probabilistic, with the sum of their failure
    bounds."""
    d = alg.socle_degree
    read: dict[tuple[int, int], RankCertificate] = {}

    @functools.cache
    def count(m: int, i: int, j: int) -> int:
        if i < 0 or i + j > d + m:
            return 0
        if m and j:
            return count(m - 1, i, j - 1) + count(m - 1, i - 1, j + 1)
        if m:
            return count(m - 1, i, 0) + count(m - 1, i - 1, 0)
        if not j:
            return alg.hilbert[i]
        cell = max(i, d - i - j), j
        read[cell] = _cell_rank(alg, *cell, config)
        return read[cell].rank

    rank = count(lifts, i, j)
    note = (
        f"transported from the base's Jordan type through {lifts} "
        "lift(s) by Lemma A and the Clebsch-Gordan rule"
    )
    sampled = [c for c in read.values() if not c.is_exact]
    if not sampled:
        return RankCertificate(
            rank, "exact", config.trials, config.sample_bound, None,
            note + "; every base cell it reads exact",
        )
    return RankCertificate(
        rank, "probabilistic", config.trials, config.sample_bound,
        sum(c.failure_bound for c in sampled),
        note + "; failure bound summed over the sampled base cells it reads",
    )


def string_rank(strings: dict[tuple[int, int], int], i: int, j: int) -> int:
    """r(i, j) read off a Jordan type: the strings [a, b] with a <= i
    and b >= i + j; with j = 0, the dimension h_i."""
    return sum(m for (a, b), m in strings.items() if a <= i and b >= i + j)


def jordan_type(
    hilbert: tuple[int, ...], table: dict[tuple[int, int], RankCertificate]
) -> dict[tuple[int, int], int] | None:
    """The generic Jordan type of an algebra with Hilbert function
    `hilbert` and rank table `table` (as `rank_table` returns it): each
    string [a, b] mapped to its multiplicity
    N(a,b) - N(a-1,b) - N(a,b+1) + N(a-1,b+1) (module docstring).

    A sampled rank can fall short of the generic rank but never exceed
    it, so a negative multiplicity from a table with a sampled cell is
    a sampling miss, and gives None; from an exact table it contradicts
    the theorem and raises InvariantViolation, as do string lengths
    that do not add up to the dimension of the algebra."""
    d = len(hilbert) - 1

    def count(a: int, b: int) -> int:
        if a < 0 or b > d:
            return 0
        return hilbert[a] if a == b else table[a, b - a].rank

    strings = {}
    for a in range(d + 1):
        for b in range(a, d + 1):
            m = count(a, b) - count(a - 1, b) - count(a, b + 1) + count(a - 1, b + 1)
            if m < 0:
                if not all(c.is_exact for c in table.values()):
                    return None
                raise InvariantViolation(
                    f"the rank table gives the string [{a}, {b}] multiplicity {m}"
                )
            if m:
                strings[a, b] = m
    if sum(m * (b - a + 1) for (a, b), m in strings.items()) != sum(hilbert):
        raise InvariantViolation(
            f"the Jordan type's string lengths do not add up to {sum(hilbert)}"
        )
    return strings


def lift_jordan_type(
    strings: dict[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    """The Jordan type of A tensor Q[u]/(u^2), the algebra of f*u, from
    that of A: the graded Clebsch-Gordan rule sends [a, b] to [a, b+1],
    plus [a+1, b] when b > a."""
    lifted: dict[tuple[int, int], int] = {}
    for (a, b), m in strings.items():
        lifted[a, b + 1] = lifted.get((a, b + 1), 0) + m
        if b > a:
            lifted[a + 1, b] = lifted.get((a + 1, b), 0) + m
    return lifted


def wlp_check(
    alg: GradedAlgebra, config: SamplingConfig = DEFAULT_CONFIG
) -> LefschetzVerdict:
    """Decide the weak Lefschetz property.

    Positive verdicts carry a witness linear form, an exact rank
    certificate at its point, and the full multiplication-rank profile
    (checked against the Hilbert function).  Negative verdicts name the
    failing step and attach the generic-rank certificate of the
    criterion matrix; they are exact when the certificate is.
    """
    q, odd = divmod(alg.socle_degree, 2)
    cell = (q, 1, (q, q + 1) if odd else (q - 1, q),
            "full rank witnessed at a sampled point",
            "multiplication route confirms rank {} at the first sampled point")
    return _decide(
        alg, config, "WLP", (cell,),
        "criterion matrix is generically of maximal rank but no sampled "
        "point gave both full rank and a nonzero generator value",
        profile_on_failure=True,
    )


def slp_check(
    alg: GradedAlgebra, config: SamplingConfig = DEFAULT_CONFIG
) -> LefschetzVerdict:
    """Decide the strong Lefschetz property.

    Holds exactly when every order-(k, k) Hessian, k up to half the
    socle degree, is generically nonsingular; a witness is a single
    point at which all of them are nonsingular at once and the
    generator does not vanish.
    """
    d = alg.socle_degree
    cells = tuple(
        (k, d - 2 * k, (k, d - k),
         f"order ({k}, {k}) nonsingular at the witness",
         f"multiplication route confirms rank {{}} for order ({k}, {k}) "
         "at the first sampled point")
        for k in range(1, d // 2 + 1)
    )
    return _decide(
        alg, config, "SLP", cells,
        "every criterion Hessian is generically nonsingular but no "
        "sampled point witnessed all of them at once",
        profile_on_failure=False,
    )
