"""Constructions that produce algebras with prescribed Lefschetz behaviour.

Three building blocks recur:

* multiplying the dual generator by a fresh variable (`times_u`, the
  one lift primitive).  By Lemma A the algebra of F = f*u is
  A_f tensor Q[u]/(u^2): one new variable shifts every annihilator
  degree up compatibly, so the Hilbert function of the lift is the sum
  of two consecutive values of the original, and the graded
  Clebsch-Gordan rule carries the base's generic Jordan type, and so
  its whole rank table, up the lift (`lefschetz`).  The reports build
  only the base: `odd_counterexample`, `even_counterexample` and
  `times_uv` rank only the base cells the lift's criterion reads and
  transport its rank from them (`_transported_criterion`).  Two
  lifts in a row (`times_uv`, and each step of the even family) keep
  the parity of the socle degree and carry a deficient middle cell two
  degrees up.  `lift_chain_algebra` transports the lifted algebra
  itself for `family times-u`, and `verify_lift` checks Lemma A on one
  lift against a direct build, its whole annihilator by a dimension
  count;
* bases of small socle degree with certified failures: cubic forms
  whose middle Hessian vanishes identically, and quartic complexes
  whose facet rows satisfy an exact syzygy (see `complexes`);
* forms built from algebraically dependent but linearly independent
  partial data, which force degenerate Hessians in higher degree.

`odd_counterexample` and `even_counterexample` combine these into
families indexed by socle degree and embedding codimension, refusing
out-of-range requests with the attainable values spelled out.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .apolarity import (
    GradedAlgebra,
    InvariantViolation,
    _lift,
    ann_generated_by_quadrics,
    build_algebra,
)
from .complexes import (
    NoninjectivityWitness,
    SimplicialComplex,
    dual_generator,
    grid_noninjectivity_witness,
    grow_with_leaves,
    turan_complex,
    without_face,
)
from .config import DEFAULT_CONFIG, SamplingConfig
from .hessians import RankCertificate, _hessian_of, generic_rank
from .lefschetz import (
    jordan_type,
    lift_jordan_type,
    lifted_rank,
    rank_table,
    slp_check,
    string_rank,
    wlp_criterion_matrix,
)
from .linalg import matrix_rank
from .polyring import (
    Polynomial,
    VarSet,
    _unit,
    apolar_apply,
    parse_polynomial,
)


def boolean_form(n: int) -> Polynomial:
    """The product of n distinct variables: its annihilator is the
    squares of the variables, and the algebra has Hilbert function the
    binomial coefficients."""
    if n < 1:
        raise ValueError("need at least one variable")
    vs = VarSet(tuple(f"x{i + 1}" for i in range(n)))
    return Polynomial(vs, {(1,) * n: Fraction(1)})


# -- lifts by fresh variables ------------------------------------------------


class LiftReport(NamedTuple):
    """Lemma A checked on one lift F = f*u (`verify_lift`).

    hilbert_identity: each dimension of the lift is the sum of two
    consecutive dimensions of the base.  annihilator_inclusion: the
    base annihilators and the square of the new variable kill the lift.
    annihilator_identity: they generate the lift's whole annihilator,
    which follows from the inclusion and the Hilbert identity by a
    dimension count.  The two inheritance pairs are (base, lift) for
    quadric presentation and the strong Lefschetz property."""

    polynomial: Polynomial
    added: tuple[str, ...]
    hilbert_base: tuple[int, ...]
    hilbert_lift: tuple[int, ...]
    hilbert_identity: bool
    annihilator_inclusion: bool
    annihilator_identity: bool
    quadrics_inherited: tuple[bool, bool]
    slp_inherited: tuple[bool, bool]


def _fresh_names(vs: VarSet, count: int, stem: str = "z") -> tuple[str, ...]:
    existing = set(vs.names)
    out: list[str] = []
    k = 1
    while len(out) < count:
        cand = f"{stem}{k}"
        if cand not in existing and cand not in out:
            out.append(cand)
        k += 1
    return tuple(out)


def times_u(f: Polynomial) -> Polynomial:
    """f times one fresh variable, the first of z1, z2, ... that f does
    not use; it is the last variable of the result.  Block data is
    dropped: the lift is not bigraded."""
    vs = VarSet(f.varset.names + _fresh_names(f.varset, 1))
    return Polynomial(vs, {e + (1,): c for e, c in f.terms.items()})


def lift_chain_algebra(
    base: GradedAlgebra, lifted: Polynomial, lifts: int
) -> GradedAlgebra:
    """The algebra of `lifted`, the generator of `base` after `lifts`
    applications of `times_u`, transported one lift at a time by Lemma
    A (`apolarity._lift`), each adding h_{k-1} to h_k; each step reads
    `lifted` cut to its leading variables.  Nothing is eliminated, and
    with no lift the base is the answer."""
    alg, n = base, lifted.varset.size
    for keep in range(n - lifts + 1, n + 1):
        terms = {e[:keep]: c for e, c in lifted.terms.items()}
        alg = _lift(alg, Polynomial(lifted.varset.restrict(range(keep)), terms))
    return alg


def verify_lift(
    f: Polynomial, config: SamplingConfig = DEFAULT_CONFIG
) -> LiftReport:
    """Lemma A on the lift F = `times_u`(f), whose algebra is built
    directly: its Hilbert function is h'_k = h_k + h_{k-1} from the
    base's; it equals the transported one of `lift_chain_algebra` in
    every field, reduced rows in order; the base annihilator plus the
    square of the new variable generates the lift's annihilator
    (inclusion by direct application, equality by that dimension
    count); base and lift agree on quadric presentation, and the strong
    Lefschetz property carries over; and when the base's rank table is
    exact, every exact cell of the lift's reads the base's Jordan type
    lifted by the Clebsch-Gordan rule, the transport the family reports
    rest on (`lefschetz.lifted_rank`).  A failed check raises
    InvariantViolation, since each is a theorem."""
    lifted = times_u(f)
    base = build_algebra(f)
    lift_alg = build_algebra(lifted)
    d = base.socle_degree
    if lift_alg.hilbert != tuple(base.dim(k) + base.dim(k - 1) for k in range(d + 2)):
        raise InvariantViolation("the lift's Hilbert function is not h_k + h_(k-1)")
    fields = [
        (a.f, a.scale, a.hilbert, a._quotient_bases, a._catalecticants,
         [list(red.items()) for red in a._reduced], a.warnings)
        for a in (lift_alg, lift_chain_algebra(base, lifted, 1))
    ]
    if fields[0] != fields[1]:
        raise InvariantViolation("the transported lift differs from the direct build")
    # The monomial annihilators of f kill F trivially; build_algebra
    # dropped the variables f does not use from both algebras.
    lvs = lift_alg.varset
    ops = [{(0,) * (lvs.size - 1) + (2,): 1}] + [
        {e + (0,): c for e, c in a.terms.items()}
        for k in range(1, d + 1)
        for a in base.ann_basis(k)
    ]
    if any(not apolar_apply(Polynomial(lvs, op), lift_alg.f).is_zero() for op in ops):
        raise InvariantViolation("a base annihilator fails to annihilate the lift")
    # So J = Ann(f)*S + (u^2) lies in Ann(F).  S/J = (Q[x]/Ann f)[u]/(u^2)
    # has dimension h_k + h_(k-1) in degree k and maps onto A_F, whose
    # dimension h'_k is that sum (checked above): J_k = Ann(F)_k for all k.
    both = (base, lift_alg)
    quadrics_pair = tuple(ann_generated_by_quadrics(a).presented for a in both)
    if quadrics_pair[0] != quadrics_pair[1]:
        raise InvariantViolation("base and lift differ on quadric presentation")
    slp_pair = tuple(slp_check(a, config).holds for a in both)
    if slp_pair[0] and not slp_pair[1]:
        raise InvariantViolation("the strong Lefschetz property was lost by the lift")
    table = rank_table(base, config)
    if all(c.is_exact for c in table.values()):
        strings = lift_jordan_type(jordan_type(base.hilbert, table))
        if any(
            c.is_exact and c.rank != string_rank(strings, i, j)
            for (i, j), c in rank_table(lift_alg, config).items()
        ):
            raise InvariantViolation(
                "the lift's rank table is not the base's Jordan type "
                "lifted by the Clebsch-Gordan rule"
            )
    return LiftReport(
        lifted, lifted.varset.names[-1:], base.hilbert, lift_alg.hilbert,
        hilbert_identity=True, annihilator_inclusion=True,
        annihilator_identity=True, quadrics_inherited=quadrics_pair,
        slp_inherited=slp_pair,
    )


class DoubleLiftReport(NamedTuple):
    """Two-variable lift with its Hessian-deficiency transport.

    The criterion matrix of the base (middle square Hessian for odd
    socle degree, the (q-1, q) Hessian for even) and the corresponding
    matrix of the lift are rank-certified; deficiency is the distance
    below the maximal possible rank."""

    polynomial: Polynomial
    added: tuple[str, ...]
    hilbert_base: tuple[int, ...]
    hilbert_lift: tuple[int, ...]
    base_criterion_rank: RankCertificate
    lift_criterion_rank: RankCertificate
    base_deficiency: int
    lift_deficiency: int
    deficiency_transported: bool


def _transported_criterion(
    base: GradedAlgebra, lifts: int, config: SamplingConfig
) -> tuple[RankCertificate, int, tuple[int, ...]]:
    """The WLP criterion rank of the base's generator times `lifts`
    fresh variables, the full rank it is measured against, and the
    lift's Hilbert function h_k + h_(k-1), applied once per lift
    (Lemma A).  The rank is transported from the base's cells by the
    Clebsch-Gordan rule (`lefschetz.lifted_rank`): at socle degree D
    and q = D // 2 it counts the lifted strings [a, b] with
    a <= q < b, against min(h'_q, h'_(q+1)), and no lifted matrix is
    built."""
    hilbert = base.hilbert
    for _ in range(lifts):
        hilbert = tuple(a + b for a, b in zip(hilbert + (0,), (0,) + hilbert))
    q = (len(hilbert) - 1) // 2
    cert = lifted_rank(base, lifts, q, 1, config)
    return cert, min(hilbert[q], hilbert[q + 1]), hilbert


def times_uv(
    base: GradedAlgebra, config: SamplingConfig = DEFAULT_CONFIG
) -> DoubleLiftReport:
    """Multiply the generator of the base algebra by two fresh
    variables, preserving the parity of the socle degree.

    The base's criterion Hessian is rank-certified, and the lift's
    criterion rank and Hilbert function are transported from the
    base's rank table (`_transported_criterion`): a base whose matrix
    sits below maximal rank must lift to one that does too, which is
    the mechanism the counterexample families rely on.  The base is the
    caller's algebra, and no lifted algebra or matrix is built."""
    lifted = times_u(times_u(base.f))
    mb = wlp_criterion_matrix(base)
    cb = generic_rank(mb, config)
    db = min(mb.shape) - cb.rank
    cl, full, hilbert = _transported_criterion(base, 2, config)
    dl = full - cl.rank
    return DoubleLiftReport(
        lifted,
        lifted.varset.names[-2:],
        base.hilbert,
        hilbert,
        cb,
        cl,
        db,
        dl,
        (db == 0) or (dl > 0),
    )


# -- forms with forced Hessian degeneration ----------------------------------


class PerazzoReport(NamedTuple):
    """The combined form plus the two rank findings that matter: the
    Jacobian of the ingredient forms (rank below their number signals
    the algebraic dependence the construction needs) and the full
    second-partials matrix of the result (expected degenerate exactly
    then)."""

    polynomial: Polynomial
    linearly_independent: bool
    jacobian_rank: RankCertificate
    algebraic_dependence_expected: bool
    hessian_rank: RankCertificate
    hessian_degenerate: bool
    notes: tuple[str, ...] = ()


def perazzo_form(
    partials: list[Polynomial],
    tail: Polynomial | None = None,
    config: SamplingConfig = DEFAULT_CONFIG,
) -> PerazzoReport:
    """Combine degree-(d-1) forms g_1..g_s in one block of variables
    into sum_i x_i g_i + tail with fresh front variables x_i.

    The construction asks for the g_i to be linearly independent (an
    exact check; violations raise) yet algebraically dependent, which
    is reported through the generic rank of their Jacobian: a rank
    below s is the expected degenerate situation, full rank earns a
    warning note since the resulting Hessian then has no reason to
    degenerate."""
    if len(partials) < 2:
        raise ValueError("need at least two forms")
    uvs = partials[0].varset
    degs = {g.homogeneous_degree() for g in partials}
    if any(g.varset != uvs for g in partials):
        raise ValueError("forms live in different variable sets")
    if len(degs) != 1 or None in degs:
        raise ValueError("forms must be homogeneous of one common degree")
    e = degs.pop()
    if e < 1:
        raise ValueError("forms must have positive degree")
    if tail is not None and not tail.is_zero():
        if tail.varset != uvs or tail.homogeneous_degree() != e + 1:
            raise ValueError(
                "tail must be homogeneous of degree one more, in the same "
                "variables"
            )

    s = len(partials)
    independent = matrix_rank([g.terms for g in partials]) == s
    if not independent:
        raise ValueError("the forms are linearly dependent")

    front = tuple(f"x{i + 1}" for i in range(s))
    if set(front) & set(uvs.names):
        front = _fresh_names(uvs, s, stem="x")
    names = front + uvs.names
    blocks = (0,) * s + (1,) * uvs.size
    vs = VarSet(names, blocks)
    terms: dict[tuple[int, ...], Fraction] = {}
    for i, g in enumerate(partials):
        for m, c in g.terms.items():
            key = _unit(s, i) + m
            terms[key] = terms.get(key, Fraction(0)) + c
    if tail is not None:
        for m, c in tail.terms.items():
            key = (0,) * s + m
            terms[key] = terms.get(key, Fraction(0)) + c
    f = Polynomial(vs, terms)

    # Both matrices are Hessians of f, so both get the torus-slice rung:
    # the Jacobian of the g_i is the block of f's (1, 1) Hessian with rows
    # on the front variables and columns on the g_i's variables, since
    # d/du_j g_i = d/dx_i d/du_j f.  Algebra-free, so degenerate inputs
    # are reported rather than mangled.
    units = tuple(_unit(vs.size, i) for i in range(vs.size))
    cert = generic_rank(
        _hessian_of(f, units[:s], units[s:], "jacobian", (1, e - 1)), config
    )
    dependent = cert.rank < s
    hess_cert = generic_rank(_hessian_of(f, units, units, "hessian", (1, 1)), config)
    degenerate = hess_cert.rank < vs.size

    notes: list[str] = []
    if not dependent:
        notes.append(
            "the forms appear algebraically independent (full Jacobian "
            "rank), so the combined form need not have a degenerate "
            "Hessian"
        )
    if dependent and not degenerate:
        notes.append(
            "unexpectedly, the Hessian shows full rank although the "
            "Jacobian sampled as degenerate; one of the two rank "
            "certificates is too optimistic"
        )
    return PerazzoReport(
        f, independent, cert, dependent, hess_cert, degenerate, tuple(notes)
    )


# -- counterexample families --------------------------------------------------


class FamilyMember(NamedTuple):
    """One algebra from a counterexample family.

    expected_wlp/expected_slp state what the construction guarantees;
    witness carries the exact syzygy certificate when the base is a
    complex with a grid (even socle degrees); quadrics and
    criterion_rank hold the verification results when the member was
    generated with a report (the default), and construction narrates
    the build steps."""

    polynomial: Polynomial
    degree: int
    codimension: int
    base: str
    construction: tuple[str, ...]
    expected_wlp: bool
    expected_slp: bool
    witness: NoninjectivityWitness | None = None
    quadrics: bool | None = None
    criterion_rank: RankCertificate | None = None


# Edges (a, b) stand for (va, vb), listed in vertex order.
_SQUARE_EDGES = ((1, 2), (1, 4), (2, 3), (3, 4))
_THETA_EDGES = ((1, 2), (1, 4), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6))


def _cubic_base(r: int) -> tuple[Polynomial, str, list[str]]:
    """A cubic generator in r essential variables whose middle Hessian
    vanishes identically, for every r >= 8."""
    steps: list[str] = []
    if r == 9 or r == 11:
        extra = " + x5*u5*u1 + w^2*u1" if r == 11 else " + w^2*u1"
        desc = (
            "four-cycle generator plus a squared auxiliary variable"
            + (" and one pendant edge" if r == 11 else "")
        )
        steps.append(f"parsed augmented four-cycle form in {r} variables")
        return _four_cycle_form(extra), desc, steps
    if r % 2 == 0:
        n, edges, leaves = 4, _SQUARE_EDGES, (r - 8) // 2
        desc = "four-cycle graph"
    else:
        n, edges, leaves = 6, _THETA_EDGES, (r - 13) // 2
        desc = "hexagon with a long diagonal"
    comp = SimplicialComplex(
        tuple(f"v{i}" for i in range(1, n + 1)),
        tuple((f"v{a}", f"v{b}") for a, b in edges),
    )
    steps.append(f"built the {desc} ({len(comp.facets)} edges)")
    if leaves:
        comp = grow_with_leaves(comp, leaves)
        steps.append(f"attached {leaves} pendant edge(s)")
        desc += f" with {leaves} pendant edge(s)"
    return dual_generator(comp), desc, steps


def odd_counterexample(
    d: int,
    codim: int,
    config: SamplingConfig = DEFAULT_CONFIG,
    verify: str = "report",
) -> FamilyMember:
    """An algebra of odd socle degree d and the given codimension
    without the weak Lefschetz property.

    Attainable codimensions start at d + 5: the construction multiplies
    a cubic base with identically vanishing middle Hessian (available
    in any number of variables from 8 up) by d - 3 fresh variables,
    each adding one to the codimension.

    verify "report" (the default) checks the defining claims on the
    result: annihilator generated by quadrics and a rank-deficient
    middle Hessian; "none" skips verification, and so does "counts"
    here: the member's Hilbert function is the base's lifted by
    construction, so there is nothing to count short of the report.
    Only the cubic base is built: the middle Hessian's rank is
    transported from the base's Jordan type (`_transported_criterion`),
    and no lifted algebra or matrix is made.

    The quadric answer is the base's.  For F = f*u, Ann(F) = Ann(f)*S +
    (u^2) (Lemma A) and u -> 0 maps it onto Ann(f), generators of degree
    <= 2 to generators of degree <= 2: F is presented by quadrics iff f
    is.  l + c*u kills F iff c*f = 0 and l kills f, so F has a linear
    annihilator iff f has.  Induction carries both up the lifts."""
    if verify not in ("none", "counts", "report"):
        raise ValueError(f"unknown verify level {verify!r}")
    if d < 3 or d % 2 == 0:
        raise ValueError("socle degree must be odd and at least 3")
    if codim < d + 5:
        raise ValueError(
            f"codimension {codim} is out of range: for socle degree {d} "
            f"the family starts at codimension {d + 5}"
        )
    r = codim - (d - 3)
    base, desc, steps = _cubic_base(r)
    f = base
    for _ in range(d - 3):
        f = times_u(f)
        steps.append(f"multiplied by fresh variable {f.varset.names[-1]}")
    quadrics: bool | None = None
    criterion: RankCertificate | None = None
    if verify == "report":
        base_alg = build_algebra(base)
        quadrics = ann_generated_by_quadrics(base_alg).presented
        if not quadrics:
            raise InvariantViolation(
                "the annihilator needs generators beyond the quadrics, "
                "contradicting the construction"
            )
        criterion, full, _ = _transported_criterion(base_alg, d - 3, config)
        if criterion.rank >= full:
            raise InvariantViolation(
                "the middle Hessian reached full rank, contradicting "
                "the construction"
            )
        steps.append(
            "verified: presented by quadrics, middle Hessian rank "
            f"{criterion.rank} < {full}"
        )
    return FamilyMember(
        f,
        d,
        codim,
        f"cubic base in {r} variables: {desc}",
        tuple(steps),
        expected_wlp=False,
        expected_slp=False,
        quadrics=quadrics,
        criterion_rank=criterion,
    )


def _quartic_base(qc: int) -> tuple[SimplicialComplex, str, list[str]]:
    steps: list[str] = []
    if qc == 14 or (qc >= 16 and qc % 2 == 0):
        comp = turan_complex((2, 2, 2))
        desc = "three groups of two"
        steps.append("built the complete three-partite complex (2, 2, 2)")
        leaves = (qc - 14) // 2
    else:
        comp = without_face(turan_complex((2, 2, 3)), ("a1", "c3"))
        desc = "groups (2, 2, 3) minus the edge a1-c3"
        steps.append(
            "built the complete three-partite complex (2, 2, 3) and "
            "removed the face {a1, c3}"
        )
        leaves = (qc - 17) // 2
    if leaves:
        comp = grow_with_leaves(comp, leaves)
        steps.append(f"attached {leaves} leaf facet(s)")
        desc += f" with {leaves} leaf facet(s)"
    return comp, desc, steps


def even_counterexample(
    d: int,
    codim: int,
    config: SamplingConfig = DEFAULT_CONFIG,
    verify: str = "report",
) -> FamilyMember:
    """An algebra of even socle degree d >= 4 and the given codimension
    without the weak Lefschetz property.

    The quartic bases are facet algebras carrying an exact syzygy
    certificate (codimension 14, and every codimension from 16 up;
    15 falls in a gap of the construction); each pair of fresh
    variables then raises the socle degree by two and the codimension
    by two, so degree d reaches codimensions 14 + (d-4) and everything
    from 16 + (d-4) upward.

    The grid syzygy on the base is always verified except at verify
    "none".  "report" (the default) additionally certifies the rank of
    the step-deciding Hessian of the lifted result when fresh variables
    were added, confirming that the deficiency travelled up the chain;
    that rank is transported from the quartic base's Jordan type
    (`_transported_criterion`), and no lifted algebra or matrix is
    made."""
    if verify not in ("none", "counts", "report"):
        raise ValueError(f"unknown verify level {verify!r}")
    if d < 4 or d % 2:
        raise ValueError("socle degree must be even and at least 4")
    qc = codim - (d - 4)
    if qc < 14 or qc == 15:
        attain = f"{14 + d - 4} or any value from {16 + d - 4} up"
        raise ValueError(
            f"codimension {codim} is out of range for socle degree {d}: "
            f"attainable values are {attain}"
        )
    comp, desc, steps = _quartic_base(qc)
    base = dual_generator(comp)
    witness: NoninjectivityWitness | None = None
    if verify != "none":
        base_alg = build_algebra(base)
        pairs = (("a1", "a2"), ("b1", "b2"), ("c1", "c2"))
        witness = grid_noninjectivity_witness(comp, pairs, config, base_alg)
        if not witness.wlp_excluded:
            raise InvariantViolation(
                "the grid syzygy no longer excludes full rank on this base"
            )
        steps.append(
            "verified the grid syzygy: multiplication A_1 -> A_2 has "
            f"rank at most {witness.step_rank_bound} < "
            f"{witness.step_full_rank} for every linear form"
        )
    f = base
    for _ in range((d - 4) // 2):
        f = times_u(times_u(f))
        z1, z2 = f.varset.names[-2:]
        steps.append(f"multiplied by fresh variables {z1} and {z2}")
    criterion: RankCertificate | None = None
    if verify == "report" and d > 4:
        criterion, full, _ = _transported_criterion(base_alg, d - 4, config)
        if criterion.rank >= full:
            raise InvariantViolation(
                "the step-deciding Hessian of the lift reached full "
                "rank, contradicting the deficiency transport"
            )
        q = d // 2
        steps.append(
            f"verified: rank of the ({q - 1}, {q}) Hessian of the lift "
            f"is {criterion.rank} < {full}"
        )
    return FamilyMember(
        f,
        d,
        codim,
        f"quartic base in {qc} variables: {desc}",
        tuple(steps),
        expected_wlp=False,
        expected_slp=False,
        witness=witness,
        quadrics=None,
        criterion_rank=criterion,
    )


# -- worked examples ----------------------------------------------------------


class CatalogEntry(NamedTuple):
    identifier: str
    description: str
    polynomial: Polynomial
    expected: dict


def _four_cycle_form(extra: str = "") -> Polynomial:
    names = ("x1", "x2", "x3", "x4", "u1", "u2", "u3", "u4")
    text = "x1*u1*u2 + x2*u2*u3 + x3*u3*u4 + x4*u4*u1"
    if extra:
        return parse_polynomial(text + extra)
    return parse_polynomial(text, VarSet(names, (0, 0, 0, 0, 1, 1, 1, 1)))


def _expected(hilbert: tuple[int, ...], lefschetz: bool) -> dict:
    """Expected results of a catalog entry: every one is presented by
    quadrics and has WLP exactly when it has SLP."""
    return {
        "hilbert": hilbert,
        "codimension": hilbert[1],
        "quadrics": True,
        "wlp": lefschetz,
        "slp": lefschetz,
    }


# (identifier, description, builder of the polynomial, expected results)
_CATALOG = (
    (
        "four-cycle",
        "cubic from the edges of a square: the smallest facet "
        "algebra presented by quadrics whose middle Hessian "
        "vanishes identically",
        _four_cycle_form,
        _expected((1, 8, 8, 1), False),
    ),
    (
        "determinantal-3x3",
        "cubic from a three-by-three determinant with repeated "
        "entries; matches the four-cycle dimensions with a "
        "different support",
        lambda: parse_polynomial("-x0*x5*x7 + x1*x5*x6 + x2*x3*x7 - x2*x4*x6"),
        _expected((1, 8, 8, 1), False),
    ),
    (
        "four-cycle-9",
        "four-cycle cubic plus a squared auxiliary variable: "
        "odd codimension with the same vanishing Hessian",
        lambda: _four_cycle_form(" + w^2*u1"),
        _expected((1, 9, 9, 1), False),
    ),
    (
        "four-cycle-11",
        "four-cycle cubic with one pendant edge and a squared "
        "auxiliary variable",
        lambda: _four_cycle_form(" + x5*u5*u1 + w^2*u1"),
        _expected((1, 11, 11, 1), False),
    ),
    (
        "boolean-3",
        "product of three variables: annihilator the squares, "
        "all Lefschetz properties hold",
        lambda: boolean_form(3),
        _expected((1, 3, 3, 1), True),
    ),
    (
        "boolean-4",
        "product of four variables",
        lambda: boolean_form(4),
        _expected((1, 4, 6, 4, 1), True),
    ),
    (
        "boolean-5",
        "product of five variables",
        lambda: boolean_form(5),
        _expected((1, 5, 10, 10, 5, 1), True),
    ),
    (
        "turan-222",
        "complete three-partite complex with groups of two: the "
        "smallest quartic facet algebra whose multiplication "
        "A_1 -> A_2 is never injective",
        lambda: dual_generator(turan_complex((2, 2, 2))),
        _expected((1, 14, 24, 14, 1), False),
    ),
    (
        "turan-223",
        "complete three-partite complex with groups (2, 2, 3)",
        lambda: dual_generator(turan_complex((2, 2, 3))),
        _expected((1, 19, 32, 19, 1), False),
    ),
    (
        "turan-223-cut",
        "groups (2, 2, 3) with one edge removed: odd codimension "
        "while the grid certificate survives",
        lambda: dual_generator(
            without_face(turan_complex((2, 2, 3)), ("a1", "c3"))
        ),
        _expected((1, 17, 30, 17, 1), False),
    ),
)


def example_catalog(only: str | None = None) -> tuple[CatalogEntry, ...]:
    """Worked examples with their expected analysis results, used by
    the command line interface and pinned down in the test suite.

    With `only`, just the entry of that identifier, and only its
    polynomial is built; an unknown identifier raises ValueError
    naming the known ones."""
    specs = [spec for spec in _CATALOG if only in (None, spec[0])]
    if not specs:
        known = ", ".join(spec[0] for spec in _CATALOG)
        raise ValueError(f"unknown example {only!r}; known: {known}")
    return tuple(
        CatalogEntry(name, description, build(), dict(expected))
        for name, description, build, expected in specs
    )
