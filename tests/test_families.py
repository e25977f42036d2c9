"""Lifts, Perazzo forms, counterexample generators, and the catalog."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mixedhess import (
    InvariantViolation,
    Polynomial,
    SamplingConfig,
    VarSet,
    ann_generated_by_quadrics,
    boolean_form,
    build_algebra,
    even_counterexample,
    example_catalog,
    generic_rank,
    odd_counterexample,
    parse_polynomial,
    perazzo_form,
    slp_check,
    times_u,
    times_uv,
    verify_lift,
    wlp_check,
)
from mixedhess import apolarity, families, hessians, lefschetz, polyring
from mixedhess.families import lifted_hilbert
from mixedhess.lefschetz import (
    jordan_type,
    lift_jordan_type,
    lifted_rank,
    rank_table,
    string_rank,
    wlp_criterion_matrix,
)

from conftest import dense_random_form


def test_boolean_form_dimensions():
    for n in range(1, 5):
        alg = build_algebra(boolean_form(n))
        assert alg.hilbert == tuple(math.comb(n, k) for k in range(n + 1))


def test_times_u_counts(boolean3_alg):
    lifted = times_u(parse_polynomial("x1*x2*x3"))
    assert lifted.varset.names == ("x1", "x2", "x3", "z1")
    assert lifted.terms == {(1, 1, 1, 1): 1}
    assert lifted_hilbert(boolean3_alg.hilbert) == (1, 4, 6, 4, 1)
    assert lifted_hilbert(boolean3_alg.hilbert, 0) == boolean3_alg.hilbert


def test_times_u_full_verification(config):
    rng = random.Random(3)
    f = dense_random_form(rng, 3, 3)
    report = verify_lift(f, config)
    assert report.added == ("z1",)
    assert report.hilbert_lift == _one_lift(report.hilbert_base)
    assert report.hilbert_identity
    assert report.annihilator_inclusion
    assert report.annihilator_identity
    assert report.quadrics_inherited[0] <= report.quadrics_inherited[1]
    assert report.slp_inherited[0] <= report.slp_inherited[1]


def test_times_u_full_with_an_unused_variable(config):
    # build_algebra drops w from both algebras; the inclusion check
    # embeds the base annihilators into the lift's own variables.
    f = parse_polynomial("x*y*z", VarSet(("x", "y", "z", "w")))
    report = verify_lift(f, config)
    assert report.hilbert_lift == (1, 4, 6, 4, 1)
    assert report.annihilator_inclusion
    assert report.annihilator_identity


def test_times_u_full_when_the_unused_variable_is_z1(config):
    # The lift of f avoids the name z1 that f's VarSet holds, though its
    # algebra drops z1: the fresh variable is z2.
    f = parse_polynomial("x*y*z", VarSet(("x", "y", "z", "z1")))
    report = verify_lift(f, config)
    assert report.added == ("z2",)
    lift = build_algebra(report.polynomial)
    assert lift.varset.names == ("x", "y", "z", "z2")
    assert lift.warnings == ("dropped unused variables: z1",)


def test_verify_lift_rejects_a_clebsch_gordan_step_that_drops_a_string(config, monkeypatch):
    # verify_lift ranks the lift's whole table directly, so it catches a
    # transport without the [a+1, b] strings.
    def short(strings):
        return {(a, b + 1): m for (a, b), m in strings.items()}

    monkeypatch.setattr(families, "lift_jordan_type", short)
    with pytest.raises(InvariantViolation, match="Clebsch-Gordan"):
        verify_lift(parse_polynomial("x1*x2*x3"), config)


def test_no_check_enumerates_monomials(catalog, config, monkeypatch):
    def refuse(*args):
        raise AssertionError("a check enumerated all monomials of a degree")

    for module in (apolarity, families, polyring):
        monkeypatch.setattr(module, "monomial_exponents", refuse, raising=False)
    for entry in catalog.values():
        alg = build_algebra(entry.polynomial)
        assert ann_generated_by_quadrics(alg).presented == entry.expected["quadrics"]
    f = dense_random_form(random.Random(5), 3, 3)
    assert verify_lift(f, config).annihilator_identity


# -- Lemma A on small forms ---------------------------------------------------


@st.composite
def small_forms(draw):
    """Forms in 1-5 variables of degree 1-5: sparse ones, pure powers
    x1^d, and forms in fewer linear forms than variables, which have a
    linear annihilator."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 5))
    vs = VarSet(tuple(f"x{i + 1}" for i in range(n)))
    kind = draw(st.sampled_from(["sparse", "power", "linear"]))
    if kind == "power" or n == 1:
        return Polynomial(vs, {(d,) + (0,) * (n - 1): 1})
    coeff = st.integers(-3, 3).filter(bool)
    if kind == "sparse":
        monomial = st.lists(
            st.integers(0, n - 1), min_size=d, max_size=d
        ).map(lambda picks: tuple(picks.count(i) for i in range(n)))
        terms = draw(st.dictionaries(monomial, coeff, min_size=1, max_size=6))
        return Polynomial(vs, terms)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    forms = [
        Polynomial(vs, dict(zip(units, draw(row))))
        for _ in range(draw(st.integers(1, n - 1)))
    ]
    f = Polynomial.zero(vs)
    for _ in range(draw(st.integers(1, 3))):
        term = Polynomial.constant(vs, draw(coeff))
        for _ in range(d):
            term = term * draw(st.sampled_from(forms))
        f = f + term
    assume(not f.is_zero())
    return f


@settings(max_examples=60, deadline=None)
@given(small_forms())
def test_verify_lift_on_small_forms(config, f):
    # Pure powers and forms with a linear annihilator reach Lemma A too.
    report = verify_lift(f, config)
    lifted = times_u(f)
    assert report.polynomial == lifted
    assert report.added == lifted.varset.names[-1:]
    assert report.hilbert_base == build_algebra(f).hilbert
    assert report.hilbert_lift == _one_lift(report.hilbert_base)
    assert report.hilbert_identity
    assert report.annihilator_inclusion
    assert report.annihilator_identity
    assert report.quadrics_inherited[0] == report.quadrics_inherited[1]
    assert report.slp_inherited[0] <= report.slp_inherited[1]


def test_verify_lift_rejects_a_lift_off_the_hilbert_identity(config, monkeypatch):
    # The annihilator identity is a dimension count against h_k + h_(k-1),
    # so a directly built lift with one more dimension in degree 1 fails.
    f = parse_polynomial("x1*x2*x3")

    def corrupt(g):
        alg = build_algebra(g)
        if g == f:
            return alg
        h = alg.hilbert
        return apolarity.GradedAlgebra(
            alg.f, alg.scale, h[:1] + (h[1] + 1,) + h[2:], alg._quotient_bases,
            alg._catalecticants, alg._reduced, alg.warnings,
        )

    monkeypatch.setattr(families, "build_algebra", corrupt)
    with pytest.raises(InvariantViolation, match=r"is not h_k \+ h_\(k-1\)"):
        verify_lift(f, config)


def _one_lift(h: tuple[int, ...]) -> tuple[int, ...]:
    """h'_k = h_k + h_{k-1}: the Hilbert function after one lift."""
    return tuple(a + b for a, b in zip(h + (0,), (0,) + h))


def _lifted(f, m):
    """f after m applications of times_u."""
    for _ in range(m):
        f = times_u(f)
    return f


def _lifted_quadrics(f, m):
    """The quadric answers of f and of its m-th lift, each eliminated."""
    return tuple(
        ann_generated_by_quadrics(build_algebra(g)).presented
        for g in (f, _lifted(f, m))
    )


@pytest.mark.parametrize("d, codim", [(5, 10), (5, 14), (7, 12)])
def test_odd_member_quadrics_are_the_bases(d, codim):
    # The report reads the cubic base's answer; the lift's own agrees.
    f = odd_counterexample(d, codim).polynomial
    r = codim - (d - 3)
    base = Polynomial(VarSet(f.varset.names[:r]), {e[:r]: c for e, c in f.terms.items()})
    assert _lifted(base, d - 3) == f
    assert _lifted_quadrics(base, d - 3) == (True, True)


@pytest.mark.parametrize(
    "text, presented",
    [
        ("x1*x2*x3", True),
        ("x^3 + y^3", False),  # Ann(f) = (x*y, x^3 - y^3)
        ("x^3", False),  # Ann(f) = (x^4)
        ("x^3 + 3*x^2*y + 3*x*y^2 + y^3", False),  # (x + y)^3: x - y kills it
    ],
    ids=["presented", "cubic-generator", "power", "linear-annihilator"],
)
@pytest.mark.parametrize("m", [1, 2])
def test_lift_quadrics_are_the_bases(text, presented, m):
    assert _lifted_quadrics(parse_polynomial(text), m) == (presented, presented)


@settings(max_examples=40, deadline=None)
@given(small_forms(), st.integers(1, 2))
def test_lift_quadrics_are_the_bases_on_small_forms(f, m):
    base, lift = _lifted_quadrics(f, m)
    assert base == lift


@settings(max_examples=40, deadline=None)
@given(small_forms(), st.integers(1, 3))
def test_lift_chain_hilbert_is_the_one_step_identity_repeated(f, m):
    # The reports' Hilbert function of an m-fold lift, read off the
    # base, against the elimination of the lift itself.
    lift = build_algebra(_lifted(f, m))
    assert lifted_hilbert(build_algebra(f).hilbert, m) == lift.hilbert


# -- the criterion rank transported from the base's Jordan type ---------------


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "make, d, codim",
    [
        (odd_counterexample, 5, 10),
        (odd_counterexample, 5, 14),
        (odd_counterexample, 7, 12),
        (odd_counterexample, 9, 14),
        (even_counterexample, 6, 16),
        (even_counterexample, 8, 18),
    ],
    ids=["odd-5-10", "odd-5-14", "odd-7-12", "odd-9-14", "even-6-16", "even-8-18"],
)
def test_transported_criterion_is_the_direct_rank(make, d, codim, seed):
    # The direct route: eliminate the lifted algebra and rank its criterion.
    config = SamplingConfig(seed=seed)
    member = make(d, codim, config)
    lift = build_algebra(member.polynomial)
    direct = generic_rank(wlp_criterion_matrix(lift), config)
    reported = member.criterion_rank
    assert (reported.rank, reported.mode) == (direct.rank, direct.mode)
    assert reported.rank < min(lift.hilbert[d // 2], lift.hilbert[d // 2 + 1])


@settings(max_examples=40, deadline=None)
@given(small_forms(), st.integers(1, 3))
def test_transported_rank_table_is_the_direct_one(fast_config, f, m):
    # Every cell of the lift, not only the criterion, transported from
    # the base two ways, by its Jordan type lifted m times and by
    # lifted_rank's recursion, against the lift's own table.
    base = build_algebra(f)
    strings = jordan_type(base.hilbert, rank_table(base, fast_config))
    lift = build_algebra(_lifted(f, m))
    if strings is not None:
        for _ in range(m):
            strings = lift_jordan_type(strings)
        assert tuple(string_rank(strings, k, 0) for k in range(len(lift.hilbert))) == lift.hilbert
    for (i, j), direct in rank_table(lift, fast_config).items():
        transported = lifted_rank(base, m, i, j, fast_config)
        if strings is not None:
            assert transported.rank == string_rank(strings, i, j), (i, j)
        if transported.is_exact and direct.is_exact:
            assert transported.rank == direct.rank, (i, j)
    q = lift.socle_degree // 2
    assert families._transported_criterion(base, m, fast_config) == (
        lifted_rank(base, m, q, 1, fast_config),
        min(lift.hilbert[q], lift.hilbert[q + 1]),
        lift.hilbert,
    )


def test_transported_criterion_of_a_low_sampled_base_cell(config, monkeypatch):
    # A sampled base cell one low makes the transported rank one low and
    # probabilistic, with the sum of the bounds of the base cells it
    # reads, as the direct rank of a sampled lifted cell would be.
    def sampled(alg, i, j, config):
        cert = real(alg, i, j, config)
        read.append((i, j))
        if (i, j) == (3, 1):
            return cert._replace(
                rank=cert.rank - 1, mode="probabilistic", failure_bound=Fraction(1, 8)
            )
        if (i, j) == (2, 3):
            return cert._replace(mode="probabilistic", failure_bound=Fraction(1, 16))
        return cert

    read, real = [], lefschetz._cell_rank
    monkeypatch.setattr(lefschetz, "_cell_rank", sampled)
    report = times_uv(build_algebra(boolean_form(6)), config)
    assert sorted(set(read)) == [(2, 3), (3, 1)]
    criterion = report.lift_criterion_rank
    assert (criterion.rank, report.lift_deficiency) == (55, 1)
    assert criterion.mode == "probabilistic"
    assert criterion.failure_bound == Fraction(3, 16)
    assert "sampled base cells it reads" in criterion.note


@pytest.mark.parametrize(
    "make, d, codim",
    [(odd_counterexample, 7, 12), (even_counterexample, 8, 18)],
    ids=["odd-7-12", "even-8-18"],
)
def test_family_reports_build_no_lifted_algebra_or_matrix(make, d, codim, config, monkeypatch):
    # The one algebra a report builds is its base's, and so is every
    # matrix.
    def recording(f, *args, **kwargs):
        sizes.append(f.varset.size)
        return real(f, *args, **kwargs)

    built, sizes, real = [], [], hessians._hessian_of
    monkeypatch.setattr(
        families, "build_algebra", lambda f: built.append(f) or build_algebra(f)
    )
    monkeypatch.setattr(hessians, "_hessian_of", recording)
    member = make(d, codim, config)
    base_size = member.polynomial.varset.size - (d - 4 + d % 2)
    assert [f.varset.size for f in built] == [base_size]
    assert sizes and max(sizes) == base_size


def test_times_uv_builds_no_lifted_algebra_or_matrix(config, monkeypatch):
    # The base is the caller's, so times_uv builds no algebra at all.
    built, sizes, real = [], [], hessians._hessian_of
    base = build_algebra(parse_polynomial("x1*x2*x3"))
    monkeypatch.setattr(families, "build_algebra", built.append)
    monkeypatch.setattr(
        hessians, "_hessian_of",
        lambda f, *args: sizes.append(f.varset.size) or real(f, *args),
    )
    report = times_uv(base, config)
    assert built == []
    assert report.hilbert_lift == (1, 5, 10, 10, 5, 1)
    assert sizes and max(sizes) == 3


def test_times_uv_transports_deficiency(catalog, config):
    base = build_algebra(catalog["four-cycle"].polynomial)
    report = times_uv(base, config=config)
    assert report.hilbert_base == (1, 8, 8, 1)
    assert report.hilbert_lift == (1, 10, 25, 25, 10, 1)
    assert report.base_deficiency >= 1
    assert report.lift_deficiency >= 1
    assert report.deficiency_transported


def test_times_uv_keeps_parity(config):
    report = times_uv(build_algebra(parse_polynomial("x1*x2*x3")), config=config)
    assert len(report.hilbert_lift) == len(report.hilbert_base) + 2
    assert report.hilbert_lift == (1, 5, 10, 10, 5, 1)


def test_times_uv_certifies_both_criteria_unasked(config):
    report = times_uv(build_algebra(parse_polynomial("x1*x2*x3")), config)
    # Middle (1, 1) Hessian of the cubic, the (2, 2) one of the quintic.
    assert (report.base_criterion_rank.rank, report.base_deficiency) == (3, 0)
    assert (report.lift_criterion_rank.rank, report.lift_deficiency) == (10, 0)
    assert report.base_criterion_rank.is_exact and report.lift_criterion_rank.is_exact
    assert report.deficiency_transported


def test_lifts_skip_a_fresh_name_the_base_uses(config):
    f = parse_polynomial("x1*z1*x3")
    assert times_u(f).varset.names == ("x1", "z1", "x3", "z2")
    double = times_uv(build_algebra(f), config)
    assert double.added == ("z2", "z3")
    assert double.polynomial.varset.names == ("x1", "z1", "x3", "z2", "z3")


def test_perazzo_degenerate_hessian(config):
    vs = parse_polynomial("u + v").varset
    forms = [parse_polynomial(t, vs) for t in ("u^2", "u*v", "v^2")]
    report = perazzo_form(forms, config=config)
    assert report.linearly_independent
    assert report.jacobian_rank.rank == 2
    assert report.algebraic_dependence_expected
    assert report.hessian_degenerate


def test_perazzo_independent_gs_warns(config):
    vs = parse_polynomial("u + v + w").varset
    forms = [parse_polynomial(t, vs) for t in ("u^2", "v^2", "w^2")]
    report = perazzo_form(forms, config=config)
    assert report.jacobian_rank.rank == 3
    assert not report.algebraic_dependence_expected
    assert report.notes


def test_perazzo_rejects_dependent_forms(config):
    vs = parse_polynomial("u + v").varset
    forms = [parse_polynomial(t, vs) for t in ("u^2", "2*u^2")]
    with pytest.raises(ValueError):
        perazzo_form(forms, config=config)


def test_odd_counterexamples(config):
    for d, codim in ((3, 8), (3, 9), (3, 11), (5, 10), (5, 12)):
        member = odd_counterexample(d, codim, config)
        assert member.degree == d
        assert member.codimension == codim
        assert member.quadrics is True
        cr = member.criterion_rank
        assert cr is not None
        alg = build_algebra(member.polynomial)
        assert alg.codimension == codim
        assert alg.socle_degree == d
        q = d // 2
        full = min(alg.hilbert[q], alg.hilbert[q + 1])
        assert cr.rank < full


@pytest.mark.parametrize("r", [13, 15])
def test_odd_cubic_hexagon_bases(r, config):
    member = odd_counterexample(3, r, config)
    assert "hexagon with a long diagonal" in member.base
    assert build_algebra(member.polynomial).hilbert == (1, r, r, 1)
    assert member.quadrics is True
    assert member.criterion_rank.rank < r


def test_odd_out_of_range():
    with pytest.raises(ValueError):
        odd_counterexample(4, 10)
    with pytest.raises(ValueError):
        odd_counterexample(5, 9)
    with pytest.raises(ValueError):
        odd_counterexample(7, 11)


def test_even_counterexamples(config):
    for d, codim in ((4, 14), (4, 16), (4, 17)):
        member = even_counterexample(d, codim, config)
        assert member.degree == d
        assert member.codimension == codim
        alg = build_algebra(member.polynomial)
        assert alg.codimension == codim
        assert alg.socle_degree == d
        if member.witness is not None:
            assert member.witness.wlp_excluded


@pytest.mark.parametrize(
    "make, d, codim",
    [
        (odd_counterexample, 5, 10),
        (even_counterexample, 6, 16),
        (odd_counterexample, 7, 12),
    ],
    ids=["odd-5-10", "even-6-16", "odd-7-12"],
)
def test_family_chain_builds_each_algebra_once(make, d, codim, config, monkeypatch):
    # A chain eliminates its base once, however many lifts lie above
    # it, and transports the rest: nothing else is built.
    built = []

    def counting(f):
        built.append(f)
        return build_algebra(f)

    monkeypatch.setattr("mixedhess.families.build_algebra", counting)
    member = make(d, codim, config)
    (base,) = built
    assert base.homogeneous_degree() == 4 - d % 2
    r = base.varset.size
    assert member.polynomial.varset.names[:r] == base.varset.names
    assert member.polynomial.terms == {
        e + (1,) * (d - 4 + d % 2): c for e, c in base.terms.items()
    }


def test_even_out_of_range():
    with pytest.raises(ValueError):
        even_counterexample(4, 15)
    with pytest.raises(ValueError):
        even_counterexample(4, 13)
    with pytest.raises(ValueError):
        even_counterexample(5, 16)
    with pytest.raises(ValueError):
        even_counterexample(6, 15)


def test_even_lift_report(config):
    member = even_counterexample(6, 16, config)
    assert member.criterion_rank is not None
    assert any("verified" in step for step in member.construction)


def test_catalog_identifiers_and_expectations(catalog):
    assert sorted(catalog) == [
        "boolean-3",
        "boolean-4",
        "boolean-5",
        "determinantal-3x3",
        "four-cycle",
        "four-cycle-11",
        "four-cycle-9",
        "turan-222",
        "turan-223",
        "turan-223-cut",
    ]
    for entry in catalog.values():
        assert entry.polynomial.homogeneous_degree() is not None
        h = entry.expected["hilbert"]
        assert h == tuple(reversed(h))


def test_catalog_entry_by_identifier_builds_only_it(catalog, monkeypatch):
    # One entry is built alone (the Turan generators are not), and equals
    # the entry of the whole catalog; an unknown one names the known ids.
    def refuse(*args):
        raise AssertionError("built a Turan generator")

    monkeypatch.setattr(families, "dual_generator", refuse)
    for identifier in ("four-cycle", "boolean-5"):
        (entry,) = example_catalog(identifier)
        assert entry == catalog[identifier]
    with pytest.raises(ValueError, match="unknown example 'missing'; known: four-cycle"):
        example_catalog("missing")


def test_catalog_expectations_hold(catalog, config):
    for identifier in ("four-cycle", "boolean-3", "four-cycle-9"):
        entry = catalog[identifier]
        alg = build_algebra(entry.polynomial)
        assert alg.hilbert == entry.expected["hilbert"]
        assert alg.codimension == entry.expected["codimension"]
        assert (
            ann_generated_by_quadrics(alg).presented
            == entry.expected["quadrics"]
        )
        assert wlp_check(alg, config).holds == entry.expected["wlp"]
        assert slp_check(alg, config).holds == entry.expected["slp"]


def test_construction_narration(config):
    member = odd_counterexample(5, 10, config)
    assert member.construction
    assert member.base
