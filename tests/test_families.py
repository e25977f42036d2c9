"""Lifts, Perazzo forms, counterexample generators, and the catalog."""

from __future__ import annotations

import math
import random

import pytest

from mixedhess import (
    InvariantViolation,
    ann_generated_by_quadrics,
    boolean_form,
    build_algebra,
    even_counterexample,
    example_catalog,
    odd_counterexample,
    parse_polynomial,
    perazzo_form,
    slp_check,
    times_u,
    times_uv,
    wlp_check,
)

from conftest import dense_random_form


def test_boolean_form_dimensions():
    for n in range(1, 5):
        alg = build_algebra(boolean_form(n))
        assert alg.hilbert == tuple(math.comb(n, k) for k in range(n + 1))


def test_times_u_counts(boolean3_alg, config):
    report = times_u(parse_polynomial("x1*x2*x3"), config=config)
    assert report.hilbert_base == (1, 3, 3, 1)
    assert report.hilbert_lift == (1, 4, 6, 4, 1)
    assert report.hilbert_identity
    assert len(report.added) == 1


def test_times_u_full_verification(config):
    rng = random.Random(3)
    f = dense_random_form(rng, 3, 3)
    report = times_u(f, verify="full", config=config)
    assert report.hilbert_identity
    assert report.annihilator_inclusion
    assert report.annihilator_identity
    assert report.quadrics_inherited is not None
    assert report.slp_inherited is not None


def test_times_uv_transports_deficiency(catalog, config):
    base = catalog["four-cycle"].polynomial
    report = times_uv(base, config=config, deficiency_check=True)
    assert report.hilbert_base == (1, 8, 8, 1)
    assert report.hilbert_lift == (1, 10, 25, 25, 10, 1)
    assert report.base_deficiency >= 1
    assert report.lift_deficiency >= 1
    assert report.deficiency_transported


def test_times_uv_keeps_parity(config):
    report = times_uv(parse_polynomial("x1*x2*x3"), config=config)
    assert len(report.hilbert_lift) == len(report.hilbert_base) + 2
    assert report.hilbert_lift == (1, 5, 10, 10, 5, 1)


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


def test_odd_out_of_range():
    with pytest.raises(ValueError):
        odd_counterexample(4, 10)
    with pytest.raises(ValueError):
        odd_counterexample(5, 9)
    with pytest.raises(ValueError):
        odd_counterexample(7, 11)


def test_even_counterexamples(config):
    for d, codim in ((4, 14), (4, 16), (4, 17)):
        member = even_counterexample(d, codim, config, verify="counts")
        assert member.degree == d
        assert member.codimension == codim
        alg = build_algebra(member.polynomial)
        assert alg.codimension == codim
        assert alg.socle_degree == d
        if member.witness is not None:
            assert member.witness.wlp_excluded


@pytest.mark.parametrize(
    "make, d, codim",
    [(odd_counterexample, 5, 10), (even_counterexample, 6, 16)],
    ids=["odd-5-10", "even-6-16"],
)
def test_family_chain_builds_each_algebra_once(make, d, codim, config, monkeypatch):
    # Base, first lift and second lift: each algebra of the chain is
    # built once and handed on to the next lift and the final check.
    built = []

    def counting(f):
        built.append((f.varset.names, tuple(sorted(f.terms.items()))))
        return build_algebra(f)

    monkeypatch.setattr("mixedhess.families.build_algebra", counting)
    make(d, codim, config)
    assert len(built) == len(set(built)) == 3


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
    member = even_counterexample(6, 16, config, verify="report")
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
    assert member.base_description
