"""Acceptance gate: nine contracted criteria, one test and one line each.

Each test performs the full check at the stated tolerance (exact unless
said otherwise), asserts it, and emits a single summary line bypassing
output capture so the line shows in any pytest invocation.  Time budgets
are asserted where the contract states one."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from mixedhess import (
    LinearForm,
    SamplingConfig,
    ann_generated_by_quadrics,
    apolar_apply,
    boolean_form,
    build_algebra,
    classify_graph_algebra,
    detect_complete_multipartite,
    dual_generator,
    dual_mixed_hessian,
    evaluate_matrix,
    even_counterexample,
    example_catalog,
    generalization_check,
    generic_rank,
    grid_noninjectivity_witness,
    grid_pairs_for,
    hilbert_from_face_counts,
    alternate_hilbert_closed_form,
    mixed_hessian,
    monomial_exponents,
    mult_map_matrix,
    odd_counterexample,
    parse_polynomial,
    rank_at,
    symbolic_det,
    turan_complex,
    unimodality_check,
    verify_lift,
    without_face,
    wlp_check,
    slp_check,
)
from mixedhess.complexes import incidence_gradient_matrix
from mixedhess.linalg import matrix_rank

from conftest import (
    connected_triangle_free_graphs,
    dense_random_form,
    graph_complex,
    random_linear_avoiding,
    random_unicyclic_graph,
)

CONFIG = SamplingConfig(seed=0)

# the 28 quadric annihilator generators of the four-cycle cubic
FOUR_CYCLE_QUADRICS = [
    "u4^2", "u2*u4", "x2*u4", "x1*u4",
    "u3^2", "u1*u3", "x4*u3", "x1*u3",
    "u2^2", "x4*u2", "x3*u2", "x2*u2 - x3*u4", "x1*u2 - x4*u4",
    "u1^2", "x4*u1 - x3*u3", "x3*u1", "x2*u1", "x1*u1 - x2*u3",
    "x4^2", "x3*x4", "x2*x4", "x1*x4",
    "x3^2", "x2*x3", "x1*x3", "x2^2", "x1*x2", "x1^2",
]


def test_criterion_1_four_cycle_analysis(capsys):
    start = time.monotonic()
    entry = example_catalog()[0]
    assert entry.identifier == "four-cycle"
    alg = build_algebra(entry.polynomial)
    assert alg.hilbert == (1, 8, 8, 1)

    dim_ann_2 = ann_generated_by_quadrics(alg).dim_ann_2
    assert dim_ann_2 == 28
    listed = [parse_polynomial(t, alg.varset) for t in FOUR_CYCLE_QUADRICS]
    for op in listed:
        assert apolar_apply(op, alg.f).is_zero()
    monos = monomial_exponents(alg.varset, 2)
    index = {m: i for i, m in enumerate(monos)}
    vectors = []
    for op in listed:
        row = [Fraction(0)] * len(monos)
        for exps, coeff in op.terms.items():
            row[index[exps]] = coeff
        vectors.append(row)
    assert matrix_rank(vectors) == 28  # the 28 listed quadrics span Ann_2

    hess = mixed_hessian(alg, 1, 1)
    assert hess.shape == (8, 8)
    assert symbolic_det(hess, cap=8).is_zero()

    assert not wlp_check(alg, CONFIG).holds
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        print(
            f"criterion 1: PASS - Hilbert (1,8,8,1); the 28 listed quadrics "
            f"span Ann_2 exactly; 8x8 middle Hessian identically zero; "
            f"WLP false ({elapsed:.2f}s)"
        )


def test_criterion_2_generalization_regression(capsys):
    start = time.monotonic()
    rng = random.Random(20260816)
    instances = 0
    pairs_checked = 0
    while instances < 50:
        n = rng.randint(1, 5)
        d = rng.randint(2, 5)
        alg = build_algebra(dense_random_form(rng, n, d))
        L = random_linear_avoiding(alg, rng)
        for k in range(d):
            for l in range(k + 1, d + 1):
                out = generalization_check(alg, k, l, L)
                assert out["matches"], (instances, n, d, k, l)
                assert out["max_discrepancy"] == 0
                pairs_checked += 1
        instances += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print(
            f"criterion 2: PASS - 50/50 random instances, "
            f"{pairs_checked} (k, l) pairs matched exactly ({elapsed:.2f}s)"
        )


def test_criterion_3_boolean_slp(capsys):
    start = time.monotonic()
    for n in range(1, 7):
        alg = build_algebra(boolean_form(n))
        assert alg.hilbert == tuple(math.comb(n, k) for k in range(n + 1))
        verdict = slp_check(alg, CONFIG)
        assert verdict.holds, n
        ones = tuple(Fraction(1) for _ in range(n))
        for k in range(1, n // 2 + 1):
            h = mixed_hessian(alg, k, k)
            m = evaluate_matrix(h, ones)
            assert matrix_rank(m) == len(m), (n, k)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    with capsys.disabled():
        print(
            "criterion 3: PASS - SLP holds for 1..6 factors with nonzero "
            f"Hessian determinants at the all-ones point ({elapsed:.2f}s)"
        )


def test_criterion_4_classifier_cross_check(capsys):
    start = time.monotonic()
    graphs = connected_triangle_free_graphs(7)
    assert len(graphs) == 89
    agreements = 0
    for graph in graphs:
        cls = classify_graph_algebra(graph)
        predicted = cls.predicts_wlp
        assert predicted is not None
        alg = build_algebra(dual_generator(graph))
        verdict = wlp_check(alg, CONFIG)
        assert verdict.holds == predicted, graph.facets
        agreements += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    with capsys.disabled():
        print(
            f"criterion 4: PASS - classifier and computed WLP agree on all "
            f"{agreements} connected triangle-free graphs up to 7 vertices "
            f"({elapsed:.2f}s)"
        )


def test_criterion_5_unicyclic_determinant_dichotomy(capsys):
    start = time.monotonic()
    rng = random.Random(555)
    for i in range(200):
        n = rng.randint(3, 10)
        graph, cycle_length = random_unicyclic_graph(rng, n)
        h = incidence_gradient_matrix(graph)
        assert h.shape == (n, n)
        det = symbolic_det(h, cap=12)
        assert det.is_zero() == (cycle_length % 2 == 0), (i, n, cycle_length)

    triangle = graph_complex(3, [(0, 1), (1, 2), (0, 2)])
    det = symbolic_det(incidence_gradient_matrix(triangle), cap=3)
    target = parse_polynomial("2*uv1*uv2*uv3", det.varset)
    assert det == target or det == target * Fraction(-1)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(
            "criterion 5: PASS - 200/200 unicyclic incidence determinants "
            "vanish exactly for even circuits; triangle determinant is "
            f"twice the vertex product up to sign ({elapsed:.2f}s)"
        )


def test_criterion_6_turan_suite(capsys):
    start = time.monotonic()
    comp = turan_complex((2, 2, 2))
    alg = build_algebra(dual_generator(comp))
    assert alg.codimension == 14
    assert alg.hilbert == (1, 14, 24, 14, 1)
    assert hilbert_from_face_counts(comp) == alg.hilbert
    shifted = alternate_hilbert_closed_form(comp)
    assert shifted == (1, 13, 12, 13, 1)
    assert shifted != alg.hilbert  # the discrepancy stays flagged
    assert not unimodality_check(shifted)

    assert ann_generated_by_quadrics(alg).presented

    pairs = grid_pairs_for(detect_complete_multipartite(comp))
    cert = grid_noninjectivity_witness(comp, pairs, CONFIG, alg).block_rank
    assert cert.rank <= 7 < 8
    assert cert.is_exact

    rng = random.Random(66)
    noninjective = 0
    for _ in range(10):
        coeffs = tuple(
            Fraction(rng.randint(-9, 9)) for _ in range(alg.varset.size)
        )
        if not any(coeffs):
            coeffs = (Fraction(1),) * alg.varset.size
        L = LinearForm(alg.varset, coeffs)
        rank = matrix_rank(mult_map_matrix(alg, 1, 2, L))
        assert rank < alg.hilbert[1]
        noninjective += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print(
            "criterion 6: PASS - codimension 14, Hilbert (1,14,24,14,1) "
            "with the shifted closed form flagged, quadrics true, facet "
            f"rows capped at 7 < 8, multiplication non-injective for "
            f"{noninjective}/10 random linear forms ({elapsed:.2f}s)"
        )


def test_criterion_7_inductive_constructions(capsys):
    start = time.monotonic()
    rng = random.Random(777)
    for i in range(10):
        n = rng.randint(1, 4)
        f = dense_random_form(rng, n, 3)
        report = verify_lift(f, CONFIG)
        assert report.hilbert_identity, i
        assert report.annihilator_inclusion, i
        assert report.annihilator_identity, i
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(
            "criterion 7: PASS - 10/10 lifts satisfy the dimension "
            "identity, and with it the annihilator identity by a dimension "
            f"count ({elapsed:.2f}s)"
        )


def test_criterion_8_counterexample_families(capsys):
    start = time.monotonic()
    catalog = {e.identifier: e for e in example_catalog()}

    for identifier in ("four-cycle-9", "four-cycle-11"):
        alg = build_algebra(catalog[identifier].polynomial)
        assert ann_generated_by_quadrics(alg).presented
        assert not wlp_check(alg, CONFIG).holds

    member = odd_counterexample(5, 10, CONFIG)
    assert member.quadrics is True
    alg5 = build_algebra(member.polynomial)
    h = mixed_hessian(alg5, 2, 2)
    full = min(h.shape)
    rng = random.Random(888)
    deficient = 0
    for _ in range(20):
        point = tuple(
            Fraction(rng.randint(-CONFIG.sample_bound, CONFIG.sample_bound))
            for _ in range(alg5.varset.size)
        )
        assert rank_at(h, point) < full
        deficient += 1

    even14 = even_counterexample(4, 14, CONFIG)
    assert even14.witness is not None and even14.witness.wlp_excluded
    assert not wlp_check(build_algebra(even14.polynomial), CONFIG).holds

    even17 = even_counterexample(4, 17, CONFIG)
    assert even17.witness is not None and even17.witness.wlp_excluded
    base17 = without_face(turan_complex((2, 2, 3)), ("a1", "c3"))
    assert len(base17.vertices) == 7
    assert base17.face_counts()[2] == 15
    assert len(base17.facets) == 10
    assert not wlp_check(build_algebra(even17.polynomial), CONFIG).holds

    lifted = even_counterexample(6, 16, CONFIG)
    alg6 = build_algebra(lifted.polynomial)
    h23 = mixed_hessian(alg6, 2, 3)
    full23 = min(h23.shape)
    for _ in range(CONFIG.trials):
        point = tuple(
            Fraction(rng.randint(-CONFIG.sample_bound, CONFIG.sample_bound))
            for _ in range(alg6.varset.size)
        )
        assert rank_at(h23, point) < full23
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(
            "criterion 8: PASS - codimensions 9/11 quadrics-true "
            f"WLP-false; odd (5, 10) middle Hessian deficient in "
            f"{deficient}/20 trials; even (4, 14) and (4, 17) excluded by "
            "exact syzygies; the degree-6 lift keeps the (2, 3) Hessian "
            f"rank-deficient in all trials ({elapsed:.2f}s)"
        )


def test_criterion_9_property_suite(capsys):
    start = time.monotonic()
    rng = random.Random(999)
    algebras = [
        build_algebra(e.polynomial) for e in example_catalog()
    ]
    for alg in algebras:
        d = alg.socle_degree
        # Gorenstein symmetry
        assert alg.hilbert == tuple(reversed(alg.hilbert))
        # pairing invertibility in every degree
        for k in range(d + 1):
            m = alg.pairing_matrix(k)
            assert matrix_rank(m) == len(m)
        # dual-route and plain-route Hessians have equal generic rank
        for k, l in ((1, d - 1), (1, d // 2 or 1)):
            if not (0 <= k <= l <= d):
                continue
            r_dual = generic_rank(dual_mixed_hessian(alg, l, k), CONFIG)
            r_plain = generic_rank(mixed_hessian(alg, k, d - l), CONFIG)
            assert r_dual.rank == r_plain.rank
        # multiplication rank symmetry around the middle
        L = random_linear_avoiding(alg, rng)
        for i in range(d):
            a = matrix_rank(mult_map_matrix(alg, i, i + 1, L))
            b = matrix_rank(mult_map_matrix(alg, d - 1 - i, d - i, L))
            assert a == b
        # the weak property forces a unimodal Hilbert vector
        if wlp_check(alg, CONFIG).holds:
            assert unimodality_check(alg.hilbert)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(
            f"criterion 9: PASS - symmetry, pairing invertibility, "
            f"dual-rank agreement, multiplication rank symmetry, and "
            f"WLP-unimodality verified over {len(algebras)} fixture "
            f"algebras ({elapsed:.2f}s)"
        )
