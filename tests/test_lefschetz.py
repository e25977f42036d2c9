"""Multiplication maps, rank profiles, and the two Lefschetz checks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mixedhess import (
    InvariantViolation,
    LinearForm,
    SamplingConfig,
    boolean_form,
    build_algebra,
    dual_generator,
    full_profile,
    generalization_check,
    mult_map_matrix,
    parse_polynomial,
    rank_profile,
    slp_check,
    turan_complex,
    wlp_check,
    unimodality_check,
)
import mixedhess.lefschetz as lefschetz
from mixedhess.apolarity import GradedAlgebra
from mixedhess.hessians import mixed_hessian, rank_at
from mixedhess.linalg import matrix_rank
from mixedhess.polyring import (
    Polynomial,
    apolar_monomial,
    apolar_pairing,
    linear_apply,
)

from conftest import (
    dense_pairing_inverse,
    dense_random_form,
    random_linear_avoiding,
    rational_random_form,
)


def _ones(alg):
    return LinearForm(
        alg.varset, tuple(Fraction(1) for _ in range(alg.varset.size))
    )


def _mult_map_fractions(alg, k, l, L):
    """M = N/D for the integer matrix N that `mult_map_matrix` returns,
    after checking that N holds ints."""
    N = mult_map_matrix(alg, k, l, L)
    assert all(type(v) is int for row in N for v in row), (k, l)
    denom = lefschetz._mult_map_denominator(alg, k, l, L)
    return [[Fraction(v, denom) for v in row] for row in N]


def test_boolean_mult_map_frozen_matrix(boolean3_alg):
    M = mult_map_matrix(boolean3_alg, 1, 2, _ones(boolean3_alg))
    assert M == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert lefschetz._mult_map_denominator(boolean3_alg, 1, 2, _ones(boolean3_alg)) == 1
    assert matrix_rank(M) == 3


def test_mult_map_denominator_scales_the_integer_matrix():
    # f = (2/3)xyz and L = (x+y+z)/2: F = 3f = 2xyz, so the degree-2
    # pairing against F has entries 2 and its inverse 1/2 has D_2 = 2.
    # With lcm_L = 2, a map of one degree carries D = 2 * 2 and cells
    # D/2 = 2.
    alg = build_algebra(parse_polynomial("2/3*x*y*z"))
    L = LinearForm(alg.varset, (Fraction(1, 2),) * 3)
    assert alg.scale == 3
    assert alg.pairing_matrix(2) == [{2: 2}, {1: 2}, {0: 2}]
    denom, rows = alg.pairing_inverse(2)
    assert (denom, [list(row.values()) for row in rows]) == (2, [[1], [1], [1]])
    assert lefschetz._mult_map_denominator(alg, 1, 2, L) == 4
    assert mult_map_matrix(alg, 1, 2, L) == [[2, 2, 0], [2, 0, 2], [0, 2, 2]]
    assert _mult_map_fractions(alg, 1, 2, L) == [
        [Fraction(v, 2) for v in row] for row in ([1, 1, 0], [1, 0, 1], [0, 1, 1])
    ]


def _dense_mult_map(alg, k, l, L):
    """Multiplication map by the dense formula sum_t inv[t][i] * pair[t]."""
    d = alg.socle_degree
    inv = dense_pairing_inverse(alg, l)
    s = len(inv)
    zero = (0,) * alg.varset.size
    columns = []
    for beta in alg.quotient_basis(k):
        g = apolar_monomial(beta, alg.f)
        for _ in range(l - k):
            g = linear_apply(L.coeffs, g)
        pair = [apolar_pairing(c, zero, g) for c in alg.quotient_basis(d - l)]
        columns.append(
            [
                sum((inv[t][i] * pair[t] for t in range(s)), Fraction(0))
                for i in range(s)
            ]
        )
    return [[col[i] for col in columns] for i in range(s)]


def _assert_mult_maps_match_dense(alg, L):
    d = alg.socle_degree
    for k in range(d + 1):
        for l in range(k, d + 1):
            M = _mult_map_fractions(alg, k, l, L)
            assert M == _dense_mult_map(alg, k, l, L), (k, l)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sparse_mult_map_matches_dense_on_random_forms(seed):
    rng = random.Random(seed)
    alg = build_algebra(dense_random_form(rng, rng.randint(2, 3), rng.randint(2, 4)))
    _assert_mult_maps_match_dense(alg, random_linear_avoiding(alg, rng, bound=3))


@pytest.mark.parametrize("name", ["four-cycle", "determinantal-3x3"])
def test_sparse_mult_map_matches_dense_on_catalog(catalog, name):
    # These inverse pairings are signed permutation matrices, so each
    # coordinate has one term; the random dense forms above give dense
    # inverses, where a coordinate sums several.
    alg = build_algebra(catalog[name].polynomial)
    rng = random.Random(name)
    for _ in range(3):
        coeffs = [rng.choice([0, 0, 1, -2, 3]) for _ in range(alg.varset.size)]
        L = LinearForm(alg.varset, tuple(Fraction(c) for c in coeffs))
        _assert_mult_maps_match_dense(alg, L)


def _oracle_linear_apply(coeffs, f):
    """One application of sum(a_v * X_v) to f, on Fraction terms."""
    out = {}
    for b, c in f.terms.items():
        for v, a in enumerate(coeffs):
            if a and b[v]:
                key = b[:v] + (b[v] - 1,) + b[v + 1 :]
                out[key] = out.get(key, Fraction(0)) + c * a * b[v]
    return Polynomial(f.varset, out)


def _oracle_mult_map_matrix(alg, k, l, L):
    """The Fraction route: X^beta f and each power of L as Polynomials,
    every element of B_(d-l) paired against the result."""
    d = alg.socle_degree
    cols_b = alg.quotient_basis(k)
    comp_b = alg.quotient_basis(d - l)
    inv_rows = [
        [(i, v) for i, v in enumerate(row) if v]
        for row in dense_pairing_inverse(alg, l)
    ]
    s = len(alg.quotient_basis(l))
    zero_exps = (0,) * alg.f.varset.size
    columns = []
    for beta in cols_b:
        g = apolar_monomial(beta, alg.f)
        for _ in range(l - k):
            g = _oracle_linear_apply(L.coeffs, g)
        col = [Fraction(0)] * s
        for c, row in zip(comp_b, inv_rows):
            p = apolar_pairing(c, zero_exps, g)
            if p:
                for i, v in row:
                    col[i] += p * v
        columns.append(col)
    return [[columns[j][i] for j in range(len(cols_b))] for i in range(s)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mult_map_matches_fraction_oracle(seed):
    rng = random.Random(seed)
    alg = build_algebra(rational_random_form(rng, rng.randint(1, 4), rng.randint(1, 4)))
    n = alg.varset.size
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)]
    coeffs[rng.randrange(n)] = Fraction(rng.choice([1, -1]), rng.randint(1, 6))
    if n > 1:
        coeffs[rng.randrange(n)] = Fraction(0)
    if not any(coeffs):
        coeffs[0] = Fraction(2, 3)
    L = LinearForm(alg.varset, tuple(coeffs))
    d = alg.socle_degree
    for k in range(d + 1):
        for l in range(k, d + 1):
            M = _mult_map_fractions(alg, k, l, L)
            assert M == _oracle_mult_map_matrix(alg, k, l, L), (k, l)


def _corrupt_basis(alg, k, basis):
    """A copy of alg whose degree-k quotient basis is replaced."""
    bases = list(alg._quotient_bases)
    bases[k] = tuple(basis)
    return GradedAlgebra(
        alg.f, alg.scale, alg.hilbert, tuple(bases), alg._catalecticants,
        alg._reduced, alg.warnings,
    )


@pytest.mark.parametrize(
    "basis",
    [
        ((1, 0, 0), (1, 0, 0), (0, 0, 1)),  # a repeated element
        ((2, 0, 0), (0, 1, 0), (0, 0, 1)),  # x1^2 kills f
    ],
)
def test_rank_profile_raises_on_a_singular_pairing(boolean3_alg, basis):
    alg = _corrupt_basis(boolean3_alg, 1, basis)
    L = _ones(alg)
    with pytest.raises(InvariantViolation, match="singular"):
        rank_profile(alg, L)
    with pytest.raises(InvariantViolation, match="singular"):
        mult_map_matrix(alg, 0, 1, L)
    # The socle pairing does not see B_1, so this map is still defined.
    assert _mult_map_fractions(alg, 1, 3, L) == _oracle_mult_map_matrix(alg, 1, 3, L)


def test_mult_map_validates_input(boolean3_alg):
    L = _ones(boolean3_alg)
    with pytest.raises(ValueError):
        mult_map_matrix(boolean3_alg, 2, 1, L)
    with pytest.raises(ValueError):
        mult_map_matrix(boolean3_alg, 0, 9, L)
    other = LinearForm(
        parse_polynomial("a + b").varset, (Fraction(1), Fraction(1))
    )
    with pytest.raises(ValueError):
        mult_map_matrix(boolean3_alg, 1, 2, other)


def test_identity_step_is_identity(boolean3_alg):
    M = mult_map_matrix(boolean3_alg, 1, 1, _ones(boolean3_alg))
    assert M == [[int(i == j) for j in range(3)] for i in range(3)]


def test_rank_profile_palindromic(four_cycle_alg, boolean3_alg):
    for alg in (four_cycle_alg, boolean3_alg):
        L = _ones(alg)
        profile = rank_profile(alg, L)
        assert profile == tuple(reversed(profile))
        assert len(profile) == alg.socle_degree


def test_full_profile_values(four_cycle_alg):
    assert full_profile(four_cycle_alg) == (1, 8, 1)


def test_rank_symmetry_under_duality(config):
    rng = random.Random(17)
    for _ in range(4):
        alg = build_algebra(dense_random_form(rng, rng.randint(2, 4), 4))
        L = random_linear_avoiding(alg, rng)
        d = alg.socle_degree
        for i in range(d):
            a = matrix_rank(mult_map_matrix(alg, i, i + 1, L))
            b = matrix_rank(mult_map_matrix(alg, d - 1 - i, d - i, L))
            assert a == b


def test_generalization_identity_on_random_instances(config):
    rng = random.Random(23)
    for _ in range(5):
        n = rng.randint(2, 3)
        d = rng.randint(2, 4)
        alg = build_algebra(dense_random_form(rng, n, d))
        L = random_linear_avoiding(alg, rng)
        for k in range(d):
            for l in range(k + 1, d + 1):
                out = generalization_check(alg, k, l, L)
                assert out["matches"], (n, d, k, l)
                assert out["max_discrepancy"] == 0


def _assert_cell_identity(alg, L):
    # The criterion matrix of cell (i, j) is the order-(d-i-j, i)
    # Hessian; at L it has the rank of multiplication by L^j, A_i -> A_{i+j}.
    d = alg.socle_degree
    for i in range(d + 1):
        for j in range(d - i + 1):
            hess = rank_at(mixed_hessian(alg, d - i - j, i), L.perp())
            assert hess == matrix_rank(mult_map_matrix(alg, i, i + j, L)), (i, j)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cell_identity_on_random_forms(seed):
    rng = random.Random(seed)
    alg = build_algebra(dense_random_form(rng, rng.randint(2, 3), rng.randint(1, 4)))
    # The identity holds at every point, on the generator's zero locus too.
    coeffs = [0]
    while not any(coeffs):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(alg.varset.size)]
    _assert_cell_identity(alg, LinearForm(alg.varset, tuple(coeffs)))


@pytest.mark.parametrize("n", [1, 2])
def test_checks_at_socle_degrees_one_and_two(n, config):
    # Socle degree 1 gives SLP no cell at all; degree 2 gives it the one
    # cell (1, 0), the identity on A_1.
    alg = build_algebra(boolean_form(n))
    assert alg.socle_degree == n
    _assert_cell_identity(alg, _ones(alg))
    for check in (wlp_check, slp_check):
        verdict = check(alg, config)
        assert verdict.holds and verdict.witness is not None
        assert verdict.profile == full_profile(alg)
    assert len(slp_check(alg, config).evidence) == n - 1


@pytest.mark.parametrize("check", [wlp_check, slp_check])
def test_witness_with_short_profile_raises(check, boolean3_alg, config, monkeypatch):
    # A witness of either property is a weak Lefschetz element, so a
    # multiplication profile below the maximal one breaks an invariant.
    monkeypatch.setattr(
        "mixedhess.lefschetz.rank_profile",
        lambda alg, L: (0,) * alg.socle_degree,
    )
    with pytest.raises(InvariantViolation):
        check(boolean3_alg, config)


def test_wlp_false_for_four_cycle(four_cycle_alg, config):
    verdict = wlp_check(four_cycle_alg, config)
    assert verdict.property == "WLP"
    assert not verdict.holds
    assert verdict.failing_step == (1, 2)
    assert verdict.seed == config.seed


def test_wlp_failure_builds_each_step_map_once(four_cycle_alg, config, monkeypatch):
    # The failing step's multiplication rank is read off the profile at
    # the first sampled point, so the failure builds one map per step of
    # the profile and no second map for the step.
    calls = []

    def counting(alg, k, l, L):
        calls.append((k, l))
        return mult_map_matrix(alg, k, l, L)

    monkeypatch.setattr(lefschetz, "mult_map_matrix", counting)
    verdict = wlp_check(four_cycle_alg, config)
    assert not verdict.holds and verdict.failing_step == (1, 2)
    assert verdict.profile is not None
    assert calls == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("name", ["four-cycle", "boolean-4"])
@pytest.mark.parametrize("scale", [Fraction(1), Fraction(2, 3)])
def test_multiplication_ranks_see_only_ints(catalog, config, monkeypatch, name, scale):
    # Both checks rank multiplication maps (a witness's profile, a
    # failing cell's confirmation) on integer matrices, also when f has
    # rational coefficients.
    seen = []

    def guarded(rows):
        seen.append(all(type(v) is int for row in rows for v in row))
        return matrix_rank(rows)

    monkeypatch.setattr(lefschetz, "matrix_rank", guarded)
    alg = build_algebra(catalog[name].polynomial.scale(scale))
    for check in (wlp_check, slp_check):
        seen.clear()
        check(alg, config)
        assert seen and all(seen), check


def test_wlp_true_for_boolean(boolean3_alg, config):
    verdict = wlp_check(boolean3_alg, config)
    assert verdict.holds
    assert verdict.witness is not None
    # the witness must actually achieve the full profile
    profile = rank_profile(boolean3_alg, verdict.witness)
    assert profile == full_profile(boolean3_alg)


def test_slp_true_for_boolean(boolean3_alg, config):
    verdict = slp_check(boolean3_alg, config)
    assert verdict.property == "SLP"
    assert verdict.holds


def test_slp_false_when_wlp_fails(four_cycle_alg, config):
    assert not slp_check(four_cycle_alg, config).holds


def test_wlp_implies_unimodal_on_catalog(catalog, config):
    for entry in catalog.values():
        alg = build_algebra(entry.polynomial)
        verdict = wlp_check(alg, config)
        if verdict.holds:
            assert unimodality_check(alg.hilbert)


def test_verdicts_are_deterministic(four_cycle_alg, config):
    a = wlp_check(four_cycle_alg, config)
    b = wlp_check(four_cycle_alg, config)
    assert a == b


# -- the witness search stops on a provably singular cell --------------------


def _ranked_points(monkeypatch):
    """Points at which `lefschetz` ranks a Hessian from here on."""
    seen = set()

    def counting(h, point):
        seen.add(tuple(point))
        return rank_at(h, point)

    monkeypatch.setattr(lefschetz, "rank_at", counting)
    return seen


@pytest.mark.parametrize("check", [wlp_check, slp_check])
def test_vanishing_determinant_stops_the_witness_search(check, catalog, monkeypatch):
    # The (1, 1) Hessian of the four-cycle cubic has a vanishing
    # determinant, so the first sampled point is the last one ranked: the
    # confirmation reuses it.
    f = catalog["four-cycle"].polynomial
    seen = _ranked_points(monkeypatch)
    verdict = check(build_algebra(f), SamplingConfig(seed=0))
    assert not verdict.holds and verdict.failing_step == (1, 2)
    assert verdict.mode == "exact"
    assert len(seen) == 1

    # With no symbolic determinant the cell's torus-slice bound, below
    # full rank, stops the search at the same point.  With neither stop
    # the search ranks every point, and all three reach one verdict.
    seen.clear()
    no_det = check(build_algebra(f), SamplingConfig(seed=0, symbolic_cap=0))
    assert len(seen) == 1
    seen.clear()
    monkeypatch.setattr(lefschetz, "_slice_bound", lambda h: min(h.shape))
    full = check(build_algebra(f), SamplingConfig(seed=0, symbolic_cap=0))
    assert len(seen) == SamplingConfig().trials
    for other in (no_det, full):
        assert (other.holds, other.witness, other.failing_step, other.profile) == (
            verdict.holds, verdict.witness, verdict.failing_step, verdict.profile
        )


@pytest.mark.parametrize("check", [wlp_check, slp_check])
def test_torus_slice_bound_stops_the_witness_search(check, monkeypatch):
    # tk222's WLP cell (1, 2) is 14 x 24 and its SLP cell (1, 1) is
    # 14 x 14, beyond no cap, yet neither has full rank anywhere: their
    # torus-slice bounds are 13 and 10.  So each check ranks one witness
    # point and the confirmation reuses it: 2 point ranks, not 13.
    calls = []

    def counting(h, point):
        calls.append(h.orders)
        return rank_at(h, point)

    monkeypatch.setattr(lefschetz, "rank_at", counting)
    alg = build_algebra(dual_generator(turan_complex((2, 2, 2))))
    verdict = check(alg, SamplingConfig(seed=1))
    assert not verdict.holds and verdict.mode == "exact"
    assert len(calls) == 2


def test_nonvanishing_determinant_keeps_searching(monkeypatch):
    # At sample bound 1 the first point of this WLP search loses rank on
    # a cell whose determinant is nonzero; a later point is the witness.
    f = parse_polynomial("2*x*x*y + 3*x*y*y + 2*x*x*w + y*y*y")
    seen = _ranked_points(monkeypatch)
    verdict = wlp_check(build_algebra(f), SamplingConfig(seed=0, sample_bound=1))
    assert verdict.holds and verdict.witness is not None
    assert len(seen) > 1


def test_witness_stop_changes_no_verdict(monkeypatch):
    # Every verdict equals the one of a search that never stops, and
    # some of them find their witness after a point that lost rank.
    config = SamplingConfig(seed=0, sample_bound=1)
    seen = _ranked_points(monkeypatch)
    late_witnesses = 0
    for seed in range(60):
        rng = random.Random(seed)
        f = rational_random_form(rng, rng.randint(2, 4), 3)
        for check in (wlp_check, slp_check):
            seen.clear()
            verdict = check(build_algebra(f), config)
            late_witnesses += verdict.witness is not None and len(seen) > 1
            with monkeypatch.context() as m:
                m.setattr(lefschetz, "_det_vanishes", lambda h, cap: None)
                m.setattr(lefschetz, "_slice_bound", lambda h: min(h.shape))
                assert check(build_algebra(f), config) == verdict, (f, check)
    assert late_witnesses > 0
