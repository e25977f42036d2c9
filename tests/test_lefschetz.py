"""Multiplication maps, rank profiles, and the two Lefschetz checks."""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mixedhess import (
    InvariantViolation,
    LinearForm,
    SamplingConfig,
    boolean_form,
    build_algebra,
    dual_generator,
    example_catalog,
    full_profile,
    generic_rank,
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
from mixedhess.hessians import RankCertificate, mixed_hessian, rank_at
from mixedhess.lefschetz import jordan_type, rank_table
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


# -- the rank table and the generic Jordan type -------------------------------

REPO = Path(__file__).resolve().parent.parent

# Every catalog entry, the Boolean algebras in up to 7 variables and the
# rational quintic.
IDENTITY_ALGEBRAS = (
    [entry.identifier for entry in example_catalog()]
    + [f"boolean-n{n}" for n in range(1, 8)]
    + ["rational-quintic"]
)


@functools.lru_cache(maxsize=None)
def _identity_form(name):
    if name.startswith("boolean-n"):
        return boolean_form(int(name.removeprefix("boolean-n")))
    if name == "rational-quintic":
        return parse_polynomial((REPO / "samples" / "rational_quintic.poly").read_text())
    return example_catalog(name)[0].polynomial


def _strings(alg, config):
    table = rank_table(alg, config)
    return table, jordan_type(alg.hilbert, table)


def _partition(strings):
    """The Jordan type as a partition: string lengths, largest first."""
    lengths = [b - a + 1 for (a, b), m in strings.items() for _ in range(m)]
    return tuple(sorted(lengths, reverse=True))


def _conjugate(h):
    return tuple(sum(v >= k for v in h) for k in range(1, max(h) + 1))


@pytest.mark.parametrize("name", IDENTITY_ALGEBRAS)
def test_jordan_type_identities(name, config):
    # Lengths add up to the dimension; for unimodal h the WLP holds iff
    # there are max h strings, and the SLP iff the Jordan type is the
    # conjugate of h; both agree with the two checks.
    alg = build_algebra(_identity_form(name))
    table, strings = _strings(alg, config)
    h = alg.hilbert
    assert all(cert.is_exact for cert in table.values())
    assert sum(m * (b - a + 1) for (a, b), m in strings.items()) == sum(h)
    assert unimodality_check(h)
    assert (sum(strings.values()) == max(h)) == wlp_check(alg, config).holds
    assert (_partition(strings) == _conjugate(h)) == slp_check(alg, config).holds


def test_identity_algebras_hold_both_verdicts(config):
    # The identities above see algebras with and without each property.
    verdicts = {
        (wlp_check(alg, config).holds, slp_check(alg, config).holds)
        for alg in (build_algebra(_identity_form(n)) for n in IDENTITY_ALGEBRAS)
    }
    assert verdicts == {(True, True), (False, False)}


def test_rational_quintic_jordan_type_is_the_conjugate(config):
    alg = build_algebra(_identity_form("rational-quintic"))
    _, strings = _strings(alg, config)
    assert alg.hilbert == (1, 4, 7, 7, 4, 1)
    assert _partition(strings) == (6, 4, 4, 4, 2, 2, 2)
    assert strings == {(0, 5): 1, (1, 4): 3, (2, 3): 3}


@pytest.mark.parametrize(
    "name", ["rational-quintic", "four-cycle", "turan-222", "boolean-n6"]
)
def test_rank_table_is_the_rank_of_every_cell(name, config):
    # Duality ranks half the cells; each cell equals the generic rank of
    # its own Hessian, the i = 0 cells included.
    alg = build_algebra(_identity_form(name))
    table = rank_table(alg, config)
    d = alg.socle_degree
    assert set(table) == {(i, j) for j in range(1, d + 1) for i in range(d - j + 1)}
    for (i, j), cert in table.items():
        direct = generic_rank(lefschetz._cell_hessian(alg, i, j), config)
        assert cert.rank == direct.rank, (i, j)


def test_rank_table_shares_certificates_and_ranks_no_unit_cell(config):
    alg = build_algebra(_identity_form("rational-quintic"))
    table = rank_table(alg, config)
    d = alg.socle_degree
    # The i = 0 cells and their duals are 1 without a matrix.
    assert all(0 not in orders for orders in alg._hessian_cache)
    for j in range(1, d + 1):
        assert table[0, j].rank == 1 and table[0, j].is_exact
        assert "d! f(a)" in table[0, j].note
    for (i, j), cert in table.items():
        assert cert is table[d - i - j, j]
    # The WLP and SLP cells are the checks' own memoized certificates.
    assert table[d // 2, 1] is generic_rank(lefschetz.wlp_criterion_matrix(alg), config)
    for k in range(1, d // 2 + 1):
        assert table[k, d - 2 * k] is generic_rank(mixed_hessian(alg, k, k), config)


def test_jordan_type_rejects_a_negative_multiplicity():
    # r(0, 1) = 0 < r(0, 2) = 1 cannot be: [0, 1] would occur -1 times.
    table = {
        cell: RankCertificate(rank, "exact")
        for cell, rank in {(0, 1): 0, (0, 2): 1, (1, 1): 1}.items()
    }
    with pytest.raises(InvariantViolation, match=r"\[0, 1\] multiplicity -1"):
        jordan_type((1, 2, 1), table)


def test_jordan_type_of_a_low_sampled_cell_is_none(config):
    # A sampled rank can come out low: on a table with a sampled cell a
    # negative multiplicity is a sampling miss, not a failed theorem.
    alg = build_algebra(_identity_form("rational-quintic"))
    table = rank_table(alg, config)
    # r(1, 2) = r(2, 2) one low leaves [1, 3] with multiplicity -1.
    low = table[1, 2]._replace(rank=table[1, 2].rank - 1)
    table[1, 2] = table[2, 2] = low
    with pytest.raises(InvariantViolation, match=r"\[1, 3\] multiplicity -1"):
        jordan_type(alg.hilbert, table)
    sampled = low._replace(mode="probabilistic", failure_bound=Fraction(1, 8))
    table[1, 2] = table[2, 2] = sampled
    assert jordan_type(alg.hilbert, table) is None


def test_clebsch_gordan_lifts_the_boolean_jordan_type(config):
    # The Boolean algebra in n variables is the constant 1 lifted n times.
    strings = {(0, 0): 1}
    for n in range(1, 8):
        strings = lefschetz.lift_jordan_type(strings)
        alg = build_algebra(boolean_form(n))
        assert strings == _strings(alg, config)[1]
        assert all(a + b == n for a, b in strings)
