"""Graded algebra construction: Hilbert functions, annihilators, pairings."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mixedhess import (
    InvariantViolation,
    Polynomial,
    VarSet,
    ann_generated_by_quadrics,
    apolar_apply,
    bigraded_decomposition,
    build_algebra,
    even_counterexample,
    example_catalog,
    grlex_key,
    mixed_hessian,
    monomial_exponents,
    odd_counterexample,
    parse_polynomial,
    unimodality_check,
)
from mixedhess import apolarity
from mixedhess.apolarity import _degree_step_spanned, _splits, _step_coordinates
from mixedhess.linalg import RowSpace, matrix_rank, sparse_rref
from mixedhess.polyring import apolar_pairing, falling_product

from conftest import (
    dense_inverse,
    dense_random_form,
    densify,
    rational_random_form,
)


def test_four_cycle_dimensions(four_cycle_alg):
    alg = four_cycle_alg
    assert alg.hilbert == (1, 8, 8, 1)
    assert alg.codimension == 8
    assert alg.socle_degree == 3
    assert alg.i1_zero
    assert alg.warnings == ()


def test_single_variable_power():
    alg = build_algebra(parse_polynomial("x^4"))
    assert alg.hilbert == (1, 1, 1, 1, 1)


def test_boolean_three_dimensions(boolean3_alg):
    assert boolean3_alg.hilbert == (1, 3, 3, 1)
    assert [len(boolean3_alg.quotient_basis(k)) for k in range(4)] == [1, 3, 3, 1]


def test_gorenstein_symmetry_generic(config):
    rng = random.Random(21)
    for _ in range(6):
        n = rng.randint(1, 4)
        d = rng.randint(2, 4)
        alg = build_algebra(dense_random_form(rng, n, d))
        h = alg.hilbert
        assert h == tuple(reversed(h))
        assert h[0] == 1 and h[-1] == 1
        # dense random forms reach the generic Hilbert function
        for k, hk in enumerate(h):
            expected = min(
                math.comb(n + k - 1, k), math.comb(n + d - k - 1, d - k)
            )
            assert hk == expected


def _monomial_part(alg, k):
    """N_k: the degree-k monomials dividing no term of f."""
    support = alg._support(k)
    return [e for e in monomial_exponents(alg.varset, k) if e not in support]


def _full_annihilator(alg, k):
    """Ann_k in full, as term maps: K_k from ``ann_basis`` plus one
    singleton per monomial of N_k (0 <= k <= d)."""
    return [dict(op.terms) for op in alg.ann_basis(k)] + [
        {e: Fraction(1)} for e in _monomial_part(alg, k)
    ]


def test_annihilator_kills_the_generator(four_cycle_alg):
    alg = four_cycle_alg
    n = alg.varset.size
    for k in range(1, alg.socle_degree + 1):
        kernel = alg.ann_basis(k)
        for op in kernel:
            assert apolar_apply(op, alg.f).is_zero()
            assert set(op.terms) <= alg._support(k)
        assert len(kernel) == len(alg._support(k)) - alg.dim(k)
        assert len(kernel) + len(_monomial_part(alg, k)) == (
            math.comb(n + k - 1, k) - alg.dim(k)
        )
        rows = [[op.terms.get(e, 0) for e in alg._support(k)] for op in kernel]
        assert matrix_rank(rows) == len(kernel)
    assert alg.ann_basis(-1) == ()
    assert alg.ann_basis(alg.socle_degree + 1) == ()


def test_pairing_matrices_invertible(four_cycle_alg, boolean3_alg):
    for alg in (four_cycle_alg, boolean3_alg):
        d = alg.socle_degree
        for k in range(d + 1):
            m = alg.pairing_matrix(k)
            assert len(m) == alg.dim(k)
            assert matrix_rank(m) == len(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pairing_matrix_matches_dense_pairing(seed):
    # Every cell through apolar_pairing, on forms with a random support
    # and mixed-denominator coefficients: the pairing against F = m*f,
    # m the lcm of the denominators, in ints.
    rng = random.Random(seed)
    alg = build_algebra(rational_random_form(rng, rng.randint(1, 4), rng.randint(1, 5)))
    assert alg.scale == math.lcm(*(c.denominator for c in alg.f.terms.values()))
    for k in range(alg.socle_degree + 1):
        dense = [
            [alg.scale * apolar_pairing(a, g, alg.f)
             for g in alg.quotient_basis(alg.socle_degree - k)]
            for a in alg.quotient_basis(k)
        ]
        m = alg.pairing_matrix(k)
        assert densify(m, alg.dim(alg.socle_degree - k)) == dense, k
        assert all(type(v) is int and v for row in m for v in row.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pairing_inverse_matches_dense_inverse(seed):
    rng = random.Random(seed)
    alg = build_algebra(rational_random_form(rng, rng.randint(1, 4), rng.randint(1, 5)))
    for k in range(alg.socle_degree + 1):
        h = alg.dim(k)
        pairing = alg.pairing_matrix(k)
        denom, inv = alg.pairing_inverse(k)
        assert type(denom) is int and denom > 0, k
        assert all(type(v) is int and v for row in inv for v in row.values()), k
        divided = [{i: Fraction(v, denom) for i, v in row.items()} for row in inv]
        assert densify(divided, h) == dense_inverse(densify(pairing, h)), k
        # The common denominator is the least one.
        assert math.gcd(denom, *(v for row in inv for v in row.values())) == 1, k
        for t, row in enumerate(inv):
            product: dict = {}
            for i, v in row.items():
                for j, w in pairing[i].items():
                    product[j] = product.get(j, 0) + v * w
            assert {j: v for j, v in product.items() if v} == {t: denom}, (k, t)


def test_quadrics_presented_for_four_cycle(four_cycle_alg):
    check = ann_generated_by_quadrics(four_cycle_alg)
    assert check.presented
    assert check.failing_degrees == ()
    assert check.dim_ann_2 == 28


def test_quadrics_fail_for_fermat_cubic():
    alg = build_algebra(parse_polynomial("x^3 + y^3 + z^3"))
    check = ann_generated_by_quadrics(alg)
    assert not check.presented
    assert 3 in check.failing_degrees
    assert check.dim_ann_2 == 3


def test_each_catalecticant_is_reduced_once(monkeypatch):
    # build_algebra reduces the catalecticant of every degree, and the
    # annihilator bases read those reductions instead of redoing them.
    real = apolarity._catalecticant_rows
    degrees = []

    def counted(f, phi, k):
        degrees.append(k)
        return real(f, phi, k)

    monkeypatch.setattr(apolarity, "_catalecticant_rows", counted)
    member = odd_counterexample(5, 10, verify="none")
    alg = build_algebra(member.polynomial)
    assert ann_generated_by_quadrics(alg).presented
    for k in range(6):
        alg.ann_basis(k)
    assert sorted(degrees) == list(range(6))


def _full_enumeration_step_spanned(alg, k) -> bool:
    """Does variables * Ann_{k-1} span Ann_k?  (It is always contained.)

    The oracle for ``_degree_step_spanned`` and, at k = d+1, for the
    closed form in ``ann_generated_by_quadrics``: every shift of every
    vector of the full Ann_{k-1}, monomial ones included, eliminated in
    all degree-k coordinates against the full dimension of Ann_k.
    """
    r = alg.varset.size
    target = math.comb(r + k - 1, k) - alg.dim(k)
    if target == 0:
        return True
    space = RowSpace()
    count = 0
    for m in _full_annihilator(alg, k - 1):
        for v in range(r):
            shifted = {}
            for e, c in m.items():
                shifted[e[:v] + (e[v] + 1,) + e[v + 1 :]] = c
            if space.insert(shifted):
                count += 1
                if count == target:
                    return True
    return space.rank == target


def _assert_steps_match_oracle(f):
    alg = build_algebra(f)
    degrees = range(3, alg.socle_degree + 1)
    new = [_degree_step_spanned(alg, k) for k in degrees]
    assert new == [_full_enumeration_step_spanned(alg, k) for k in degrees]
    return new


@pytest.mark.parametrize(
    "identifier", [entry.identifier for entry in example_catalog()]
)
def test_quadric_steps_match_oracle_on_catalog(catalog, identifier):
    _assert_steps_match_oracle(catalog[identifier].polynomial)


@pytest.mark.parametrize(
    "family, d, codim",
    [
        (odd_counterexample, 5, 10),
        (odd_counterexample, 5, 14),
        (odd_counterexample, 7, 12),
        (even_counterexample, 4, 14),
        (even_counterexample, 6, 16),
    ],
    ids=["odd-5-10", "odd-5-14", "odd-7-12", "even-4-14", "even-6-16"],
)
def test_quadric_steps_match_oracle_on_families(family, d, codim):
    f = family(d, codim, verify="none").polynomial
    assert all(_assert_steps_match_oracle(f))


@st.composite
def sparse_forms(draw):
    """Forms in 3-6 variables of degree 3-5 with 2-7 terms."""
    n = draw(st.integers(3, 6))
    d = draw(st.integers(3, 5))
    monomial = st.lists(
        st.integers(0, n - 1), min_size=d, max_size=d
    ).map(lambda picks: tuple(picks.count(i) for i in range(n)))
    coeff = st.integers(-9, 9).filter(bool)
    terms = draw(st.dictionaries(monomial, coeff, min_size=2, max_size=7))
    return Polynomial(VarSet(tuple(f"x{i + 1}" for i in range(n))), terms)


@settings(max_examples=60, deadline=None)
@given(sparse_forms())
def test_quadric_steps_match_oracle_on_sparse_forms(f):
    _assert_steps_match_oracle(f)


def _assert_kept_coordinates_match_definition(f):
    """The coordinates each quadric step keeps are D_k and G_k: every
    degree-k monomial that divides a term of f or whose down-shifts all
    do, each of its r down-shifts probed."""
    alg = build_algebra(f)
    r = alg.varset.size
    for k in range(1, alg.socle_degree + 1):
        below, here = alg._support(k - 1), alg._support(k)
        expected = {
            e
            for e in monomial_exponents(alg.varset, k)
            if e in here
            or all(e[:w] + (e[w] - 1,) + e[w + 1 :] in below for w in range(r) if e[w])
        }
        shifts, kept = _step_coordinates(alg, k)
        assert kept == expected, k
        assert shifts.keys() == below


@settings(max_examples=60, deadline=None)
@given(sparse_forms())
def test_kept_coordinates_match_definition_on_sparse_forms(f):
    _assert_kept_coordinates_match_definition(f)


@pytest.mark.parametrize(
    "identifier", [entry.identifier for entry in example_catalog()]
)
def test_kept_coordinates_match_definition_on_catalog(catalog, identifier):
    _assert_kept_coordinates_match_definition(catalog[identifier].polynomial)


def _assert_socle_step_matches_oracle(f):
    """The closed form at degree d+1 against the span computed in full."""
    alg = build_algebra(f)
    if not alg.i1_zero:
        return
    d = alg.socle_degree
    failing = ann_generated_by_quadrics(alg).failing_degrees
    assert ((d + 1) in failing) == (not _full_enumeration_step_spanned(alg, d + 1))


@settings(max_examples=60, deadline=None)
@given(sparse_forms())
def test_socle_step_matches_oracle_on_sparse_forms(f):
    _assert_socle_step_matches_oracle(f)


@pytest.mark.parametrize(
    "identifier",
    [
        entry.identifier
        for entry in example_catalog()
        if entry.polynomial.varset.size <= 14
    ],
)
def test_socle_step_matches_oracle_on_catalog(catalog, identifier):
    _assert_socle_step_matches_oracle(catalog[identifier].polynomial)


@pytest.mark.parametrize(
    "text, failing",
    [("x^2", (3,)), ("x^3", (4,)), ("x^5", (6,)), ("x", ()), ("x*y", ())],
)
def test_socle_step_closed_form_cases(text, failing):
    # One variable is the only case where the degree-(d+1) step fails.
    check = ann_generated_by_quadrics(build_algebra(parse_polynomial(text)))
    assert check.failing_degrees == failing
    assert check.presented == (not failing)


def _brute_divisors(exps, k):
    """Every a <= exps with |a| = k, in lexicographic order, from the
    whole box of exponent vectors below exps."""
    every = itertools.product(*(range(e + 1) for e in exps))
    return [a for a in every if sum(a) == k]


def _assert_splits_match_brute_force(exps, k):
    assert sorted(_splits(exps, k)) == [
        (a, tuple(x - y for x, y in zip(exps, a)), falling_product(exps, a))
        for a in _brute_divisors(exps, k)
    ]


@st.composite
def _split_cases(draw, box=4096):
    """An exponent vector of length 1 to 18 with entries 0 to 5, and a
    degree from -1 to one past its total.  A drawn top entry makes one
    vector in five squarefree, the shape of most terms, whose splits
    take a path of their own.  Each entry is also capped so that the
    box under the vector holds at most `box` points, which keeps the
    brute force small; the zeros cost it nothing."""
    exps, size, top = [], 1, draw(st.integers(1, 5))
    for _ in range(draw(st.integers(1, 18))):
        exps.append(draw(st.integers(0, min(top, box // size - 1))))
        size *= exps[-1] + 1
    return tuple(exps), draw(st.integers(-1, sum(exps) + 1))


@settings(max_examples=300, deadline=None)
@given(_split_cases())
def test_splits_match_brute_force(case):
    _assert_splits_match_brute_force(*case)


def test_splits_exact_cases():
    # One divisor of x^40 in degree 20: the kernel never enumerates the
    # C(40, 20) subsets of forty slots.
    assert _splits((40,), 20) == [((20,), (20,), math.perm(40, 20))]
    assert _splits((20, 20), 20) == [
        ((e, 20 - e), (20 - e, e), math.perm(20, e) * math.perm(20, 20 - e))
        for e in range(21)
    ]
    _assert_splits_match_brute_force((2,) * 10, 10)


def _assert_support_matches_enumeration(f):
    alg = build_algebra(f)
    for k in range(alg.socle_degree + 1):
        divisors = {a for b in alg.f.terms for a in _brute_divisors(b, k)}
        assert alg._support(k) == divisors
    return alg


def _assert_bases_are_exponent_tuples(alg):
    """Every basis label is a plain exponent tuple of D_k: the rows and
    columns of a Hessian carry the same tuples, and one keys a term map
    as it stands."""
    d = alg.socle_degree
    for k in range(d + 1):
        basis = alg.quotient_basis(k)
        assert all(type(m) is tuple and m in alg._support(k) for m in basis)
        h = mixed_hessian(alg, k, d - k)
        assert h.row_basis == basis
        assert h.col_basis == alg.quotient_basis(d - k)
        for m in basis:
            assert Polynomial(alg.varset, {m: 1}).terms == {m: 1}


@settings(max_examples=60, deadline=None)
@given(sparse_forms())
def test_support_matches_enumeration_on_sparse_forms(f):
    _assert_support_matches_enumeration(f)


@pytest.mark.parametrize(
    "identifier", [entry.identifier for entry in example_catalog()]
)
def test_support_matches_enumeration_on_catalog(catalog, identifier):
    alg = _assert_support_matches_enumeration(catalog[identifier].polynomial)
    _assert_bases_are_exponent_tuples(alg)


def _fraction_catalecticant_rows(f, k):
    """The degree-k catalecticant rows with Fraction entries
    c*falling(b, a), built from f's coefficients as they stand; an
    oracle for the integer rows, which scale f once by an lcm."""
    rows = {}
    for b, c in f.terms.items():
        for a in _brute_divisors(b, k):
            rows.setdefault(tuple(x - y for x, y in zip(b, a)), {})[a] = (
                c * falling_product(b, a)
            )
    return rows


@st.composite
def fraction_forms(draw):
    """Forms in 1-5 variables of degree 1-5 with 2-7 terms whose
    Fraction coefficients have at least two distinct denominators."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 5))
    monomial = st.lists(
        st.integers(0, n - 1), min_size=d, max_size=d
    ).map(lambda picks: tuple(picks.count(i) for i in range(n)))
    coeff = st.builds(
        Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 36)
    )
    terms = draw(st.dictionaries(monomial, coeff, min_size=2, max_size=7))
    assume(len({c.denominator for c in terms.values()}) >= 2)
    return Polynomial(VarSet(tuple(f"x{i + 1}" for i in range(n))), terms)


@settings(max_examples=100, deadline=None)
@given(fraction_forms())
def test_int_catalecticant_matches_fraction_oracle(f):
    # The stored rows are the catalecticant of F = lcm*f in divided
    # powers: row x^r is r! * lcm times the row of ordinary derivatives.
    alg = build_algebra(f)
    g = alg.f
    lcm = math.lcm(*(c.denominator for c in g.terms.values()))
    assert alg.scale == lcm
    for k in range(alg.socle_degree + 1):
        rows = alg._catalecticants[k]
        oracle_rows = _fraction_catalecticant_rows(g, k)
        assert rows.keys() == oracle_rows.keys()
        for key, row in rows.items():
            assert all(type(v) is int for v in row.values())
            r_fact = math.prod(map(math.factorial, key))
            assert row == {a: lcm * r_fact * v for a, v in oracle_rows[key].items()}
        reduced = sparse_rref(oracle_rows.values())
        assert alg._reduced[k] == reduced
        assert all(
            type(v) is Fraction for row in alg._reduced[k].values() for v in row.values()
        )
        assert alg.hilbert[k] == len(reduced)
        assert list(alg.quotient_basis(k)) == sorted(
            reduced, key=grlex_key, reverse=True
        )


def test_nonzero_linear_slice_blocks_presentation():
    # x + y annihilates (x - y)^2; the linear slice is nonzero
    alg = build_algebra(parse_polynomial("x^2 - 2*x*y + y^2"))
    assert not alg.i1_zero
    assert alg.warnings
    check = ann_generated_by_quadrics(alg)
    assert not check.presented
    assert check.failing_degrees == (1,)
    assert check.reason is not None


def test_unused_variables_are_dropped():
    vs = VarSet(("x", "y", "z"))
    alg = build_algebra(parse_polynomial("x^2*y + y^3", vs))
    assert alg.varset.size == 2
    assert any("z" in w for w in alg.warnings)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_algebra(parse_polynomial("x^2 + y^3"))
    with pytest.raises(ValueError):
        build_algebra(parse_polynomial("0"))


def test_unimodality_check():
    assert unimodality_check((1, 3, 3, 1))
    assert unimodality_check((1, 5, 9, 5, 1))
    assert not unimodality_check((1, 13, 12, 13, 1))


def test_bigraded_decomposition_four_cycle(four_cycle_alg):
    pieces = bigraded_decomposition(four_cycle_alg)
    sizes = {bd: len(monos) for bd, monos in pieces.items()}
    assert sizes[(1, 0)] == 4
    assert sizes[(0, 1)] == 4
    total_by_degree = {}
    for (a, b), monos in pieces.items():
        total_by_degree[a + b] = total_by_degree.get(a + b, 0) + len(monos)
    assert tuple(
        total_by_degree.get(k, 0) for k in range(4)
    ) == four_cycle_alg.hilbert


def test_quotient_basis_matches_hilbert(four_cycle_alg):
    alg = four_cycle_alg
    for k in range(alg.socle_degree + 1):
        basis = alg.quotient_basis(k)
        assert len(basis) == alg.hilbert[k]
        assert len(set(basis)) == len(basis)


def test_invariant_violation_is_runtime_error():
    assert issubclass(InvariantViolation, RuntimeError)
