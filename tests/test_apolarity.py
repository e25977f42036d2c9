"""Graded algebra construction: Hilbert functions, annihilators, pairings."""

from __future__ import annotations

import math
import random

import pytest

from mixedhess import (
    InvariantViolation,
    VarSet,
    ann_generated_by_quadrics,
    apolar_apply,
    bigraded_decomposition,
    build_algebra,
    parse_polynomial,
    unimodality_check,
)
from mixedhess.linalg import matrix_rank

from conftest import dense_random_form


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


def test_annihilator_kills_the_generator(four_cycle_alg):
    alg = four_cycle_alg
    for k in range(1, alg.socle_degree + 1):
        for op in alg.ann_basis(k):
            assert apolar_apply(op, alg.f).is_zero()
        n = alg.varset.size
        assert len(alg.ann_basis(k)) == math.comb(n + k - 1, k) - alg.dim(k)


def test_pairing_matrices_invertible(four_cycle_alg, boolean3_alg):
    for alg in (four_cycle_alg, boolean3_alg):
        d = alg.socle_degree
        for k in range(d + 1):
            m = alg.pairing_matrix(k)
            assert len(m) == alg.dim(k)
            assert matrix_rank(m) == len(m)


def test_quadrics_presented_for_four_cycle(four_cycle_alg):
    check = ann_generated_by_quadrics(four_cycle_alg)
    assert check.presented
    assert check.failing_degrees == ()
    assert check.dim_ann2 == 28


def test_quadrics_fail_for_fermat_cubic():
    alg = build_algebra(parse_polynomial("x^3 + y^3 + z^3"))
    check = ann_generated_by_quadrics(alg)
    assert not check.presented
    assert 3 in check.failing_degrees
    assert check.dim_ann2 == 3


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
    dec = bigraded_decomposition(four_cycle_alg)
    sizes = {bd: len(monos) for bd, monos in dec.pieces.items()}
    assert sizes[(1, 0)] == 4
    assert sizes[(0, 1)] == 4
    total_by_degree = {}
    for (a, b), monos in dec.pieces.items():
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
