"""Polynomial core: parsing, printing, differentiation, and the pairing."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedhess import (
    LinearForm,
    ParseError,
    Polynomial,
    VarSet,
    apolar_apply,
    apolar_monomial,
    apolar_pairing,
    format_polynomial,
    grlex_key,
    linear_apply,
    monomial_exponents,
    parse_polynomial,
)
from mixedhess.polyring import _linear_power_terms


def test_parse_roundtrip_simple():
    f = parse_polynomial("3*x^2*y - y^3 + 1/2*x*y^2")
    assert parse_polynomial(format_polynomial(f), f.varset) == f
    assert f.homogeneous_degree() == 3


def test_parse_respects_given_varset():
    vs = VarSet(("x", "y", "z"))
    f = parse_polynomial("x*y", vs)
    assert f.varset is vs
    assert f.homogeneous_degree() == 2


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^2 + @y")
    assert err.value.line == 1
    assert err.value.col == 7


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("1/x", "expected integer denominator", 1, 3),
        ("x + 1/0*y", "zero denominator", 1, 7),
        ("x^y", "expected integer exponent", 1, 3),
        ("x^\n-2", "expected integer exponent", 2, 1),
        ("x + *y", "expected a coefficient or variable", 1, 5),
        ("", "empty polynomial", 1, 1),
        ("-", "empty polynomial", 1, 2),
        ("x\n + 2 y", "expected '+' or '-', got 'y'", 2, 6),
        ("x/y", "expected '+' or '-', got '/'", 1, 2),
    ],
)
def test_parse_errors_name_their_position(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text)
    assert str(err.value) == f"{message} (line {line}, column {col})"
    assert (err.value.line, err.value.col) == (line, col)


def test_parse_rejects_unknown_variable():
    # The unknown name is reported where it stands, as every other
    # grammar error is in test_parse_errors_name_their_position.
    vs = VarSet(("x", "y"))
    for text, line, col in [("x + w", 1, 5), ("x +\n  2*w", 2, 5)]:
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, vs)
        assert str(err.value) == (
            f"variable 'w' not in the given VarSet (line {line}, column {col})"
        )


def test_format_is_canonical():
    a = parse_polynomial("x*y + x^2")
    b = parse_polynomial("x^2 + x*y", a.varset)
    assert a == b
    assert format_polynomial(a) == format_polynomial(b)


def test_evaluate_and_partial():
    f = parse_polynomial("x^3 - 2*x*y^2")
    assert f.evaluate((Fraction(2), Fraction(3))) == 8 - 2 * 2 * 9
    fx = apolar_monomial((1, 0), f)
    assert fx == parse_polynomial("3*x^2 - 2*y^2", f.varset)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evaluate_at_int_and_rational_points(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    vs = VarSet(tuple(f"x{i}" for i in range(n)))
    terms = {
        tuple(rng.randint(0, 3) for _ in range(n)):
            Fraction(rng.randint(-9, 9), rng.randint(1, 8))
        for _ in range(rng.randint(0, 6))
    }
    f = Polynomial(vs, terms)
    point = tuple(rng.randint(-5, 5) for _ in range(n))
    rational = tuple(Fraction(p, rng.randint(1, 4)) for p in point)
    mixed = tuple(q if i % 2 else p for i, (p, q) in enumerate(zip(point, rational)))
    for pt in (point, mixed, rational):
        oracle = sum(
            (c * math.prod(Fraction(p) ** k for p, k in zip(pt, e))
             for e, c in f.terms.items()),
            Fraction(0),
        )
        value = f.evaluate(pt)
        assert type(value) is Fraction
        assert value == oracle


def test_homogeneous_degree_none_for_mixed():
    f = parse_polynomial("x^2 + x")
    assert f.homogeneous_degree() is None


def test_zero_polynomial():
    vs = VarSet(("x",))
    z = Polynomial.zero(vs)
    assert z.is_zero()
    assert format_polynomial(z) == "0"


def test_apolar_monomial_falling_factorials():
    f = parse_polynomial("x^5")
    # second derivative of x^5 is 20 x^3
    g = apolar_monomial((2,), f)
    assert g == parse_polynomial("20*x^3", f.varset)
    assert apolar_monomial((6,), f).is_zero()


def test_apolar_apply_matches_monomial_route():
    f = parse_polynomial("x^2*y + y^3")
    op = parse_polynomial("x*y - y^2", f.varset)
    direct = apolar_apply(op, f)
    expected = apolar_monomial((1, 1), f) + apolar_monomial((0, 2), f) * Fraction(-1)
    assert direct == expected


def test_apolar_pairing_splits_full_contraction():
    f = parse_polynomial("x^2*y")
    # (X)(X y)(x^2 y) = 2! * 1! = 2, split across the two arguments
    assert apolar_pairing((1, 0), (1, 1), f) == 2
    assert apolar_pairing((1, 1), (0, 1), f) == 0


def test_linear_form_perp():
    vs = VarSet(("x", "y", "z"))
    L = LinearForm(vs, (Fraction(1), Fraction(-2), Fraction(3)))
    assert L.perp() == (1, -2, 3)


def test_linear_apply_is_directional_derivative():
    f = parse_polynomial("x^2*y")
    out = linear_apply((Fraction(1), Fraction(1)), f)
    assert out == parse_polynomial("2*x*y + x^2", f.varset)


def _divided(terms):
    """The coefficients of sum c_b x^b = sum c_b b! x^[b] in divided
    powers x^[b] = x^b / b!."""
    return {b: c * math.prod(map(math.factorial, b)) for b, c in terms.items()}


def test_linear_power_apply_matches_iteration():
    # Contraction on divided-power coefficients is differentiation on
    # ordinary ones.
    rng = random.Random(7)
    f = parse_polynomial("x^3*y + x*y^3 - y^4")
    coeffs = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
    once = f
    for _ in range(3):
        once = linear_apply(coeffs, once)
    assert _linear_power_terms(coeffs, _divided(f.terms), 3) == _divided(once.terms)


def test_power_apply_identity_check():
    vs = VarSet(("x", "y"))
    L = LinearForm(vs, (Fraction(2), Fraction(1)))
    g = parse_polynomial("x*y + y^2", vs)
    # L^2 applied to a quadric equals 2! times the quadric at (2, 1):
    # 2 * (2*1 + 1^2) = 6.  In divided powers g = x^[1,1] + 2*y^[0,2],
    # and X_v contracts: X_x X_y x^[1,1] = 1 and X_y^2 y^[0,2] = 1.
    assert g.evaluate(L.perp()) == 3
    assert _linear_power_terms(L.coeffs, {(1, 1): 1, (0, 2): 2}, 2) == {(0, 0): 6}
    # Contraction carries no factor: X_x x^[3] = x^[2].
    assert _linear_power_terms((1,), {(3,): 1}, 1) == {(2,): 1}


def test_monomial_exponents_counts_and_order():
    vs = VarSet(("x", "y", "z"))
    for d in range(5):
        monos = monomial_exponents(vs, d)
        assert len(monos) == math.comb(3 + d - 1, d)
        keys = [grlex_key(m) for m in monos]
        assert keys == sorted(keys, reverse=True)
        assert len(set(monos)) == len(monos)


def test_varset_rejects_bad_names():
    with pytest.raises(ValueError):
        VarSet(("x", "x"))
    with pytest.raises(ValueError):
        VarSet(("2bad",))


def test_blocks_checked():
    with pytest.raises(ValueError):
        VarSet(("x", "y"), (0,))


@st.composite
def small_polynomials(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    vs = VarSet(tuple(f"x{i + 1}" for i in range(nvars)))
    nterms = draw(st.integers(min_value=0, max_value=5))
    coeffs = {}
    for _ in range(nterms):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=4)) for _ in range(nvars)
        )
        num = draw(st.integers(min_value=-20, max_value=20))
        den = draw(st.integers(min_value=1, max_value=9))
        if num:
            coeffs[exps] = Fraction(num, den)
    return Polynomial(vs, coeffs)


@settings(max_examples=60, deadline=None)
@given(small_polynomials())
def test_format_parse_roundtrip_property(f):
    assert parse_polynomial(format_polynomial(f), f.varset) == f


@settings(max_examples=40, deadline=None)
@given(small_polynomials(), small_polynomials())
def test_apolar_bilinearity(f, g):
    if f.varset.size != g.varset.size:
        return
    g = Polynomial(f.varset, dict(g.terms))
    op = parse_polynomial("x1", f.varset)
    assert apolar_apply(op, f + g) == apolar_apply(op, f) + apolar_apply(op, g)
