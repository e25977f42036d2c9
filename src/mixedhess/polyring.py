"""Exact sparse multivariate polynomials over the rationals, plus the
apolarity action of constant-coefficient differential operators.

Two copies of "the same" representation are in play everywhere in this
package: the base ring of polynomials (lowercase variables, acted on)
and the ring of differential operators (uppercase in the math, same
:class:`Polynomial` type here).  Which role a value plays is decided by
argument position in :func:`apolar_apply`.  A monomial operator acts by
iterated partial differentiation:

    X^a (x^b) = prod_i b_i (b_i - 1) ... (b_i - a_i + 1) * x^(b - a)

when a <= b componentwise, and kills the term otherwise.

Coefficients are ``fractions.Fraction`` throughout; nothing in this
module (or anywhere verdict-bearing downstream) touches floating point.
A monomial is its exponent tuple, in the variable order of the ambient
:class:`VarSet`, both as a term key of a :class:`Polynomial` and as a
basis label.  Monomials are ordered graded-lexicographically in that
order; that single convention fixes deterministic bases for everything
built on top.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Collection, Mapping, Sequence


class VarSetMismatch(ValueError):
    """Raised when two values built over different variable sets meet."""


class ParseError(ValueError):
    """Polynomial text that does not match the input grammar."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class VarSet(namedtuple("VarSet", ("names", "blocks"))):
    """An ordered tuple of variable names, optionally split into an
    x-block and a u-block (block 0 and block 1).

    The order is load-bearing: it defines the graded-lex monomial order
    and therefore every deterministic basis choice in the package.
    """

    __slots__ = ()

    def __new__(
        cls, names: tuple[str, ...], blocks: tuple[int, ...] | None = None
    ) -> "VarSet":
        if not names:
            raise ValueError("VarSet needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad variable name {name!r}")
        if blocks is not None:
            if len(blocks) != len(names):
                raise ValueError("blocks must match names in length")
            if any(b not in (0, 1) for b in blocks):
                raise ValueError("blocks must consist of 0 (x-block) and 1 (u-block)")
        return super().__new__(cls, names, blocks)

    # The inherited _make, which _replace calls, would bypass __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def bidegree_of(self, exps: tuple[int, ...]) -> tuple[int, int]:
        if self.blocks is None:
            raise ValueError("VarSet has no x/u block structure")
        d0 = sum(e for e, b in zip(exps, self.blocks) if b == 0)
        d1 = sum(e for e, b in zip(exps, self.blocks) if b == 1)
        return (d0, d1)

    def restrict(self, keep: Sequence[int]) -> "VarSet":
        """Sub-VarSet on the given variable indices (order preserved)."""
        names = tuple(self.names[i] for i in keep)
        blocks = None if self.blocks is None else tuple(self.blocks[i] for i in keep)
        return VarSet(names, blocks)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def grlex_key(exps: tuple[int, ...]) -> tuple:
    """Sort key for graded-lex order.  Sorting with reverse=True lists
    monomials highest-first: degree descending, then x1-heavy first."""
    return (sum(exps), exps)


@lru_cache(maxsize=None)
def monomial_exponents(varset: VarSet, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of the given total degree, in graded-lex
    descending order (x1^k first)."""
    if degree < 0:
        return ()
    n = varset.size
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return tuple(out)


def _unit(n: int, i: int) -> tuple[int, ...]:
    """The exponent vector of the i-th of n variables."""
    return (0,) * i + (1,) + (0,) * (n - i - 1)


def _format_exps(exps: tuple[int, ...], varset: VarSet) -> str:
    parts = []
    for name, e in zip(varset.names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


class Polynomial:
    """Sparse polynomial: a map from exponent tuples to nonzero Fractions.

    Instances are immutable by convention: the term map is never mutated
    after construction, so values can be shared freely across threads.
    """

    __slots__ = ("varset", "terms")

    def __init__(self, varset: VarSet, terms: Mapping[tuple[int, ...], object] | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            n = varset.size
            for exps, coeff in terms.items():
                if len(exps) != n:
                    raise VarSetMismatch("exponent tuple length does not match VarSet")
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c:
                    clean[exps] = c
        self.varset = varset
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, varset: VarSet) -> "Polynomial":
        return cls(varset, {})

    @classmethod
    def constant(cls, varset: VarSet, value) -> "Polynomial":
        return cls(varset, {(0,) * varset.size: Fraction(value)})

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None (zero or mixed)."""
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def bidegree(self) -> tuple[int, int] | None:
        """Common (x-degree, u-degree) of all terms, or None."""
        bds = {self.varset.bidegree_of(e) for e in self.terms}
        if len(bds) == 1:
            return bds.pop()
        return None

    def sorted_exps(self) -> list[tuple[int, ...]]:
        return sorted(self.terms, key=grlex_key, reverse=True)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.varset != other.varset:
            raise VarSetMismatch("polynomials over different VarSets")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _raw(self.varset, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return _raw(self.varset, {e: -c for e, c in self.terms.items()})

    def scale(self, value) -> "Polynomial":
        c = Fraction(value)
        if not c:
            return Polynomial.zero(self.varset)
        return _raw(self.varset, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            out: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    s = out.get(key)
                    out[key] = c1 * c2 if s is None else s + c1 * c2
            return _raw(self.varset, {e: c for e, c in out.items() if c})
        return self.scale(other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.varset == other.varset
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.varset, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Value at the point, as a Fraction.  Int coordinates stay ints,
        so at an integer point each term costs one Fraction multiply."""
        if len(point) != self.varset.size:
            raise VarSetMismatch("point length does not match VarSet")
        pt = [p if isinstance(p, (int, Fraction)) else Fraction(p) for p in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            val = 1
            for p, k in zip(pt, e):
                if k:
                    val *= p**k
            total += c * val
        return total

    # -- text ----------------------------------------------------------

    def text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for e in self.sorted_exps():
            c = self.terms[e]
            mono = _format_exps(e, self.varset)
            if mono:
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            else:
                body = str(abs(c))
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Polynomial({self.text()!r})"


_ZERO = Fraction(0)


def _raw(varset: VarSet, terms: dict[tuple[int, ...], Fraction]) -> Polynomial:
    """Internal constructor that trusts the term map is clean."""
    p = Polynomial.__new__(Polynomial)
    p.varset = varset
    p.terms = terms
    return p


class LinearForm(namedtuple("LinearForm", ("varset", "coeffs"))):
    """A linear operator sum(a_v * X_v), kept with its coefficient vector.

    ``perp()`` is the evaluation point (a_1, ..., a_r) that the apolar
    pairing attaches to the form.
    """

    __slots__ = ()

    def __new__(cls, varset: VarSet, coeffs: tuple[Fraction, ...]) -> "LinearForm":
        if len(coeffs) != varset.size:
            raise VarSetMismatch("coefficient count does not match VarSet")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if not any(coeffs):
            raise ValueError("linear form must be nonzero")
        return super().__new__(cls, varset, coeffs)

    # The inherited _make, which _replace calls, would bypass __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def perp(self) -> tuple[Fraction, ...]:
        return self.coeffs


# -- apolarity action ---------------------------------------------------


def falling_product(b: tuple[int, ...], a: tuple[int, ...]) -> int:
    """prod_i b_i (b_i - 1) ... (b_i - a_i + 1); zero when a does not
    divide b."""
    prod = 1
    for bi, ai in zip(b, a):
        if ai > bi:
            return 0
        for t in range(ai):
            prod *= bi - t
    return prod


def apolar_monomial(a: tuple[int, ...], f: Polynomial) -> Polynomial:
    """Action of the single monomial operator X^a on f."""
    return apolar_apply(_raw(f.varset, {a: Fraction(1)}), f)


def apolar_apply(op: Polynomial, f: Polynomial) -> Polynomial:
    """Apply a differential operator (written as a Polynomial) to f."""
    if op.varset != f.varset:
        raise VarSetMismatch("operator and polynomial over different VarSets")
    out: dict[tuple[int, ...], Fraction] = {}
    for a, ca in op.terms.items():
        for b, cb in f.terms.items():
            coef = falling_product(b, a)
            if coef:
                key = tuple(x - y for x, y in zip(b, a))
                prev = out.get(key)
                val = ca * cb * coef
                out[key] = val if prev is None else prev + val
    return _raw(f.varset, {e: c for e, c in out.items() if c})


def apolar_pairing(a: tuple[int, ...], g: tuple[int, ...], f: Polynomial) -> Fraction:
    """Scalar (X^a X^g)(f) for exponent vectors with |a| + |g| = deg f.

    The product exponent s = a + g picks out a single term of f; the
    action multiplies its coefficient by s! = prod_i s_i!.
    """
    s = tuple(x + y for x, y in zip(a, g))
    c = f.terms.get(s)
    if not c:
        return _ZERO
    fact = 1
    for e in s:
        fact *= math.factorial(e)
    return c * fact


def _linear_power_terms(coeffs: Sequence, terms: dict, power: int) -> dict:
    """The operator sum(a_v * X_v) applied power times to a term map
    {exponents: coefficient} in divided powers, where X_v contracts:
    X_v x^[b] = x^[b - e_v] for x^[b] = x^b / b!, zero when b_v = 0.  Ints
    in give ints out, and zero coefficients are dropped after each
    application."""
    nonzero = [(v, a) for v, a in enumerate(coeffs) if a]
    for _ in range(power):
        if not terms:
            break
        out: dict = {}
        for b, c in terms.items():
            for v, a in nonzero:
                if b[v]:
                    key = b[:v] + (b[v] - 1,) + b[v + 1 :]
                    prev = out.get(key)
                    out[key] = c * a if prev is None else prev + c * a
        terms = {e: c for e, c in out.items() if c}
    return terms


def _int_scaled(values: Collection[Fraction]) -> tuple[int, list[int]]:
    """(m, [m*v for v in values]) for m the lcm of the denominators:
    the values scaled by one positive int into ints."""
    m = math.lcm(*(v.denominator for v in values))
    return m, [v.numerator * (m // v.denominator) for v in values]


def linear_apply(coeffs: Sequence[Fraction], f: Polynomial) -> Polynomial:
    """One application of the operator sum(a_v * X_v) to f, by ordinary
    differentiation."""
    out: dict[tuple[int, ...], Fraction] = {}
    for b, c in f.terms.items():
        for v, a in enumerate(coeffs):
            if a and b[v]:
                key = b[:v] + (b[v] - 1,) + b[v + 1 :]
                out[key] = out.get(key, _ZERO) + c * a * b[v]
    return Polynomial(f.varset, out)


# -- parsing -------------------------------------------------------------


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^])"
)


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, lexeme, line, col))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("end", "", line, col))
    return tokens


def parse_polynomial(text: str, varset: VarSet | None = None) -> Polynomial:
    """Parse the textual grammar: rational coefficients, '*' products,
    '^' powers, '+'/'-' sums, whitespace-insensitive.

    With ``varset=None`` the variable set is inferred from the order of
    first appearance (no x/u block structure).
    """
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx]

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def fail(msg, tok):
        raise ParseError(msg, tok[2], tok[3])

    # term list: (coefficient, {name: exponent})
    raw_terms: list[tuple[Fraction, dict[str, int]]] = []
    order: list[str] = []

    def parse_factor(coeff: Fraction, exps: dict[str, int]) -> Fraction:
        kind, lex, _, _ = peek()
        if kind == "num":
            take()
            value = Fraction(int(lex))
            if peek()[0] == "op" and peek()[1] == "/":
                take()
                tok = peek()
                if tok[0] != "num":
                    fail("expected integer denominator", tok)
                take()
                den = int(tok[1])
                if den == 0:
                    fail("zero denominator", tok)
                value /= den
            return coeff * value
        if kind == "name":
            tok = take()
            if varset is not None and lex not in varset.names:
                fail(f"variable {lex!r} not in the given VarSet", tok)
            if lex not in exps and lex not in order:
                order.append(lex)
            power = 1
            if peek()[0] == "op" and peek()[1] == "^":
                take()
                pkind, plex, _, _ = peek()
                if pkind != "num":
                    fail("expected integer exponent", peek())
                take()
                power = int(plex)
            exps[lex] = exps.get(lex, 0) + power
            return coeff
        fail("expected a coefficient or variable", peek())

    def parse_term(sign: int):
        coeff = Fraction(sign)
        exps: dict[str, int] = {}
        coeff = parse_factor(coeff, exps)
        while peek()[0] == "op" and peek()[1] == "*":
            take()
            coeff = parse_factor(coeff, exps)
        raw_terms.append((coeff, exps))

    # leading sign
    sign = 1
    if peek()[0] == "op" and peek()[1] in "+-":
        tok = take()
        sign = -1 if tok[1] == "-" else 1
    if peek()[0] == "end":
        fail("empty polynomial", peek())
    parse_term(sign)
    while peek()[0] != "end":
        kind, lex, _, _ = peek()
        if kind == "op" and lex in "+-":
            take()
            parse_term(-1 if lex == "-" else 1)
        else:
            fail(f"expected '+' or '-', got {lex!r}", peek())

    if varset is None:
        if not order:
            raise ParseError("polynomial has no variables; pass a VarSet for constants", 1, 1)
        varset = VarSet(tuple(order))

    n = varset.size
    terms: dict[tuple[int, ...], Fraction] = {}
    for coeff, exps in raw_terms:
        vec = [0] * n
        for name, e in exps.items():
            vec[varset.index(name)] += e
        key = tuple(vec)
        terms[key] = terms.get(key, _ZERO) + coeff
    return Polynomial(varset, terms)


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form; parse(format(f)) reproduces f exactly."""
    return f.text()
