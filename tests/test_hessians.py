"""Mixed Hessians, dual bases, and rank certification."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mixedhess import (
    MixedHessian,
    Polynomial,
    SamplingConfig,
    SymbolicCapExceeded,
    VarSet,
    apolar_monomial,
    bigraded_decomposition,
    bigraded_hessian,
    boolean_form,
    build_algebra,
    dual_generator,
    dual_mixed_hessian,
    evaluate_matrix,
    even_counterexample,
    example_catalog,
    generic_rank,
    grid_noninjectivity_witness,
    grid_pairs_for,
    detect_complete_multipartite,
    mixed_hessian,
    odd_counterexample,
    parse_polynomial,
    rank_at,
    perazzo_form,
    symbolic_det,
    turan_complex,
)
from mixedhess import families, hessians
from mixedhess.cli import _complex_from_json
from mixedhess.families import _cubic_base
from mixedhess.hessians import _entries, _slice_bound, _torus_slice
from mixedhess.lefschetz import wlp_criterion_matrix
from mixedhess.linalg import matrix_rank

from conftest import (
    dense_cells,
    dense_pairing_inverse,
    dense_random_form,
    rational_random_form,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def test_middle_hessian_of_four_cycle_vanishes(four_cycle_alg):
    h = mixed_hessian(four_cycle_alg, 1, 1)
    assert h.shape == (8, 8)
    det = symbolic_det(h, cap=8)
    assert det.is_zero()


def test_boolean_hessian_regular(boolean3_alg):
    h = mixed_hessian(boolean3_alg, 1, 1)
    det = symbolic_det(h, cap=4)
    assert not det.is_zero()
    ones = tuple(Fraction(1) for _ in range(3))
    assert rank_at(h, ones) == 3


def test_entries_are_second_order_contractions(boolean3_alg):
    h = mixed_hessian(boolean3_alg, 1, 1)
    # row/col bases are the three variables; entry (i, j) applies x_i x_j
    ones = tuple(Fraction(1) for _ in range(3))
    m = evaluate_matrix(h, ones)
    assert m == [
        [Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(0)],
    ]


def test_dual_hessian_rank_equals_plain(config):
    rng = random.Random(4)
    for _ in range(4):
        alg = build_algebra(dense_random_form(rng, rng.randint(2, 3), 4))
        d = alg.socle_degree
        for k, l in ((1, 2), (1, 3), (2, 3)):
            dual = dual_mixed_hessian(alg, l, k)
            plain = mixed_hessian(alg, k, d - l)
            r_dual = generic_rank(dual, config)
            r_plain = generic_rank(plain, config)
            assert r_dual.rank == r_plain.rank


def test_generic_rank_empty_and_constant(config):
    vs = VarSet(("x",))
    empty = MixedHessian(vs, (), (), (), "hessian", (1, 1))
    assert generic_rank(empty, config).rank == 0
    one = (1,)
    const = MixedHessian(
        vs,
        ({0: parse_polynomial("1", vs), 1: parse_polynomial("2", vs)},),
        (one,),
        (one, one),
        "hessian",
        (1, 1),
    )
    cert = generic_rank(const, config)
    assert cert.rank == 1
    assert cert.is_exact


def test_generic_rank_square_symbolic_routes(config):
    # 2x2 with identically vanishing determinant but nonzero entries
    vs = VarSet(("x", "y"))
    x = parse_polynomial("x", vs)
    y = parse_polynomial("y", vs)
    one = (1, 0)
    h = MixedHessian(
        vs, ({0: x, 1: y}, {0: x, 1: y}), (one, one), (one, one), "hessian", (1, 1)
    )
    cert = generic_rank(h, config)
    assert cert.rank == 1
    assert cert.is_exact
    regular = MixedHessian(
        vs, ({0: x, 1: y}, {0: y, 1: x}), (one, one), (one, one), "hessian", (1, 1)
    )
    cert = generic_rank(regular, config)
    assert cert.rank == 2
    assert cert.is_exact


def test_generic_rank_probabilistic_above_cap():
    vs = VarSet(("x",))
    x = parse_polynomial("x", vs)
    n = 14  # larger than the symbolic cap
    one = (1,)
    cells = tuple({i: x} if i < n - 1 else {} for i in range(n))
    h = MixedHessian(vs, cells, (one,) * n, (one,) * n, "hessian", (1, 1))
    config = SamplingConfig(seed=1, trials=5)
    cert = generic_rank(h, config)
    assert cert.rank == n - 1
    assert cert.mode == "probabilistic"
    assert not cert.is_exact
    assert cert.failure_bound is not None
    assert 0 < cert.failure_bound < 1


def test_sampling_meets_min_dimension_is_exact(config):
    rng = random.Random(8)
    alg = build_algebra(dense_random_form(rng, 3, 3))
    h = mixed_hessian(alg, 1, 2)  # 3 x 6, full rank 3 generically
    cert = generic_rank(h, config)
    assert cert.rank == 3
    assert cert.is_exact


def test_symbolic_det_respects_cap(four_cycle_alg):
    h = mixed_hessian(four_cycle_alg, 1, 1)
    with pytest.raises(SymbolicCapExceeded):
        symbolic_det(h, cap=4)


def test_rank_at_never_exceeds_generic(config):
    rng = random.Random(13)
    alg = build_algebra(dense_random_form(rng, 3, 4))
    h = mixed_hessian(alg, 1, 1)
    cert = generic_rank(h, config)
    for trial in range(5):
        point = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
        assert rank_at(h, point) <= cert.rank


# -- memoized matrices and certificates ----------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.permutations(range(3)))
def test_memoized_certificates_match_fresh_ones(seed, order):
    # Trials 1 and sample bound 1 leave many sampled ranks short, so the
    # certificates of the three configs differ in their trials or in
    # their symbolic rung: a memo that ignored the config would hand one
    # config the certificate of another.
    rng = random.Random(seed)
    f = rational_random_form(rng, rng.randint(2, 4), rng.randint(3, 4))
    alg = build_algebra(f)
    base = SamplingConfig(seed=seed, trials=1, sample_bound=1)
    configs = [
        base,
        base._replace(trials=3),
        base._replace(symbolic_cap=0),
    ]
    d = alg.socle_degree
    for k in range(1, d // 2 + 1):
        for l in range(k, d - k + 1):
            h = mixed_hessian(alg, k, l)
            assert mixed_hessian(alg, k, l) is h
            for i in order:
                cert = generic_rank(h, configs[i])
                fresh = generic_rank(
                    mixed_hessian(build_algebra(f), k, l), configs[i]
                )
                assert cert == fresh, (k, l, configs[i])
                assert generic_rank(h, configs[i]) is cert


def test_mixed_hessian_validates_degrees(boolean3_alg):
    with pytest.raises(ValueError):
        mixed_hessian(boolean3_alg, 2, 2)  # entries would have degree < 0


def test_evaluate_matrix_shape(four_cycle_alg):
    h = mixed_hessian(four_cycle_alg, 1, 2)
    point = tuple(Fraction(1) for _ in range(8))
    m = evaluate_matrix(h, point)
    assert (len(m), len(m[0])) == h.shape
    assert matrix_rank(m) <= min(h.shape)


# -- the term-driven build against the per-cell oracle -----------------------


def _oracle_entries(f, rows_b, cols_b):
    """The per-cell build: entry (i, j) is the product of the i-th row and
    j-th column monomials acting on f, each distinct product once."""
    cache = {}

    def entry(alpha, beta):
        key = tuple(a + b for a, b in zip(alpha, beta))
        poly = cache.get(key)
        if poly is None:
            poly = cache[key] = apolar_monomial(key, f)
        return poly

    return tuple(tuple(entry(alpha, beta) for beta in cols_b) for alpha in rows_b)


def _assert_entries_match_oracle(entries, f, rows_b, cols_b):
    oracle = _oracle_entries(f, rows_b, cols_b)
    assert len(entries) == len(oracle)
    for row, expected_row in zip(entries, oracle):
        assert len(row) == len(expected_row)
        for p, q in zip(row, expected_row):
            assert p == q
            # Same terms in the same order, so reports print the same.
            assert list(p.terms.items()) == list(q.terms.items())


@st.composite
def _sparse_forms(draw):
    """Forms in 1-6 variables of degree 1-5 with 1-7 terms."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    monomial = st.lists(
        st.integers(0, n - 1), min_size=d, max_size=d
    ).map(lambda picks: tuple(picks.count(i) for i in range(n)))
    coeff = st.fractions(-9, 9, max_denominator=4).filter(bool)
    terms = draw(st.dictionaries(monomial, coeff, min_size=1, max_size=7))
    return Polynomial(VarSet(tuple(f"x{i + 1}" for i in range(n))), terms)


@settings(max_examples=80, deadline=None)
@given(_sparse_forms())
def test_entries_match_oracle_on_sparse_forms(f):
    alg = build_algebra(f)
    d = alg.socle_degree
    for k in range(d + 1):
        for l in range(d + 1 - k):
            h = mixed_hessian(alg, k, l)
            _assert_entries_match_oracle(
                dense_cells(h), alg.f, alg.quotient_basis(k), alg.quotient_basis(l)
            )
    basis = alg.quotient_basis(1)
    assert _entries(alg.f, basis, ()) == ({},) * len(basis)
    assert _entries(alg.f, (), basis) == ()


def _dense_max_entry_degree(h):
    """The largest degree over every cell, zero cells skipped; 0 when
    every cell is zero."""
    return max(
        (p.degree() for row in dense_cells(h) for p in row if not p.is_zero()),
        default=0,
    )


@st.composite
def _bihomogeneous_forms(draw):
    """Forms of bidegree (d1, d2) in 1-3 x-variables and 1-3
    u-variables with 1-6 terms."""
    nx, nu = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 2))

    def block(n, d):
        picks = st.lists(st.integers(0, n - 1), min_size=d, max_size=d)
        return picks.map(lambda p: tuple(p.count(i) for i in range(n)))

    monomial = st.tuples(block(nx, d1), block(nu, d2)).map(lambda t: t[0] + t[1])
    coeff = st.fractions(-9, 9, max_denominator=4).filter(bool)
    terms = draw(st.dictionaries(monomial, coeff, min_size=1, max_size=6))
    names = tuple(f"x{i + 1}" for i in range(nx))
    names += tuple(f"u{i + 1}" for i in range(nu))
    return Polynomial(VarSet(names, (0,) * nx + (1,) * nu), terms)


@settings(max_examples=60, deadline=None)
@given(_sparse_forms())
def test_max_entry_degree_matches_dense_scan(f):
    alg = build_algebra(f)
    d = alg.socle_degree
    for k in range(d + 1):
        for l in range(d + 1 - k):
            h = mixed_hessian(alg, k, l)
            assert h.max_entry_degree() == _dense_max_entry_degree(h)
        for j in range(k + 1):
            h = dual_mixed_hessian(alg, k, j)
            assert h.max_entry_degree() == _dense_max_entry_degree(h)


@settings(max_examples=40, deadline=None)
@given(_bihomogeneous_forms())
def test_bigraded_max_entry_degree_matches_dense_scan(f):
    alg = build_algebra(f)
    pieces = bigraded_decomposition(alg)
    for r in pieces:
        for c in pieces:
            h = bigraded_hessian(alg, r, c)
            assert h.max_entry_degree() == _dense_max_entry_degree(h)


def test_max_entry_degree_of_a_zero_matrix(four_cycle_alg):
    # f has x-degree 1, so X^g f = 0 for every g of bidegree (2, 0).
    h = bigraded_hessian(four_cycle_alg, (1, 0), (1, 0))
    assert h.shape == (4, 4)
    assert all(p.is_zero() for row in dense_cells(h) for p in row)
    assert h.max_entry_degree() == _dense_max_entry_degree(h) == 0


@pytest.mark.parametrize("sample", ["square.json", "tk222.json"])
def test_bigraded_entries_match_oracle(sample):
    comp = _complex_from_json((SAMPLES / sample).read_text())
    alg = build_algebra(dual_generator(comp))
    pieces = bigraded_decomposition(alg)
    for r, rows_b in pieces.items():
        for c, cols_b in pieces.items():
            block = bigraded_hessian(alg, r, c)
            _assert_entries_match_oracle(dense_cells(block), alg.f, rows_b, cols_b)


def _perazzo_matrices(forms, tail, config):
    """perazzo_form's polynomial, Jacobian and Hessian, as it hands the
    two matrices to generic_rank."""
    built = []

    def recording(h, config):
        built.append(h)
        return generic_rank(h, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "generic_rank", recording)
        f = perazzo_form(forms, tail, config).polynomial
    jac, hess = built
    return f, jac, hess


@pytest.mark.parametrize(
    "names, partials", [("uv", "u^2; u*v; v^2"), ("uvw", "u^2; v^2; w^2")]
)
def test_perazzo_hessian_entries_match_oracle(config, names, partials):
    vs = VarSet(tuple(names))
    forms = [parse_polynomial(t, vs) for t in partials.split("; ")]
    f, _, h = _perazzo_matrices(forms, None, config)
    n = f.varset.size
    units = tuple(tuple(int(t == i) for t in range(n)) for i in range(n))
    assert h.row_basis == h.col_basis == units
    _assert_entries_match_oracle(dense_cells(h), f, units, units)


# -- the sparse dual build against the per-cell oracle ------------------------


def _oracle_dual_entries(alg, l, k):
    """The per-cell dual build: cell (i, j) adds inv[t][i] times the
    inner cell (t, j) over every inner row t, zero cells included."""
    d = alg.socle_degree
    inner = mixed_hessian(alg, d - l, k)
    inv = dense_pairing_inverse(alg, l)
    inner_entries = dense_cells(inner)
    zero = Polynomial.zero(alg.f.varset)
    entries = []
    for i in range(len(alg.quotient_basis(l))):
        row = []
        for j in range(inner.ncols):
            acc = zero
            for t in range(inner.nrows):
                c = inv[t][i]
                if c:
                    acc = acc + inner_entries[t][j].scale(c)
            row.append(acc)
        entries.append(tuple(row))
    return tuple(entries)


@pytest.mark.parametrize("name", ["four-cycle", "odd-5-14", "boolean-5"])
def test_dual_entries_match_per_cell_oracle(catalog, name):
    f = {
        "four-cycle": lambda: catalog["four-cycle"].polynomial,
        "odd-5-14": lambda: odd_counterexample(5, 14).polynomial,
        "boolean-5": lambda: boolean_form(5),
    }[name]()
    alg = build_algebra(f)
    d = alg.socle_degree
    for l in range(d + 1):
        for k in range(l + 1):
            entries = dense_cells(dual_mixed_hessian(alg, l, k))
            oracle = _oracle_dual_entries(alg, l, k)
            assert len(entries) == len(oracle)
            for row, expected_row in zip(entries, oracle):
                assert len(row) == len(expected_row)
                for p, q in zip(row, expected_row):
                    assert list(p.terms.items()) == list(q.terms.items())


# -- the torus-slice bound -----------------------------------------------------


@st.composite
def _slice_forms(draw):
    """Forms in 3-7 variables of degree 2-5 with 1-9 terms; half of them
    bihomogeneous over a split of the variables into an x- and a
    u-block, so that they have bigraded blocks too."""
    n = draw(st.integers(3, 7))
    d = draw(st.integers(2, 5))
    names = tuple(f"x{i + 1}" for i in range(n))
    split = draw(st.none() | st.tuples(st.integers(1, n - 1), st.integers(1, d - 1)))

    def picks(lo, hi, size):
        return st.lists(st.integers(lo, hi), min_size=size, max_size=size)

    if split is None:
        blocks, monomial = None, picks(0, n - 1, d)
    else:
        nx, dx = split
        blocks = (0,) * nx + (1,) * (n - nx)
        monomial = st.tuples(picks(0, nx - 1, dx), picks(nx, n - 1, d - dx)).map(
            lambda t: t[0] + t[1]
        )
    monomial = monomial.map(lambda p: tuple(p.count(i) for i in range(n)))
    coeff = st.fractions(-9, 9, max_denominator=4).filter(bool)
    terms = draw(st.dictionaries(monomial, coeff, min_size=1, max_size=9))
    return Polynomial(VarSet(names, blocks), terms)


@st.composite
def _perazzo_inputs(draw):
    """2-3 forms of one degree 1-3 in 2-3 variables with 1-3 terms each,
    and a tail of degree one more or none."""
    n, e = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    vs = VarSet(("u", "v", "w")[:n])
    coeff = st.fractions(-9, 9, max_denominator=4).filter(bool)

    def form(degree):
        monomial = st.lists(
            st.integers(0, n - 1), min_size=degree, max_size=degree
        ).map(lambda picks: tuple(picks.count(i) for i in range(n)))
        terms = draw(st.dictionaries(monomial, coeff, min_size=1, max_size=3))
        return Polynomial(vs, terms)

    forms = [form(e) for _ in range(draw(st.integers(2, 3)))]
    return forms, draw(st.none() | st.just(e + 1).map(form))


# x1 has one exponent in every term, so its column of differences is
# zero and it must stay out of J: the slice x2 = x3 = 1 lies in the zero
# locus of (x2 - x3)^2, where the (1, 1) Hessian drops to rank 1.
_FIXED_X1 = "x1*x2^3*x3 - 2*x1*x2^2*x3^2 + x1*x2*x3^3"


_UV = VarSet(("u", "v"))
_CUBIC_PARTIALS = [parse_polynomial(t, _UV) for t in ("u^3", "u^2*v", "u*v^2", "v^3")]


@settings(max_examples=60, deadline=None)
@given(_slice_forms(), _perazzo_inputs(), st.integers(0, 2**32 - 1))
@example(parse_polynomial(_FIXED_X1), (_CUBIC_PARTIALS, None), 0)
def test_slice_bound_is_never_below_a_sampled_rank(f, perazzo, seed):
    # rank(C) bounds the generic rank from above, and the rank at any
    # point is at most the generic rank.  Every matrix with a generator
    # is checked: mixed, dual and bigraded Hessians, and perazzo_form's
    # Jacobian block and Hessian.
    rng = random.Random(seed)
    alg = build_algebra(f)
    d = alg.socle_degree
    cells = [mixed_hessian(alg, k, l) for k in range(d + 1) for l in range(d + 1 - k)]
    cells += [dual_mixed_hessian(alg, l, k) for l in range(d + 1) for k in range(l + 1)]
    if alg.varset.blocks is not None:
        pieces = bigraded_decomposition(alg)
        cells += [bigraded_hessian(alg, r, c) for r in pieces for c in pieces]
    try:
        cells += _perazzo_matrices(*perazzo, SamplingConfig(seed=0, trials=2))[1:]
    except ValueError:  # linearly dependent forms
        pass
    for h in cells:
        assert h.generator is not None
        point = [rng.randint(-50, 50) for _ in range(h.varset.size)]
        assert rank_at(h, point) <= _slice_bound(h) <= min(h.shape)


def test_torus_slice_keeps_only_variables_that_raise_the_rank():
    alg = build_algebra(parse_polynomial(_FIXED_X1))
    assert _torus_slice(alg.f) == (1,)
    assert _slice_bound(mixed_hessian(alg, 1, 1)) == 3


@pytest.mark.parametrize("path", sorted(SAMPLES.glob("*.json")), ids=lambda p: p.name)
def test_dual_generator_slice_holds_only_facet_variables(path):
    # Each facet variable sits in one term, and the facet columns of the
    # term differences already have full rank, so fewest-first stops
    # before any vertex variable: on the slice every vertex variable is
    # 1, which keeps the grid syzygy constant.
    comp = _complex_from_json(path.read_text())
    alg = build_algebra(dual_generator(comp))
    assert _torus_slice(alg.f) == tuple(range(len(comp.facets) - 1))


def _tight_generators():
    """Generators by id, each with the orders of the cells the bound must
    meet: the (1, 1) and (1, 2) cells of the catalog and the samples, the
    middle Hessians of the cubic bases, and the WLP criterion (None) of
    the family members."""
    both = ((1, 1), (1, 2))
    out = {e.identifier: (e.polynomial, both) for e in example_catalog()}
    for path in sorted(SAMPLES.glob("*.poly")):
        out[path.name] = (parse_polynomial(path.read_text()), both)
    for path in sorted(SAMPLES.glob("*.json")):
        out[path.name] = (dual_generator(_complex_from_json(path.read_text())), both)
    for r in range(8, 20):
        out[f"cubic-{r}"] = (_cubic_base(r)[0], ((1, 1),))
    for make, pairs in (
        (odd_counterexample, ((5, 10), (5, 14), (7, 12), (7, 16), (9, 14))),
        (even_counterexample, ((4, 14), (4, 17), (4, 20), (6, 16), (6, 19), (8, 18))),
    ):
        for d, codim in pairs:
            kind = make.__name__.split("_")[0]
            out[f"{kind}-{d}-{codim}"] = (make(d, codim).polynomial, None)
    return out


TIGHT = _tight_generators()


@pytest.mark.parametrize("name", sorted(TIGHT))
def test_slice_bound_meets_the_sampled_rank(name, config):
    f, orders = TIGHT[name]
    alg = build_algebra(f)
    if orders is None:
        cells = [wlp_criterion_matrix(alg)]
    else:
        cells = [mixed_hessian(alg, k, l) for k, l in orders]
    for h in cells:
        cert = generic_rank(h, config)
        assert _slice_bound(h) == cert.rank
        assert cert.is_exact
        if cert.rank < min(h.shape) and h.max_entry_degree():
            assert cert.note == "sampled rank met the torus-slice bound"


@pytest.mark.parametrize(
    "partials, tail, bound",
    [("u^2; u*v; v^2", "u^3 + v^3", 5), ("u^3; u^2*v; u*v^2; v^3", None, 4)],
)
def test_slice_bound_on_perazzo_hessians(partials, tail, bound, config):
    # Both Perazzo forms have a (1, 1) Hessian of generic rank 4.  The
    # bound meets it without the tail only, so with the tail the
    # determinant rung is the one proof of the rank.
    forms = [parse_polynomial(t, _UV) for t in partials.split("; ")]
    _, _, h = _perazzo_matrices(forms, tail and parse_polynomial(tail, _UV), config)
    assert _slice_bound(h) == bound
    cert = generic_rank(h, config)
    assert (cert.rank, cert.is_exact) == (4, True)
    assert (cert.note == "sampled rank met the torus-slice bound") == (bound == 4)


def _grid_witness(name, config):
    if name.startswith("even"):
        return even_counterexample(4, int(name.split("-")[-1]), config).witness
    comp = _complex_from_json((SAMPLES / name).read_text())
    groups = detect_complete_multipartite(comp)
    # Two squares is no complete multipartite graph; the grid is its
    # first square, v1-v2-v3-v4.
    pairs = grid_pairs_for(groups) if groups else (("v1", "v3"), ("v2", "v4"))
    return grid_noninjectivity_witness(
        comp, pairs, config, build_algebra(dual_generator(comp))
    )


@pytest.mark.parametrize(
    "name, squares",
    [("tk222.json", 1), ("two_squares.json", 2), ("even-4-14", 1), ("even-4-17", 1)],
)
def test_slice_bound_on_grid_blocks(name, squares, config):
    # The grid syzygy has monomial coefficients, constants on the slice,
    # so it is a syzygy of C and the bound is at most its cap nrows - 1.
    # On the Turan bases the bound meets the cap.  Two squares has one
    # syzygy per square, and the bound sees both: it sits one below the
    # cap of the first square's grid.
    witness = _grid_witness(name, config)
    block = witness.block
    assert _slice_bound(block) == block.nrows - squares == witness.block_rank.rank
    assert witness.block_rank.is_exact
    assert witness.block_rank.note == "sampled rank met the torus-slice bound"
    assert witness.notes == ()


@pytest.mark.parametrize("name", ["odd-5-14", "even-6-16", "grid-6-16"])
def test_a_deficient_cell_takes_one_point_rank(name, config, monkeypatch):
    # The first sampled point meets the bound and ends the sampling; a
    # change that restores all `trials` point ranks fails here.
    if name == "grid-6-16":
        # The (6, 16) member's base and its grid block.
        base = build_algebra(dual_generator(turan_complex((2, 2, 2))))
        h = bigraded_hessian(base, (1, 0), (0, base.socle_degree - 2))
    else:
        make = odd_counterexample if name == "odd-5-14" else even_counterexample
        d, codim = map(int, name.split("-")[1:])
        h = wlp_criterion_matrix(build_algebra(make(d, codim).polynomial))
    calls = []

    def counting(m, point):
        calls.append(m)
        return rank_at(m, point)

    monkeypatch.setattr(hessians, "rank_at", counting)
    cert = generic_rank(h, config)
    assert cert.rank < min(h.shape) and cert.is_exact
    assert len(calls) == 1


# -- sparse cells ---------------------------------------------------------------


def _assert_cells_match(h, oracle):
    """h stores nonzero polynomials only, and its cells, with the zero
    polynomial everywhere else, are the oracle's dense matrix."""
    assert len(h.cells) == h.nrows
    for row in h.cells:
        assert all(0 <= j < h.ncols for j in row)
        assert all(isinstance(p, Polynomial) and p.terms for p in row.values())
    assert dense_cells(h) == [list(row) for row in oracle]


@settings(max_examples=40, deadline=None)
@given(_slice_forms(), _perazzo_inputs())
def test_stored_cells_are_the_nonzero_cells_of_the_oracle(f, perazzo):
    alg = build_algebra(f)
    d = alg.socle_degree
    for k in range(d + 1):
        for l in range(d + 1 - k):
            h = mixed_hessian(alg, k, l)
            _assert_cells_match(h, _oracle_entries(alg.f, h.row_basis, h.col_basis))
        for j in range(k + 1):
            h = dual_mixed_hessian(alg, k, j)
            _assert_cells_match(h, _oracle_dual_entries(alg, k, j))
    if alg.varset.blocks is not None:
        pieces = bigraded_decomposition(alg)
        for r in pieces:
            for c in pieces:
                h = bigraded_hessian(alg, r, c)
                _assert_cells_match(h, _oracle_entries(alg.f, pieces[r], pieces[c]))

    # perazzo_form's Jacobian and Hessian.  The Jacobian's cells are the
    # partials of the forms written in g's variables, since
    # d/du_j g_i = d/dx_i d/du_j g.
    forms, tail = perazzo
    try:
        g, jac, hess = _perazzo_matrices(forms, tail, SamplingConfig(seed=0, trials=2))
    except ValueError:  # linearly dependent forms
        assume(False)
    s = len(forms)

    def partial(u, p):
        q = apolar_monomial(u[s:], p)
        return Polynomial(g.varset, {(0,) * s + e: c for e, c in q.terms.items()})

    _assert_cells_match(jac, [[partial(u, p) for u in jac.col_basis] for p in forms])
    _assert_cells_match(jac, _oracle_entries(g, jac.row_basis, jac.col_basis))
    _assert_cells_match(hess, _oracle_entries(g, hess.row_basis, hess.col_basis))


def test_odd_11_16_criterion_stores_its_nonzero_cells():
    # 7,392 of the 1,092 x 1,092 cells are nonzero (0.62%).
    alg = build_algebra(odd_counterexample(11, 16).polynomial)
    h = wlp_criterion_matrix(alg)
    assert h.shape == (1092, 1092)
    assert sum(map(len, h.cells)) == 7392
