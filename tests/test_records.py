"""Value records: every construction path validates, no record takes
attribute assignment, and equal values hash equal so the caches keyed
by them still hit."""

from __future__ import annotations

import importlib
from fractions import Fraction
from pathlib import Path

import pytest

import mixedhess
from mixedhess import (
    LinearForm,
    RankCertificate,
    SamplingConfig,
    SimplicialComplex,
    VarSet,
    build_algebra,
    generic_rank,
    mixed_hessian,
    parse_polynomial,
)
from mixedhess.polyring import VarSetMismatch, monomial_exponents

PACKAGE = Path(mixedhess.__file__).resolve().parent

VS = VarSet(("x", "y"))

# (a valid value, the fields that make it invalid, the error it must raise)
INVALID = [
    (VS, {"names": ()}, ValueError("VarSet needs at least one variable")),
    (VS, {"names": ("x", "x")}, ValueError("duplicate variable names")),
    (VS, {"names": ("x", "1y")}, ValueError("bad variable name '1y'")),
    (VS, {"blocks": (0,)}, ValueError("blocks must match names in length")),
    (
        VS,
        {"blocks": (0, 2)},
        ValueError("blocks must consist of 0 (x-block) and 1 (u-block)"),
    ),
    (
        LinearForm(VS, (1, 2)),
        {"coeffs": (1,)},
        VarSetMismatch("coefficient count does not match VarSet"),
    ),
    (LinearForm(VS, (1, 2)), {"coeffs": (0, 0)}, ValueError("linear form must be nonzero")),
    (SamplingConfig(), {"trials": 0}, ValueError("trials must be positive")),
    (SamplingConfig(), {"sample_bound": 0}, ValueError("sample_bound must be positive")),
    (SamplingConfig(), {"symbolic_cap": -1}, ValueError("symbolic_cap must be nonnegative")),
]
_ABC = SimplicialComplex(("a", "b", "c"), (("a", "b"), ("b", "c")))
INVALID += [
    (_ABC, {"vertices": ("a", "a", "b", "c")}, ValueError("duplicate vertex names")),
    (_ABC, {"facets": ((),)}, ValueError("empty facet")),
    (_ABC, {"facets": (("a", "d"),)}, ValueError("facet uses unknown vertex 'd'")),
    (_ABC, {"facets": (("a", "a"),)}, ValueError("repeated vertex in facet ('a', 'a')")),
    (_ABC, {"facets": (("b", "a"),)}, ValueError("facet ('b', 'a') is not in vertex order")),
    (
        _ABC,
        {"facets": (("a", "b"), ("b",))},
        ValueError("facet ('b',) is contained in ('a', 'b')"),
    ),
]


def _construction_paths(valid, changes):
    """Every public way to build a value of ``type(valid)`` from fields."""
    cls = type(valid)
    fields = {**valid._asdict(), **changes}
    values = [fields[name] for name in cls._fields]
    return {
        "keywords": lambda: cls(**fields),
        "positional": lambda: cls(*values),
        "_make": lambda: cls._make(values),
        "_replace": lambda: valid._replace(**changes),
    }


@pytest.mark.parametrize(
    "valid, changes, error",
    INVALID,
    ids=[f"{type(v).__name__}.{next(iter(c))}" for v, c, _ in INVALID],
)
def test_every_construction_path_validates(valid, changes, error):
    for path, build in _construction_paths(valid, changes).items():
        with pytest.raises(type(error)) as raised:
            build()
        assert type(raised.value) is type(error), path
        assert str(raised.value) == str(error), path


def test_linear_form_coefficients_become_fractions_on_every_path():
    form = LinearForm(VS, (1, 2))
    for path, build in _construction_paths(form, {"coeffs": (3, 0.5)}).items():
        coeffs = build().coeffs
        assert coeffs == (Fraction(3), Fraction(1, 2)), path
        assert all(type(c) is Fraction for c in coeffs), path


def _record_types():
    """The package's record classes: tuple subclasses with named fields."""
    found = {}
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"mixedhess.{path.stem}")
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and issubclass(obj, tuple)
                and hasattr(obj, "_fields")
                and obj.__module__ == module.__name__
                and not name.startswith("_")
            ):
                found[name] = obj
    return found


def test_records_are_the_expected_named_tuples():
    assert sorted(_record_types()) == [
        "CatalogEntry", "DoubleLiftReport", "FamilyMember", "LefschetzVerdict",
        "LiftReport", "LinearForm", "NoninjectivityWitness", "PerazzoReport",
        "QuadricsCheck", "RankCertificate", "SamplingConfig", "SimplicialComplex",
        "VarSet",
    ]


@pytest.mark.parametrize("name", sorted(_record_types()))
def test_records_reject_attribute_assignment(name):
    cls = _record_types()[name]
    # Raw field values: assignment is refused whatever the fields hold.
    record = tuple.__new__(cls, range(len(cls._fields)))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], -1)
    with pytest.raises(AttributeError):
        record.extra = -1
    assert record[0] == 0


def test_equal_values_hash_equal():
    pairs = [
        (VarSet(("x", "y"), (0, 1)), VarSet(("x", "y"), (0, 1))),
        (SamplingConfig(seed=7), SamplingConfig(7, 12, 10**6, 12)),
        (
            RankCertificate(3, "probabilistic", 2, 5, Fraction(1, 4)),
            RankCertificate(3, "probabilistic", 2, 5, Fraction(1, 4), ""),
        ),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
    assert SamplingConfig(seed=7) != SamplingConfig(seed=8)
    assert VarSet(("x", "y")) != VarSet(("y", "x"))


def test_monomial_exponents_cache_hits_on_an_equal_varset():
    first = monomial_exponents(VarSet(("p", "q", "r")), 4)
    hits = monomial_exponents.cache_info().hits
    again = monomial_exponents(VarSet(("p", "q", "r")), 4)
    assert again is first
    assert monomial_exponents.cache_info().hits == hits + 1


def test_generic_rank_memo_hits_on_an_equal_config():
    alg = build_algebra(parse_polynomial("x1*u1*u2 + x2*u2*u3 + x3*u3*u1"))
    h = mixed_hessian(alg, 1, 1)
    cert = generic_rank(h, SamplingConfig(seed=11, trials=2))
    assert generic_rank(h, SamplingConfig(seed=11, trials=2)) is cert
    assert generic_rank(h, SamplingConfig(seed=12, trials=2)) is not cert
