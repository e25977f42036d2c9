"""Source hygiene of the package: no unused imports, no dangling exports,
no dead definitions, only standard-library imports, and no costly
module that a report never needs loaded by the import or the report."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import mixedhess

PACKAGE = Path(mixedhess.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as an expression name, which
    includes the base of an attribute access and, under postponed
    evaluation, annotations (they are still parsed).
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_modules_have_no_unused_imports():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}


def test_unused_import_detector_flags_a_dead_import():
    source = "from fractions import Fraction\nimport math\nx = math.pi\n"
    assert _unused_imports(source) == ["Fraction (line 1)"]


def test_every_exported_name_is_importable():
    missing = [name for name in mixedhess.__all__ if not hasattr(mixedhess, name)]
    assert missing == []
    assert len(set(mixedhess.__all__)) == len(mixedhess.__all__)


def _imported_names(source: str) -> set[str]:
    """Names bound by the module's own import statements."""
    return {
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_package_exports_exactly_what_it_imports():
    imported = _imported_names((PACKAGE / "__init__.py").read_text())
    assert sorted(imported) == sorted(mixedhess.__all__)


# Modules a report never needs that are costly to import: ``dataclasses``
# pulls in ``inspect``, ``secrets`` pulls in ``hashlib`` and OpenSSL, and
# ``tempfile`` (wanted only when a report is written to a file) pulls in
# ``shutil`` and the compression modules.
UNWANTED_AT_IMPORT = (
    "dataclasses", "inspect", "secrets", "hashlib", "_hashlib", "tempfile"
)


def test_cli_import_leaves_costly_modules_unloaded():
    probe = (
        "import sys, mixedhess.cli\n"
        f"print(sorted(m for m in {UNWANTED_AT_IMPORT!r} if m in sys.modules))"
    )
    # -S skips the site hook, which may load any of them on its own.
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE.parent,
    )
    assert out.stdout.strip() == "[]"


# argparse imports gettext, whose first message loads locale.  Only help
# and error lines build the argparse parser; a well-formed line never does.
ARGPARSE_MODULES = ("argparse", "gettext", "locale")


def _run_cli_in_probe(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code of `cli.main(argv)` in a fresh interpreter, and which of
    ARGPARSE_MODULES it loaded."""
    probe = (
        "import contextlib, io, sys, mixedhess.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        code = mixedhess.cli.main({argv!r})\n"
        "    except SystemExit as stop:\n"
        "        code = stop.code\n"
        f"print((code, sorted(m for m in {ARGPARSE_MODULES!r} if m in sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE.parent,
    )
    return ast.literal_eval(out.stdout)


def test_report_leaves_argparse_unloaded():
    argv = ["family", "boolean", "--n", "3", "--seed", "1"]
    assert _run_cli_in_probe(argv) == (0, [])


def test_help_loads_argparse():
    code, loaded = _run_cli_in_probe(["--help"])
    assert code == 0 and "argparse" in loaded


def _top_level_imports(source: str) -> set[str]:
    """The top-level module of every absolute import; relative imports
    (``from .x import y``) are within the package and left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_package_imports_only_the_standard_library():
    foreign = {
        path.name: sorted(names - sys.stdlib_module_names)
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _top_level_imports(path.read_text())) - sys.stdlib_module_names
    }
    assert foreign == {}


def test_top_level_import_walk_skips_relative_imports():
    source = (
        "import os.path\nfrom .linalg import rref\n"
        "from json import dumps\nimport numpy as np\n"
    )
    assert _top_level_imports(source) == {"os", "json", "numpy"}


def _assigned_names(source: str) -> dict[str, int]:
    """Names a module binds at top level by assignment, with their line."""
    names: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Name):
                    names.setdefault(n.id, node.lineno)
    return names


def _read_names(sources: list[str]) -> set[str]:
    """Names loaded as expressions or accessed as attributes."""
    read: set[str] = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return read


def _unread_assignments(modules: dict[str, str]) -> dict[str, list[str]]:
    read = _read_names(list(modules.values()))
    unread = {}
    for name, source in sorted(modules.items()):
        if name == "__init__.py":
            continue
        dead = [
            f"{var} (line {line})"
            for var, line in _assigned_names(source).items()
            if var not in read
        ]
        if dead:
            unread[name] = dead
    return unread


def test_module_level_assignments_are_read():
    modules = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert _unread_assignments(modules) == {}


def test_unread_assignment_detector_flags_a_dead_alias():
    modules = {
        "a.py": 'Row = "list[int]"\nLIMIT = 3\n_CACHE: dict = {}\n',
        "b.py": "from .a import LIMIT\nx = LIMIT + 1\n",
        "c.py": "import a\ny = a._CACHE\nprint(x, y)\n",
    }
    assert _unread_assignments(modules) == {"a.py": ["Row (line 1)"]}


# Public definitions kept without a reader in the package, with the
# reason.  Exporting a definition does not keep it: it needs a reader in
# the package or an entry here.
KEPT_UNREAD = {
    "complexes.incidence_gradient_matrix": (
        "the tests' graph-side oracle for the bigraded Hessian block"
    ),
    "families.verify_lift": (
        "Lemma A on one lift, which no report runs: test_families and "
        "criterion 7 in test_acceptance"
    ),
    "linalg.rref": (
        "declared as `linalg.rref.self_s` in BENCHMARK.json; goes with benchmark v2"
    ),
    "polyring.apolar_pairing": (
        "the tests' per-cell pairing oracle: conftest.dense_pairing_inverse, "
        "test_apolarity and the mult-map oracles in test_lefschetz"
    ),
    "polyring.Polynomial.degree": (
        "the tests' oracle for `max_entry_degree` in test_hessians.py"
    ),
    "polyring.apolar_monomial": (
        "the tests' per-cell oracle in test_lefschetz._dense_mult_map and "
        "test_hessians._oracle_entries"
    ),
    "polyring.linear_apply": (
        "the tests' first-order oracle for `_linear_power_terms` in "
        "test_lefschetz._dense_mult_map and test_polyring"
    ),
    "polyring.monomial_exponents": (
        "the tests' list of all degree-k monomials: test_apolarity's N_k "
        "and criterion 1's Ann_2 span"
    ),
}


def _attribute_names(sources: list[str]) -> set[str]:
    """Names accessed as attributes."""
    return {
        n.attr
        for source in sources
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute)
    }


def _dead_definitions(modules: dict[str, str]) -> dict[str, list[str]]:
    """Top-level functions and classes that no module reads, and public
    methods of public classes whose name no module reads as an attribute.
    Public definitions listed in KEPT_UNREAD are left out.

    Methods are matched by name only, so a method shares a reader with
    any attribute of the same name (a `Polynomial.is_zero` call keeps
    every `is_zero` method)."""
    read = _read_names(list(modules.values()))
    attributes = _attribute_names(list(modules.values()))
    dead = {}
    for name, source in sorted(modules.items()):
        module = name.removesuffix(".py")
        found = []
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            private = node.name.startswith("_")
            if node.name not in read and (
                private or f"{module}.{node.name}" not in KEPT_UNREAD
            ):
                found.append(f"{node.name} (line {node.lineno})")
            if isinstance(node, ast.ClassDef) and not private:
                found += [
                    f"{node.name}.{item.name} (line {item.lineno})"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and item.name not in attributes
                    and f"{module}.{node.name}.{item.name}" not in KEPT_UNREAD
                ]
        if found:
            dead[name] = found
    return dead


def test_public_definitions_are_read():
    modules = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert _dead_definitions(modules) == {}


def test_dead_definition_detector_flags_an_unread_function():
    modules = {
        "a.py": (
            "def used():\n    _private()\n\n\ndef called():\n    pass\n\n\n"
            "def dead():\n    pass\n\n\ndef _private():\n    pass\n\n\n"
            "class Dead:\n    pass\n\n\n"
            "class Kept:\n    def read(self):\n        pass\n\n"
            "    def unread(self):\n        pass\n\n"
            "    def _private(self):\n        pass\n"
        ),
        "b.py": "from .a import used, called\nused()\ncalled()\nKept().read()\n",
    }
    assert _dead_definitions(modules) == {
        "a.py": ["dead (line 9)", "Dead (line 17)", "Kept.unread (line 25)"]
    }


def test_dead_definition_detector_flags_an_unread_private_helper():
    modules = {
        "a.py": (
            "def _helper():\n    pass\n\n\ndef _orphan():\n    pass\n\n\n"
            "class _Orphan:\n    def unread(self):\n        pass\n"
        ),
        "b.py": "from .a import _helper\nx = _helper()\n",
    }
    assert _dead_definitions(modules) == {
        "a.py": ["_orphan (line 5)", "_Orphan (line 9)"]
    }


def test_dead_definition_detector_flags_an_exported_unread_function():
    modules = {
        "__init__.py": (
            'from .a import exported, read\n\n__all__ = ["exported", "read"]\n'
        ),
        "a.py": "def exported():\n    pass\n\n\ndef read():\n    pass\n",
        "b.py": "from .a import read\nx = read()\n",
    }
    # An export is not a read: only the call in b.py keeps `read`.
    assert _dead_definitions(modules) == {"a.py": ["exported (line 1)"]}


# Public method names that a package class shares with a member of
# another, each with the reader that keeps the method.  Every other
# method name belongs to one class, so the by-name check of
# `_dead_definitions` is exact for it.  This check sees only the
# package's classes: a name shared with a builtin type (`VarSet.index`
# and `tuple.index`, `RowSpace.insert` and `list.insert`) stays out of
# its reach.
SHARED_NAMES = {
    "codimension": (
        "GradedAlgebra.codimension: cli's reports; FamilyMember.codimension "
        "is a field"
    ),
    "degree": "Polynomial.degree: KEPT_UNREAD; FamilyMember.degree is a field",
    "dim": (
        "GradedAlgebra.dim: apolarity's quadric check and "
        "families.verify_lift; SimplicialComplex.dim: cli and complexes"
    ),
    "rank": (
        "RowSpace.rank: apolarity._degree_step_spanned and "
        "linalg.matrix_rank; RankCertificate.rank is a field"
    ),
    "scale": (
        "Polynomial.scale: hessians.dual_mixed_hessian and symbolic_det; "
        "GradedAlgebra.scale is an attribute"
    ),
}


def _class_members(node: ast.ClassDef) -> tuple[set[str], set[str]]:
    """The public methods and properties of a class, and its other
    members: record fields and attributes assigned through `self.`."""
    methods, others = set(), set()
    for base in node.bases:
        # namedtuple("Name", ("field", ...)) as a base class
        if isinstance(base, ast.Call) and getattr(base.func, "id", "") == "namedtuple":
            others.update(ast.literal_eval(base.args[1]))
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            others.add(item.target.id)
        elif isinstance(item, ast.FunctionDef):
            if not item.name.startswith("_"):
                methods.add(item.name)
            others.update(
                n.attr
                for n in ast.walk(item)
                if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name)
                and n.value.id == "self"
            )
    return methods, others


def _shared_method_names(modules: dict[str, str], exempt) -> list[str]:
    """module.Class.method, with the classes that share its name, for
    each public method whose name another class uses as a method,
    property, record field or `self.` attribute, unless exempt."""
    members = {
        f"{name.removesuffix('.py')}.{node.name}": _class_members(node)
        for name, source in sorted(modules.items())
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
    }
    shared = []
    for cls, (methods, _) in members.items():
        for method in sorted(set(methods) - set(exempt)):
            others = [
                other for other, (m, o) in members.items()
                if other != cls and method in m | o
            ]
            if others:
                shared.append(f"{cls}.{method} ({', '.join(others)})")
    return shared


def test_public_method_names_are_not_shared():
    modules = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert _shared_method_names(modules, SHARED_NAMES) == []


def test_shared_name_detector_flags_methods_fields_and_attributes():
    modules = {
        "a.py": (
            "class A:\n    def text(self):\n        pass\n\n"
            "    @property\n    def shape(self):\n        pass\n\n"
            "    def rank(self):\n        pass\n\n"
            "    def size(self):\n        pass\n\n"
            "    def _key(self):\n        pass\n"
        ),
        "b.py": (
            "class B(NamedTuple):\n    shape: tuple\n\n\n"
            'class C(namedtuple("C", ("size",))):\n'
            "    def text(self):\n        pass\n\n\n"
            "class D:\n    def __init__(self):\n"
            "        self.rank = 0\n        self._key = 1\n"
        ),
    }
    assert _shared_method_names(modules, ("rank",)) == [
        "a.A.shape (b.B)", "a.A.size (b.C)", "a.A.text (b.C)", "b.C.text (a.A)",
    ]


# The one module that builds matrices, so that every matrix of a
# generator carries it (`hessians._hessian_of`), with the matrices built
# elsewhere on purpose: module.function -> reason.
BUILDS_MATRICES_BY_HAND = {
    "complexes.incidence_gradient_matrix": (
        "the tests' graph-side oracle, built without the algebra"
    ),
}


def _callers(modules: dict[str, str], callee: str) -> list[str]:
    """module.function for each top-level function that calls `callee`
    by name, module.Class.method for a method of a top-level class, and
    module.<module> for any other top-level statement."""
    found = []
    for name, source in sorted(modules.items()):
        module = name.removesuffix(".py")
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                scopes = [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
            elif isinstance(node, ast.FunctionDef):
                scopes = [(node.name, node)]
            else:
                scopes = [("<module>", node)]
            found.extend(
                f"{module}.{where}"
                for where, scope in scopes
                if any(
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name)
                    and n.func.id == callee
                    for n in ast.walk(scope)
                )
            )
    return found


def _matrix_builders(modules: dict[str, str]) -> list[str]:
    """The callers of `MixedHessian(...)` outside hessians.py."""
    return [
        where for where in _callers(modules, "MixedHessian")
        if not where.startswith("hessians.")
    ]


def test_only_hessians_builds_matrices():
    modules = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert _matrix_builders(modules) == sorted(BUILDS_MATRICES_BY_HAND)


def test_matrix_builder_detector_flags_a_call():
    modules = {
        "hessians.py": "def _hessian_of(f):\n    return MixedHessian(f)\n",
        "families.py": "def perazzo(f):\n    return MixedHessian(f)\n",
        "cli.py": "h = MixedHessian\n",
    }
    assert _matrix_builders(modules) == ["families.perazzo"]


def test_only_the_catalecticant_and_the_hessian_cells_walk_f():
    # Every integer table of the algebra (pairing, multiplication maps)
    # is read off the stored catalecticant, so the (term, divisor) walk
    # of f has two callers: the catalecticant and the Hessian cells.
    modules = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert _callers(modules, "_apolar_terms") == [
        "apolarity._catalecticant_rows", "hessians._entries",
    ]


def test_caller_detector_names_methods():
    modules = {
        "a.py": (
            "class A:\n    def m(self):\n        return walk(1)\n\n"
            "    def n(self):\n        return walk\n"
        ),
        "b.py": "def g():\n    return walk(2)\n\n\nx = walk(3)\n",
    }
    assert _callers(modules, "walk") == ["a.A.m", "b.g", "b.<module>"]
