"""Command-line front end.

Subcommands:

* ``analyze`` -- read a polynomial file (or stdin) and report Hilbert
  data, quadric presentation, Hessian rank certificates, the rank
  profile, and Lefschetz verdicts;
* ``from-complex`` -- read a complex from JSON, build its generator,
  run the same analysis, and add the combinatorial findings with their
  algebraic cross-checks;
* ``family`` -- generate a member of one of the built-in families and
  report the verification that comes with it;
* ``examples`` -- run the worked-example catalog and compare expected
  against computed properties, exiting nonzero on any mismatch;
* ``mult-map`` -- print the multiplication-map matrix of a power of a
  linear form next to the scaled evaluated dual Hessian and confirm
  they agree.

One table (``_COMMANDS``) holds every command's help line, function and
arguments.  A well-formed command line is read off it by a strict parser;
any other line, help included, goes to an argparse parser built from the
same table, which prints the help or the error.  A report therefore never
imports argparse.

Reports are JSON by default (``--format text`` for a plain rendering)
and are byte-stable for a fixed input, seed, and configuration.  Both
renderings list the keys of every object in sorted order.  Without
``--seed`` the seed is 32 bits drawn from the operating system's entropy
source; it is always echoed in the report.  Exit
codes: 0 success, 1 property mismatch, 2 input error, 3 violated
internal invariant.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Sequence

from .apolarity import (
    GradedAlgebra,
    InvariantViolation,
    ann_generated_by_quadrics,
    build_algebra,
    unimodality_check,
)
from .complexes import (
    SimplicialComplex,
    classify_graph_algebra,
    detect_complete_multipartite,
    dual_generator,
    grid_noninjectivity_witness,
    grid_pairs_for,
    hilbert_from_face_counts,
    alternate_hilbert_closed_form,
    is_facet_connected,
    is_flag,
    presented_by_quadrics_combinatorial,
)
from .config import SamplingConfig
from .families import (
    CatalogEntry,
    boolean_form,
    even_counterexample,
    example_catalog,
    lifted_hilbert,
    odd_counterexample,
    perazzo_form,
    times_u,
    times_uv,
)
from .hessians import RankCertificate, generic_rank, mixed_hessian
from .lefschetz import (
    full_profile,
    generalization_check,
    rank_profile,
    sample_points,
    slp_check,
    wlp_check,
)
from .linalg import matrix_rank
from .polyring import (
    LinearForm,
    ParseError,
    Polynomial,
    VarSet,
    format_polynomial,
    parse_polynomial,
)

SCHEMA_VERSION = 1
ALL_CHECKS = ("hilbert", "quadrics", "wlp", "slp", "hessians", "profile")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3


# -- serialization helpers ---------------------------------------------------


def _json(value: Any, skip: Sequence[str] = ()) -> Any:
    """The JSON form of a report value: a Fraction as an integer or a
    "p/q" string, a polynomial as text, a linear form as its coefficient
    list, and a record (a named tuple) as the dict of its fields less
    ``skip`` (a rank certificate also states whether it is exact)."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Polynomial):
        return format_polynomial(value)
    if isinstance(value, LinearForm):
        return _json(value.coeffs)
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        out = {
            name: _json(sub)
            for name, sub in zip(value._fields, value)
            if name not in skip
        }
        if isinstance(value, RankCertificate):
            out["exact"] = value.is_exact
        return out
    if isinstance(value, (tuple, list)):
        return [_json(x) for x in value]
    if isinstance(value, dict):
        return {key: _json(sub) for key, sub in value.items()}
    return value


# -- output plumbing ---------------------------------------------------------


def _render_text(value: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (dict, list)) and sub:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(sub)}")
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            lines.append(pad + "[" + ", ".join(_scalar_text(x) for x in value) + "]")
        else:
            for x in value:
                lines.append(f"{pad}-")
                lines.extend(_render_text(x, indent + 1))
    else:
        lines.append(pad + _scalar_text(value))
    return lines


def _scalar_text(x: Any) -> str:
    if x is None:
        return "none"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (dict, list)):
        return "{}" if isinstance(x, dict) else "[]"
    return str(x)


def _emit(report: dict, fmt: str, output: str | None) -> None:
    report = _json(report)
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(_render_text(report)) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    _atomic_write(output, text)


def _atomic_write(path: str, text: str) -> None:
    # Imported here: only --output and --poly-out write files, and the
    # import loads shutil and the compression modules.
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r") as handle:
        return handle.read()


# -- shared analysis ---------------------------------------------------------


def _config_from_args(args: SimpleNamespace) -> SamplingConfig:
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().getrandbits(32)
    return SamplingConfig(
        seed=seed,
        trials=args.trials,
        sample_bound=args.sample_bound,
        symbolic_cap=args.symbolic_cap,
    )


def _base_report(command: str, config: SamplingConfig, source: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": source,
        "config": config,
    }


def _analysis_body(
    alg: GradedAlgebra, config: SamplingConfig, checks: Sequence[str]
) -> tuple[dict[str, Any], list[str]]:
    body: dict[str, Any] = {}
    warnings = list(alg.warnings)
    if "hilbert" in checks:
        body["hilbert"] = alg.hilbert
        body["codimension"] = alg.codimension
        body["socle_degree"] = alg.socle_degree
        body["unimodal"] = unimodality_check(alg.hilbert)
    if "quadrics" in checks:
        body["quadrics"] = ann_generated_by_quadrics(alg)
    if "hessians" in checks:
        certs = {}
        for k in range(1, alg.socle_degree // 2 + 1):
            cert = generic_rank(mixed_hessian(alg, k, k), config)
            certs[f"({k}, {k})"] = cert
            if not cert.is_exact:
                warnings.append(
                    f"Hessian rank at degree ({k}, {k}) is probabilistic"
                )
        body["hessian_ranks"] = certs
    if "wlp" in checks:
        verdict = wlp_check(alg, config)
        body["wlp"] = verdict
        if verdict.mode != "exact":
            warnings.append("the WLP verdict is probabilistic")
    if "slp" in checks:
        verdict = slp_check(alg, config)
        body["slp"] = verdict
        if verdict.mode != "exact":
            warnings.append("the SLP verdict is probabilistic")
    if "profile" in checks:
        # Rank profile at one seeded random linear form avoiding f = 0.
        point = next(sample_points(alg, config, "cli-profile"), None)
        profile = {"at_sampled_form": None, "maximal": full_profile(alg)}
        if point is not None:
            L = LinearForm(alg.varset, point)
            profile["at_sampled_form"] = rank_profile(alg, L)
        else:
            profile["note"] = "no sampled form avoided the vanishing locus"
        body["profile"] = profile
    return body, warnings


def _parse_checks(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    for name in names:
        if name not in ALL_CHECKS:
            raise ValueError(
                f"unknown check {name!r}; available: {', '.join(ALL_CHECKS)}"
            )
    return names or ALL_CHECKS


# -- subcommands --------------------------------------------------------------


def cmd_analyze(args: SimpleNamespace) -> int:
    config = _config_from_args(args)
    checks = _parse_checks(args.checks)
    text = _read_input(args.path)
    f = parse_polynomial(text)
    if f.homogeneous_degree() is None:
        raise ValueError("the input polynomial is not homogeneous")
    alg = build_algebra(f)
    report = _base_report("analyze", config, args.path)
    report["checks"] = checks
    body, warnings = _analysis_body(alg, config, checks)
    report["result"] = body
    report["warnings"] = warnings
    _emit(report, args.format, args.output)
    return EXIT_OK


def _complex_from_json(text: str) -> SimplicialComplex:
    data = json.loads(text)
    if not isinstance(data, dict) or "facets" not in data:
        raise ValueError('complex JSON must be an object with "facets"')
    facets = data["facets"]
    if not isinstance(facets, list) or not all(
        isinstance(f, list) and all(isinstance(v, str) for v in f)
        for f in facets
    ):
        raise ValueError('"facets" must be a list of lists of vertex names')
    if not facets:
        raise ValueError('"facets" is empty: a complex needs a facet')
    vertices = data.get("vertices")
    if "vertices" in data and not (
        isinstance(vertices, list) and all(isinstance(v, str) for v in vertices)
    ):
        raise ValueError('"vertices" must be a list of names')
    return SimplicialComplex.from_facets(facets, vertices)


def cmd_from_complex(args: SimpleNamespace) -> int:
    config = _config_from_args(args)
    checks = _parse_checks(args.checks)
    comp = _complex_from_json(_read_input(args.path))
    report = _base_report("from-complex", config, args.path)
    report["checks"] = checks

    combo: dict[str, Any] = {
        "vertices": len(comp.vertices),
        "facets": len(comp.facets),
        "dimension": comp.dim,
        "pure": comp.is_pure(),
        "face_counts": comp.face_counts(),
        "facet_connected": is_facet_connected(comp),
        "flag": is_flag(comp),
        "quadrics_combinatorial": presented_by_quadrics_combinatorial(comp),
    }
    warnings: list[str] = []

    f = dual_generator(comp)
    alg = build_algebra(f)
    body, analysis_warnings = _analysis_body(alg, config, checks)
    warnings.extend(analysis_warnings)

    oracle = hilbert_from_face_counts(comp)
    if oracle != alg.hilbert:
        raise InvariantViolation(
            f"face-count Hilbert {oracle} disagrees with the "
            f"catalecticant ranks {alg.hilbert}"
        )
    combo["hilbert_from_face_counts"] = oracle
    shifted = alternate_hilbert_closed_form(comp)
    combo["hilbert_shifted_closed_form"] = shifted
    if shifted != oracle:
        warnings.append(
            "the shifted closed-form Hilbert values "
            f"{list(shifted)} disagree with the computed function "
            f"{list(oracle)}; the catalecticant computation is the "
            "ground truth and the shifted form is reported unchanged"
        )

    if "quadrics" in checks:
        algebraic = body["quadrics"].presented
        if algebraic != combo["quadrics_combinatorial"]:
            raise InvariantViolation(
                "combinatorial and algebraic quadric-presentation "
                "checks disagree"
            )

    if comp.dim == 1:
        cls = classify_graph_algebra(comp)
        combo["graph_class"] = cls.value
        if "wlp" in checks and cls.predicts_wlp is not None:
            if body["wlp"].holds != cls.predicts_wlp:
                raise InvariantViolation(
                    f"graph classification {cls.value} disagrees with "
                    "the computed WLP verdict"
                )

    groups = detect_complete_multipartite(comp)
    if groups is not None and comp.dim >= 1:
        combo["multipartite_groups"] = groups
        if all(len(g) >= 2 for g in groups):
            witness = grid_noninjectivity_witness(
                comp, grid_pairs_for(groups), config, alg
            )
            combo["noninjectivity_witness"] = _json(
                witness, skip=("block", "syzygy")
            )
    else:
        combo["multipartite_groups"] = None

    report["result"] = {"combinatorial": combo, "algebra": body}
    report["warnings"] = warnings
    _emit(report, args.format, args.output)
    return EXIT_OK


def _parse_form_list(text: str) -> list[Polynomial]:
    chunks = [part.strip() for part in text.split(";") if part.strip()]
    if not chunks:
        raise ValueError("no forms given")
    first_pass = [parse_polynomial(c) for c in chunks]
    names: list[str] = []
    for f in first_pass:
        for name in f.varset.names:
            if name not in names:
                names.append(name)
    merged = VarSet(tuple(names))
    return [parse_polynomial(c, merged) for c in chunks]


def cmd_family(args: SimpleNamespace) -> int:
    # A flag whose help starts with "kinds:" is for those kinds only.
    for flag, spec in _FAMILY_ARGUMENTS:
        kinds, colon, _ = spec.get("help", "").partition(": ")
        given = getattr(args, _dest(flag, spec)) is not None
        if colon and given and args.kind not in kinds.split("/"):
            raise ValueError(f"{flag} is for family {kinds}, not {args.kind}")
    config = _config_from_args(args)
    report = _base_report("family", config, args.kind)
    result: dict[str, Any]

    if args.kind == "boolean":
        if args.n is None:
            raise ValueError("family boolean needs --n")
        f = boolean_form(args.n)
        alg = build_algebra(f)
        # At x1 + ... + xn each SLP cell is a Kneser matrix, nonsingular
        # for n >= 2k (Lovasz), so the all-ones point is tried first.
        result = {
            "parameters": {"n": args.n},
            "hilbert": alg.hilbert,
            "slp": slp_check(alg, config, candidate=(1,) * args.n),
            "polynomial": f,
        }
        poly = f
    elif args.kind in ("odd", "even"):
        if args.d is None or args.codim is None:
            raise ValueError(f"family {args.kind} needs --d and --codim")
        make = odd_counterexample if args.kind == "odd" else even_counterexample
        member = make(args.d, args.codim, config)
        result = {
            "parameters": {"d": args.d, "codim": args.codim},
            **_json(member, skip=("witness",)),
        }
        if member.witness is not None:
            result["noninjectivity_witness"] = _json(
                member.witness, skip=("block", "syzygy", "step", "notes")
            )
        poly = member.polynomial
    elif args.kind in ("times-u", "times-uv"):
        if args.base is None:
            raise ValueError(f"family {args.kind} needs --base")
        base = parse_polynomial(_read_input(args.base))
        base_alg = build_algebra(base)
        report["warnings"] = list(base_alg.warnings)
        if args.kind == "times-u":
            poly = times_u(base)
            fields = {
                "added": poly.varset.names[-1:],
                "hilbert_base": base_alg.hilbert,
                "hilbert_identity": True,
                "hilbert_lift": lifted_hilbert(base_alg.hilbert),
                "polynomial": poly,
            }
        else:
            rep = times_uv(base_alg, config)
            fields, poly = rep._asdict(), rep.polynomial
        result = {"parameters": {"base": args.base}, **_json(fields)}
    elif args.kind == "perazzo":
        if args.partials is None:
            raise ValueError("family perazzo needs --partials")
        forms = _parse_form_list(args.partials)
        tail = (
            parse_polynomial(args.tail, forms[0].varset)
            if args.tail
            else None
        )
        rep = perazzo_form(forms, tail, config)
        result = {
            "parameters": {"partials": args.partials, "tail": args.tail},
            **_json(rep),
        }
        poly = rep.polynomial
    else:  # pragma: no cover - both parsers restrict the kind to its choices
        raise ValueError(f"unknown family kind {args.kind!r}")

    report["result"] = result
    if args.poly_out:
        _atomic_write(args.poly_out, format_polynomial(poly) + "\n")
        report["polynomial_file"] = args.poly_out
    _emit(report, args.format, args.output)
    return EXIT_OK


def _computed_properties(
    entry: CatalogEntry, config: SamplingConfig
) -> dict[str, Any]:
    alg = build_algebra(entry.polynomial)
    return {
        "hilbert": alg.hilbert,
        "codimension": alg.codimension,
        "quadrics": ann_generated_by_quadrics(alg).presented,
        "wlp": wlp_check(alg, config).holds,
        "slp": slp_check(alg, config).holds,
    }


def cmd_examples(args: SimpleNamespace) -> int:
    config = _config_from_args(args)
    rows = []
    all_pass = True
    for entry in example_catalog(args.only):
        computed = _computed_properties(entry, config)
        row_pass = all(
            computed[key] == expected
            for key, expected in entry.expected.items()
        )
        all_pass = all_pass and row_pass
        rows.append(
            {
                "id": entry.identifier,
                "description": entry.description,
                "expected": entry.expected,
                "computed": computed,
                "pass": row_pass,
            }
        )
    report = _base_report(
        "examples", config, args.only if args.only else "catalog"
    )
    report["result"] = {"rows": rows, "all_pass": all_pass}
    report["warnings"] = []
    _emit(report, args.format, args.output)
    return EXIT_OK if all_pass else EXIT_MISMATCH


def cmd_mult_map(args: SimpleNamespace) -> int:
    config = _config_from_args(args)
    alg = build_algebra(parse_polynomial(_read_input(args.path)))
    coeffs = []
    for part in args.linear.replace(",", " ").split():
        try:
            coeffs.append(Fraction(part))
        except ZeroDivisionError:
            raise ValueError(
                f"--linear coefficient {part!r} has a zero denominator"
            ) from None
    if len(coeffs) != alg.varset.size:
        raise ValueError(
            f"--linear needs {alg.varset.size} coefficients (variables "
            f"{', '.join(alg.varset.names)}), got {len(coeffs)}"
        )
    L = LinearForm(alg.varset, coeffs)
    warnings = list(alg.warnings)
    if alg.f.evaluate(L.perp()) == 0:
        warnings.append(
            "the generator vanishes at the coefficient point of the "
            "linear form; the comparison is still exact"
        )
    k, l = args.source_degree, args.target_degree
    check = generalization_check(alg, k, l, L)
    matrix = check["matrix"]
    rank = matrix_rank(matrix)
    report = _base_report("mult-map", config, args.path)
    report["result"] = {
        "k": k,
        "l": l,
        "linear": coeffs,
        "factorial": check["factorial"],
        "mult_map_matrix": matrix,
        "match": check["matches"],
        "max_discrepancy": check["max_discrepancy"],
        "shape": check["shape"],
        "rank": rank,
    }
    report["warnings"] = warnings
    _emit(report, args.format, args.output)
    if not check["matches"]:
        raise InvariantViolation(
            "multiplication route and dual Hessian route disagree"
        )
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------

# Each argument of a command is its name (a flag starts with "--") and the
# keywords of argparse's `add_argument` for it: dest, type, default, choices,
# required and help.  The strict parser and argparse both read them from here.
_COMMON_FLAGS = (
    ("--seed", dict(
        type=int,
        help="RNG seed (default: drawn from entropy, echoed in the report)",
    )),
    ("--trials", dict(type=int, default=12, help="sample points per rank check")),
    ("--sample-bound", dict(
        type=int, default=10**6, help="coordinates are drawn from [-bound, bound]"
    )),
    ("--symbolic-cap", dict(
        type=int, default=12, help="largest square size for symbolic determinants"
    )),
    ("--format", dict(
        choices=("json", "text"), default="json",
        help="report rendering (default json)",
    )),
    ("--output", dict(
        help="write the report to this file (atomically) instead of stdout"
    )),
)

_CHECKS = ("--checks", dict(
    default=",".join(ALL_CHECKS),
    help=f"comma-separated subset of: {', '.join(ALL_CHECKS)}",
))

# A family flag's help line starts with the kinds that read it, and
# `cmd_family` rejects the flag for any other kind.
_FAMILY_ARGUMENTS = (
    ("kind", dict(
        choices=("boolean", "odd", "even", "times-u", "times-uv", "perazzo")
    )),
    ("--n", dict(type=int, help="boolean: variables")),
    ("--d", dict(type=int, help="odd/even: socle degree")),
    ("--codim", dict(type=int, help="odd/even: codimension")),
    ("--base", dict(help="times-u/times-uv: base polynomial file")),
    ("--partials", dict(
        help="perazzo: semicolon-separated forms sharing one variable set"
    )),
    ("--tail", dict(help="perazzo: optional tail polynomial")),
    ("--poly-out", dict(help="also write the generated polynomial to this file")),
)

# Each command: its help line, its function, and its own arguments.
_COMMANDS = {
    "analyze": (
        "analyze a polynomial file ('-' for stdin)",
        cmd_analyze,
        (_CHECKS, ("path", dict(help="polynomial file, or - for stdin"))),
    ),
    "from-complex": (
        "analyze the dual generator of a JSON simplicial complex",
        cmd_from_complex,
        (_CHECKS, ("path", dict(help="complex JSON file, or - for stdin"))),
    ),
    "family": ("generate a family member", cmd_family, _FAMILY_ARGUMENTS),
    "examples": (
        "run the worked-example catalog against expectations",
        cmd_examples,
        (("--only", dict(help="run a single catalog entry")),),
    ),
    "mult-map": (
        "compare the multiplication map against the scaled dual Hessian",
        cmd_mult_map,
        (
            ("path", dict(help="polynomial file, or - for stdin")),
            ("--from", dict(
                dest="source_degree", type=int, required=True, help="source degree k"
            )),
            ("--to", dict(
                dest="target_degree", type=int, required=True,
                help="target degree l (k <= l <= socle degree)",
            )),
            ("--linear", dict(
                required=True,
                help="coefficients of the linear form, in variable order",
            )),
        ),
    ),
}


def _dest(name: str, spec: dict[str, Any]) -> str:
    """The attribute argparse sets for an argument."""
    return spec.get("dest", name.lstrip("-").replace("-", "_"))


def _parse_strict(argv: Sequence[str]) -> SimpleNamespace | None:
    """The arguments of a well-formed command line, exactly as argparse
    sets them, or None for any other line.

    A well-formed line is a command, then its flags (each once or more, the
    last one counting) and its positionals in any order.  The parser declines
    help, an unknown or abbreviated flag, `--flag=value`, a value or a
    positional that starts with "-", a value that is not an int or not one of
    the choices, and a missing or extra argument; argparse then parses the
    line, and prints help or the error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    specs = dict(_COMMON_FLAGS + arguments)
    given = []
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        value = next(tokens, None)
        if token not in specs or value is None or value.startswith("-"):
            return None
        given.append((token, value))
    names = [name for name in specs if not name.startswith("-")]
    required = {name for name, spec in specs.items() if spec.get("required")}
    if len(positionals) != len(names) or not required <= dict(given).keys():
        return None
    args = SimpleNamespace(command=argv[0], func=func)
    for name, spec in specs.items():
        setattr(args, _dest(name, spec), spec.get("default"))
    # Like argparse, convert and check every value, also one a later
    # repetition of its flag replaces.
    for name, text in given + list(zip(names, positionals)):
        spec = specs[name]
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        setattr(args, _dest(name, spec), value)
    return args


def build_parser(command: str | None):
    """The argparse parser of a command line that names `command`.  Only that
    subparser gets its arguments; every other one is a bare name and help
    line, which is all that the command list and an invalid choice print."""
    # Imported here: a well-formed line never needs it, and the import
    # loads gettext, whose first message loads locale.
    import argparse

    parser = argparse.ArgumentParser(
        prog="mixedhess",
        description=(
            "Analyze Artinian Gorenstein algebras through mixed Hessians: "
            "Hilbert functions, quadric presentation, Lefschetz properties, "
            "and the simplicial-complex constructions behind them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line, add_help=name == command)
        if name == command:
            for arg, spec in _COMMON_FLAGS + arguments:
                p.add_argument(arg, **spec)
            p.set_defaults(func=func)
    return parser


def _parse_with_argparse(argv: Sequence[str]) -> SimpleNamespace:
    """The arguments argparse gives a command line; on help or an error it
    prints and exits."""
    # The top-level parser has no option with a value: this picks the command.
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    return build_parser(command).parse_args(argv, namespace=SimpleNamespace())


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_strict(argv) or _parse_with_argparse(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ParseError, ValueError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
