"""Command-line behavior: reports, exit codes, determinism, file handling."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mixedhess import (
    InvariantViolation, build_algebra, cli, families, hessians, parse_polynomial,
)
from mixedhess.cli import _render_text, main

FOUR_CYCLE = "x1*u1*u2 + x2*u2*u3 + x3*u3*u4 + x4*u4*u1\n"

SQUARE_JSON = json.dumps(
    {
        "vertices": ["a1", "a2", "b1", "b2"],
        "facets": [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"]],
    }
)


@pytest.fixture
def poly_file(tmp_path):
    path = tmp_path / "f.poly"
    path.write_text(FOUR_CYCLE)
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(SQUARE_JSON)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_analyze_json_report(capsys, poly_file):
    code, out = _run(capsys, ["analyze", poly_file, "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["config"]["seed"] == 0
    assert report["result"]["hilbert"] == [1, 8, 8, 1]
    assert report["result"]["quadrics"]["presented"] is True
    assert report["result"]["quadrics"]["dim_ann_2"] == 28
    assert report["result"]["wlp"]["holds"] is False
    assert report["result"]["slp"]["holds"] is False


def test_analyze_check_subset(capsys, poly_file):
    code, out = _run(
        capsys, ["analyze", poly_file, "--seed", "0", "--checks", "hilbert"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert "hilbert" in result
    assert "wlp" not in result and "quadrics" not in result


def test_analyze_profile_without_a_usable_sample(capsys, tmp_path):
    # xy(x - y)(x + y) vanishes at every point of {-1, 0, 1}^2, so no
    # sampled linear form avoids f = 0.
    path = tmp_path / "vanishing.poly"
    path.write_text("x^3*y - x*y^3\n")
    code, out = _run(capsys, [
        "analyze", str(path), "--seed", "1", "--sample-bound", "1",
        "--checks", "profile",
    ])
    assert code == 0
    assert json.loads(out)["result"]["profile"] == {
        "at_sampled_form": None,
        "maximal": [1, 2, 2, 1],
        "note": "no sampled form avoided the vanishing locus",
    }


def test_analyze_unknown_check(capsys, poly_file):
    code, _ = _run(capsys, ["analyze", poly_file, "--checks", "nope"])
    assert code == 2


def test_analyze_entropy_seed_is_echoed(capsys, poly_file):
    code, out = _run(capsys, ["analyze", poly_file, "--checks", "hilbert"])
    assert code == 0
    seed = json.loads(out)["config"]["seed"]
    assert isinstance(seed, int)
    assert 0 <= seed < 2**32


def test_analyze_text_format(capsys, poly_file):
    code, out = _run(
        capsys,
        ["analyze", poly_file, "--seed", "0", "--format", "text", "--checks", "hilbert"],
    )
    assert code == 0
    assert "hilbert" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_analyze_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("x^3 + y^3\n"))
    code, out = _run(capsys, ["analyze", "-", "--seed", "0", "--checks", "hilbert"])
    assert code == 0
    assert json.loads(out)["result"]["hilbert"] == [1, 2, 2, 1]


def test_analyze_byte_stable(tmp_path, poly_file, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", poly_file, "--seed", "9", "--output", str(a)]) == 0
    assert main(["analyze", poly_file, "--seed", "9", "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


REPO = Path(__file__).resolve().parent.parent

# Reports written by an earlier commit of the package; every later commit
# must reproduce them byte for byte at the same seed.
GOLDEN = {
    "analyze_four_cycle_seed1.json": [
        "analyze", "samples/four_cycle.poly", "--seed", "1",
    ],
    "family_boolean_n5_seed1.json": [
        "family", "boolean", "--n", "5", "--seed", "1",
    ],
    "mult_map_four_cycle_1_2_seed1.json": [
        "mult-map", "samples/four_cycle.poly", "--from", "1", "--to", "2",
        "--linear", "3,-1,4,1,-5,9,2,-6", "--seed", "1",
    ],
    # A rational linear form and l - k = 3 and 2: the multiplication map
    # is scaled by the lcm of the form's denominators to those powers.
    "mult_map_four_cycle_0_3_rational_seed1.json": [
        "mult-map", "samples/four_cycle.poly", "--from", "0", "--to", "3",
        "--linear", "1/2,-2/3,1/5,3,5/4,-1,2/7,7/3", "--seed", "1",
    ],
    "mult_map_four_cycle_1_3_rational_seed1.json": [
        "mult-map", "samples/four_cycle.poly", "--from", "1", "--to", "3",
        "--linear", "1/2,-2/3,1/5,3,5/4,-1,2/7,7/3", "--seed", "1",
    ],
    "family_odd_d5_codim10_seed1.json": [
        "family", "odd", "--d", "5", "--codim", "10", "--seed", "1",
    ],
    "family_even_d6_codim16_seed1.json": [
        "family", "even", "--d", "6", "--codim", "16", "--seed", "1",
    ],
    "family_times_uv_boolean3_seed1.json": [
        "family", "times-uv", "--base", "samples/boolean3.poly", "--seed", "1",
    ],
    "from_complex_tk222_seed1.json": [
        "from-complex", "samples/tk222.json", "--seed", "1",
    ],
    "examples_turan_222_seed1.json": [
        "examples", "--only", "turan-222", "--seed", "1",
    ],
    "family_perazzo_u2_uv_v2_seed1.json": [
        "family", "perazzo", "--partials", "u^2; u*v; v^2", "--seed", "1",
    ],
    "from_complex_pentagon_seed1.json": [
        "from-complex", "samples/pentagon.json", "--seed", "1",
    ],
    "family_odd_d5_codim14_seed1.json": [
        "family", "odd", "--d", "5", "--codim", "14", "--seed", "1",
    ],
    # The largest golden criterion: a rank-deficient 85x85 Hessian.
    "family_odd_d7_codim12_seed1.json": [
        "family", "odd", "--d", "7", "--codim", "12", "--seed", "1",
    ],
    # The one golden whose annihilator is not generated by quadrics:
    # the span check fails in degrees 3, 4 and 5.
    "analyze_cubic_relations_seed1.json": [
        "analyze", "samples/cubic_relations.poly", "--seed", "1",
    ],
    # A positive SLP verdict: multiplication maps read off the sparse
    # pairing inverse.
    "family_boolean_n7_seed1.json": [
        "family", "boolean", "--n", "7", "--seed", "1",
    ],
    # One lift: the Hilbert functions of base and lift, checked against
    # each other.
    "family_times_u_four_cycle_seed1.json": [
        "family", "times-u", "--base", "samples/four_cycle.poly", "--seed", "1",
    ],
    # A family witness without its step and notes, and no criterion rank.
    "family_even_d4_codim14_seed1.json": [
        "family", "even", "--d", "4", "--codim", "14", "--seed", "1",
    ],
    # Null quadrics and criterion rank when nothing is verified.
    "family_odd_d5_codim10_verify_none_seed1.json": [
        "family", "odd", "--d", "5", "--codim", "10", "--verify", "none",
        "--seed", "1",
    ],
    # The Hilbert bookkeeping of the lifts and nothing else: a witness,
    # but null quadrics and criterion rank.
    "family_even_d8_codim18_verify_counts_seed1.json": [
        "family", "even", "--d", "8", "--codim", "18", "--verify", "counts",
        "--seed", "1",
    ],
    # A graph class next to the complex's own witness.
    "from_complex_square_seed1.json": [
        "from-complex", "samples/square.json", "--seed", "1",
    ],
    # A non-empty notes list: the partials are algebraically independent.
    "family_perazzo_u2_v2_w2_seed1.json": [
        "family", "perazzo", "--partials", "u^2; v^2; w^2", "--seed", "1",
    ],
    # With the square and the pentagon, one graph of every class: a
    # triangle, a tree and two cycles.
    "from_complex_triangle_pendant_seed1.json": [
        "from-complex", "samples/triangle_pendant.json", "--seed", "1",
    ],
    "from_complex_path3_seed1.json": [
        "from-complex", "samples/path3.json", "--seed", "1",
    ],
    "from_complex_two_squares_seed1.json": [
        "from-complex", "samples/two_squares.json", "--seed", "1",
    ],
    # The whole catalog.  The squared auxiliary variables of four-cycle-9
    # and four-cycle-11 put exponents above 1 into every apolar walk.
    "examples_seed1.json": ["examples", "--seed", "1"],
    # A generator with denominators: f is scaled by the lcm 30 of its
    # coefficients' denominators before any integer table is built.
    "analyze_rational_quintic_seed1.json": [
        "analyze", "samples/rational_quintic.poly", "--seed", "1",
    ],
    "mult_map_rational_quintic_1_3_seed1.json": [
        "mult-map", "samples/rational_quintic.poly", "--from", "1", "--to", "3",
        "--linear", "1/2,-2/3,1/5,3", "--seed", "1",
    ],
    # tk222 grown by one leaf facet: a 2-dimensional complex through
    # attach_leaf.
    "family_even_d4_codim16_seed1.json": [
        "family", "even", "--d", "4", "--codim", "16", "--seed", "1",
    ],
    # A certificate from the symbolic determinant rung.
    "family_perazzo_u2_uv_v2_tail_seed1.json": [
        "family", "perazzo", "--partials", "u^2; u*v; v^2", "--tail", "u^3 + v^3",
        "--seed", "1",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_match_golden_files(name, tmp_path, monkeypatch, capsys):
    # The report echoes its input path, so run from the repository root.
    monkeypatch.chdir(REPO)
    out = tmp_path / name
    assert main(GOLDEN[name] + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (REPO / "tests" / "golden" / name).read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_text_report_renders_the_golden_json(name, tmp_path, monkeypatch, capsys):
    # Both renderings list keys in sorted order, so the text report is
    # the rendering of the JSON report line for line.
    monkeypatch.chdir(REPO)
    out = tmp_path / "report.txt"
    assert main(GOLDEN[name] + ["--format", "text", "--output", str(out)]) == 0
    capsys.readouterr()
    golden = json.loads((REPO / "tests" / "golden" / name).read_text())
    assert out.read_text() == "\n".join(_render_text(golden)) + "\n"


def test_no_golden_and_no_examples_row_is_probabilistic(monkeypatch, capsys):
    # Every deficient cell the goldens and the catalog hold is closed by
    # the torus-slice bound.  The examples rows print no certificate, so
    # the certificates computed for them are read as they are made.
    for path in sorted((REPO / "tests" / "golden").glob("*.json")):
        assert '"mode": "probabilistic"' not in path.read_text(), path.name
    made = []

    def recording(h, config):
        made.append(fresh_rank(h, config))
        return made[-1]

    fresh_rank = hessians._generic_rank
    monkeypatch.setattr(hessians, "_generic_rank", recording)
    code, out = _run(capsys, ["examples", "--seed", "1"])
    assert code == 0
    assert '"probabilistic"' not in out
    assert made and all(cert.is_exact for cert in made)


def test_family_times_uv_builds_base_and_lift_once(monkeypatch, capsys):
    # The report's warnings and the double lift read one base algebra,
    # the only one eliminated: the lift's is transported from it.
    monkeypatch.chdir(REPO)
    built = []

    def counting(f):
        built.append(f)
        return build_algebra(f)

    for module in (cli, families):
        monkeypatch.setattr(module, "build_algebra", counting)
    argv = ["family", "times-uv", "--base", "samples/boolean3.poly", "--seed", "1"]
    code, _ = _run(capsys, argv)
    assert code == 0
    assert built == [parse_polynomial("x1*x2*x3")]


@pytest.mark.parametrize("seed", ["1", "2", "3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "samples/four_cycle.poly"],
        ["analyze", "samples/cubic_relations.poly"],
        ["from-complex", "samples/tk222.json"],
    ],
    ids=["four_cycle", "cubic_relations", "tk222"],
)
def test_checks_alone_match_the_full_report(argv, seed, monkeypatch, capsys):
    # The checks of one report share its Hessians and their memoized
    # ranks, so a check run alone must read what it reads after others.
    monkeypatch.chdir(REPO)

    def result(*checks):
        code, out = _run(capsys, argv + ["--seed", seed, *checks])
        assert code == 0
        body = json.loads(out)["result"]
        return body.get("algebra", body)

    full = result()
    for section, check in [("hessian_ranks", "hessians"), ("wlp", "wlp"), ("slp", "slp")]:
        assert result("--checks", check)[section] == full[section], section


def test_analyze_input_errors(capsys, tmp_path):
    code, _ = _run(capsys, ["analyze", str(tmp_path / "missing.poly")])
    assert code == 2
    bad = tmp_path / "bad.poly"
    bad.write_text("x^2 + @\n")
    code, _ = _run(capsys, ["analyze", str(bad)])
    assert code == 2
    inhom = tmp_path / "inhom.poly"
    inhom.write_text("x^2 + x\n")
    code, _ = _run(capsys, ["analyze", str(inhom)])
    assert code == 2


def test_invariant_violation_exit_code(capsys, poly_file, monkeypatch):
    def explode(f):
        raise InvariantViolation("forced for the test")

    monkeypatch.setattr("mixedhess.cli.build_algebra", explode)
    code, _ = _run(capsys, ["analyze", poly_file])
    assert code == 3


def test_from_complex_square(capsys, square_file):
    code, out = _run(capsys, ["from-complex", square_file, "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    combo = report["result"]["combinatorial"]
    assert combo["graph_class"] == "uni-even-no-wlp"
    assert combo["hilbert_from_face_counts"] == [1, 8, 8, 1]
    assert combo["multipartite_groups"] == [["a1", "a2"], ["b1", "b2"]]
    assert combo["noninjectivity_witness"]["wlp_excluded"] is True
    assert report["result"]["algebra"]["wlp"]["holds"] is False


def test_from_complex_bad_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = _run(capsys, ["from-complex", str(bad)])
    assert code == 2
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": ["a"]}))
    code, _ = _run(capsys, ["from-complex", str(empty)])
    assert code == 2


@pytest.mark.parametrize("data", [{"facets": []}, {"vertices": ["a"], "facets": []}])
def test_from_complex_without_facets(capsys, tmp_path, data):
    path = tmp_path / "nofacets.json"
    path.write_text(json.dumps(data))
    assert main(["from-complex", str(path)]) == 2
    assert capsys.readouterr().err.strip() == 'error: "facets" is empty: a complex needs a facet'


@pytest.mark.parametrize(
    "data",
    [
        {"facets": [["a", "b", "a"], ["b", "c"]]},
        {"facets": [["a", "a"]]},
        {"vertices": ["a", "b", "c"], "facets": [["a", "b", "a"], ["b", "c"]]},
    ],
)
def test_from_complex_rejects_a_repeated_vertex(capsys, tmp_path, data):
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(data))
    assert main(["from-complex", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: repeated vertex in facet (")


BAD_FACETS = '"facets" must be a list of lists of vertex names'
BAD_VERTICES = '"vertices" must be a list of names'


@pytest.mark.parametrize(
    "data, message",
    [
        ({"facets": [["a", "b"], "c"]}, BAD_FACETS),
        ({"facets": [["a", 1]]}, BAD_FACETS),
        ({"facets": [["a", "b"]], "vertices": "ab"}, BAD_VERTICES),
        ({"facets": [["a", "b"]], "vertices": ["a", 1]}, BAD_VERTICES),
        ({"facets": [["a", "b", "c"], ["c", "d"]]}, "complex must be pure"),
        ({"facets": [["a"], ["b"]]}, "complex must have dimension at least one"),
        (
            {"facets": [["a-1", "b"], ["b", "c"]]},
            "vertex name 'a-1' is not an identifier",
        ),
    ],
    ids=[
        "facet-not-a-list", "facet-name-type", "vertices-not-a-list",
        "vertex-name-type", "not-pure", "dimension-0", "not-identifier",
    ],
)
def test_from_complex_input_errors(capsys, tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["from-complex", str(path), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "facets",
    [[["a", "b"], ["a"], ["b", "c"]], [["a", "b"], ["b", "c"], ["a", "b"]]],
    ids=["contained", "duplicate"],
)
def test_from_complex_vertices_only_fix_the_order(capsys, tmp_path, facets):
    reports = []
    for name, data in (
        ("plain", {"facets": facets}),
        ("ordered", {"vertices": ["a", "b", "c"], "facets": facets}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        code, out = _run(capsys, ["from-complex", str(path), "--seed", "1"])
        assert code == 0
        report = json.loads(out)
        del report["input"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["result"]["combinatorial"]["facets"] == 2


def test_family_boolean(capsys, tmp_path):
    out_poly = tmp_path / "b.poly"
    code, out = _run(
        capsys,
        ["family", "boolean", "--n", "4", "--seed", "0", "--poly-out", str(out_poly)],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["slp"]["holds"] is True
    assert out_poly.read_text().strip() == "x1*x2*x3*x4"


def test_family_odd(capsys):
    code, out = _run(
        capsys, ["family", "odd", "--d", "3", "--codim", "8", "--seed", "0"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["quadrics"] is True
    assert report["result"]["criterion_rank"]["rank"] == 7


def test_family_out_of_range(capsys):
    code, _ = _run(capsys, ["family", "odd", "--d", "5", "--codim", "9"])
    assert code == 2
    code, _ = _run(capsys, ["family", "even", "--d", "4", "--codim", "15"])
    assert code == 2


def test_family_missing_arguments(capsys):
    code, _ = _run(capsys, ["family", "boolean"])
    assert code == 2
    code, _ = _run(capsys, ["family", "times-u"])
    assert code == 2


@pytest.mark.parametrize("argv, kinds", [
    (["family", "odd", "--d", "5", "--codim", "10", "--n", "7"], "boolean"),
    (["family", "boolean", "--n", "7", "--d", "5"], "odd/even"),
    (["family", "boolean", "--n", "7", "--codim", "9"], "odd/even"),
    (["family", "perazzo", "--partials", "u^2", "--base", "f.poly"], "times-u/times-uv"),
    (["family", "times-u", "--base", "f.poly", "--partials", "u^2"], "perazzo"),
    (["family", "even", "--d", "4", "--codim", "14", "--tail", "u^3"], "perazzo"),
])
def test_family_rejects_a_flag_its_kind_never_reads(argv, kinds, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[-2]} is for family {kinds}, not {argv[1]}\n"


@pytest.mark.parametrize("level", ["none", "counts", "report"])
@pytest.mark.parametrize("argv", [
    ["family", "boolean", "--n", "3"],
    ["family", "times-u", "--base", "samples/boolean3.poly"],
    ["family", "times-uv", "--base", "samples/boolean3.poly"],
    ["family", "perazzo", "--partials", "u^2; u*v; v^2"],
], ids=["boolean", "times-u", "times-uv", "perazzo"])
def test_family_verify_is_for_odd_and_even_only(argv, level, monkeypatch, capsys):
    # --verify has no default, so a kind that never reads it sees it given,
    # at every level, the default one too.
    monkeypatch.chdir(REPO)
    assert main(argv + ["--verify", level]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --verify is for family odd/even, not {argv[1]}\n"


def test_family_times_u(capsys, tmp_path):
    base = tmp_path / "base.poly"
    base.write_text("x1*x2*x3\n")
    code, out = _run(capsys, ["family", "times-u", "--base", str(base), "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["hilbert_identity"] is True
    assert report["result"]["hilbert_lift"] == [1, 4, 6, 4, 1]


def test_family_perazzo(capsys):
    code, out = _run(
        capsys,
        ["family", "perazzo", "--partials", "u^2; u*v; v^2", "--seed", "0"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["hessian_degenerate"] is True


def test_family_perazzo_with_a_tail(capsys):
    code, out = _run(capsys, [
        "family", "perazzo", "--partials", "u^2; u*v; v^2",
        "--tail", "u^3 + v^3", "--seed", "1",
    ])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["polynomial"] == "x1*u^2 + x2*u*v + x3*v^2 + u^3 + v^3"
    assert result["parameters"]["tail"] == "u^3 + v^3"
    assert result["hessian_degenerate"] is True
    # Only the determinant rung proves this rank exact: the torus-slice
    # bound of this Hessian is 5 (test_hessians.py).
    rank = result["hessian_rank"]
    assert (rank["mode"], rank["exact"], rank["rank"]) == ("exact", True, 4)
    assert rank["note"] == "vanishing symbolic determinant, sampled rank n-1"


def test_family_perazzo_cubic_partials_rank_is_exact(capsys):
    # The Hessian of x1*u^3 + x2*u^2*v + x3*u*v^2 + x4*v^3 is a Hessian of
    # the generator, so it gets the torus-slice rung: its bound 4 meets
    # the sampled rank.
    code, out = _run(capsys, [
        "family", "perazzo", "--partials", "u^3; u^2*v; u*v^2; v^3", "--seed", "1",
    ])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["hessian_degenerate"] is True
    rank = result["hessian_rank"]
    assert (rank["mode"], rank["exact"], rank["rank"]) == ("exact", True, 4)
    assert rank["note"] == "sampled rank met the torus-slice bound"


def test_family_perazzo_tail_of_the_wrong_degree(capsys):
    code = main([
        "family", "perazzo", "--partials", "u^2; u*v; v^2", "--tail", "u^2",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: tail must be homogeneous of degree one more, in the same "
        "variables\n"
    )


def test_family_perazzo_front_names_avoid_the_partials(capsys):
    # the partials already use x1 and x2, so the front variables skip them
    code, out = _run(capsys, [
        "family", "perazzo", "--partials", "x1^2; x1*x2; x2^2", "--seed", "1",
    ])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["polynomial"] == "x3*x1^2 + x4*x1*x2 + x5*x2^2"


def test_examples_all_pass(capsys):
    code, out = _run(capsys, ["examples", "--seed", "42", "--trials", "20"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["all_pass"] is True
    assert len(report["result"]["rows"]) == 10


def test_examples_only_and_unknown(capsys):
    code, out = _run(capsys, ["examples", "--only", "boolean-3", "--seed", "1"])
    assert code == 0
    assert len(json.loads(out)["result"]["rows"]) == 1
    code, _ = _run(capsys, ["examples", "--only", "missing", "--seed", "1"])
    assert code == 2


def test_examples_mismatch_exit_code(capsys, monkeypatch):
    import mixedhess.cli as cli

    original = cli._computed_properties

    def skewed(entry, config):
        out = original(entry, config)
        out["codimension"] += 1
        return out

    monkeypatch.setattr(cli, "_computed_properties", skewed)
    code, out = _run(capsys, ["examples", "--only", "boolean-3", "--seed", "1"])
    assert code == 1
    assert json.loads(out)["result"]["all_pass"] is False


def test_mult_map_match(capsys, poly_file):
    code, out = _run(
        capsys,
        [
            "mult-map",
            poly_file,
            "--from",
            "1",
            "--to",
            "2",
            "--linear",
            "1,2,3,4,5,6,7,1",
            "--seed",
            "0",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["match"] is True
    assert report["result"]["rank"] == 7
    assert report["result"]["factorial"] == 1
    assert len(report["result"]["mult_map_matrix"]) == 8


def test_mult_map_warns_on_vanishing_point(capsys, tmp_path):
    path = tmp_path / "v.poly"
    path.write_text("x^3*y + x*y^3\n")
    code, out = _run(
        capsys,
        ["mult-map", str(path), "--from", "0", "--to", "2", "--linear", "1,0"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["warnings"]
    assert report["result"]["match"] is True


def test_mult_map_on_a_cancelling_variable(capsys, tmp_path):
    # w cancels, so the algebra lives in x, y, z and the linear form
    # takes three coefficients; the dropped variable is reported.
    path = tmp_path / "c.poly"
    path.write_text("x*y*z + w*x*y - w*x*y\n")
    code, out = _run(
        capsys,
        ["mult-map", str(path), "--from", "1", "--to", "2", "--linear", "1,2,3"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["warnings"] == ["dropped unused variables: w"]
    assert report["result"]["match"] is True
    assert report["result"]["rank"] == 3


def test_family_times_u_names_the_fresh_variable_of_the_input(capsys, tmp_path):
    # The unused z1 is dropped, but the lift's fresh variable avoids the
    # input's names, so it is z2, not the z1 of the dropped base.
    path = tmp_path / "c.poly"
    path.write_text("x*y*z + z1*x*y - z1*x*y\n")
    argv = ["family", "times-u", "--base", str(path), "--seed", "1"]
    code, out = _run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["warnings"] == ["dropped unused variables: z1"]
    assert report["result"]["added"] == ["z2"]
    assert report["result"]["polynomial"] == "x*y*z*z2"
    assert report["result"]["hilbert_lift"] == [1, 4, 6, 4, 1]


@pytest.mark.parametrize("kind", ["times-u", "times-uv"])
def test_family_lift_reports_the_base_warnings(capsys, tmp_path, kind):
    # w cancels, so the base algebra drops it, and the lift reports that
    # as analyze and mult-map do.
    path = tmp_path / "c.poly"
    path.write_text("x*y*z + w*x*y - w*x*y\n")
    code, out = _run(capsys, ["family", kind, "--base", str(path), "--seed", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["warnings"] == ["dropped unused variables: w"]
    assert report["result"]["hilbert_base"] == [1, 3, 3, 1]


def test_mult_map_coefficient_count(capsys, poly_file):
    code, _ = _run(
        capsys,
        ["mult-map", poly_file, "--from", "1", "--to", "2", "--linear", "1,2"],
    )
    assert code == 2


def test_mult_map_zero_denominator_is_an_input_error(capsys, poly_file):
    code = main([
        "mult-map", poly_file, "--from", "1", "--to", "2",
        "--linear", "1/0,1,1,1,1,1,1,1",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --linear coefficient '1/0' has a zero denominator\n"


def test_module_entry_point(tmp_path):
    # Run from the directory that holds the package, so the child
    # imports it whether or not PYTHONPATH names that directory.
    proc = subprocess.run(
        [sys.executable, "-m", "mixedhess", "analyze", "-", "--checks", "hilbert", "--seed", "0"],
        input="x^2 + y^2\n",
        capture_output=True,
        text=True,
        cwd=Path(cli.__file__).resolve().parent.parent,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["hilbert"] == [1, 2, 1]


COMMAND_HELP = {
    "analyze": "analyze a polynomial file ('-' for stdin)",
    "from-complex": "analyze the dual generator of a JSON simplicial complex",
    "family": "generate a family member",
    "examples": "run the worked-example catalog against expectations",
    "mult-map": "compare the multiplication map against the scaled dual Hessian",
}

COMMON_FLAGS = (
    "-h, --help", "--seed SEED", "--trials TRIALS",
    "--sample-bound SAMPLE_BOUND", "--symbolic-cap SYMBOLIC_CAP",
    "--format {json,text}", "--output OUTPUT",
)

COMMAND_FLAGS = {
    "analyze": ("path", "--checks CHECKS"),
    "from-complex": ("path", "--checks CHECKS"),
    "family": (
        "{boolean,odd,even,times-u,times-uv,perazzo}", "--n N", "--d D",
        "--codim CODIM", "--verify {none,counts,report}", "--base BASE",
        "--partials PARTIALS", "--tail TAIL", "--poly-out POLY_OUT",
    ),
    "examples": ("--only ONLY",),
    "mult-map": (
        "path", "--from SOURCE_DEGREE", "--to TARGET_DEGREE", "--linear LINEAR",
    ),
}


def _parse_exit(monkeypatch, capsys, argv):
    """Exit code, stdout and stderr of a command line that argparse ends,
    at a fixed width and with runs of whitespace read as one space."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(argv)
    captured = capsys.readouterr()
    return stop.value.code, " ".join(captured.out.split()), " ".join(captured.err.split())


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_lists_every_command(flag, monkeypatch, capsys):
    code, out, err = _parse_exit(monkeypatch, capsys, [flag])
    assert (code, err) == (0, "")
    assert out.startswith(
        "usage: mixedhess [-h] {analyze,from-complex,family,examples,mult-map} ..."
    )
    for command, line in COMMAND_HELP.items():
        assert f" {command} {line} " in out


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_command_help_lists_its_flags(command, monkeypatch, capsys):
    code, out, err = _parse_exit(monkeypatch, capsys, [command, "--help"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: mixedhess {command} [-h] [--seed SEED] ")
    for flag in COMMON_FLAGS + COMMAND_FLAGS[command]:
        assert f" {flag} " in out, flag


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
                "'analyze', 'from-complex', 'family', 'examples', 'mult-map')"),
    (["family", "boolean", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["family", "boolean", "--n", "3", "--zzz"], "unrecognized arguments: --zzz"),
    # The command after an unknown leading flag still parses its own flags.
    (["--zzz", "family", "boolean", "--n", "3"], "unrecognized arguments: --zzz"),
    (["family"], "the following arguments are required: kind"),
    ([], "the following arguments are required: command"),
])
def test_parse_errors_exit_2(argv, message, monkeypatch, capsys):
    code, out, err = _parse_exit(monkeypatch, capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: mixedhess")
    assert err.endswith(message)


def test_family_help_says_what_counts_checks_on_odd(monkeypatch, capsys):
    code, out, err = _parse_exit(monkeypatch, capsys, ["family", "--help"])
    assert (code, err) == (0, "")
    assert (
        " --verify {none,counts,report} odd/even: verification level "
        "(default report; on odd, counts checks no more than none) "
    ) in out


def _values(spec, taken):
    """Values of one argument that the strict parser takes, or declines."""
    if "choices" in spec:
        return st.sampled_from(spec["choices"]) if taken else st.just("bogus")
    if spec.get("type") is int:
        if taken:
            return st.integers(0, 30).map(str) | st.sampled_from([" 7", "1_0"])
        return st.sampled_from(["-3", "x", "1.5", ""])
    if taken:
        return st.sampled_from(["f.poly", "u^2; v^2", "", "1,2", "hilbert"])
    return st.sampled_from(["-", "-x"])


# Tokens the strict parser declines wherever they stand.
NOISE = ("-h", "--help", "--cod", "--n=7", "-", "--zzz", "--", "--seed", "extra")


@st.composite
def _command_lines(draw):
    """A command line built from the table, and whether it is well formed:
    the command, then each flag zero to two times (a required one at least
    once) and each positional, shuffled.  Some lines get faults: a declined
    value, a dropped argument, noise tokens, or a token before the command."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    slots = []
    for name, spec in cli._COMMON_FLAGS + cli._COMMANDS[command][2]:
        positional = not name.startswith("-")
        least = 1 if positional or spec.get("required") else 0
        for _ in range(draw(st.integers(least, 1 if positional else 2))):
            value = draw(_values(spec, taken=True))
            slots.append((spec, [value] if positional else [name, value]))
    faults = draw(st.sets(st.sampled_from(("value", "drop", "noise", "lead"))))
    if not slots:
        faults -= {"value", "drop"}
    groups = [group for _, group in slots]
    if "value" in faults:
        spec, group = slots[draw(st.integers(0, len(slots) - 1))]
        group[-1] = draw(_values(spec, taken=False))
    if "drop" in faults:
        groups.pop(draw(st.integers(0, len(groups) - 1)))
    if "noise" in faults:
        noise = draw(st.lists(st.sampled_from(NOISE), min_size=1, max_size=2))
        groups += [[token] for token in noise]
    argv = [command] + [t for group in draw(st.permutations(groups)) for t in group]
    if "lead" in faults:
        argv.insert(0, draw(st.sampled_from(NOISE)))
    return argv, not faults


@settings(max_examples=400, deadline=None)
@given(_command_lines())
# argparse converts every value of a repeated flag, not only the last.
@example((["family", "boolean", "--n", "x", "--n", "3"], False))
def test_strict_parser_declines_or_agrees_with_argparse(line):
    argv, well_formed = line
    strict = cli._parse_strict(argv)
    assert strict is not None or not well_formed
    if strict is not None:
        with contextlib.redirect_stderr(io.StringIO()):
            parsed = cli._parse_with_argparse(argv)
        assert vars(strict) == vars(parsed)


def test_negative_count_is_declined_then_rejected_by_the_command(capsys):
    argv = ["family", "boolean", "--n", "-3"]
    assert cli._parse_strict(argv) is None
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: need at least one variable\n"


def test_abbreviated_flag_is_declined_then_parsed_by_argparse():
    argv = ["family", "odd", "--cod", "14", "--d", "5"]
    assert cli._parse_strict(argv) is None
    args = cli._parse_with_argparse(argv)
    assert (args.command, args.kind, args.codim, args.d) == ("family", "odd", 14, 5)
