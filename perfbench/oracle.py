"""Correctness oracle for the benchmark's reports.

Each check reads only fields that do not depend on the seed: Hilbert
functions, quadric presentation, verdicts, criterion ranks and the
catalog's own expected-versus-computed comparison.  The expected values
are mathematical facts about the inputs (binomial Hilbert functions,
the published ranks of the counterexample families), so a faster
program must reproduce them exactly.

``EXACT_FLOOR`` counts, per report, the objects with ``"mode":
"exact"`` at the commit that introduced the benchmark.  A report with
fewer has quietly weakened a certificate and fails.
"""

from __future__ import annotations

from math import comb

SCHEMA_VERSION = 1

CATALOG_IDS = [
    "four-cycle", "determinantal-3x3", "four-cycle-9", "four-cycle-11",
    "boolean-3", "boolean-4", "boolean-5",
    "turan-222", "turan-223", "turan-223-cut",
]

EXACT_FLOOR = {
    "odd-5-14": 0,
    "boolean-7": 4,
    "even-6-16": 1,
    "tk222": 2,
    "four-cycle": 5,
} | {f"example-{entry}": 0 for entry in CATALOG_IDS}


def modes(value) -> list[str]:
    """The ``mode`` of every object in a report that carries one:
    rank certificates and Lefschetz verdicts alike."""
    found: list[str] = []
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            if "mode" in item:
                found.append(item["mode"])
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
    return found


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: expected {want!r}, got {got!r}")


def _full_profile(hilbert: list[int]) -> list[int]:
    return [min(a, b) for a, b in zip(hilbert, hilbert[1:])]


def _odd_5_14(r: dict, p: list[str]) -> None:
    _expect(p, "degree", r["degree"], 5)
    _expect(p, "codimension", r["codimension"], 14)
    _expect(p, "quadrics", r["quadrics"], True)
    _expect(p, "expected_wlp", r["expected_wlp"], False)
    # The middle Hessian of the lifted four-cycle cubic is 37 x 37 with
    # generic rank 36.
    _expect(p, "criterion rank", r["criterion_rank"]["rank"], 36)


def _boolean_7(r: dict, p: list[str]) -> None:
    hilbert = [comb(7, k) for k in range(8)]
    _expect(p, "hilbert", r["hilbert"], hilbert)
    slp = r["slp"]
    _expect(p, "slp holds", slp["holds"], True)
    _expect(p, "slp profile", slp["profile"], _full_profile(hilbert))
    _expect(p, "slp evidence ranks", [c["rank"] for c in slp["evidence"]],
            [comb(7, k) for k in range(1, 4)])
    witness = slp["witness"]
    if not (isinstance(witness, list) and len(witness) == 7):
        p.append(f"slp witness is not a linear form in 7 variables: {witness!r}")


def _even_6_16(r: dict, p: list[str]) -> None:
    _expect(p, "degree", r["degree"], 6)
    _expect(p, "codimension", r["codimension"], 16)
    _expect(p, "expected_wlp", r["expected_wlp"], False)
    # The (2, 3) Hessian of the lift is 52 x 53 with generic rank 52.
    _expect(p, "criterion rank", r["criterion_rank"]["rank"], 52)
    w = r["noninjectivity_witness"]
    _expect(p, "wlp excluded", w["wlp_excluded"], True)
    _expect(p, "grid step bound", (w["step_rank_bound"], w["step_full_rank"]), (13, 14))
    _expect(p, "grid block rank", w["block_rank"]["rank"], 7)


def _example(entry: str):
    """Check of ``examples --only entry``: the catalog's own comparison
    of computed against expected values."""
    def check(r: dict, p: list[str]) -> None:
        _expect(p, "all_pass", r["all_pass"], True)
        _expect(p, "catalog ids", [row["id"] for row in r["rows"]], [entry])
        for row in r["rows"]:
            if not row["pass"] or row["computed"] != row["expected"]:
                p.append(f"catalog entry {row['id']} disagrees with its expectation")
            hilbert = row["computed"]["hilbert"]
            if hilbert != hilbert[::-1]:
                p.append(f"catalog entry {row['id']} has an asymmetric Hilbert function")
    return check


def _tk222(r: dict, p: list[str]) -> None:
    combo, alg = r["combinatorial"], r["algebra"]
    _expect(p, "hilbert", alg["hilbert"], [1, 14, 24, 14, 1])
    _expect(p, "face-count Hilbert cross-check", combo["hilbert_from_face_counts"], alg["hilbert"])
    _expect(p, "face counts", combo["face_counts"], [1, 6, 12, 8])
    _expect(p, "quadrics", alg["quadrics"]["presented"], True)
    _expect(p, "quadrics cross-check", combo["quadrics_combinatorial"], alg["quadrics"]["presented"])
    _expect(p, "wlp holds", alg["wlp"]["holds"], False)
    _expect(p, "slp holds", alg["slp"]["holds"], False)
    w = combo["noninjectivity_witness"]
    _expect(p, "wlp excluded", w["wlp_excluded"], True)
    _expect(p, "witness step is the failing step", w["step"], alg["wlp"]["failing_step"])
    _expect(p, "grid step bound", (w["step_rank_bound"], w["step_full_rank"]), (13, 14))
    _expect(p, "(2, 2) Hessian rank", alg["hessian_ranks"]["(2, 2)"]["rank"], 24)


def _four_cycle(r: dict, p: list[str]) -> None:
    _expect(p, "hilbert", r["hilbert"], [1, 8, 8, 1])
    _expect(p, "quadrics", (r["quadrics"]["presented"], r["quadrics"]["dim_ann_2"]), (True, 28))
    _expect(p, "wlp holds", r["wlp"]["holds"], False)
    _expect(p, "slp holds", r["slp"]["holds"], False)
    _expect(p, "wlp profile", r["wlp"]["profile"], [1, 7, 1])
    _expect(p, "maximal profile", r["profile"]["maximal"], _full_profile(r["hilbert"]))
    _expect(p, "(1, 1) Hessian rank", r["hessian_ranks"]["(1, 1)"]["rank"], 7)


CHECKS = {
    "odd-5-14": _odd_5_14,
    "boolean-7": _boolean_7,
    "even-6-16": _even_6_16,
    "tk222": _tk222,
    "four-cycle": _four_cycle,
} | {f"example-{entry}": _example(entry) for entry in CATALOG_IDS}


def check(report_id: str, report: dict, seed: int) -> list[str]:
    """Problems found in one parsed report; empty when it is correct."""
    problems: list[str] = []
    _expect(problems, "schema_version", report.get("schema_version"), SCHEMA_VERSION)
    _expect(problems, "seed", report.get("config", {}).get("seed"), seed)
    try:
        CHECKS[report_id](report["result"], problems)
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"report is missing a field: {exc!r}")
    exact = modes(report).count("exact")
    if exact < EXACT_FLOOR[report_id]:
        problems.append(
            f"only {exact} exact certificates and verdicts, "
            f"{EXACT_FLOOR[report_id]} before"
        )
    return problems
