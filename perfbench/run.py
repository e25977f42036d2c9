"""Time-to-certified-verdict benchmark for mixedhess.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the checkout that contains it.  Each
workload is a fixed list of short ``mixedhess`` reports, each run at a
few seeds derived from ``--seed``.  The load is a closed loop with one
client: one report at a time, each in a fresh interpreter started by
``perfbench/child.py``, so no cache of the program survives from one
report to the next, exactly as for a user calling the CLI.

Every report is checked by ``oracle.check`` and must be byte-identical
to the same report at the same seed in the other repetitions of the run.

With ``--trace 0`` the run repeats the workload untraced for about
``--seconds`` and reports the end-to-end metrics named in
``BENCHMARK.json``.  With ``--trace 1`` it repeats rounds of one
untraced and one traced repetition and reports the per-layer metrics;
the difference between their quiet-machine times is the tracing
overhead.

Standard output ends with two JSON lines: provenance and sample
counts, then the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 100.0
# About the calibration's quiet time (see quiet_time) on the machine
# the benchmark was written on: the normalised times are in seconds of
# a machine that runs the calibration this fast.
REFERENCE_CALIBRATION_S = 0.020

QUADRIC_LAYERS = (
    "apolarity.ann_generated_by_quadrics",
    "apolarity.GradedAlgebra.ann_basis",
    "linalg.RowSpace.insert",
)
RANK_LAYERS = ("linalg.matrix_rank", "hessians.rank_at", "hessians.generic_rank")
MULT_LAYERS = (
    "lefschetz.mult_map_matrix",
    "apolarity.GradedAlgebra.pairing_inverse",
    "lefschetz.rank_profile",
)
COMMON_LAYERS = (
    "apolarity.build_algebra",
    "linalg.sparse_rref",
    "hessians.mixed_hessian",
    "cli.main",
)


@dataclass(frozen=True)
class Workload:
    # (report id for the oracle, mixedhess arguments without --seed)
    reports: tuple[tuple[str, tuple[str, ...]], ...]
    # how many seeds, derived from the run's seed, each report runs at
    seeds: int
    # spans that must record at least one call in a traced run
    layers: tuple[str, ...]


# Reports are kept short (0.1 to 0.7 s) so that a run holds many
# samples of each; see quiet_time for why.
WORKLOADS = {
    "odd-quadrics": Workload(
        (("odd-5-14", ("family", "odd", "--d", "5", "--codim", "14")),),
        3,
        QUADRIC_LAYERS + RANK_LAYERS + COMMON_LAYERS + ("families.times_u",),
    ),
    "boolean-slp": Workload(
        (("boolean-7", ("family", "boolean", "--n", "7")),),
        3,
        MULT_LAYERS + COMMON_LAYERS
        + ("linalg.matrix_rank", "hessians.rank_at", "lefschetz.slp_check"),
    ),
    "even-rank": Workload(
        (("even-6-16", ("family", "even", "--d", "6", "--codim", "16")),),
        3,
        RANK_LAYERS + COMMON_LAYERS
        + ("families.times_u", "complexes.grid_noninjectivity_witness"),
    ),
    "catalog": Workload(
        # The two largest catalog entries are left out: together they
        # took two thirds of the catalog's time and so its samples.
        tuple((f"example-{entry}", ("examples", "--only", entry))
              for entry in oracle.CATALOG_IDS if entry not in ("turan-223", "turan-223-cut"))
        + (
            ("tk222", ("from-complex", "samples/tk222.json")),
            ("four-cycle", ("analyze", "samples/four_cycle.poly")),
        ),
        1,
        QUADRIC_LAYERS + RANK_LAYERS + MULT_LAYERS + COMMON_LAYERS
        + (
            "hessians.symbolic_det",
            "lefschetz.wlp_check",
            "lefschetz.slp_check",
            "complexes.grid_noninjectivity_witness",
        ),
    ),
}

# Per-layer metric names use these short forms for two methods.
SPAN_ALIASES = {
    "apolarity.ann_basis": "apolarity.GradedAlgebra.ann_basis",
    "apolarity.pairing_inverse": "apolarity.GradedAlgebra.pairing_inverse",
}


def derived_seeds(seed: int, count: int) -> list[int]:
    """The seeds a run passes to its reports: distinct runs' seeds give
    disjoint sets."""
    return [seed * count + i for i in range(count)]


def monotonic() -> float:
    """System-wide clock, comparable with the child's timestamps."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Report:
    report_id: str
    seed: int
    cpu_s: float
    maxrss_kb: int | None = None
    setup_s: float | None = None
    # from launch to just before ``import mixedhess``
    boot_s: float | None = None
    setup_segments_s: list[float] | None = None
    main_s: float | None = None
    segments_s: list[float] | None = None
    calibration_s: list[float] | None = None
    text: str | None = None
    spans: dict | None = None
    # (objects whose mode is "exact", objects with a mode)
    certs: tuple[int, int] = (0, 0)
    problems: list[str] = field(default_factory=list)


@dataclass
class Repetition:
    traced: bool
    wall_s: float
    reports: list[Report]

    @property
    def main_s(self) -> float:
        return sum(r.main_s or 0.0 for r in self.reports)


def run_report(report_id: str, args: tuple[str, ...], seed: int, traced: bool) -> Report:
    """Run one report in a child process and check it."""
    cmd = [sys.executable, str(CHILD), "1" if traced else "0", *args, "--seed", str(seed)]
    start = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    report = Report(report_id, seed, usage.ru_utime + usage.ru_stime)
    if proc.returncode != 0:
        report.problems.append(f"child exited with code {proc.returncode}")
        return report
    envelope = json.loads(out.decode().splitlines()[-1])
    report.setup_s = envelope["main_start"] - start
    report.boot_s = envelope["import_start"] - start
    report.setup_segments_s = envelope["setup_segments_s"]
    report.main_s = envelope["main_s"]
    report.maxrss_kb = envelope["maxrss_kb"]
    report.segments_s = envelope["segments_s"]
    report.calibration_s = envelope["calibration_s"]
    report.text = envelope["report"]
    report.spans = envelope["spans"]
    if envelope["exit"] != 0:
        report.problems.append(f"mixedhess exited with code {envelope['exit']}")
        return report
    try:
        parsed = json.loads(report.text)
    except json.JSONDecodeError as exc:
        report.problems.append(f"report is not JSON: {exc}")
        return report
    found = oracle.modes(parsed)
    report.certs = (found.count("exact"), len(found))
    report.problems.extend(oracle.check(report_id, parsed, seed))
    return report


def run_repetition(workload: Workload, seed: int, traced: bool) -> Repetition:
    start = time.perf_counter()
    reports = [run_report(rid, args, s, traced)
               for s in derived_seeds(seed, workload.seeds) for rid, args in workload.reports]
    return Repetition(traced, time.perf_counter() - start, reports)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> list[Repetition]:
    """Repeat the workload for about ``seconds``: a round starts only if
    a round of median length would still end in time.  A traced run's
    round is one untraced and one traced repetition, in alternating
    order."""
    kinds = [False, True] if trace else [False]
    reps: list[Repetition] = []
    start = time.perf_counter()
    while True:
        for traced in kinds:
            reps.append(run_repetition(workload, seed, traced))
        kinds.reverse()
        elapsed = time.perf_counter() - start
        per_round = statistics.median(r.wall_s for r in reps) * len(kinds)
        if len(reps) >= 2 and elapsed + per_round > seconds:
            return reps


def check_identical(reps: list[Repetition]) -> None:
    """A report must be the same bytes at the same seed in every
    repetition of a run."""
    first: dict[tuple[str, int], str] = {}
    for rep in reps:
        for r in rep.reports:
            if r.text is None:
                continue
            ref = first.setdefault((r.report_id, r.seed), r.text)
            if r.text != ref:
                r.problems.append("report differs from the first repetition at the same seed")


def tail(samples: list[float]) -> dict:
    """The highest sample that still has at least ten samples above it,
    with its percentile and the sample count.  A run of fewer than
    eleven repetitions has no such sample, and its value is None."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return {"value": None, "samples": len(ordered)}
    index = len(ordered) - 11
    return {
        "value": ordered[index],
        "percentile": 100.0 * (index + 1) / len(ordered),
        "beyond": 10,
        "samples": len(ordered),
    }


def summed_spans(rep: Repetition) -> dict[str, dict]:
    total: dict[str, dict] = {}
    for r in rep.reports:
        for name, stats in (r.spans or {}).items():
            acc = total.setdefault(name, {})
            for key, value in stats.items():
                acc[key] = acc.get(key, 0) + value
    return total


def layer_value(spans: dict[str, dict], metric: str) -> float:
    span, kind = metric.rsplit(".", 1)
    stats = spans[SPAN_ALIASES.get(span, span)]
    if kind.endswith("_ratio"):
        return stats[kind.removesuffix("_ratio")] / stats["calls"] if stats["calls"] else 0.0
    return stats[kind]


def fastest(runs: list[list[float]]) -> float:
    """The sum over positions of the smallest value at that position."""
    return sum(map(min, zip(*runs)))


@dataclass
class QuietTime:
    raw_s: float
    norm_s: float
    # the fewest children behind a minimum
    samples: int
    # groups in which some children's segments did not line up
    unaligned: list[str]


# One child's part in a quiet time: a lead-in that is not cut into
# segments, the segments, and the calibration blocks.
Run = tuple[float, list[float], list[float]]


def quiet_time(groups: dict[str, list[Run]]) -> QuietTime:
    """The time each group of children takes on a quiet machine, summed.

    Load from outside the container only ever adds time.  It comes and
    goes within a fraction of a second, so neither a repetition's time
    nor the median of many is steady, and even the fastest of a run's
    repetitions moves with the load.  So the raw time of a group is its
    fastest lead-in plus the sum over its segments of each segment's
    fastest time in any child: a segment lasts milliseconds, and its
    fastest run catches a quiet moment.  Only children with the most
    common number of segments count.

    A busy stretch can also last a whole run, so that even the fastest
    segments are slow.  The calibration blocks of the same children slow
    down with them, so the normalised time scales each group's raw time
    by ``REFERENCE_CALIBRATION_S`` over the same sum of fastest times
    taken over its calibration blocks.  Taking both minima over the
    same children keeps the two equally close to the quiet speed.
    """
    raw = norm = 0.0
    samples, unaligned = [], []
    for name, runs in groups.items():
        count = statistics.mode(len(segments) for _, segments, _ in runs)
        aligned = [run for run in runs if len(run[1]) == count]
        if len(aligned) < len(runs):
            unaligned.append(name)
        time_s = min(lead for lead, _, _ in aligned) + fastest([seg for _, seg, _ in aligned])
        raw += time_s
        norm += time_s * REFERENCE_CALIBRATION_S / fastest([cal for _, _, cal in aligned])
        samples.append(len(aligned))
    return QuietTime(raw, norm, min(samples), unaligned)


def report_time(reports: list[Report]) -> QuietTime:
    """Quiet time in ``cli.main``, grouped by report and seed."""
    groups: dict[str, list[Run]] = {}
    for r in reports:
        if r.segments_s is not None:
            groups.setdefault(f"{r.report_id} --seed {r.seed}", []).append(
                (0.0, r.segments_s, r.calibration_s))
    return quiet_time(groups)


def end_to_end_metrics(reps: list[Repetition]) -> tuple[dict[str, float], dict]:
    """Metric values, and provenance: the samples behind each metric, the
    raw times, the median repetition, the repetition-time tail and CPU
    time."""
    children = [r for rep in reps for r in rep.reports if r.segments_s is not None]
    wall = report_time(children)
    # Every child sets up the same way, so they form one group.
    setup = quiet_time({"set-up": [(r.boot_s, r.setup_segments_s, r.calibration_s)
                                   for r in children]})
    mains = [rep.main_s for rep in reps]
    values = {
        "wall_norm_s": wall.norm_s,
        "setup_s": setup.norm_s,
        "peak_rss_mb": max(r.maxrss_kb for r in children) / 1024,
    }
    info = {
        "samples": {
            "wall_norm_s": wall.samples,
            "setup_s": setup.samples,
            "peak_rss_mb": len(children),
        },
        "wall_min_s": wall.raw_s,
        "setup_min_s": setup.raw_s,
        "setup_median_s": statistics.median(r.setup_s for r in children),
        "calibration_floor_s": fastest([r.calibration_s for r in children]),
        "unaligned": wall.unaligned + setup.unaligned,
        "wall_median_s": statistics.median(mains),
        "wall_tail_s": tail(mains),
        "cpu_median_s": statistics.median(sum(r.cpu_s for r in rep.reports) for rep in reps),
    }
    return values, info


def per_layer_metrics(workload: Workload, reps: list[Repetition], names: list[str],
                      exact_frac: float) -> tuple[dict[str, float], dict, list[str]]:
    """Metric values, provenance (sample counts, overhead, the spans of
    the first traced repetition) and the mapped layers never called."""
    traced = [r for r in reps if r.traced]
    spans = [summed_spans(r) for r in traced]
    overhead = (report_time([r for rep in traced for r in rep.reports]).norm_s
                - report_time([r for rep in reps if not rep.traced for r in rep.reports]).norm_s)
    values: dict[str, float] = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = overhead
        elif name == "exact_cert_frac":
            values[name] = exact_frac
        else:
            values[name] = statistics.median_low(layer_value(s, name) for s in spans)
    info = {
        "samples": {"traced_repetitions": len(traced), "untraced_repetitions": len(reps) - len(traced)},
        "trace_overhead_s": overhead,
        "spans": spans[0],
    }
    idle = [name for name in workload.layers if any(s[name]["calls"] == 0 for s in spans)]
    return values, info, [f"traced layer {name} recorded no calls" for name in idle]


def git_revision() -> str | None:
    """HEAD of the checkout's git repository, read without running git;
    None when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json", "src/mixedhess/cli.py", "samples/tk222.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a mixedhess checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    reps = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    check_identical(reps)
    reports = [r for rep in reps for r in rep.reports]
    if all(r.text is None for r in reports):
        print(f"{args.workload}: no report completed", file=sys.stderr)
        return 1
    failed = sum(1 for r in reports if r.problems)
    for r in reports:
        for problem in r.problems:
            print(f"{args.workload} {r.report_id}: {problem}", file=sys.stderr)
    exact = sum(r.certs[0] for r in reps[0].reports)
    total = sum(r.certs[1] for r in reps[0].reports)
    exact_frac = exact / total if total else 0.0

    provenance = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one report process at a time",
        "fail_frac": failed / len(reports),
        "exact_certs": [exact, total],
        "exact_cert_frac": exact_frac,
        "seeds": derived_seeds(args.seed, workload.seeds),
        "repetition_main_s": [r.main_s for r in reps],
    }
    layer_problems: list[str] = []
    if args.trace:
        values, info, layer_problems = per_layer_metrics(
            workload, reps, [m["name"] for m in wanted], exact_frac)
        provenance.update(info)
    else:
        values, info = end_to_end_metrics(reps)
        provenance.update(info)
    for problem in layer_problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)

    print(json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not layer_problems,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
