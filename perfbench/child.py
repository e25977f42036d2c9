"""Run one mixedhess CLI report in a fresh interpreter and describe it.

    python3 perfbench/child.py <trace: 0|1> <mixedhess arguments...>

The package is imported from the ``src`` directory next to this one,
so the report comes from the checkout under test.  The report that
``mixedhess.cli.main`` prints is captured, and the last line of
standard output is one JSON object:

    {"exit": <cli exit code>, "report": <report text>,
     "import_start": <CLOCK_MONOTONIC just before import mixedhess>,
     "main_start": <CLOCK_MONOTONIC just before cli.main>,
     "main_s": <seconds spent in cli.main>,
     "maxrss_kb": <peak resident set size up to the end of cli.main>,
     "setup_segments_s": <the import's time cut at each garbage collection>,
     "segments_s": <cli.main's time cut at each garbage collection>,
     "calibration_s": <times of identical calibration blocks>,
     "spans": <tracer summary, or null when untraced>}

CLOCK_MONOTONIC is system-wide, so the parent subtracts its own launch
timestamp from ``main_start`` to get the set-up time: interpreter start
plus ``import mixedhess``.

After the report, the child times a fixed calibration workload
(``calibration_s``).

A collection of the youngest generation starts after a fixed number of
allocations, so the import, and a report that is the same bytes every
time, is cut at the same points of its work every time.  The parent
compares each segment across repetitions.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CALIBRATION_BLOCKS = 24
CALIBRATION_KEYS = 30011  # a prime, so that the keys below are a permutation


def calibration_block(table: dict[int, int]) -> None:
    """A fixed piece of the kind of interpreter work mixedhess does:
    scattered dict lookups and fraction-free elimination steps on
    integer rows."""
    key = total = 0
    for _ in range(2500):
        key = (key * 1103515245 + 12345) % CALIBRATION_KEYS
        total += table[key]
    n = 24
    rows = [[(i * 7 + j * 13 + i * j) % 31 - 15 for j in range(n)] for i in range(n)]
    for k in range(6):
        pivot = rows[k][k] or 1
        for i in range(k + 1, n):
            factor = rows[i][k]
            rows[i] = [pivot * a - factor * b for a, b in zip(rows[i], rows[k])]


def calibrate() -> list[float]:
    """Times of identical calibration blocks, run after the report.  The
    parent compares them with the same blocks in other reports to tell
    how fast the machine ran during the run."""
    table = {i * 7919 % CALIBRATION_KEYS: i for i in range(CALIBRATION_KEYS)}
    times = []
    for _ in range(CALIBRATION_BLOCKS):
        start = time.perf_counter()
        calibration_block(table)
        times.append(time.perf_counter() - start)
    return times


def monotonic() -> float:
    """System-wide clock, comparable with the parent's timestamps."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def between(bounds: list[float]) -> list[float]:
    return [b - a for a, b in zip(bounds, bounds[1:])]


def main(argv: list[str]) -> int:
    trace, cli_args = argv[0] == "1", argv[1:]
    sys.path.insert(0, str(SRC))
    marks: list[float] = []

    def mark(phase: str, info: dict) -> None:
        if phase == "start":
            marks.append(monotonic())

    gc.callbacks.append(mark)
    import_start = monotonic()
    import mixedhess.cli

    if not Path(mixedhess.cli.__file__).resolve().is_relative_to(SRC):
        print(f"mixedhess imported from {mixedhess.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, "mixedhess", tracing.TRACED_MODULES)
    buf = io.StringIO()
    setup_marks = len(marks)
    main_start = monotonic()
    with contextlib.redirect_stdout(buf):
        code = mixedhess.cli.main(cli_args)
    end = monotonic()
    gc.callbacks.remove(mark)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "exit": code,
        "report": buf.getvalue(),
        "import_start": import_start,
        "main_start": main_start,
        "main_s": end - main_start,
        "maxrss_kb": maxrss_kb,
        "setup_segments_s": between([import_start, *marks[:setup_marks], main_start]),
        "segments_s": between([main_start, *marks[setup_marks:], end]),
        "calibration_s": calibrate(),
        "spans": tracer.summary() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
