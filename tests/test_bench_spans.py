"""Every span the benchmark reads must exist in the package.

The traced benchmark run (``perfbench/run.py --trace 1``) wraps the
public functions of the package's layers and looks each per-layer
metric up by span name; a renamed or deleted function makes that run
crash or report an idle layer.  This test catches it in the test suite
instead.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

from mixedhess import cli  # noqa: E402

# Per-layer metrics that are not read from a span.
NOT_SPANS = {"trace.overhead_s", "exact_cert_frac"}


def _traced_spans() -> set[str]:
    """Span names a traced run records, filtered as ``tracer.install``
    filters them."""
    names = set()
    for short, only in tracer.TRACED_MODULES.items():
        module = importlib.import_module(f"mixedhess.{short}")
        for span, (_, attr, _) in tracer.traceable(module).items():
            if only is None or attr in only:
                names.add(span)
    return names


def _metric_spans() -> list[str]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    spans = []
    for metric in spec["per_layer"]:
        if metric["name"] in NOT_SPANS:
            continue
        span = metric["name"].rsplit(".", 1)[0]
        spans.append(run.SPAN_ALIASES.get(span, span))
    return spans


def test_per_layer_metric_spans_are_traced():
    traced = _traced_spans()
    assert [s for s in _metric_spans() if s not in traced] == []


def test_workload_layers_are_traced():
    traced = _traced_spans()
    missing = [
        (name, span)
        for name, workload in run.WORKLOADS.items()
        for span in workload.layers
        if span not in traced
    ]
    assert missing == []


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_quadric_layers_record_calls(name):
    # A traced run fails when a workload's mapped layer records no call;
    # run the workload's reports traced at seed 1, sum their spans as
    # run.per_layer_metrics does, and check every layer it maps.
    workload = run.WORKLOADS[name]
    reports = [
        run.run_report(report_id, args, 1, traced=True)
        for report_id, args in workload.reports
    ]
    assert [(r.report_id, r.problems) for r in reports if r.problems] == []
    spans = run.summed_spans(run.Repetition(True, 0.0, reports))
    idle = [s for s in workload.layers if spans.get(s, {}).get("calls", 0) < 1]
    assert idle == []


def test_perfbench_self_tests_pass():
    # The benchmark's own tests (tracer, timing, oracle) sit outside the
    # test paths; run them here so a change to the package that breaks
    # the harness fails the suite.
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_report_schema_matches_the_benchmark_oracle():
    # The oracle fails every report whose schema_version differs from its
    # own, so a schema bump must land together with the oracle's.
    assert cli.SCHEMA_VERSION == oracle.SCHEMA_VERSION
