"""Tests of the benchmark's own tracer, timing arithmetic and oracle.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract_children(self):
        clock = FakeClock()
        t = tracer.Tracer(clock)

        def leaf():
            clock.now += 5

        def middle():
            clock.now += 1
            leaf()
            clock.now += 2
            leaf()

        def outer():
            clock.now += 3
            middle()
            clock.now += 4

        leaf = t.wrap("leaf", leaf)
        middle = t.wrap("middle", middle)
        outer = t.wrap("outer", outer)
        outer()
        stats = t.summary()
        self.assertEqual(stats["leaf"], {"calls": 2, "total_s": 10, "self_s": 10})
        self.assertEqual(stats["middle"], {"calls": 1, "total_s": 13, "self_s": 3})
        self.assertEqual(stats["outer"], {"calls": 1, "total_s": 20, "self_s": 7})

    def test_span_is_closed_when_the_call_raises(self):
        clock = FakeClock()
        t = tracer.Tracer(clock)

        def failing():
            clock.now += 2
            raise ValueError

        def caller():
            clock.now += 1
            with contextlib.suppress(ValueError):
                failing()

        failing = t.wrap("failing", failing)
        t.wrap("caller", caller)()
        stats = t.summary()
        self.assertEqual(stats["failing"]["self_s"], 2)
        self.assertEqual(stats["caller"], {"calls": 1, "total_s": 3, "self_s": 1})


def _fake_module(name: str, code: str) -> types.ModuleType:
    module = types.ModuleType(name)
    exec(code, module.__dict__)
    sys.modules[name] = module
    return module


class RebindTest(unittest.TestCase):
    def setUp(self):
        _fake_module("fakepkg", "")
        self.linalg = _fake_module("fakepkg.linalg", "def rank(m):\n    return len(m)\n")
        # What ``from .linalg import rank`` leaves in the importing module.
        self.hessians = _fake_module(
            "fakepkg.hessians", "def rank_of(m):\n    return rank(m)\n"
        )
        self.hessians.rank = self.linalg.rank

    def tearDown(self):
        for name in ("fakepkg", "fakepkg.linalg", "fakepkg.hessians"):
            sys.modules.pop(name, None)

    def test_calls_through_an_importer_are_recorded(self):
        t = tracer.Tracer()
        tracer.install(t, "fakepkg", {"linalg": None, "hessians": None})
        self.assertEqual(self.hessians.rank_of([1, 2, 3]), 3)
        stats = t.summary()
        self.assertEqual(stats["linalg.rank"]["calls"], 1)
        self.assertEqual(stats["hessians.rank_of"]["calls"], 1)
        self.assertIs(self.hessians.rank, self.linalg.rank)

    def test_selected_names_only(self):
        t = tracer.Tracer()
        tracer.install(t, "fakepkg", {"linalg": None, "hessians": ["other"]})
        self.assertEqual(sorted(t.summary()), ["linalg.rank"])


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        got = run.tail([float(i) for i in range(20)])
        self.assertEqual(got, {"value": 9.0, "percentile": 50.0, "beyond": 10, "samples": 20})

    def test_short_run_has_no_tail(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), {"value": None, "samples": 3})


def _report(seed: int, segments: list[float], calibration: list[float]) -> "run.Report":
    return run.Report("r", seed, cpu_s=0.0, segments_s=segments, calibration_s=calibration)


class QuietTimeTest(unittest.TestCase):
    def test_fastest_segment_of_each_report(self):
        reports = [_report(1, [1.0, 5.0], [0.01, 0.03]), _report(1, [3.0, 2.0], [0.02, 0.01]),
                   _report(2, [4.0], [0.05, 0.05])]
        quiet = run.report_time(reports)
        self.assertEqual((quiet.raw_s, quiet.samples, quiet.unaligned), (3.0 + 4.0, 1, []))
        reference = run.REFERENCE_CALIBRATION_S
        self.assertAlmostEqual(quiet.norm_s, 3.0 * reference / 0.02 + 4.0 * reference / 0.1)

    def test_lead_in_and_segments_that_do_not_line_up(self):
        calibration = [run.REFERENCE_CALIBRATION_S]
        runs = [(0.5, [1.0, 5.0], calibration), (0.25, [4.0], calibration),
                (0.75, [2.0, 3.0], calibration)]
        quiet = run.quiet_time({"set-up": runs})
        self.assertEqual((quiet.raw_s, quiet.samples, quiet.unaligned),
                         (0.5 + 1.0 + 3.0, 2, ["set-up"]))
        self.assertAlmostEqual(quiet.norm_s, quiet.raw_s)


def _four_cycle_report(seed: int) -> dict:
    from mixedhess import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["analyze", str(HERE.parent / "samples" / "four_cycle.poly"),
                         "--seed", str(seed)])
    assert code == 0
    return json.loads(buf.getvalue())


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.report = _four_cycle_report(5)

    def test_accepts_the_real_report(self):
        self.assertEqual(oracle.check("four-cycle", self.report, 5), [])

    def test_rejects_a_tampered_verdict(self):
        bad = copy.deepcopy(self.report)
        bad["result"]["wlp"]["holds"] = True
        self.assertTrue(oracle.check("four-cycle", bad, 5))

    def test_rejects_a_tampered_hilbert_function(self):
        bad = copy.deepcopy(self.report)
        bad["result"]["hilbert"] = [1, 8, 9, 1]
        self.assertTrue(oracle.check("four-cycle", bad, 5))

    def test_rejects_a_weakened_certificate(self):
        bad = copy.deepcopy(self.report)
        bad["result"]["wlp"]["mode"] = "probabilistic"
        problems = oracle.check("four-cycle", bad, 5)
        self.assertEqual(len(problems), 1)
        self.assertIn("exact", problems[0])

    def test_rejects_a_missing_field_and_a_wrong_seed(self):
        bad = copy.deepcopy(self.report)
        del bad["result"]["quadrics"]
        self.assertTrue(oracle.check("four-cycle", bad, 5))
        self.assertTrue(oracle.check("four-cycle", self.report, 6))


if __name__ == "__main__":
    unittest.main()
