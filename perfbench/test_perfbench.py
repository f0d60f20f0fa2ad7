"""Tests of the benchmark itself: inputs, metric names, failure counting.

Run with ``python3 -m pytest perfbench`` or ``python3 -m unittest
discover perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
import unittest
from itertools import islice
from pathlib import Path

import run
import workloads
from layertrace import Tracer

workloads.import_engine()

from sp4eis.localrules import UncoveredKey, load_rules  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def first_passes(wl, seed: int, n: int = 3) -> list:
    return list(islice(wl.passes(seed), n))


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for cls in workloads.WORKLOADS.values():
            wl = cls()
            self.assertEqual(first_passes(wl, 7), first_passes(wl, 7), cls.name)
            self.assertEqual(wl.unit(7), wl.unit(7), cls.name)

    def test_different_seed_different_sweep_sample(self):
        wl = workloads.Sweep()
        a = {key for keys in first_passes(wl, 7) for key in keys}
        b = {key for keys in first_passes(wl, 8) for key in keys}
        self.assertNotEqual(a, b)

    def test_pass_make_up_does_not_depend_on_seed(self):
        grids, numeric, sweep = workloads.Grids(), workloads.Numeric(), workloads.Sweep()
        for wl in (grids, numeric):
            self.assertEqual(sorted(first_passes(wl, 1)[0]), sorted(first_passes(wl, 2)[0]))
        cells = lambda keys: sorted(k[:3] for k in keys)  # noqa: E731
        self.assertEqual(cells(first_passes(sweep, 1)[0]), cells(first_passes(sweep, 2)[0]))
        self.assertEqual(sorted(sweep.unit(1)), sorted(sweep.unit(2)))

    def test_every_input_has_a_reference(self):
        sweep = workloads.Sweep()
        self.assertEqual(len(sweep.space()), 2910)
        self.assertEqual(set(sweep.space()), set(sweep.reference()))
        self.assertEqual(set(workloads.Grids().keys), set(workloads.Grids().reference()))
        numeric = workloads.Numeric()
        self.assertTrue(set(first_passes(numeric, 1)[0]) <= set(numeric.reference()))


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_names_are_well_formed(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_runner_reports_exactly_the_declared_metrics(self):
        e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        produced = run.layer_metrics({}, Tracer().counters, 0, 1.0)
        layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(set(layer), set(produced))
        for name, unit in layer.items():
            self.assertEqual(unit, run.layer_unit(name), name)
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(workloads.WORKLOADS))


class FailureCountingTest(unittest.TestCase):
    def test_corrupted_rule_table_fails_grids(self):
        source = workloads.SRC / "sp4eis" / "data" / "local_rules.txt"
        text = source.read_text(encoding="utf-8")
        # move the Heisenberg finite-place Steinberg pole from s=-2 to s=-3
        row = "pole|heisenberg|s,c2s,sc2s|nonarch|trivial|eq:-2|"
        self.assertIn(row, text)
        tmp = Path(tempfile.mkdtemp())
        try:
            corrupt = tmp / "local_rules.txt"
            corrupt.write_text(text.replace(row, row.replace("eq:-2", "eq:-3")), encoding="utf-8")
            tally = run.run_timed(workloads.Grids(), 1, 0, rules=load_rules(corrupt))
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(tally.attempted, 75)
        self.assertGreater(tally.failed / tally.attempted, 0)

    def test_shipped_rule_table_passes_grids(self):
        tally = run.run_timed(workloads.Grids(), 1, 0)
        self.assertEqual((tally.attempted, tally.failed), (75, 0))

    def test_expected_typed_errors_are_not_failures(self):
        wl = workloads.Sweep()
        points = [k for k, v in wl.reference().items() if v.startswith("error:")]
        self.assertTrue(points)
        tally = run.Tally()
        for key in points:
            tally.run_op(wl, key)
        self.assertEqual((tally.failed, tally.typed_errors), (0, len(points)))

    def test_unexpected_errors_are_failures(self):
        class Raising(workloads.Sweep):
            def __init__(self, exc):
                super().__init__()
                self.exc = exc

            def call(self, key, rules=None):
                raise self.exc

        report_point = next(k for k, v in workloads.Sweep().reference().items()
                            if not v.startswith("error:"))
        for exc in (UncoveredKey("not expected here"), ValueError("untyped")):
            tally = run.Tally()
            tally.run_op(Raising(exc), report_point)
            self.assertEqual((tally.attempted, tally.failed), (1, 1), repr(exc))


if __name__ == "__main__":
    unittest.main()
