"""Self-tests for the benchmark's own code.

Run from the root of a checkout::

    python3 perfbench/selftest.py

(``python3 -m pytest perfbench/selftest.py`` works too.)  The file is
not named ``test_*.py`` on purpose: the program's test suite does not
collect it.
"""

import array
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.core.types import CollisionAdvice  # noqa: E402
from repro.detectors.detector import CollisionDetector  # noqa: E402


class _DictDetector(CollisionDetector):
    """A detector with only the dict interface (defined before install)."""

    def advise(self, round_index, broadcasters, received_counts):
        return {pid: CollisionAdvice.NULL for pid in received_counts}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(metrics.percentile(range(1, 101), 90), 90)
        self.assertIsNone(metrics.percentile(range(1, 100), 90))
        self.assertIsNone(metrics.percentile([], 50))

    def test_median_rank(self):
        self.assertEqual(metrics.percentile(range(1, 21), 50), 10)
        self.assertIsNone(metrics.percentile(range(1, 20), 50))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock=clock)

        def leaf():
            clock.now += 2.0

        traced_leaf = tracer.wrap("leaf", leaf)

        def middle():
            clock.now += 1.0
            traced_leaf()

        traced_middle = tracer.wrap("middle", middle)

        def root():
            clock.now += 1.0
            traced_middle()
            clock.now += 3.0
            traced_leaf()

        tracer.wrap("root", root)()
        merged = spans.merge(tracer)
        # root: 1 + (1 + 2) + 3 + 2 = 9, of which middle (3) and the
        # second leaf (2) are direct children.
        self.assertEqual(spans.seconds(merged, "root"), 9.0)
        self.assertEqual(spans.self_seconds(merged, "root"), 4.0)
        self.assertEqual(spans.seconds(merged, "middle"), 3.0)
        self.assertEqual(spans.self_seconds(merged, "middle"), 1.0)
        self.assertEqual(spans.calls(merged, "leaf"), 2)
        self.assertEqual(spans.self_seconds(merged, "leaf"), 4.0)

    def test_inactive_tracer_records_nothing(self):
        tracer = spans.Tracer()
        tracer.active = False
        tracer.wrap("x", lambda: None)()
        tracer.add("n", 1)
        self.assertEqual(spans.merge(tracer),
                         {"totals": {}, "counters": {}})

    def test_worker_files_merge_into_parent(self):
        with tempfile.TemporaryDirectory() as out:
            tracer = spans.Tracer(out)
            with open(os.path.join(out, "1.json"), "w") as fh:
                json.dump({"totals": {"a": [2, 1.5, 0.5]},
                           "counters": {"c": 3}}, fh)
            tracer.totals["a"] = [1, 1.0, 0.0]
            merged = spans.merge(tracer)
        self.assertEqual(merged["totals"]["a"], [3, 2.5, 0.5])
        self.assertEqual(merged["counters"], {"c": 3})


class OutermostOnly(unittest.TestCase):
    def setUp(self):
        self.tracer = spans.Tracer()
        self.patches = spans.install(self.tracer)

    def tearDown(self):
        spans.restore(self.patches)

    def test_composed_adversaries_count_once(self):
        from repro.adversary.loss import (
            ComposedLoss, EventualCollisionFreedom, IIDLoss,
        )

        adversary = ComposedLoss([
            EventualCollisionFreedom(IIDLoss(0.3, seed=1), r_cf=5),
        ])
        adversary.losses_for_round(1, [0, 1, 2], [0, 1, 2, 3])
        merged = spans.merge(self.tracer)
        self.assertEqual(spans.calls(merged, "loss.resolve"), 1)

    def test_default_advise_array_counts_once(self):
        # The base advise_array round-trips through the dict advise.
        _DictDetector().advise_array(1, 3, array.array("l", [3, 2, 3, 1]),
                                     (0, 1, 2, 3))
        merged = spans.merge(self.tracer)
        self.assertEqual(spans.calls(merged, "detector.advise"), 1)

    def test_restore_puts_originals_back(self):
        from repro.adversary.loss import IIDLoss
        from repro.core.records import SqliteSink

        wrapped = IIDLoss.__dict__["losses_for_round"]
        spans.restore(self.patches)
        original = IIDLoss.__dict__["losses_for_round"]
        self.assertIsNot(wrapped, original)
        self.assertFalse(hasattr(original, "__wrapped__"))
        self.assertFalse(hasattr(SqliteSink.__dict__["__call__"],
                                 "__wrapped__"))


class TracedCellPayloads(unittest.TestCase):
    def test_payloads_are_byte_identical(self):
        from repro.experiments.churn import churn_sweep_cell
        from repro.experiments.harness import consensus_sweep_cell

        cases = [
            (consensus_sweep_cell, {"n": 8, "detector": "maj-OAC",
                                    "loss_rate": 0.3, "values": 16}),
            (churn_sweep_cell, {"n": 6, "churn_rate": 0.3,
                                "topology": "ring", "values": 8}),
        ]
        plain = [json.dumps(fn(params, 17), sort_keys=True)
                 for fn, params in cases]
        with tempfile.TemporaryDirectory() as out:
            tracer = spans.Tracer(out)
            patches = spans.install(tracer)
            try:
                traced = [
                    json.dumps(spans.TracedCell(fn, tracer)(params, 17),
                               sort_keys=True)
                    for fn, params in cases
                ]
            finally:
                spans.restore(patches)
            self.assertTrue(os.path.exists(
                os.path.join(out, f"{os.getpid()}.json")))
            merged = spans.merge(tracer)
        self.assertEqual(plain, traced)
        self.assertGreater(spans.calls(merged, "engine.step"), 0)
        self.assertGreater(spans.calls(merged, "substrate.multihop"), 0)
        self.assertGreater(spans.calls(merged, "churn.events"), 0)


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        spec = metrics.spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names + list(metrics.ARROWS):
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertEqual(len(set(names)), len(names))


class GridGuard(unittest.TestCase):
    def test_every_workload_grid_is_distinct(self):
        for workload in workloads.WORKLOADS.values():
            with tempfile.TemporaryDirectory() as out:
                runner = workloads.make_runner(
                    workload, os.path.join(out, "c.db"),
                    workloads.DEFAULT_SEED)
                workloads.guard_grid(runner.cells(**workload.grid()))

    def test_colliding_seeds_are_refused(self):
        from repro.experiments import harness

        original = harness.cell_seed
        harness.cell_seed = lambda base_seed, **params: 7
        try:
            with tempfile.TemporaryDirectory() as out:
                workload = workloads.WORKLOADS["e18-small"]
                runner = workloads.make_runner(
                    workload, os.path.join(out, "c.db"), 0)
                with self.assertRaises(workloads.GridIdentityError):
                    workloads.guard_grid(runner.cells(**workload.grid()))
        finally:
            harness.cell_seed = original


if __name__ == "__main__":
    unittest.main()
