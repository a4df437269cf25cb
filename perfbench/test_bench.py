"""Self-tests for the benchmark's own code.

    python3 perfbench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys
import tempfile
import unittest

import hostspeed
import run
import tracing
import workloads

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


class PercentileTest(unittest.TestCase):
    def test_known_answers(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(run.percentile([7], 0.9), 7)
        self.assertAlmostEqual(run.percentile(range(1, 11), 0.9), 9.1)
        self.assertEqual(run.percentile([3, 1, 2], 0.0), 1)
        self.assertEqual(run.percentile([3, 1, 2], 1.0), 3)
        self.assertEqual(run.percentile([5, 1, 9], 0.5), 5)

    def test_empty_sample_rejected(self):
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)


class HostSpeedTest(unittest.TestCase):
    def test_factor_uses_samples_near_the_interval(self):
        speed = hostspeed.HostSpeed()
        self.assertEqual(speed.factor(0.0, 1.0), 1.0)
        speed.times = [0.0, 1.0, 5.0, 6.0]
        speed.costs = [0.002, 0.002, 0.0005, 0.0005]
        ref = hostspeed.REFERENCE_PASS_S
        self.assertAlmostEqual(speed.factor(0.2, 0.8), ref / 0.002)
        self.assertAlmostEqual(speed.factor(5.2, 5.4), ref / 0.0005)
        self.assertAlmostEqual(speed.factor(2.0, 3.0), ref / 0.00125)
        self.assertAlmostEqual(speed.normalised((0.2, 0.8, 0.6)),
                               0.6 * ref / 0.002)

    def test_handler_time_is_excluded(self):
        speed = hostspeed.HostSpeed()
        mark = speed.mark()
        speed._sample(None, None)
        _t0, _t1, net = speed.interval(mark)
        self.assertLess(net, speed.costs[0])
        self.assertEqual(len(speed.times), 1)


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3];
        # a inner a [6, 8] sits inside d
        tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 8,
                                                 9, 10]))
        tracer.enter("a")
        tracer.enter("b")
        tracer.enter("c")
        tracer.exit()
        tracer.exit()
        tracer.enter("d")
        tracer.enter("a")
        tracer.exit()
        tracer.exit()
        tracer.exit()
        want = {"a": 3 + 2, "b": 2, "c": 1, "d": 2}
        self.assertEqual({k: v[1] for k, v in tracer.stats.items()}, want)
        self.assertEqual(tracing.self_times(tracer.records), want)
        self.assertEqual(tracer.stats["a"][0], 2)

    def test_generator_is_one_call(self):
        tracer = tracing.Tracer(clock=FakeClock(range(100)))

        def gen():
            yield 1
            yield 2

        wrapped = tracing._span_wrapper(tracer, "g", gen)
        self.assertEqual(list(wrapped()), [1, 2])
        self.assertEqual(tracer.stats["g"], [1, 3])  # three 1-tick resumes


class BindingTest(unittest.TestCase):
    def test_spans_cover_every_binding_and_uninstall(self):
        fk = sys.modules["fusionkit"]
        original = fk.groups.all_subgroups
        tracer = tracing.Tracer()
        patches = tracing.install_spans(tracer)
        try:
            for mod in (fk, fk.fusion, fk.constructions):
                self.assertIsNot(mod.all_subgroups, original)
            S = fk.cyclic_group(4).full()
            fk.constructions.all_subgroups(S)
            fk.Subgroup.generator_ids(S)
        finally:
            tracing.uninstall(patches)
        for mod in (fk, fk.groups, fk.fusion, fk.constructions):
            self.assertIs(mod.all_subgroups, original)
        self.assertEqual(tracer.stats["groups.all_subgroups"][0], 1)
        self.assertGreaterEqual(
            tracer.stats["groups.Subgroup.generator_ids"][0], 1)


def _small_jobs(seed, workdir):
    """The four S6@3 jobs of one round, once each."""
    ops = workloads.TransporterJobs(seed, workdir).round(random.Random(0))
    return list({op.key: op for op in ops
                 if op.key.startswith("S6@3:")}.values())


class OracleTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=run.OUT_DIR)
        self.expected = workloads.load_expected()["transporter_jobs"]

    def tearDown(self):
        self.tmp.cleanup()

    def test_answers_hold_under_relabelling(self):
        for seed in (1, 2):
            tally = run.Tally(hostspeed.HostSpeed())
            run.run_ops(_small_jobs(seed, self.tmp.name), self.expected,
                        tally)
            self.assertEqual((tally.attempted, tally.failed), (4, 0))

    def test_corrupted_answer_raises_failed_ratio(self):
        bad = copy.deepcopy(self.expected)
        bad["S6@3:build"]["cards"][0][1] += 1
        tally = run.Tally(hostspeed.HostSpeed())
        run.run_ops(_small_jobs(1, self.tmp.name), bad, tally)
        self.assertEqual(tally.failed / tally.attempted, 0.25)

    def test_perm_counts_repeat(self):
        seen = []
        for _ in range(2):
            counts: dict = {}
            patches = tracing.install_counters(counts)
            try:
                run.run_ops(_small_jobs(3, self.tmp.name), self.expected,
                            run.Tally(hostspeed.HostSpeed()))
            finally:
                tracing.uninstall(patches)
            seen.append(counts)
        self.assertEqual(seen[0], seen[1])
        self.assertGreater(seen[0]["perms.conjugate.calls"], 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(
            {w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            run.per_layer_units())


if __name__ == "__main__":
    unittest.main()
