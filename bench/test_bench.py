"""Tests of the benchmark itself: span arithmetic, seeded inputs, oracles, and
negative controls showing that the correctness gate is live.

    python3 -m unittest discover -s bench
"""

import dataclasses
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import scatstair.cli  # noqa: E402
from scatstair import scattering  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SpanArithmetic(unittest.TestCase):
    def test_self_time_of_nested_tree(self):
        # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9] and c [8,9.5],
        # whose overlap is covered once.
        spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 9.0, 0), (8.0, 9.5, 0)]
        start, end, parent = zip(*spans)
        self.assertEqual(tracing.self_times(start, end, parent), [2.5, 2.0, 1.0, 4.0, 1.5])

    def test_child_outside_parent_is_clipped(self):
        self.assertEqual(tracing.self_times((0.0, 1.0), (2.0, 3.0), (-1, 0)), [1.0, 2.0])

    def test_tracer_records_and_restores(self):
        original = scattering.ks_complete
        diagram = scattering.initial_diagram([((1, 0), 1), ((0, 1), 1)], 4)
        with tracing.Tracer() as tracer:
            scattering.ks_complete(diagram)
        self.assertIs(scattering.ks_complete, original)
        summary = tracing.summarize(tracer)
        self.assertEqual(summary["scattering.ks_complete.calls"], 1)
        # the pentagon: two incoming seeds, their outgoing halves and the ray (1,1)
        self.assertEqual(summary["scattering.walls_out"], 5)
        self.assertGreater(summary["series.mul.calls"], 0)
        for i, parent in enumerate(tracer.parent):
            self.assertLessEqual(tracer.start[i], tracer.end[i])
            if parent >= 0:
                self.assertLessEqual(tracer.start[parent], tracer.start[i])
                self.assertLessEqual(tracer.end[i], tracer.end[parent])
        total = summary["scattering.ks_complete.total_s"]
        selfs = sum(v for k, v in summary.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(total, selfs, delta=1e-9 + 1e-6 * total)


class SeededInputs(unittest.TestCase):
    def items(self, name, seed):
        return {t.name: t.items for t in workloads.build(name, seed).tasks if isinstance(t, workloads.FnTask)}

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(self.items(name, 7), self.items(name, 7))
        self.assertNotEqual(self.items("scatter_wide", 7), self.items("scatter_wide", 8))
        self.assertNotEqual(self.items("staircase", 7), self.items("staircase", 8))

    def test_every_cli_task_has_a_golden_digest(self):
        golden = workloads.load_golden()
        for name in workloads.WORKLOADS:
            for task in workloads.build(name, 1).timed:
                if isinstance(task, workloads.CliTask):
                    self.assertIn(workloads.argv_key(task.argv), golden)


class Oracles(unittest.TestCase):
    def test_reineke_m2_is_geometric(self):
        # (1 + tx)^2, (1 + ty)^2 give f_(1,1) = (1 - t^2 xy)^(-4)
        self.assertEqual(workloads.reineke_diagonal(2, 9), {0: 1, 1: 4, 2: 10, 3: 20, 4: 35})

    def test_ball_value_at_corners(self):
        fib = workloads.fib
        self.assertEqual([fib(i) for i in range(-1, 7)], [1, 0, 1, 1, 2, 3, 5, 8])
        for k in range(-1, 6):
            outer = Fraction(fib(2 * k + 5), fib(2 * k + 1))
            self.assertEqual(workloads.ball_value(outer), Fraction(fib(2 * k + 5), fib(2 * k + 3)))
        self.assertEqual(workloads.ball_value(Fraction(34, 5)), Fraction(34, 13))

    def test_tau4_threshold(self):
        self.assertFalse(workloads.above_tau4(Fraction(89, 13)))
        self.assertTrue(workloads.above_tau4(Fraction(7)))


class NegativeControls(unittest.TestCase):
    """A live gate passes the real outputs and fails a corrupted one."""

    def error_rate(self, tasks, executor, golden):
        tally = run.Tally()
        run.run_pass(tasks, executor, golden, tally)
        return len(tally.failures) / tally.attempted, tally

    def test_corrupted_golden_digest(self):
        wl = workloads.build("staircase", 1)
        executor = workloads.SubprocessExecutor(BENCH.parent / "src")
        golden = workloads.load_golden()
        rate, _ = self.error_rate(wl.timed, executor, golden)
        self.assertEqual(rate, 0)
        key = workloads.argv_key(next(t for t in wl.timed if t.name == "mutate_orbit").argv)
        golden[key] = "0" * 64
        rate, tally = self.error_rate(wl.timed, executor, golden)
        self.assertGreater(rate, 0)
        self.assertEqual([(f.task, f.kind) for f in tally.failures], [("mutate_orbit", "digest")])

    def test_flipped_classifier_in_cross_check(self):
        real = scatstair.cli.classify_pair

        def flipped(p, q):
            result = real(p, q)
            if (p, q) == (2, 1):
                result = dataclasses.replace(result, verdict="not_realizable")
            return result

        wl = workloads.build("scatter_deep", 1)
        with mock.patch.object(scatstair.cli, "classify_pair", flipped):
            rate, tally = self.error_rate(wl.timed, workloads.InProcessExecutor(), workloads.load_golden())
        self.assertGreater(rate, 0)
        self.assertEqual([f.task for f in tally.failures], ["verify_20"])


if __name__ == "__main__":
    unittest.main()
