"""Self-tests of the benchmark's own output checks and tracer.

    python3 perfbench/selftest.py

A wrong output must count as a failed operation, and a hook whose name is
gone must be reported as not observed rather than abort the traced run.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".perfbench_runs")
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import HOOKS, LAYERS, Hooks, Tracer, layer_metrics  # noqa: E402
from worker import Tally, check_run, run_loop  # noqa: E402
from workloads import WORKLOADS, gap_reference  # noqa: E402


def fake_main(files: dict[str, str]):
    """An east-lab stand-in that writes ``files`` and a manifest into --out."""

    def main(argv):
        out = argv[argv.index("--out") + 1]
        os.makedirs(out, exist_ok=True)
        lines = ["version = 0", "status = ok"]
        for name, text in files.items():
            with open(os.path.join(out, name), "w") as fh:
                fh.write(text)
            lines.append(f"sha256.{name} = {hashlib.sha256(text.encode()).hexdigest()}")
        with open(os.path.join(out, "manifest.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return 0

    return main


def persistence_files(values: list[float], halfwidth: float = 0.01) -> dict[str, str]:
    rows = [f"{t},{v},{halfwidth}" for t, v in zip(range(1, len(values) + 1), values)]
    return {
        "persistence.csv": "t,value,halfwidth\n" + "\n".join(rows) + "\n",
        "persistence_fit.txt": "rate=0.4,prefactor=0.8,r_squared=0.99,fit_window=0:4\n",
    }


class LoopTest(unittest.TestCase):
    def run_workload(self, name: str, files: dict[str, str], reference=None) -> Tally:
        tally = Tally()
        with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
            walls, _, outs, _ = run_loop(fake_main(files), WORKLOADS[name], "unused.cfg", tmp,
                                      iter(range(10)), 0.0, reference, tally, lambda: 1.0)
            check_run(WORKLOADS[name], outs, reference, tally)
        self.assertEqual(len(walls), 1)
        return tally

    def test_valid_persistence_passes(self):
        values = [round(0.6 * 0.7**k, 4) for k in range(10)]
        tally = self.run_workload("persist-2d-wide", persistence_files(values), 10_000)
        self.assertEqual((tally.failed, tally.attempted), (0, 5))

    def test_persistence_without_exponential_decay_fails_fit(self):
        values = [0.9, 0.9, 0.9, 0.9, 0.9, 0.5, 0.1, 0.05, 0.01, 0.01]
        tally = self.run_workload("persist-2d-wide", persistence_files(values), 10_000)
        self.assertEqual(tally.failed, 1)
        self.assertIn("persistence_fit_pooled", tally.failures[0])

    def test_persistence_below_exp_bound_fails(self):
        values = [round(0.2 * 0.7**k, 4) for k in range(10)]  # F(1) + 3h < e^-1
        tally = self.run_workload("persist-2d-wide", persistence_files(values), 10_000)
        self.assertEqual(tally.failed, 1)
        self.assertIn("persistence_bound", tally.failures[0])

    def test_increasing_persistence_fails(self):
        values = [round(0.6 * 0.7**k, 4) for k in range(10)]
        values[9] = values[8] + 0.0001
        tally = self.run_workload("persist-2d-wide", persistence_files(values), 10_000)
        self.assertEqual(tally.failed, 1)
        self.assertIn("persistence_monotone", tally.failures[0])

    def gap_files(self, gaps: dict[int, float]) -> dict[str, str]:
        return {"gap.csv": "N,gap\n" + "".join(f"{n},{g!r}\n" for n, g in gaps.items())}

    def test_gap_table(self):
        import eastlab.cli

        config = eastlab.cli.parse_config(WORKLOADS["gap-1d"].config)
        ref = gap_reference(config)
        self.assertEqual(self.run_workload("gap-1d", self.gap_files(ref), ref).failed, 0)
        wrong = dict(ref)
        wrong[12] *= 1 + 1e-6
        tally = self.run_workload("gap-1d", self.gap_files(wrong), ref)
        self.assertEqual(tally.failed, 1)
        self.assertIn("gap_table", tally.failures[0])

    def test_missing_output_counts_as_failure(self):
        tally = self.run_workload("persist-2d-wide", {}, 10_000)
        self.assertEqual((tally.failed, tally.attempted), (4, 5))

    def test_nonzero_exit_counts_as_failure(self):
        tally = Tally()
        with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
            run_loop(lambda argv: 2, WORKLOADS["lemma-2d"], "unused.cfg", tmp, iter(range(10)),
                     0.0, 10, tally, lambda: 1.0)
        self.assertEqual((tally.failed, tally.attempted), (3, 3))


class MetricNamesTest(unittest.TestCase):
    def test_worker_emits_exactly_the_declared_layer_metrics(self):
        import json

        import run

        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = {m["name"] for m in json.load(fh)["per_layer"]}
        layers = {**layer_metrics(Tracer(), 1), "cli.bytes_written": 0, "trace.wall_s": 1,
                  "trace.overhead_s": 0, "trace.accounted_frac": 1, "trace.hooks_missing": 0}
        src_loc = {f"src_loc.{layer}": 1 for layer in LAYERS}
        self.assertEqual(set(layers) | set(src_loc), declared)
        self.assertEqual(set(run.metrics({"layers": layers, "env": src_loc}, 1)), declared)


class CalibrateTest(unittest.TestCase):
    def test_references_time_positive_in_process_and_in_child(self):
        from calibrate import IN_CHILD, REFERENCES, reference_timer

        for name in REFERENCES:
            with reference_timer(name) as timed:
                self.assertGreater(timed(), 0.0)
        self.assertTrue(IN_CHILD <= set(REFERENCES))


class TracerTest(unittest.TestCase):
    def test_missing_hook_reported_not_observed(self):
        import eastlab.sim

        original = eastlab.sim.simulate
        hooks = (("eastlab.sim", "no_such_function", "streams.gone"),
                 ("eastlab.sim", "simulate", "sim.simulate"))
        with Hooks(Tracer(), hooks) as h:
            self.assertIsNot(eastlab.sim.simulate, original)
        self.assertIs(eastlab.sim.simulate, original)
        self.assertEqual(h.missing, ["eastlab.sim.no_such_function"])
        self.assertNotIn("streams", h.observed)

    def test_all_hooks_present_at_this_commit(self):
        with Hooks(Tracer(), HOOKS) as h:
            pass
        self.assertEqual(h.missing, [])
        self.assertEqual(h.observed, set(LAYERS))

    def test_self_times_sum_to_root(self):
        tr = Tracer()
        leaf = tr.span("streams.leaf", lambda: time.sleep(0.01))
        mid = tr.span("sim.mid", lambda: [leaf() for _ in range(3)])
        root = tr.span("cli.main", lambda: (mid(), time.sleep(0.01)))
        start = time.perf_counter()
        root()
        total = time.perf_counter() - start
        m = layer_metrics(tr, 1)
        summed = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        self.assertAlmostEqual(summed, total, delta=1e-3)
        self.assertGreaterEqual(m["streams.self_s"], 0.03)
        self.assertLess(m["sim.self_s"], 0.005)


if __name__ == "__main__":
    os.makedirs(RUNS, exist_ok=True)
    unittest.main()
