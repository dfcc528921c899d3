#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds das_perfbench (through run.py), runs every workload traced for the
shortest run it makes (one untraced and one traced pass, about 40 s in
all), and checks that:

  * the spans nest: each event-loop span lies inside its cell's run span,
    and the drills (calls into pfs, grid, kernels and traffic made to time
    those layers) lie outside every run span;
  * every per-layer metric BENCHMARK.json names is printed, both on the
    `name value unit` lines and in the JSON result, and the layers that do
    their work on a workload report it there;
  * every simulated result matched its check.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's build step)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)

RUN_LAYERS = {"core"}
DRILL_LAYERS = {"pfs", "grid", "kernels", "traffic"}

# Metrics each workload must report as non-zero: its layers' work.
MUST_WORK = {
    "paper-matrix": ["simkit.events", "simkit.loop_s", "core.run_s",
                     "core.offloads", "pfs.create_file_s",
                     "pfs.create_file_mib", "pfs.remote_reads", "net.msgs",
                     "net.srv_srv_gib", "net.nic_util", "storage.disk_util"],
    "data-verify": ["cache.hits", "cache.evictions", "pfs.prefetch_issued",
                    "grid.make_input_s", "grid.mib_per_s",
                    "kernels.flow-routing.mcells_per_s",
                    "kernels.gaussian-2d.mcells_per_s",
                    "kernels.reference_s"],
    "tenant-storm": ["traffic.reads", "traffic.hedges", "traffic.reroutes",
                     "traffic.wasted_gib", "telemetry.spans",
                     "telemetry.slo_alerts", "span.disk_s",
                     "net.cli_srv_gib"],
}


def traced_run(binary, workload, out_dir):
    result = subprocess.run(
        [binary, "--workload=" + workload, "--seconds=1", "--trace=1",
         "--records=" + os.path.join(HERE, "records"), "--out=" + out_dir],
        capture_output=True, text=True, check=True)
    lines = result.stdout.strip().splitlines()
    with open(os.path.join(
            out_dir, "trace-%s-20120901.json" % workload)) as f:
        trace = json.load(f)
    return lines, json.loads(lines[-1]), trace["traceEvents"]


class TracedRuns(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        binary = run.build()
        out_dir = os.path.join(run.build_dir(), "test-out")
        os.makedirs(out_dir, exist_ok=True)
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            cls.runs[workload] = traced_run(binary, workload, out_dir)

    def test_spans_nest(self):
        for workload, (_, _, events) in self.runs.items():
            spans = [e for e in events if e["ph"] == "X"]
            runs = [s for s in spans if s["cat"] in RUN_LAYERS]
            loops = [s for s in spans if s["name"] == "simkit.loop"]
            drills = [s for s in spans if s["cat"] in DRILL_LAYERS]
            with self.subTest(workload=workload):
                self.assertTrue(runs and loops and drills)
                self.assertEqual(len(loops), len(runs))
                for loop in loops:
                    parents = [r for r in runs
                               if r["args"]["cell"] == loop["args"]["cell"]
                               and r["ts"] <= loop["ts"]
                               and loop["ts"] + loop["dur"]
                               <= r["ts"] + r["dur"]]
                    self.assertEqual(len(parents), 1, loop)
                for drill in drills:
                    for r in runs:
                        overlap = (drill["ts"] < r["ts"] + r["dur"]
                                   and r["ts"] < drill["ts"] + drill["dur"])
                        self.assertFalse(overlap, (drill, r))

    def test_every_layer_metric_is_reported(self):
        names = [m["name"] for m in BENCHMARK["per_layer"]]
        for workload, (lines, result, _) in self.runs.items():
            printed = {line.split()[0] for line in lines[:-1] if line}
            with self.subTest(workload=workload):
                self.assertEqual(set(result["metrics"]), set(names))
                self.assertFalse(set(names) - printed)
                for name in MUST_WORK[workload]:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)
                self.assertGreater(
                    result["metrics"]["bench.trace_overhead"]["value"], 0)

    def test_results_are_correct(self):
        for workload, (_, result, _) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
