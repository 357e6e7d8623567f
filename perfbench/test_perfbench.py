#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark the way run.py does, then checks on short runs that
  * every workload prints every metric BENCHMARK.json names, with its
    unit, in the untraced and in the traced run (end-to-end values > 0);
  * a corrupted reference answer fails the output check: nonzero exit,
    "correct": false, every request counted as failed; a reference that
    lists fewer points than the pool fails the run before any request;
  * in a traced run's span dump every span lies inside its parent,
    siblings do not overlap, and the layers' self times plus the residual
    add up to each request's wall time; the residual — the self time of
    the root and of "backend.optimize", which are no layer — equals the
    one the driver dumped per request and the one the run reports.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build and command line)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    CONFIG = json.load(handle)

SECONDS = 2
BUILD = ""
# Spans that are no layer: their self time is the residual.
FRAMES = ("request", "backend.optimize")


def setUpModule():
    global BUILD
    BUILD = run.build()


def drive(workload, trace, reference=None):
    """Runs the driver; returns (exit code, result, meta, stderr)."""
    command = run.driver_command(BUILD, workload, 3, SECONDS, trace, reference)
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(f"{workload}: no result line\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2])["meta"], proc.stderr


class MetricsTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in [entry["name"] for entry in CONFIG["workloads"]]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, _, stderr = drive(workload, trace)
                    self.assertEqual(code, 0, stderr)
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    units = {entry["name"]: entry["unit"] for entry in CONFIG[section]}
                    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
                    self.assertEqual(printed, units)
                    if section == "end_to_end":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)


def rewrite_reference(workload, edit):
    """A copy of the committed references with `edit(lines)` applied to one
    workload's answer lines; returns its directory."""
    copy = os.path.join(BUILD, "test-reference")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(os.path.join(run.HERE, "reference"), copy)
    path = os.path.join(copy, workload + ".ref")
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = [line for line in lines if line.startswith("#")]
    answers = edit([line for line in lines if not line.startswith("#")])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(header + answers) + "\n")
    return copy


class ReferenceTest(unittest.TestCase):
    def test_corrupted_reference_fails_the_output_check(self):
        def off_by_one(lines):
            edited = []
            for line in lines:
                fields = line.split()
                if fields[1] != "excluded":
                    fields[2] = str(int(fields[2]) + 1)
                edited.append(" ".join(fields))
            return edited

        code, result, _, _ = drive("pack", 0, reference=rewrite_reference("pack", off_by_one))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])

    def test_truncated_reference_fails_the_run(self):
        reference = rewrite_reference("pack-power", lambda lines: lines[:-1])
        command = run.driver_command(BUILD, "pack-power", 3, SECONDS, 0, reference)
        proc = subprocess.run(command, capture_output=True, text=True, timeout=600, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("the pack-power pool has", proc.stderr)


def residual_share(spans):
    """The residual share of one request's span tree, in %: the self time
    of the spans in FRAMES over the root's wall time."""
    children = [0] * len(spans)
    for span in spans[1:]:
        children[span["parent"]] += span["end_ns"] - span["start_ns"]
    residual = sum(
        s["end_ns"] - s["start_ns"] - children[i] for i, s in enumerate(spans) if s["name"] in FRAMES
    )
    return 100.0 * residual / (spans[0]["end_ns"] - spans[0]["start_ns"])


class SpanTreeTest(unittest.TestCase):
    def test_backend_self_time_counts_as_residual(self):
        # 100 ns of request wall time: 20 in the root alone, 20 in a layer,
        # and a 60 ns backend.optimize of which a walker covers 45, so the
        # backend's uncovered 15 ns join the root's 20 in the residual.
        spans = [
            {"name": "request", "start_ns": 0, "end_ns": 100, "parent": -1},
            {"name": "wrapper.table_build", "start_ns": 10, "end_ns": 30, "parent": 0},
            {"name": "backend.optimize", "start_ns": 30, "end_ns": 90, "parent": 0},
            {"name": "walker:lpt", "start_ns": 40, "end_ns": 85, "parent": 2},
        ]
        self.assertEqual(residual_share(spans), 35.0)

    def test_self_times_and_residual_add_up_to_wall_time(self):
        for workload in ("sweep", "pack-power", "serve-hot"):
            with self.subTest(workload=workload):
                code, result, meta, stderr = drive(workload, 1)
                self.assertEqual(code, 0, stderr)
                shares = []
                backend_self_ns = 0
                with open(meta["spans"], encoding="utf-8") as handle:
                    for line in handle:
                        request = json.loads(line)
                        spans = request["spans"]
                        backend_self_ns += self.check_tree(spans)
                        share = residual_share(spans)
                        wall = spans[0]["end_ns"] - spans[0]["start_ns"]
                        self.assertAlmostEqual(100.0 * request["residual_ns"] / wall, share, places=9)
                        shares.append(share)
                self.assertTrue(shares)
                if workload != "serve-hot":
                    # The cold requests' backends do work outside the engine's
                    # spans, and the driver counted it in the residual above.
                    self.assertGreater(backend_self_ns, 0)
                reported = result["metrics"]["trace.residual_pct"]["value"]
                self.assertAlmostEqual(statistics.median(shares), reported, places=6)

    def check_tree(self, spans):
        """Asserts the tree's shape and that the self times add up to the
        wall time; returns the self time of backend.optimize."""
        root = spans[0]
        self.assertEqual(root["parent"], -1)
        wall = root["end_ns"] - root["start_ns"]
        covered = [0] * len(spans)
        last_end = {}
        for index, span in enumerate(spans[1:], start=1):
            parent_index = span["parent"]
            self.assertTrue(0 <= parent_index < index)
            parent = spans[parent_index]
            self.assertLessEqual(parent["start_ns"], span["start_ns"])
            self.assertLessEqual(span["start_ns"], span["end_ns"])
            self.assertLessEqual(span["end_ns"], parent["end_ns"])
            self.assertGreaterEqual(span["start_ns"], last_end.get(parent_index, parent["start_ns"]))
            last_end[parent_index] = span["end_ns"]
            covered[parent_index] += span["end_ns"] - span["start_ns"]
        self_times = [s["end_ns"] - s["start_ns"] - covered[i] for i, s in enumerate(spans)]
        self.assertTrue(all(t >= 0 for t in self_times))
        self.assertEqual(sum(self_times), wall)
        return sum(t for t, s in zip(self_times, spans) if s["name"] == "backend.optimize")


if __name__ == "__main__":
    unittest.main()
