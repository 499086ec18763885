"""Fast self-test of the benchmark at tiny sizes (``--quick``).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that BENCHMARK.json and rationale.json agree, that every
declared metric is printed with its unit on every workload, that each
correctness check fails when its reference is tampered with, that a
different seed changes the inputs but not the metric names, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, make_work_dir, remove_work_dir, require_program  # noqa: E402

WORKLOADS = ("campaign-o2", "serve-mixed", "lint-attack")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(name: str) -> dict:
    path = os.path.join(ROOT if name == "BENCHMARK.json" else HERE, name)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    """One quick run; returns ``(returncode, report, result)``."""
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        return out.returncode, None, out.stderr
    return (out.returncode, json.loads(lines[-2])["report"],
            json.loads(lines[-1]))


class Declarations(unittest.TestCase):
    """BENCHMARK.json follows its schema and rationale.json covers it."""

    def test_schema(self):
        bench = load("BENCHMARK.json")
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end",
                                      "per_layer"})
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(WORKLOADS))
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in bench[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names + list(WORKLOADS):
            self.assertRegex(name, NAME_RE)
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(metric["unit"], UNIT_RE)
            self.assertIn(metric["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_rationale_covers_every_metric(self):
        bench, rationale = load("BENCHMARK.json"), load("rationale.json")
        self.assertEqual(set(rationale["workloads"]), set(WORKLOADS))
        for metric in bench["end_to_end"]:
            self.assertEqual(set(rationale["end_to_end"][metric["name"]]),
                             set(WORKLOADS), metric["name"])
        rows = {row["layer"]: row for row in rationale["predictions"]}
        self.assertEqual(set(rows), {m["name"] for m in bench["per_layer"]})
        e2e = {m["name"] for m in bench["end_to_end"]}
        for row in rows.values():
            self.assertTrue(set(row["moves"]) <= e2e, row)
            self.assertTrue(row["workloads"]
                            and set(row["workloads"]) <= set(WORKLOADS), row)


class Printed(unittest.TestCase):
    """Every declared metric is printed with its unit; seeds change
    inputs, never metric names."""

    @classmethod
    def setUpClass(cls):
        cls.bench = load("BENCHMARK.json")
        cls.rationale = load("rationale.json")
        cls.runs = {(w, seed, trace): run_bench(w, seed, trace)
                    for w in WORKLOADS
                    for seed, trace in ((1, 0), (2, 0), (3, 1))}

    def check_result(self, workload, seed, trace):
        rc, report, result = self.runs[(workload, seed, trace)]
        self.assertEqual(rc, 0, f"{workload} seed {seed}: {result}")
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = self.bench["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for metric in declared:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"])
            self.assertIsInstance(printed["value"], float)
        stamp = report["provenance"]
        self.assertEqual(stamp["run"], "quick")
        self.assertEqual(stamp["seed"], seed)
        for key in ("commit", "dirty", "python", "numpy", "nproc"):
            self.assertIn(key, stamp)
        return report, result

    def test_end_to_end_metrics_printed(self):
        for workload in WORKLOADS:
            for seed in (1, 2):
                report, result = self.check_result(workload, seed, 0)
                for value in result["metrics"].values():
                    self.assertGreater(value["value"], 0.0)
                for name in self.rationale["user_metrics"][workload]:
                    named = report["named"][name]
                    self.assertIn("unit", named)
                    self.assertGreaterEqual(named["samples"], 1)

    def test_per_layer_metrics_printed(self):
        rows = {r["layer"]: r for r in self.rationale["predictions"]}
        for workload in WORKLOADS:
            report, _ = self.check_result(workload, 3, 1)
            measured = {m["name"] for m in self.bench["per_layer"]
                        } - set(report["bypassed_layers"])
            expected = {name for name, row in rows.items()
                        if workload in row["workloads"]}
            self.assertEqual(measured, expected, workload)

    def test_seed_changes_inputs_not_names(self):
        for workload in WORKLOADS:
            _, one, r1 = self.runs[(workload, 1, 0)]
            _, two, r2 = self.runs[(workload, 2, 0)]
            self.assertNotEqual(one["inputs_digest"], two["inputs_digest"])
            self.assertEqual(list(r1["metrics"]), list(r2["metrics"]))
            self.assertEqual(set(one["named"]), set(two["named"]))


class Tampered(unittest.TestCase):
    """Each correctness check fails on a tampered reference."""

    @classmethod
    def setUpClass(cls):
        require_program()
        cls.work = make_work_dir("selftest")

    @classmethod
    def tearDownClass(cls):
        remove_work_dir(cls.work)

    def test_campaign_verdicts(self):
        import wl_campaign
        from repro.campaign import run_campaign

        spec = wl_campaign.make_spec(7, wl_campaign.QUICK_COUNT)
        cold = run_campaign(spec, out_dir=os.path.join(self.work, "cold"))
        warm = run_campaign(
            spec.with_(cache_dir=os.path.join(self.work, "cold", "memo")),
            out_dir=os.path.join(self.work, "warm"))
        self.assertEqual(wl_campaign.check_round(0, spec, cold, warm), [])
        lines = cold.verdict_lines()
        h, verdict = lines[0].split(" ", 1)
        flipped = "failed" if verdict != "failed" else "verified"
        tampered = [f"{h} {flipped}"] + lines[1:]
        self.assertTrue(wl_campaign.compare_verdicts("t", lines, tampered))
        cold.verdicts[h] = flipped  # the cold run "reported" a failure
        cold.failed += 1
        problems = wl_campaign.check_round(0, spec, cold, warm)
        self.assertTrue(any("warm vs cold" in p for p in problems))
        self.assertTrue(any("scalar" in p for p in problems))
        self.assertTrue(any("failed verdict" in p for p in problems))

    def test_serve_responses(self):
        import wl_serve

        sources, legacy = wl_serve.make_pool(7, quick=True)
        entries, reference = [], {}
        for op in ("refine", "refine-legacy", "lint", "optimize"):
            key = wl_serve.reference_key(op, sources[0])
            reference[(op, 0)] = key
            entries.append((op, 0, 0.01, key, False, "", 0.0))
        self.assertEqual(wl_serve.check_responses(entries, reference), [])
        line = reference[("refine", 0)][1][0]
        h, verdict = line.split(" ", 1)
        reference[("refine", 0)] = (
            "refine", (f"{h} {'failed' if verdict != 'failed' else 'verified'}",))
        self.assertEqual(len(wl_serve.check_responses(entries, reference)), 1)
        errored = [entries[2][:5] + ("queue-full", 0.0)]
        self.assertTrue(wl_serve.check_responses(errored, reference))

    def test_attack_taxonomy_and_bundles(self):
        import wl_attack
        from repro.campaign import run_attack

        spec = next(wl_attack.round_specs(7, 6))
        first = run_attack(spec, out_dir=os.path.join(self.work, "a"))
        second = run_attack(spec, out_dir=os.path.join(self.work, "b"))
        self.assertEqual(wl_attack.check_round(0, first, second), [])
        lines = first.taxonomy_lines()
        rule, counts = lines[0].split(" ", 1)
        tampered = [f"{rule} tp=999 {counts}"] + lines[1:]
        self.assertTrue(wl_attack.compare_taxonomy("t", lines, tampered))
        if first.disagreements:
            for path in first.bundle_paths:
                shutil.rmtree(path)
            problems = wl_attack.check_round(0, first, second)
            self.assertTrue(any("no bundle" in p for p in problems))


class WithoutProgram(unittest.TestCase):
    """Only BENCHMARK.json and perfbench/: exit nonzero, print no result."""

    def test_refuses(self):
        work = make_work_dir("bare")
        try:
            bare = os.path.join(work, "bare")
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            out = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", "campaign-o2", "--seed", "1", "--seconds",
                 "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            remove_work_dir(work)


if __name__ == "__main__":
    unittest.main(verbosity=2)
