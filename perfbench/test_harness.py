"""Self-test of the benchmark harness at reduced size.

Run from the root of the checkout:

    python3 -m unittest perfbench/test_harness.py

It runs every workload and the traced path once, checks the JSON line
against BENCHMARK.json, and shows that a wrong expected output, a wrong
table and a wrong decomposition each count as failures rather than passing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELFTEST_DIR = ROOT / ".perfbench" / "selftest"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, env=None, cwd=ROOT, script=HERE / "run.py") -> tuple[int, list[str], dict | None]:
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


class WorkloadPaths(unittest.TestCase):
    def test_every_workload_is_correct_and_reports_every_end_to_end_metric(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload):
                code, lines, result = bench("--workload", workload, "--trace", "0", "--smoke")
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), names)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric_and_self_times_add_up(self):
        names = {m["name"] for m in BENCHMARK["per_layer"]}
        for workload, chains in (("stabilize-chains", 462), ("betti-random", 0)):
            with self.subTest(workload=workload):
                code, lines, result = bench("--workload", workload, "--trace", "1", "--smoke")
                self.assertEqual(code, 0, "\n".join(lines))
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(set(metrics), names)
                layers = [m for m in metrics if m.endswith(".self_s") and "_" not in m.split(".")[0]]
                total = sum(metrics[m] for m in layers)
                record = json.loads(
                    (ROOT / ".perfbench" / "results" / f"{workload}-seed3-trace1.json").read_text()
                )["per_layer"]
                total += record["polynomials.self_s"] + record["stabilize.self_s"]
                self.assertAlmostEqual(total, metrics["trace.run_s"], places=6)
                self.assertEqual(metrics["decompose.chains_enumerated"], chains)
                self.assertEqual(metrics["stabilize.chain_search_visited"], chains)
                self.assertGreater(metrics["linalg.matrix_rank_calls"], 0)
                span_file = ROOT / ".perfbench" / "work" / workload / "spans.jsonl"
                spans = [json.loads(line) for line in span_file.read_text().splitlines()]
                self.assertEqual(sum(1 for s in spans if s["name"] == "harness.job"), result["attempted"] // 2)
                for span in spans:
                    self.assertLessEqual(span["start"], span["end"])
                    if span["parent"] >= 0:
                        parent = spans[span["parent"]]
                        self.assertLessEqual(parent["start"], span["start"])
                        self.assertLessEqual(span["end"], parent["end"])
                        self.assertEqual(parent["job"], span["job"])


class FailuresCount(unittest.TestCase):
    def test_wrong_frozen_report_counts_as_failed(self):
        wrong = SELFTEST_DIR / "wrong-expected"
        shutil.rmtree(wrong, ignore_errors=True)
        shutil.copytree(HERE / "expected", wrong)
        report = wrong / "stabilize-chains.report.json"
        report.write_text(report.read_text().replace('"certified_from": 4', '"certified_from": 5'))
        code, lines, result = bench("--workload", "stabilize-chains", "--trace", "0", "--smoke",
                                    "--expected", str(wrong))
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("frozen report" in line for line in lines), lines)

    def test_wrong_table_and_wrong_decomposition_are_caught(self):
        import reference_values as ref
        from bsdecomp import BettiTable, decomposition_to_json, greedy_decompose

        gens = [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1)]
        table = {pos: Fraction(v) for pos, v in ref.SMALL_TABLES[1].items()}
        self.assertEqual(workloads.oracle_table(5, gens), table)
        wrong_table = dict(table)
        wrong_table[(0, 2)] = Fraction(5)
        self.assertNotEqual(workloads.oracle_table(5, gens), wrong_table)

        decomposition = decomposition_to_json(greedy_decompose(BettiTable.from_entries(table)))
        workloads.check_greedy(decomposition, table)
        with self.assertRaises(workloads.Failure):
            workloads.check_greedy(decomposition, wrong_table)
        decomposition["terms"][0]["coefficient"] = str(Fraction(decomposition["terms"][0]["coefficient"]) + 1)
        with self.assertRaises(workloads.Failure):
            workloads.check_greedy(decomposition, table)

    def test_tampered_reference_values_are_caught(self):
        report = json.loads((HERE / "expected" / "stabilize-p5.report.json").read_text())
        workloads.check_path_ideal_reference(report)
        report["positive_decomposition"]["terms"][0]["coefficient_poly"]["coefficients"][1] = "3"
        with self.assertRaises(workloads.Failure):
            workloads.check_path_ideal_reference(report)


class Refusals(unittest.TestCase):
    def test_refuses_thread_pool(self):
        env = dict(os.environ, BSDECOMP_THREADS="2")
        code, lines, result = bench("--workload", "betti-random", "--trace", "0", env=env)
        self.assertEqual(code, 2)
        self.assertIsNone(result)

    def test_fails_without_the_program(self):
        bare = SELFTEST_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines, result = bench("--workload", "stabilize-p5", "--trace", "0",
                                    cwd=bare, script=bare / "perfbench" / "run.py")
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
