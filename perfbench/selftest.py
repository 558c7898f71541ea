"""Planted-wrong-answer self-test of the benchmark's oracles and tally.

Runs three small scenarios for real, plants one wrong answer in a copy of
each report (a perturbed tail, a flipped history verdict, a shifted
outcome frequency) and asserts that every planted answer is counted as a
failure, so that it shows in ``fail_frac``.  Run from a checkout root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import math
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import scenarios  # noqa: E402
import workload  # noqa: E402


def _plant_tail(report):
    report["metrics"]["tail"] *= 1 + 1e-6


def _plant_verdict(report):
    flipped = {"CONSISTENT": "INCONSISTENT", "INCONSISTENT": "CONSISTENT"}
    report["metrics"]["verdict"] = flipped[report["metrics"]["verdict"]]


def _plant_frequency(report):
    rows = report["metrics"]["outcomes"]
    n = report["metrics"]["n_resolved"]
    p = rows[0]["born"]
    shift = math.ceil(6 * math.sqrt(p * (1 - p) / n) * n)
    rows[0]["count"] += shift
    rows[1]["count"] -= shift


class PlantedWrongAnswers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        b = scenarios.ScenarioList("lab-mix", 20_240_001)
        b.tail(100)
        b.add("histories", "histories",
              {"psi0": [0.6, 0.8], "steps": scenarios.history_steps(b, True, 3),
               "expect": "INCONSISTENT"},
              {"verdict": "INCONSISTENT", "n_histories": 8})
        b.qubit("d2k1", 200)
        work = ROOT / ".bench_out" / "selftest"
        items = []
        for sc in b.out:
            (work / sc.sid).mkdir(parents=True, exist_ok=True)
            path = work / sc.sid / "scenario.json"
            path.write_text(json.dumps(sc.doc))
            items.append((sc, path))
        _, cls.outputs = workload.run_pass(items)

    def planted(self, index, plant):
        outputs = copy.deepcopy(self.outputs)
        sc, report, code, error, latency = outputs[index]
        plant(report)
        outputs[index] = (sc, report, code, error, latency)
        return outputs

    def test_true_reports_pass(self):
        attempted, failures = workload.tally(self.outputs)
        self.assertEqual((attempted, failures), (3, []))

    def test_each_planted_answer_is_counted(self):
        for index, plant in enumerate((_plant_tail, _plant_verdict, _plant_frequency)):
            with self.subTest(plant=plant.__name__):
                attempted, failures = workload.tally(self.planted(index, plant))
                self.assertEqual(attempted, 3)
                self.assertEqual([f["scenario"] for f in failures],
                                 [self.outputs[index][0].sid])

    def test_fail_frac_counts_all_three(self):
        outputs = self.outputs
        for index, plant in enumerate((_plant_tail, _plant_verdict, _plant_frequency)):
            outputs = copy.deepcopy(outputs)
            plant(outputs[index][1])
        attempted, failures = workload.tally(outputs)
        self.assertEqual(len(failures) / attempted, 1.0)

    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        passes = [{"traced": False, "wall": 1.0,
                   "latencies": [(o[0], o[4]) for o in self.outputs]},
                  {"traced": True, "wall": 1.0, "spans": []}]
        layer = workload.per_layer(passes)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: v["unit"] for k, v in layer.items()})
        e2e = workload.end_to_end(passes, 3, 0)
        for m in spec["end_to_end"]:
            if m["name"] != "setup_s":  # measured by run.py
                self.assertEqual(e2e[m["name"]]["unit"], m["unit"])

    def test_raised_scenario_is_counted(self):
        sc = self.outputs[0][0]
        attempted, failures = workload.tally([(sc, None, None, "raised ValueError()", 0.0)])
        self.assertEqual((attempted, len(failures)), (1, 1))


if __name__ == "__main__":
    unittest.main()
