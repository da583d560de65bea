#!/usr/bin/env python3
"""Self-tests of the benchmark, in its tiny-size mode (about 15 seconds).

Run from the root of a checkout:

    python3 perfbench/test_bench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ("serve-cold", "serve-hot", "serve-mixed", "fuzz")
SERVE = WORKLOADS[:3]

_results = {}


def result(workload, trace, seed=5):
    """The result line of a tiny run, cached across tests."""
    key = (workload, trace, seed)
    if key not in _results:
        out = subprocess.run(
            RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                   "--trace", str(trace), "--tiny"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        _results[key] = json.loads(out.stdout.strip().splitlines()[-1])
    return _results[key]


def inputs(workload, seed):
    return subprocess.run(
        [EXE, "inputs", "--workload", workload, "--seed", str(seed), "--count", "300"],
        stdout=subprocess.PIPE, check=True).stdout


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        result("serve-cold", 0)  # builds the benchmark
        for w in SERVE:
            a, b, c = inputs(w, 7), inputs(w, 7), inputs(w, 8)
            self.assertTrue(a, w)
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)


class Cache(unittest.TestCase):
    def test_cold_never_hits(self):
        m = result("serve-cold", 1)["metrics"]
        for b in ("slot", "bytecode"):
            self.assertEqual(m[b + ".serve.cache_hit_ratio"]["value"], 0, b)

    def test_hot_hits_after_warm_up(self):
        m = result("serve-hot", 1)["metrics"]
        for b in ("slot", "bytecode"):
            self.assertGreaterEqual(m[b + ".serve.cache_hit_ratio"]["value"], 0.99, b)


class Metrics(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            for w in WORKLOADS:
                r = result(w, trace)
                self.assertTrue(r["correct"], (w, trace))
                self.assertEqual(r["failed"], 0, (w, trace))
                self.assertGreaterEqual(r["attempted"], 1, (w, trace))
                for name, v in r["metrics"].items():
                    self.assertIn(name, declared, (w, trace))
                    self.assertEqual(v["unit"], declared[name], name)
                    self.assertIsInstance(v["value"], (int, float), name)
                # Every workload prints every metric of its section.
                self.assertEqual(set(r["metrics"]), set(declared), (w, section))

    def test_end_to_end_metrics_never_zero(self):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        for w in WORKLOADS:
            m = result(w, 0)["metrics"]
            for e in spec["end_to_end"]:
                self.assertGreater(m[e["name"]]["value"], 0, (w, e["name"]))

    def test_setup_s_on_every_workload(self):
        for w in WORKLOADS:
            self.assertGreater(result(w, 0)["metrics"]["setup_s"]["value"], 0, w)


if __name__ == "__main__":
    if not os.path.isfile("dune-project"):
        os.chdir(os.path.dirname(HERE))
    unittest.main()
