#!/usr/bin/env python3
"""The benchmark's own tests: its oracle must catch a corrupted output.

Run from the repository root (builds the benchmark first if needed):

    python3 -m unittest pipebench/test_pipebench.py
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# The per-layer metrics a traced run of each workload must measure (> 0):
# the layers that workload executes. LAYERS_IDLE are layers it never
# calls, which must read 0.
LAYERS_MEASURED = {
    "compile": [
        "ltl.parse_ms", "ltl.to_nba_ms", "ltl.nba_states", "buchi.closure_ms",
        "buchi.closure_states", "buchi.determinize_ms", "buchi.det_states",
        "finite.minimize_ms", "finite.dfa_states", "monitor.link_ms", "monitor.rows",
        "monitor.widen_links", "monitor.widen_link_ms", "core.cache_misses",
        "core.cache_miss_ms", "cache.ltl.to_nba.misses", "cache.buchi.safety_closure.misses",
        "cache.buchi.determinize.misses", "core.threads",
    ],
    "serve": [
        "monitor.open_ms", "monitor.ingest_ms", "monitor.events", "monitor.violated_share",
        "core.threads",
    ],
}
LAYERS_IDLE = {
    "compile": ["monitor.open_ms", "monitor.ingest_ms", "monitor.events"],
    "serve": ["ltl.to_nba_ms", "buchi.determinize_ms", "finite.minimize_ms", "monitor.link_ms",
              "core.cache_misses"],
}


class PipebenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()

    def bench(self, workload, *extra, trace="0"):
        proc = subprocess.run(
            [self.exe, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
             "--data", os.path.join(run.HERE, "corpus"), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, json.loads(lines[-1]) if lines else None

    def assert_clean(self, workload):
        code, result = self.bench(workload)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def assert_caught(self, workload, fault):
        code, result = self.bench(workload, "--inject-fault", fault)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_clean_runs_pass(self):
        for workload in ("compile", "serve"):
            with self.subTest(workload=workload):
                self.assert_clean(workload)

    def test_corrupted_verdict_is_a_failure(self):
        self.assert_caught("serve", "verdict")

    def test_wrong_state_count_is_a_failure(self):
        for workload in ("compile", "serve"):
            with self.subTest(workload=workload):
                self.assert_caught(workload, "dfa-states")

    def test_cache_hit_in_compile_pass_is_a_failure(self):
        self.assert_caught("compile", "cache-hit")

    def test_traced_run_reports_every_layer_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            layer_names = {m["name"] for m in json.load(f)["per_layer"]}
        for workload in ("compile", "serve"):
            with self.subTest(workload=workload):
                code, result = self.bench(workload, trace="1")
                self.assertEqual(code, 0)
                self.assertEqual(set(result["metrics"]), layer_names)
                values = {name: m["value"] for name, m in result["metrics"].items()}
                for name in LAYERS_MEASURED[workload]:
                    self.assertGreater(values[name], 0, name)
                for name in LAYERS_IDLE[workload]:
                    self.assertEqual(values[name], 0, name)

    def test_fails_without_library_sources(self):
        scratch = os.path.join(run.ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(scratch, "pipebench"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
        proc = subprocess.run(
            [sys.executable, "pipebench/run.py", "--workload", "compile", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=scratch, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
        shutil.rmtree(scratch)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
