#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py          # builds on first use

They prove that the request generators are seeded (same seed, same bytes),
that zipf_drift exercises every serve tier, that a run reports exactly the
metrics BENCHMARK.json declares, and that the benchmark refuses to run where
the sources are missing.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = sorted(run.OPEN_RATE)


def gen_hash(workload, seed, count=2000):
    return run.harness("gen", "--workload", workload, "--seed", seed, "--count", count)["hash"]


def bench(workload, trace, seconds=2):
    res = subprocess.run([sys.executable, str(run.ROOT / "perfbench" / "run.py"),
                          "--workload", workload, "--seed", "3", "--seconds", str(seconds),
                          "--trace", str(trace)], capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


class SeededGenerators(unittest.TestCase):
    def test_same_seed_gives_identical_requests(self):
        for w in WORKLOADS:
            self.assertEqual(gen_hash(w, 11), gen_hash(w, 11), w)

    def test_other_seed_gives_other_requests(self):
        for w in WORKLOADS:
            self.assertNotEqual(gen_hash(w, 11), gen_hash(w, 12), w)


class ZipfDriftTiers(unittest.TestCase):
    def test_each_tier_serves_at_least_five_percent(self):
        flags = run.harness("flags", "--workload", "zipf_drift")["flags"]
        ledger = run.Ledger()
        server, _ = run.start_and_warm("zipf_drift", 5, flags, ledger, "setup")
        try:
            res = run.run_load("zipf_drift", 5, server, 3.0, ledger, "load", open_loop=False)
        finally:
            server.stop()
        self.assertEqual(ledger.failed, 0, ledger.phases)
        tiers = res["closed"]["tiers"]
        total = sum(tiers.values())
        for tier, n in tiers.items():
            self.assertGreaterEqual(n / total, 0.05, "%s: %s" % (tier, tiers))


class MetricContract(unittest.TestCase):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def check(self, out, declared):
        self.assertTrue(out["correct"], out)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(sorted(out["metrics"]), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_timed_run_reports_every_end_to_end_metric(self):
        out = bench("hot_memo", 0)
        self.check(out, self.spec["end_to_end"])
        for name, m in out["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        self.check(bench("hot_memo", 1), self.spec["per_layer"])


class RefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        tmp = run.ROOT / ".bench_build" / "test-no-sources"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(run.ROOT / "perfbench", tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        try:
            res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hot_memo",
                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=tmp, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"correct"', res.stdout)


if __name__ == "__main__":
    run.build()
    unittest.main()
