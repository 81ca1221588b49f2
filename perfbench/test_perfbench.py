#!/usr/bin/env python3
"""Tests of the FlatStore benchmark itself, at tiny scale.

    python3 perfbench/test_perfbench.py

Builds the benchmark the way run.py does, then runs the binary with
--scale tiny (a 64x smaller key space and a few thousand ops per segment).
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = ("etc_put", "etc_get_ordered", "churn_scan_recover")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.tmp = tempfile.TemporaryDirectory()
        cls.runs = {}
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def bench(self, workload, seed, trace, *extra):
        """Runs once per argument set.

        Returns the exit code, the last stdout line and the results file.
        """
        key = (workload, seed, trace, extra)
        if key not in self.runs:
            out = Path(self.tmp.name) / f"{len(self.runs)}.json"
            r = subprocess.run(
                [str(self.binary), "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
                 "--out", str(out), *extra],
                capture_output=True, text=True, timeout=300)
            last = json.loads(r.stdout.strip().splitlines()[-1])
            self.runs[key] = (r.returncode, last, json.loads(out.read_text()))
        return self.runs[key]

    @staticmethod
    def exact(results):
        """Every metric that must repeat exactly for a seed."""
        out = {}
        for group in ("end_to_end", "per_layer"):
            for name, m in results[group].items():
                if m["clock"] in ("vt", "count"):
                    out[name] = m["value"]
        return out

    def test_same_seed_same_vt_metrics(self):
        for w in WORKLOADS:
            _, _, a = self.bench(w, 7, 0)
            _, _, b = self.bench(w, 7, 0, "--commit", "again")
            self.assertEqual(self.exact(a), self.exact(b), w)

    def test_other_seed_changes_vt_metrics(self):
        for w in WORKLOADS:
            _, _, a = self.bench(w, 7, 0)
            _, _, b = self.bench(w, 8, 0)
            ea, eb = self.exact(a), self.exact(b)
            self.assertNotEqual(ea["throughput_mops"], eb["throughput_mops"], w)
            self.assertNotEqual(ea["p50_us"], eb["p50_us"], w)

    def test_tracing_does_not_perturb_vt_metrics(self):
        for w in WORKLOADS:
            _, _, plain = self.bench(w, 7, 0)
            _, _, traced = self.bench(w, 7, 1)
            self.assertEqual(self.exact(plain), self.exact(traced), w)

    def test_clean_runs_pass_their_checks(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                rc, last, res = self.bench(w, 7, trace)
                self.assertEqual(rc, 0, w)
                self.assertTrue(last["correct"], w)
                self.assertEqual(last["failed"], 0, w)
                self.assertGreater(last["attempted"], 0, w)
                self.assertEqual(res["error_rate"], 0, w)

    def test_corrupted_value_is_caught(self):
        rc, last, res = self.bench("etc_put", 7, 0, "--corrupt-key", "5")
        self.assertNotEqual(rc, 0)
        self.assertFalse(last["correct"])
        # The sweep before the crash and the one after recovery.
        self.assertEqual(last["failed"], 2)
        self.assertGreater(res["error_rate"], 0)

    def test_every_named_metric_appears_with_its_unit(self):
        want_e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        want_layers = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for w in WORKLOADS:
            _, last0, _ = self.bench(w, 7, 0)
            _, last1, _ = self.bench(w, 7, 1)
            got0 = {k: v["unit"] for k, v in last0["metrics"].items()}
            got1 = {k: v["unit"] for k, v in last1["metrics"].items()}
            self.assertEqual(got0, want_e2e, w)
            self.assertEqual(got1, want_layers, w)
        workloads = {x["name"] for x in self.spec["workloads"]}
        self.assertEqual(workloads, set(WORKLOADS))

    def test_net_vt_share_is_a_share(self):
        for w in WORKLOADS:
            _, last, _ = self.bench(w, 7, 1)
            share = last["metrics"]["net.vt_share"]["value"]
            self.assertGreaterEqual(share, 0.0, w)
            self.assertLessEqual(share, 1.0, w)

    def test_results_are_stamped(self):
        _, _, res = self.bench("churn_scan_recover", 7, 1)
        meta = res["meta"]
        for key in ("seed", "commit", "build_type", "nproc", "pool_mb",
                    "run_seconds", "vt_mem_parallelism",
                    "vt_pm_dimms_per_socket", "vt_remote_load_penalty",
                    "vt_remote_persist_penalty"):
            self.assertIn(key, meta)
        self.assertEqual(meta["build_type"], "Release")
        free_min = res["per_layer"]["alloc.free_chunks_min"]["value"]
        self.assertGreater(free_min, 0)


if __name__ == "__main__":
    unittest.main()
