#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that an untraced run prints
every end-to-end metric with its unit and passes its output checks, that a
traced run prints every per-layer metric with its unit, and that an
injected wrong outcome is counted as a failure. It also checks the knob
guard (a `GOC_*` variable is stripped and reported, and the run still
passes) and that the benchmark refuses to run outside a goc checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = "0.4"

# The per-path metrics printed on the readable lines of an untraced run,
# per workload.
READABLE = {
    "settle-vm": ["setup_s", "settle_ms_p50", "settle_ms_p90", "settle_cpu_ms", "peak_rss_mb", "failed_ratio"],
    "serve-migrate": ["setup_s", "session_ms_p50", "session_ms_p99", "sessions_per_s",
                      "daemon_cpu_us_per_session", "peak_rss_mb", "failed_ratio"],
}
READABLE["settle-cached"] = READABLE["settle-vm"]


def run(workload, trace, *extra, env=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", SECONDS, "--trace", trace, *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900, env=env)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    return out, lines


class Smoke(unittest.TestCase):
    def check_metrics(self, out, table):
        want = {m["name"]: m["unit"] for m in table}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        self.assertEqual(got, want)

    def test_untraced_runs_print_every_end_to_end_metric_and_pass_their_checks(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                out, lines = result(run(w, "0"))
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                self.check_metrics(out, SPEC["end_to_end"])
                for name, v in out["metrics"].items():
                    self.assertGreater(v["value"], 0, name)
                readable = [l.split()[1] for l in lines if l.startswith(w + " ")]
                self.assertEqual(readable, READABLE[w])
                self.assertTrue(any(l.startswith("host {") for l in lines))

    def test_traced_runs_print_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                out, _ = result(run(w, "1"))
                self.assertTrue(out["correct"])
                self.check_metrics(out, SPEC["per_layer"])
                self.assertEqual(out["metrics"]["failed_ratio"]["value"], 0)
                self.assertGreater(out["metrics"]["trace.overhead_ratio"]["value"], 0)

    def test_an_injected_wrong_outcome_counts_as_a_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                out, lines = result(run(w, "0", "--inject-mismatch"))
                self.assertFalse(out["correct"])
                self.assertGreaterEqual(out["failed"], 1)
                ratio = [l for l in lines if l.startswith(w + " failed_ratio")]
                self.assertGreater(float(ratio[0].split()[3]), 0)

    def test_knob_variables_are_stripped_and_reported(self):
        env = dict(os.environ, GOC_BATCH="0", GOC_THREADS="1")
        out, lines = result(run("settle-cached", "0", env=env))
        self.assertTrue(out["correct"])
        host = json.loads([l for l in lines if l.startswith("host ")][0][5:])
        self.assertEqual(sorted(host["stripped_env"]), ["GOC_BATCH", "GOC_THREADS"])
        for key in ("nproc", "loadavg_start", "loadavg_end", "aslr", "kernel", "rustc", "commit"):
            self.assertIn(key, host)

    def test_refuses_to_run_without_the_repository(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out")) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"), ignore=shutil.ignore_patterns("target"))
            proc = run("settle-vm", "0", cwd=d)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(proc.stdout.strip().startswith("{"))
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    unittest.main(verbosity=2)
