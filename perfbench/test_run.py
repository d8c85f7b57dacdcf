#!/usr/bin/env python3
"""Tests of the benchmark itself: the correctness oracle must fail a run
whose payload changed by one byte, pass a clean one, and a checkout
without the sources must exit non-zero without printing a result.

  python3 perfbench/test_run.py            (from the repository root)

Each case runs perfbench/run.py for a few seconds, so the whole suite
takes about a minute after the first build.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Long enough that the bulk stream's start does not dominate lateness.
SERVE_SECONDS = 5


def run(workload, *extra, cwd=ROOT, script=HERE / "run.py", seconds=1):
    r = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", "0", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return r.returncode, result, r.stdout


class OracleTest(unittest.TestCase):
    def test_clean_sweep_is_correct(self):
        code, result, _ = run("sweep-grid-cold")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_flipped_sweep_byte_fails(self):
        code, result, out = run("sweep-grid-cold", "--flip-byte")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertIn("!= recorded", out)

    def test_clean_serve_is_correct(self):
        code, result, _ = run("serve-mixed", seconds=SERVE_SECONDS)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_flipped_serve_byte_fails_on_payload(self):
        code, result, out = run("serve-mixed", "--flip-byte",
                                seconds=SERVE_SECONDS)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        # The run must fail on the payload, not on framing or lateness.
        self.assertIn("differ from the single-thread reference", out)
        self.assertNotIn("MALFORMED", out)
        self.assertNotIn("INVALID", out)

    def test_checkout_without_sources_fails_without_result(self):
        isolated = ROOT / ".bench_out" / "isolated"
        shutil.rmtree(isolated, ignore_errors=True)
        isolated.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", isolated)
            shutil.copytree(HERE, isolated / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = run("sweep-grid-cold", cwd=isolated,
                               script=isolated / "perfbench" / "run.py")
        finally:
            shutil.rmtree(isolated, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
