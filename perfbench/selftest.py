"""Self-tests of the benchmark itself (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

They prove that the gates the benchmark relies on can pass and can fail:
tiny runs of every workload end with no failed op, traced and untraced
fingerprints agree, self times never exceed wall time, a corrupted
committed fingerprint counts as a failed op, and the command refuses to
produce a result where there is no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

from run import CHILD_ENV, END_TO_END, HERE, ROOT, WORKLOADS, per_layer_metrics

SCRATCH = ROOT / ".perfbench-work" / "selftest"


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    """Run ``run.py`` from the root of ``cwd``, as the benchmark command is run."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    """The JSON object on the last line of a run's standard output."""
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def worker(*args: str) -> dict:
    """Run ``worker.py`` directly and return its report."""
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workdir", str(SCRATCH / "worker"), *args],
        cwd=ROOT,
        env={**os.environ, **CHILD_ENV},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    """The benchmark's correctness gate, tracer and contract."""

    @classmethod
    def setUpClass(cls) -> None:
        SCRATCH.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it

    def test_tiny_runs_have_no_failed_op(self) -> None:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in declared["end_to_end"]], [name for name, _ in END_TO_END])
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_line(bench("--workload", workload, "--seed", "1", "--seconds", "1"))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(sorted(result["metrics"]), sorted(name for name, _ in END_TO_END))
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_fingerprints_equal_untraced(self) -> None:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [name for name, _, _ in per_layer_metrics()]
        self.assertEqual([m["name"] for m in declared["per_layer"]], names)
        done = bench("--workload", "warm-fleet", "--seed", "0", "--seconds", "2", "--trace", "1")
        result = result_line(done)
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        self.assertGreater(result["metrics"]["trace.overhead_ratio"]["value"], 0.0)

    def test_self_time_within_wall_time(self) -> None:
        report = worker("--workload", "cold-session", "--seed", "0", "--mode", "traced", "--ops", "2")
        self_total = report["trace"]["self_total_s"]
        self.assertGreater(self_total, 0.0)
        self.assertLessEqual(self_total, report["trace"]["wall_s"])
        self.assertEqual(report["trace"]["missing_targets"], [])
        self.assertGreater(report["trace"]["metrics"]["teleop.calls"], 0.0)
        # one calibration sample before every op and one after the last
        self.assertEqual(len(report["kernel_s"]), len(report["ops"]) + 1)

    def test_corrupted_fingerprint_is_a_failed_op(self) -> None:
        table = json.loads((HERE / "expected.json").read_text())
        table["cold-session"]["0"][1] = "0" * 16
        table["warm-fleet"]["0"] = "f" * 16
        corrupted = SCRATCH / "corrupted.json"
        corrupted.write_text(json.dumps(table))
        common = ("--seed", "0", "--mode", "measure", "--ops", "2", "--expected", str(corrupted))
        cold = worker("--workload", "cold-session", *common)
        self.assertEqual([bool(op["errors"]) for op in cold["ops"]], [False, True])
        fleet = worker("--workload", "warm-fleet", *common)
        self.assertTrue(all(op["errors"] for op in fleet["ops"]))

    def test_refuses_to_run_without_the_program(self) -> None:
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = bench("--workload", "cold-session", "--seed", "0", "--seconds", "1", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
