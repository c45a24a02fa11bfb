"""The repository benchmark: one command, three workloads, two kinds of run.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload cold-session --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of :data:`END_TO_END` with
nothing instrumented.  ``--trace 1`` reports the per-layer metrics: an
untraced pass and a traced pass over the same ops, in two fresh processes,
whose result fingerprints must agree.  Each workload runs in a worker
process (``worker.py``) so that set-up is measured in a fresh interpreter;
``import repro`` is timed in further fresh interpreters.  Every time is
reported at reference host speed (``calibrate.py``): scaled by a fixed
kernel sampled around it, so that a shared host's drifting speed cancels.
The traced run also reports the raw host op time and kernel time as
``host.op_p50_ms`` and ``host.kernel_ms``.  Every op is checked for
correctness; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Outside a checkout with ``src/repro`` the command prints an error and
exits with status 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-session", "warm-fleet", "serve-plan")

#: Every run ends within this many seconds of its start.
TIME_LIMIT_S = 170.0
#: Set-up-only worker processes per untraced run (the measuring worker adds one).
EXTRA_SETUPS = 3
#: Fresh interpreters timing ``import repro`` after each set-up-only worker
#: and after the measuring one; spreading the samples over the run keeps
#: one slow spell of a shared machine from setting the median.
IMPORT_BATCH = 4

#: ``(name, unit)`` of every end-to-end metric of an untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("import_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("sim_slots_per_s", "slots/s"),
    ("peak_rss_mb", "MB"),
)

#: First-level modules whose ``-X importtime`` cumulative time is reported.
IMPORT_MODULES = (
    "numpy",
    "repro._validation",
    "repro.analysis",
    "repro.core",
    "repro.des",
    "repro.errors",
    "repro.experiments",
    "repro.fleet",
    "repro.forecasting",
    "repro.lint",
    "repro.nn",
    "repro.robot",
    "repro.scenarios",
    "repro.service",
    "repro.teleop",
    "repro.validation",
    "repro.wireless",
)

#: Worker environment: BLAS pools pinned to one thread (the load shape is
#: one thread, and a thread count that differs between machines must not
#: change floating-point results), string hashing fixed.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every metric a traced run reports."""
    from tracer import COUNTS, LAYERS

    metrics = []
    for layer in LAYERS:
        metrics.append((f"{layer}.calls", "calls/op", "lower"))
        metrics.append((f"{layer}.self_ms_per_op", "ms/op", "lower"))
    metrics.extend(COUNTS)
    metrics.extend((_import_metric(module), "ms", "lower") for module in IMPORT_MODULES)
    metrics.append(("trace.overhead_ratio", "ratio", "lower"))
    metrics.append(("host.op_p50_ms", "ms", "lower"))
    metrics.append(("host.kernel_ms", "ms", "lower"))
    return metrics


def _import_metric(module: str) -> str:
    return f"import.{module.removeprefix('repro.')}_ms"


# ---------------------------------------------------------------- children
class Runner:
    """Spawns the child processes of one run, all within one deadline."""

    def __init__(self, workdir: Path, time_limit_s: float = TIME_LIMIT_S) -> None:
        self.time_limit_s = time_limit_s
        self.deadline = time.monotonic() + time_limit_s
        self.workdir = workdir
        self.env = {**os.environ, **CHILD_ENV}

    def python(self, *args: str) -> subprocess.CompletedProcess:
        """Run ``python3 *args`` in a fresh interpreter; fail on a non-zero exit."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"time limit of {self.time_limit_s:.0f} s reached")
        try:
            done = subprocess.run(
                [sys.executable, *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"time limit of {self.time_limit_s:.0f} s reached") from exc
        if done.returncode != 0:
            raise BenchError(f"child process failed ({done.returncode}):\n{done.stderr[-2000:]}")
        return done

    def worker(self, workload: str, seed: int, mode: str, *extra: str) -> dict:
        """Run ``worker.py`` and return its JSON report."""
        done = self.python(
            str(HERE / "worker.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--mode",
            mode,
            "--workdir",
            str(self.workdir / mode),
            *extra,
        )
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"worker printed no report:\n{done.stderr[-2000:]}")
        return json.loads(lines[-1])

    def compile(self) -> None:
        """Import ``repro`` once, untimed, so later imports find compiled bytecode."""
        self.python("-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import repro")

    def import_seconds(self, samples: int) -> list[float]:
        """``import repro`` time in ``samples`` fresh interpreters, at reference speed."""
        code = f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); t = time.perf_counter()"
        code += f"; import repro; t = time.perf_counter() - t; sys.path.insert(0, {str(HERE)!r})"
        code += "; import calibrate; print(t, calibrate.median_sample())"
        scaled = []
        for _ in range(samples):
            seconds, kernel_s = map(float, self.python("-c", code).stdout.split())
            scaled.append(calibrate.scale(seconds, kernel_s))
        return scaled

    def import_profile(self, samples: int) -> dict[str, float]:
        """Median ``-X importtime`` cumulative milliseconds per first-level module, at reference speed."""
        code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import repro"
        code += f"; sys.path.insert(0, {str(HERE)!r}); import calibrate; print(calibrate.median_sample())"
        samples_ms: dict[str, list[float]] = {module: [] for module in IMPORT_MODULES}
        for _ in range(samples):
            seen = dict.fromkeys(IMPORT_MODULES, 0.0)
            done = self.python("-X", "importtime", "-c", code)
            kernel_s = float(done.stdout)
            for line in done.stderr.splitlines():
                match = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$", line)
                if match and match.group(2) in seen:
                    seen[match.group(2)] = calibrate.scale(int(match.group(1)) / 1000.0, kernel_s)
            for module, value in seen.items():
                samples_ms[module].append(value)
        return {_import_metric(module): statistics.median(values) for module, values in samples_ms.items()}


# ----------------------------------------------------------------- metrics
def tail(latencies: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, ops beyond)`` at the highest percentile with >= 10 ops beyond it.

    With 10 ops or fewer no percentile has 10 beyond it; the maximum is
    reported with the ops it has beyond it (none).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def scaled_latencies(report: dict) -> list[float]:
    """Each op's latency at reference speed, by the kernel samples around it."""
    kernel_s = report["kernel_s"]
    return [
        calibrate.scale(op["latency_s"], calibrate.windowed(kernel_s, index))
        for index, op in enumerate(report["ops"])
    ]


def _failures(ops: list[dict]) -> int:
    return sum(1 for op in ops if op["errors"])


def _report_errors(ops: list[dict], label: str) -> None:
    for index, op in enumerate(ops):
        for error in op["errors"]:
            print(f"  {label} op {index} FAILED: {error}")


def untraced(runner: Runner, workload: str, seed: int, seconds: int) -> tuple[int, int, dict]:
    """End-to-end metrics of one untraced run."""
    runner.compile()
    imports: list[float] = []
    setups: list[float] = []
    for _ in range(EXTRA_SETUPS):
        setup = runner.worker(workload, seed, "setup")
        setups.append(calibrate.scale(setup["setup_s"], setup["setup_kernel_s"]))
        imports += runner.import_seconds(IMPORT_BATCH)
    report = runner.worker(workload, seed, "measure", "--seconds", str(seconds))
    setups.append(calibrate.scale(report["setup_s"], report["setup_kernel_s"]))
    imports += runner.import_seconds(IMPORT_BATCH)
    ops = report["ops"]
    latencies = scaled_latencies(report)
    tail_s, tail_pct, beyond = tail(latencies)
    failed = _failures(ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "import_s": statistics.median(imports),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_tail_ms": tail_s * 1000.0,
        "sim_slots_per_s": sum(op["slots"] for op in ops) / sum(latencies),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    units = dict(END_TO_END)
    kernel_ms = statistics.median(report["kernel_s"]) * 1000.0
    host_ms = statistics.median(op["latency_s"] for op in ops) * 1000.0
    print(f"workload {workload}  seed {seed}  closed loop, 1 client, jobs=1, {len(ops)} ops")
    print(
        f"  times at reference speed (kernel {calibrate.REFERENCE_S * 1000.0:.2f} ms); this host: "
        f"kernel {kernel_ms:.2f} ms, op p50 {host_ms:.2f} ms"
    )
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(setups)} fresh processes"
        elif name == "import_s":
            note = f"median of {len(imports)} fresh interpreters"
        elif name == "op_tail_ms":
            note = f"p{tail_pct:.1f}, {beyond} of {len(ops)} ops beyond"
        print(f"  {name:<16s} {value:>14.4f} {units[name]:<8s} {note}")
    parts: dict[str, list[float]] = {}
    for op, latency in zip(ops, latencies):
        factor = latency / op["latency_s"]
        for part, seconds_list in op["parts"].items():
            parts.setdefault(part, []).extend(value * factor for value in seconds_list)
    for part, values in parts.items():
        median_ms = statistics.median(values) * 1000.0
        print(f"  {part + '_p50_ms':<16s} {median_ms:>14.4f} {'ms':<8s} median of {len(values)} calls")
    print(f"  {'error_rate':<16s} {failed / len(ops):>14.4f} {'ratio':<8s} {failed} of {len(ops)} ops failed")
    _report_errors(ops, "untraced")
    return len(ops), failed, {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def traced(
    runner: Runner, workload: str, seed: int, seconds: int, chrome_trace: Path | None
) -> tuple[int, int, dict]:
    """Per-layer metrics: an untraced and a traced pass over the same ops."""
    plain = runner.worker(workload, seed, "measure", "--seconds", str(seconds / 2.0))
    extra = ["--ops", str(len(plain["ops"]))]
    if chrome_trace is not None:
        extra += ["--chrome-trace", str(chrome_trace.resolve())]
    traced_report = runner.worker(workload, seed, "traced", *extra)
    values = dict(traced_report["trace"]["metrics"])
    traced_factor = calibrate.scale(1.0, statistics.median(traced_report["kernel_s"]))
    for name in values:
        if name.endswith("_ms_per_op"):
            values[name] *= traced_factor
    runner.compile()
    values.update(runner.import_profile((EXTRA_SETUPS + 1) * IMPORT_BATCH))
    values["trace.overhead_ratio"] = sum(scaled_latencies(traced_report)) / sum(scaled_latencies(plain))
    values["host.op_p50_ms"] = statistics.median(op["latency_s"] for op in plain["ops"]) * 1000.0
    values["host.kernel_ms"] = statistics.median(plain["kernel_s"]) * 1000.0
    failed = 0
    for one, other in zip(plain["ops"], traced_report["ops"]):
        if one["fingerprint"] != other["fingerprint"]:
            other["errors"].append(f"traced fingerprint {other['fingerprint']} != {one['fingerprint']}")
        failed += bool(one["errors"] or other["errors"])
    n_ops = len(plain["ops"])
    print(f"workload {workload}  seed {seed}  traced {n_ops} ops ({traced_report['trace']['spans']} spans)")
    for target in traced_report["trace"]["missing_targets"]:
        print(f"  not wrapped (absent): {target}")
    metrics = {}
    for name, unit, _ in per_layer_metrics():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<40s} {values[name]:>14.4f} {unit}")
    print(f"  {'error_rate':<40s} {failed / n_ops:>14.4f} ratio")
    _report_errors(plain["ops"], "untraced")
    _report_errors(traced_report["ops"], "traced")
    return n_ops, failed, metrics


def parse_args(argv=None) -> argparse.Namespace:
    """Command-line arguments of the benchmark."""
    parser = argparse.ArgumentParser(description="FoReCo reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20, help="summed op latency measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chrome-trace", type=Path, default=None, help="with --trace 1: span file")
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within [1, 60]")
    return args


def main(argv=None) -> int:
    """Run one workload and print the report; 0 on success."""
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/repro to benchmark", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    runner = Runner(workdir)
    try:
        if args.trace:
            outcome = traced(runner, args.workload, args.seed, args.seconds, args.chrome_trace)
        else:
            outcome = untraced(runner, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted, failed, metrics = outcome
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
