"""Run one benchmark workload in a fresh process and report it as JSON.

``run.py`` spawns this script; it is not meant to be called by hand, but
it can be (from the root of a checkout)::

    python3 perfbench/worker.py --workload warm-fleet --seed 0 --mode measure --seconds 5

Modes
-----
``setup``
    Import ``repro`` and warm the workload up; report the set-up time.
``measure``
    Set up, then issue ops in a closed loop until their summed latency
    reaches ``--seconds`` (or exactly ``--ops`` ops), checking every
    result outside the timed span.
``traced``
    As ``measure``, with the outside-in :class:`tracer.Tracer` installed
    around the timed ops.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, fingerprint

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None) -> argparse.Namespace:
    """Command-line arguments of one worker process."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"), default="measure")
    parser.add_argument("--seconds", type=float, default=1.0, help="summed op latency to measure")
    parser.add_argument("--ops", type=int, default=None, help="run exactly this many ops instead")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".perfbench-work" / "worker")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json")
    parser.add_argument("--chrome-trace", type=Path, default=None, help="traced mode: write spans here")
    return parser.parse_args(argv)


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {src}")
    return repro


def run_ops(workload, args, table: dict, kernel_s: list[float], tracer=None) -> list[dict]:
    """The closed loop: one op at a time, each checked after it returns.

    A calibration kernel sample is appended to ``kernel_s`` before every
    op and after the last, outside the timed spans.
    """
    import calibrate

    records: list[dict] = []
    measured = 0.0
    index = 0
    while (index < args.ops) if args.ops is not None else (measured < args.seconds):
        kernel_s.append(calibrate.sample())
        started = time.perf_counter()
        try:
            if tracer is None:
                op = workload.run_op(index)
            else:
                with tracer.op(index):
                    op = workload.run_op(index)
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            traceback.print_exc(file=sys.stderr)
            latency = time.perf_counter() - started
            measured += latency
            records.append(
                {"latency_s": latency, "slots": 0, "fingerprint": "", "parts": {}, "errors": [repr(exc)]}
            )
            index += 1
            continue
        measured += op.latency_s
        try:
            errors = workload.check(op)
            actual = fingerprint(op.rows)
            expected = workload.expected(table, index) or workload.reference
            if expected is not None and actual != expected:
                errors.append(f"fingerprint {actual} != expected {expected}")
        except Exception as exc:  # a result the checks cannot read is wrong
            traceback.print_exc(file=sys.stderr)
            actual, errors = "", [repr(exc)]
        finally:
            workload.cleanup(op)
        records.append(
            {
                "latency_s": op.latency_s,
                "slots": op.slots,
                "fingerprint": actual,
                "parts": op.parts,
                "errors": errors,
            }
        )
        index += 1
    kernel_s.append(calibrate.sample())
    return records


def measure(repro, args, started: float) -> dict:
    """Set up the workload and, unless ``--mode setup``, run its ops."""
    workload = WORKLOADS[args.workload](repro, args.seed, args.workdir)
    workload.setup()
    report: dict = {"workload": args.workload, "seed": args.seed, "setup_s": time.perf_counter() - started}
    import calibrate  # after set-up: the kernel imports numpy, which set-up times

    report["setup_kernel_s"] = calibrate.median_sample()
    if args.mode == "setup":
        return report
    table = json.loads(args.expected.read_text(encoding="utf-8"))
    if args.mode == "measure":
        report["ops"] = run_ops(workload, args, table, report.setdefault("kernel_s", []))
        return report
    from tracer import Tracer

    with Tracer() as tracer:
        loop_started = time.perf_counter()
        report["ops"] = run_ops(workload, args, table, report.setdefault("kernel_s", []), tracer)
        loop_s = time.perf_counter() - loop_started
    report["trace"] = {
        "metrics": tracer.summary(len(report["ops"])),
        "self_total_s": sum(tracer.self_times().values()),
        "wall_s": loop_s,
        "spans": len(tracer.spans),
        "missing_targets": tracer.missing,
    }
    if args.chrome_trace is not None:
        args.chrome_trace.write_text(tracer.chrome_trace(), encoding="utf-8")
    return report


def main(argv=None) -> int:
    """Set up, measure and print the report line."""
    args = parse_args(argv)
    started = time.perf_counter()
    repro = import_repro()
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = measure(repro, args, started)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
