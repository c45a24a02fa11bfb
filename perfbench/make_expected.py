"""Regenerate ``expected.json``, the committed result fingerprints.

Run from the root of a checkout, only when a change is meant to alter
results (an engine-epoch bump)::

    python3 perfbench/make_expected.py

For the default seed 0 and the hold-out seed 1 it runs every workload in
fresh worker processes, exactly as a benchmark run does, and records each
op's fingerprint: one per op index for ``cold-session`` (every op has its
own scenario seed), one per seed for the round workloads (every round
repeats the same inputs, and the worker already fails a round that differs
from its set-up round).
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, ROOT, WORKLOADS, BenchError, Runner

SEEDS = (0, 1)
#: Committed cold-session ops per seed; ops past this are checked by
#: invariants only.
COLD_OPS = 400
ROUND_OPS = 3


def main() -> int:
    """Write ``expected.json`` next to this script."""
    workdir = ROOT / ".perfbench-work" / "make-expected"
    empty = workdir / "empty.json"
    workdir.mkdir(parents=True, exist_ok=True)
    empty.write_text(json.dumps({}), encoding="utf-8")
    table: dict = {}
    try:
        for workload in WORKLOADS:
            table[workload] = {}
            for seed in SEEDS:
                n_ops = COLD_OPS if workload == "cold-session" else ROUND_OPS
                runner = Runner(workdir, time_limit_s=1800.0)
                report = runner.worker(
                    workload, seed, "measure", "--ops", str(n_ops), "--expected", str(empty)
                )
                ops = report["ops"]
                failed = [op["errors"] for op in ops if op["errors"]]
                if failed:
                    raise BenchError(f"{workload} seed {seed}: failed ops {failed[:3]}")
                prints = [op["fingerprint"] for op in ops]
                table[workload][str(seed)] = prints if workload == "cold-session" else prints[0]
                print(f"{workload} seed {seed}: {len(prints)} ops", file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    (HERE / "expected.json").write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
