#!/usr/bin/env python
"""Diff a benchmark-trajectory JSON against the committed baseline.

CI runs the benchmark suite with ``FORECO_BENCH_JSON=BENCH.json`` (see
``benchmarks/conftest.py``), uploads the file as an artifact, then runs::

    python scripts/compare_bench.py BENCH.json benchmarks/baseline.json

The comparison is **warn-only**: CI hardware is noisy and shared, so a wall
time more than ``--threshold`` (default 20%) over baseline — or a speedup
factor more than 20% under it — prints a warning (a ``::warning::``
annotation on GitHub Actions) but never fails the build.  Hard performance
floors live in the benchmarks themselves (the >=3x batch gates, the >=10x
warm-store gate); this script tracks the *trajectory* between those floors.

Exit codes: 0 — compared (with or without warnings); 2 — a file is missing
or malformed (the pipeline itself is broken, which SHOULD fail the step).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _load(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"compare_bench: cannot read {path}: {exc}\n")
        raise SystemExit(2) from exc
    if not isinstance(payload.get("benchmarks"), dict):
        sys.stderr.write(f"compare_bench: {path} has no 'benchmarks' table\n")
        raise SystemExit(2)
    return payload


def _warn(message: str) -> None:
    prefix = "::warning title=benchmark regression::" if os.environ.get("GITHUB_ACTIONS") else "WARNING: "
    print(f"{prefix}{message}")


def compare(current: dict, baseline: dict, threshold: float) -> list[str]:
    """Return the list of regression messages (also printed as warnings)."""
    warnings: list[str] = []
    current_benchmarks = current["benchmarks"]
    for test, base_metrics in sorted(baseline["benchmarks"].items()):
        cur_metrics = current_benchmarks.get(test)
        if cur_metrics is None:
            warnings.append(f"{test}: present in baseline but missing from this run")
            continue
        for metric, base_value in sorted(base_metrics.items()):
            cur_value = cur_metrics.get(metric)
            if cur_value is None or not base_value:
                continue
            ratio = cur_value / base_value
            if metric == "wall_s" or metric.endswith("_s"):
                # Wall times regress upward.  Sub-50ms timings are pure
                # scheduler noise at any threshold — never warn on them.
                if max(base_value, cur_value) < 0.05:
                    continue
                if ratio > 1.0 + threshold:
                    warnings.append(
                        f"{test}.{metric}: {cur_value:.3f}s vs baseline "
                        f"{base_value:.3f}s (+{100 * (ratio - 1):.0f}%)"
                    )
            elif metric.startswith("speedup"):
                # Speedup factors regress downward.
                if ratio < 1.0 - threshold:
                    warnings.append(
                        f"{test}.{metric}: x{cur_value:.1f} vs baseline "
                        f"x{base_value:.1f} (-{100 * (1 - ratio):.0f}%)"
                    )
    return warnings


def render_table(current: dict, baseline: dict) -> str:
    """Side-by-side table of every metric present in either file."""
    lines = [f"{'benchmark.metric':<58s} {'baseline':>10s} {'current':>10s} {'delta':>8s}"]
    lines.append("-" * len(lines[0]))
    tests = sorted(set(baseline["benchmarks"]) | set(current["benchmarks"]))
    for test in tests:
        base_metrics = baseline["benchmarks"].get(test, {})
        cur_metrics = current["benchmarks"].get(test, {})
        for metric in sorted(set(base_metrics) | set(cur_metrics)):
            base_value = base_metrics.get(metric)
            cur_value = cur_metrics.get(metric)
            base_text = f"{base_value:.3f}" if base_value is not None else "-"
            cur_text = f"{cur_value:.3f}" if cur_value is not None else "-"
            if base_value and cur_value is not None:
                delta = f"{100 * (cur_value / base_value - 1):+.0f}%"
            else:
                delta = "-"
            lines.append(f"{test + '.' + metric:<58s} {base_text:>10s} {cur_text:>10s} {delta:>8s}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="trajectory JSON from this run (e.g. BENCH.json)")
    parser.add_argument("baseline", help="committed baseline (benchmarks/baseline.json)")
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="relative regression that triggers a warning (default: 0.20 = 20%%)",
    )
    args = parser.parse_args(argv)
    current = _load(args.current)
    baseline = _load(args.baseline)
    if current.get("scale") != baseline.get("scale"):
        _warn(
            f"scale mismatch: run at {current.get('scale')!r}, baseline at "
            f"{baseline.get('scale')!r} — wall-time deltas are not comparable"
        )
    print(render_table(current, baseline))
    warnings = compare(current, baseline, args.threshold)
    for message in warnings:
        _warn(message)
    if warnings:
        print(f"\n{len(warnings)} regression warning(s) over {100 * args.threshold:.0f}% (warn-only)")
    else:
        print("\nno regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
