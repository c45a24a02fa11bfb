"""Benchmark: vectorised operator datasets vs the serial teleop oracle.

Builds the ci-scale experienced (training) and inexperienced (test) command
streams two ways — the command-by-command loops kept in
``tests/oracles/teleop.py`` and the NumPy passes of ``repro.teleop``
(block noise draws, one sequential wander filter, speculate-and-repair
quantisation) — and reports dataset-generation throughput.

The vectorised path must be at least 3x faster and bit-identical (uint64
view) to the oracle on both streams.
"""

from __future__ import annotations

import time

import numpy as np

from repro.scenarios import get_scale
from repro.teleop import (
    OperatorModel,
    RemoteController,
    experienced_operator,
    inexperienced_operator,
)
from tests.oracles import teleop as oracle

from conftest import emit, record_metric

#: The vectorised datasets must beat the serial oracle by at least this factor.
MIN_SPEEDUP = 3.0


def _best_of(callable_, rounds: int):
    """Minimum wall-clock over ``rounds`` runs (robust to scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bench_teleop_dataset_generation(benchmark, bench_seed):
    """Serial vs vectorised generation + quantisation of the ci-scale datasets."""
    scale = get_scale("ci")
    controller = RemoteController()
    jobs = (
        (experienced_operator, bench_seed, scale.train_repetitions),
        (inexperienced_operator, bench_seed + 1, scale.test_repetitions),
    )

    def run_serial():
        return [
            oracle.stream_commands(controller, OperatorModel(profile=profile(), seed=seed), reps)
            for profile, seed, reps in jobs
        ]

    def run_vectorised():
        return [
            controller.stream_from_operator(OperatorModel(profile=profile(), seed=seed), reps).commands
            for profile, seed, reps in jobs
        ]

    t_serial, serial = _best_of(run_serial, rounds=2)
    t_vector, vector = _best_of(run_vectorised, rounds=5)
    for expected, actual in zip(serial, vector):
        assert actual.shape == expected.shape
        assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))

    n_commands = sum(len(commands) for commands in vector)
    speedup = t_serial / t_vector
    benchmark.pedantic(run_vectorised, rounds=1, iterations=1)
    record_metric("test_bench_teleop_dataset_generation", speedup_ci_datasets=speedup)
    emit(
        "teleop datasets (ci scale)",
        f"{'path':<12s} {'time':>9s} {'commands/s':>12s}\n"
        f"{'serial':<12s} {t_serial * 1e3:>7.1f}ms {n_commands / t_serial:>12.0f}\n"
        f"{'vectorised':<12s} {t_vector * 1e3:>7.1f}ms {n_commands / t_vector:>12.0f}\n"
        f"speedup x{speedup:.1f} over {n_commands} commands",
    )
    assert speedup >= MIN_SPEEDUP, f"teleop speedup x{speedup:.2f} < x{MIN_SPEEDUP}"
