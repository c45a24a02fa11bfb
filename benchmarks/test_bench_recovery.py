"""Benchmark: the level-scheduled recovery kernel vs the per-slot oracle.

Runs ``ForecoRecovery.process_stream_batch`` on a trained VAR engine over
seeded bursty loss masks shaped like the warm fleet's sessions — ``B = 6``
repetitions at ~10 % late, ``B = 9`` at ~15 % and ``B = 4`` all late — and
compares it with the per-slot lockstep loop kept in
``tests/oracles/recovery.py``.

The level schedule visits no on-time slot and runs one round per dependency
level of the loss bursts, so it must be at least 5x faster than the oracle
on the sparse shape.  On the all-late shape every slot is one level, and it
must be no slower.  Every shape is bit-identical (uint64 view) to the
oracle.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import ForecoConfig, ForecoRecovery
from repro.teleop import (
    OperatorModel,
    RemoteController,
    experienced_operator,
    inexperienced_operator,
)
from tests.oracles import recovery as oracle

from conftest import emit, record_metric

#: Slots per stream (30 s of 20 ms commands, the warm fleet's session length).
N_SLOTS = 1500

#: ``(label, repetitions, late fraction)`` of each measured loss-mask shape.
SHAPES = (("sparse", 6, 0.10), ("medium", 9, 0.15), ("all-late", 4, 1.0))

#: Mean loss-burst length (slots) of the bursty masks.
MEAN_BURST = 5.0

#: Required speed-up over the oracle per shape (``medium`` is reported only).
MIN_SPEEDUP = {"sparse": 5.0, "all-late": 1.0}


def bursty_delays(rng: np.random.Generator, n_batch: int, n_slots: int, late: float) -> np.ndarray:
    """``(n_batch, n_slots)`` delays: geometric on-time gaps and loss bursts (``inf``)."""
    delays = np.full((n_batch, n_slots), 1.0)
    if late >= 1.0:
        return np.full((n_batch, n_slots), np.inf)
    mean_gap = MEAN_BURST * (1.0 - late) / late
    for row in delays:
        slot = int(rng.geometric(1.0 / mean_gap))
        while slot < n_slots:
            burst = int(rng.geometric(1.0 / MEAN_BURST))
            row[slot : slot + burst] = np.inf
            slot += burst + int(rng.geometric(1.0 / mean_gap))
    return delays


def _best_of(callable_, rounds: int):
    """Minimum wall-clock over ``rounds`` runs (robust to scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bench_recovery_kernel(benchmark, bench_seed):
    """Per-slot oracle vs level-scheduled kernel on warm-fleet-shaped masks."""
    controller = RemoteController()
    training = controller.stream_from_operator(
        OperatorModel(profile=experienced_operator(), seed=bench_seed), n_repetitions=4
    ).commands
    commands = controller.stream_from_operator(
        OperatorModel(profile=inexperienced_operator(), seed=bench_seed + 1), n_repetitions=4
    ).commands[:N_SLOTS]
    recovery = ForecoRecovery(ForecoConfig()).train(training)
    rng = np.random.default_rng(bench_seed)

    lines = [f"{'shape':<9s} {'B':>2s} {'late':>5s} {'oracle':>9s} {'kernel':>9s} {'speedup':>8s}"]
    speedups = {}
    for label, n_batch, late in SHAPES:
        delays = bursty_delays(rng, n_batch, len(commands), late)
        t_oracle, expected = _best_of(
            lambda: oracle.process_stream_batch(recovery, commands, delays), rounds=3
        )
        t_kernel, actual = _best_of(
            lambda: recovery.process_stream_batch(commands, delays), rounds=7
        )
        assert np.array_equal(actual.executed.view(np.uint64), expected.executed.view(np.uint64))
        assert np.array_equal(actual.on_time, expected.on_time)
        assert np.array_equal(actual.forecasted, expected.forecasted)
        assert actual.stats == expected.stats
        speedups[label] = t_oracle / t_kernel
        lines.append(
            f"{label:<9s} {n_batch:>2d} {1.0 - actual.on_time.mean():>5.2f} "
            f"{t_oracle * 1e3:>7.1f}ms {t_kernel * 1e3:>7.1f}ms x{speedups[label]:>7.1f}"
        )

    benchmark.pedantic(
        lambda: recovery.process_stream_batch(commands, delays), rounds=1, iterations=1
    )
    record_metric(
        "test_bench_recovery_kernel",
        **{f"speedup_{label}": value for label, value in speedups.items()},
    )
    emit(f"recovery kernel ({len(commands)} slots, VAR record 10)", "\n".join(lines))
    for label, minimum in MIN_SPEEDUP.items():
        assert speedups[label] >= minimum, (
            f"recovery kernel speedup on {label} x{speedups[label]:.2f} < x{minimum}"
        )
