"""Per-slot lockstep recovery kernel (bit-equality oracle).

``ForecoRecovery.process_stream_batch`` schedules its forecasts by
dependency level: one round per level of each loss burst, with on-time
slots never visited.  The kernel it replaced advanced all ``B`` recovery
state machines one slot at a time through a rolling ``(B, record, d)``
history window.  That loop is kept here verbatim, so the level schedule can
be checked bit for bit against it and the recovery benchmark has a
denominator.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.recovery import BatchedRecoveryResult, ForecoRecovery, RecoveryStats
from repro.errors import DimensionError


def process_stream_batch(
    recovery: ForecoRecovery, commands: np.ndarray, delays_ms: np.ndarray
) -> BatchedRecoveryResult:
    """Per-slot ``ForecoRecovery.process_stream_batch``: one iteration per slot."""
    commands = np.asarray(commands, dtype=float)
    delays_ms = np.asarray(delays_ms, dtype=float)
    if delays_ms.ndim == 1:
        delays_ms = delays_ms[None, :]
    if commands.ndim != 2 or delays_ms.ndim != 2 or commands.shape[0] != delays_ms.shape[1]:
        raise DimensionError("commands (n, d) and delays_ms (B, n) lengths must match")
    n_batch, n_slots = delays_ms.shape
    n_joints = commands.shape[1]
    record = recovery.config.record
    max_step = recovery.config.max_step_rad
    oracle = recovery.config.feedback == "oracle"
    model_ready = recovery.forecaster.is_fitted
    row_forecasters = None
    if not getattr(recovery.forecaster, "supports_batch_predict", False):
        row_forecasters = [copy.deepcopy(recovery.forecaster) for _ in range(n_batch)]

    on_time = np.isfinite(delays_ms) & (delays_ms <= recovery.config.deadline_ms)
    executed = np.empty((n_batch, n_slots, n_joints))
    forecasted = np.zeros((n_batch, n_slots), dtype=bool)

    # Rolling effective-command window per repetition, seeded with the
    # first command exactly like the serial path; ``filled`` tracks the
    # serial history length min(1 + slot, record), which gates forecasts.
    history = np.zeros((n_batch, record, n_joints))
    history[:, -1, :] = commands[0]
    filled = 1

    for slot in range(n_slots):
        command = commands[slot]
        missing = ~on_time[:, slot]
        slot_executed = np.broadcast_to(command, (n_batch, n_joints)).copy()
        if missing.any():
            if model_ready and filled >= record:
                if row_forecasters is None:
                    forecasts = recovery.forecaster.predict_next_batch(history[missing])
                else:
                    forecasts = np.stack(
                        [
                            np.asarray(
                                row_forecasters[row].predict_next(np.array(history[row])),
                                dtype=float,
                            ).ravel()
                            for row in np.flatnonzero(missing)
                        ]
                    )
                if max_step is not None:
                    previous = history[missing, -1, :]
                    step = np.clip(forecasts - previous, -max_step, max_step)
                    forecasts = previous + step
                slot_executed[missing] = forecasts
                forecasted[missing, slot] = True
            else:
                # Not enough history yet: repeat the previous effective
                # command (the robot's native fallback behaviour).
                slot_executed[missing] = history[missing, -1, :]
        executed[:, slot, :] = slot_executed
        feedback = slot_executed
        if oracle:
            feedback = np.where(missing[:, None], command, slot_executed)
        if record > 1:
            history[:, :-1, :] = history[:, 1:, :]
        history[:, -1, :] = feedback
        filled = min(filled + 1, record)

    stats = []
    for index in range(n_batch):
        n_on_time = int(on_time[index].sum())
        stats.append(
            RecoveryStats(
                n_slots=n_slots,
                n_on_time=n_on_time,
                n_missing=n_slots - n_on_time,
                n_forecasted=int(forecasted[index].sum()),
            )
        )
    return BatchedRecoveryResult(
        executed=executed, on_time=on_time, forecasted=forecasted, stats=stats
    )
