"""Serial reference engines for the teleoperation layer (bit-equality oracles).

These are the command-by-command loops that ``OperatorModel.generate_cycle``
and ``RemoteController.quantise`` ran before they were vectorised.  They are
kept here verbatim so the NumPy passes in ``repro.teleop`` can be checked
bit for bit against them, and so the teleop benchmark has a denominator.
"""

from __future__ import annotations

import numpy as np

from repro._validation import as_command_array, ensure_int
from repro.teleop.controller import RemoteController
from repro.teleop.operator import OperatorModel


def generate_cycle(model: OperatorModel, start_joints: np.ndarray | None = None) -> np.ndarray:
    """Serial ``OperatorModel.generate_cycle``: one RNG draw per command."""
    dt_s = model.command_period_ms / 1000.0
    profile = model.profile
    waypoints = model.task.waypoints
    current = (
        np.asarray(start_joints, dtype=float).ravel().copy()
        if start_joints is not None
        else waypoints[0].joints.copy()
    )
    commands: list[np.ndarray] = []
    wander = np.zeros(model.n_joints)

    for waypoint in waypoints:
        duration = waypoint.move_duration_s * max(
            0.2, 1.0 + model.rng.normal(0.0, profile.speed_variability)
        )
        n_steps = max(1, int(round(duration / dt_s)))
        target = waypoint.joints + model.rng.normal(0.0, profile.overshoot_rad, model.n_joints)
        start = current.copy()
        fractions = model._profile_fn(np.arange(1, n_steps + 1) / n_steps)
        for fraction in fractions:
            wander = (
                profile.jitter_smoothing * wander
                + (1.0 - profile.jitter_smoothing)
                * model.rng.normal(0.0, profile.jitter_rad, model.n_joints)
            )
            command = start + fraction * (target - start) + wander
            commands.append(command)
        current = commands[-1].copy()

        dwell = waypoint.dwell_s
        if model.rng.random() < profile.pause_probability:
            dwell += model.rng.exponential(profile.pause_duration_s)
        n_dwell = int(round(dwell / dt_s))
        for _ in range(n_dwell):
            wander = (
                profile.jitter_smoothing * wander
                + (1.0 - profile.jitter_smoothing)
                * model.rng.normal(0.0, profile.jitter_rad, model.n_joints)
            )
            commands.append(current + wander)
    return np.array(commands)


def generate_dataset(model: OperatorModel, n_repetitions: int = 10) -> np.ndarray:
    """Serial ``OperatorModel.generate_dataset`` built on :func:`generate_cycle`."""
    n_repetitions = ensure_int("n_repetitions", n_repetitions, minimum=1)
    cycles = []
    current: np.ndarray | None = None
    for _ in range(n_repetitions):
        cycle = generate_cycle(model, start_joints=current)
        cycles.append(cycle)
        current = cycle[-1]
    return np.vstack(cycles)


def quantise(controller: RemoteController, raw_motion: np.ndarray) -> np.ndarray:
    """Serial ``RemoteController.quantise``: one clip/clamp pair per command."""
    raw_motion = as_command_array("raw_motion", raw_motion)
    commands = np.empty_like(raw_motion)
    current = raw_motion[0].copy()
    commands[0] = controller.arm.clamp(current)
    for index in range(1, raw_motion.shape[0]):
        delta = raw_motion[index] - current
        delta = np.clip(delta, -controller.moving_offset_rad, controller.moving_offset_rad)
        current = controller.arm.clamp(current + delta)
        commands[index] = current
    return commands


def stream_commands(
    controller: RemoteController, model: OperatorModel, n_repetitions: int = 10
) -> np.ndarray:
    """Serial ``RemoteController.stream_from_operator`` (commands only)."""
    return quantise(controller, generate_dataset(model, n_repetitions))
