"""Remote controller: turns operator motion into the on-the-wire command stream.

The joystick-based remote controller in the testbed issues one absolute joint
command every Ω = 20 ms, where consecutive commands differ by at most the
robot's configured *moving offset* (0.04 rad per joint).  This module applies
that quantisation to an operator's raw motion and packages the result as a
:class:`CommandStream`, the canonical input of every experiment:

* the defined (ideal) command sequence ``c_1 .. c_N``,
* the generation timestamps ``g(c_i)`` on the Ω grid,
* convenience accessors used by the dataset/recovery layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_command_array, ensure_positive
from ..errors import DimensionError
from ..robot.niryo import NiryoOneArm
from .operator import OperatorModel


@dataclass
class CommandStream:
    """An ordered stream of remote-control commands on the Ω time grid.

    Attributes
    ----------
    commands:
        Absolute joint commands, shape ``(n, d)``.
    period_ms:
        Command interval Ω in milliseconds.
    label:
        Free-form provenance label ("experienced", "inexperienced", ...).
    """

    commands: np.ndarray
    period_ms: float = 20.0
    label: str = ""

    def __post_init__(self) -> None:
        self.commands = as_command_array("commands", self.commands)
        self.period_ms = ensure_positive("period_ms", self.period_ms)

    def __len__(self) -> int:
        return self.commands.shape[0]

    @property
    def n_joints(self) -> int:
        """Dimensionality ``d`` of each command."""
        return self.commands.shape[1]

    @property
    def duration_s(self) -> float:
        """Wall-clock duration spanned by the stream."""
        return len(self) * self.period_ms / 1000.0

    def generation_times_s(self) -> np.ndarray:
        """``g(c_i)`` — the time each command is issued, in seconds."""
        return np.arange(len(self)) * self.period_ms / 1000.0

    def slice(self, start: int, stop: int) -> "CommandStream":
        """Sub-stream of commands ``start <= i < stop``."""
        return CommandStream(self.commands[start:stop], period_ms=self.period_ms, label=self.label)

    def head_seconds(self, seconds: float) -> "CommandStream":
        """The first ``seconds`` worth of commands (e.g. a 30 s experiment run)."""
        n = int(round(seconds * 1000.0 / self.period_ms))
        n = max(1, min(n, len(self)))
        return self.slice(0, n)

    def distance_from_origin_mm(self, arm: NiryoOneArm | None = None) -> np.ndarray:
        """Distance-from-origin series of the defined trajectory (Fig. 6 y-axis)."""
        arm = arm if arm is not None else NiryoOneArm()
        return arm.trajectory_distance_mm(self.commands)


def _clip(value: float, low: float, high: float) -> float:
    """Scalar ``np.clip`` with NumPy's comparison order (max first, then min)."""
    value = value if value > low else low
    return value if value < high else high


def _repair_joint(
    raw: np.ndarray, out: np.ndarray, divergent: np.ndarray, offset: float, low: float, high: float
) -> None:
    """Re-run the exact rate-limit recurrence of one joint where speculation failed.

    ``out[i]`` is correct wherever the state before step ``i`` equals
    ``raw[i - 1]``.  From each divergent index the scalar recurrence takes
    over until its state equals the raw motion again; from there on the
    speculated values hold until the next divergence.  Equality by value is
    enough: a state that differs from the raw motion only in the sign of
    zero produces the same next command bit for bit.
    """
    raw_values = raw.tolist()
    n = len(raw_values)
    stop = 0
    for index in divergent.tolist():
        if index < stop:
            continue  # already recomputed by the previous repair run
        state = float(out[index])
        repaired = []
        stop = index + 1
        while stop < n:
            target = raw_values[stop]
            state = _clip(state + _clip(target - state, -offset, offset), low, high)
            repaired.append(state)
            stop += 1
            if state == target:
                break
        out[index + 1 : stop] = repaired


class RemoteController:
    """Quantising remote controller sitting between the operator and the network.

    Parameters
    ----------
    arm:
        The target arm (provides the moving offset and joint limits).
    command_period_ms:
        Ω, the command interval.
    moving_offset_rad:
        Maximum per-joint change between consecutive commands.  ``None`` uses
        the arm's configured offset (0.04 rad for the Niryo One).
    """

    def __init__(
        self,
        arm: NiryoOneArm | None = None,
        command_period_ms: float = 20.0,
        moving_offset_rad: float | None = None,
    ) -> None:
        self.arm = arm if arm is not None else NiryoOneArm()
        self.command_period_ms = ensure_positive("command_period_ms", command_period_ms)
        offset = (
            moving_offset_rad
            if moving_offset_rad is not None
            else self.arm.limits.moving_offset_rad
        )
        self.moving_offset_rad = ensure_positive("moving_offset_rad", offset)

    def quantise(self, raw_motion: np.ndarray, label: str = "") -> CommandStream:
        """Convert raw operator motion into a rate-limited command stream.

        Each output command moves every joint at most ``moving_offset_rad``
        from the previous command towards the operator's current position, and
        is clamped to the arm's joint limits — exactly what the joystick
        controller in the testbed does.
        """
        raw_motion = as_command_array("raw_motion", raw_motion)
        if raw_motion.shape[1] != self.arm.n_joints:
            raise DimensionError(
                f"raw motion must have {self.arm.n_joints} joints, got {raw_motion.shape[1]}"
            )
        offset = self.moving_offset_rad
        limits = self.arm.limits
        commands = np.empty_like(raw_motion)
        commands[0] = self.arm.clamp(raw_motion[0])
        # Speculate that the controller state before every step equals the raw
        # motion: then each step is one vectorised clip/clamp of the raw delta.
        previous = raw_motion[:-1]
        commands[1:] = np.clip(
            previous + np.clip(raw_motion[1:] - previous, -offset, offset),
            limits.position_min,
            limits.position_max,
        )
        divergent = commands[1:] != raw_motion[1:]
        for joint in np.flatnonzero(divergent.any(axis=0)):
            _repair_joint(
                raw_motion[:, joint],
                commands[:, joint],
                np.flatnonzero(divergent[:, joint]) + 1,
                offset,
                float(limits.position_min[joint]),
                float(limits.position_max[joint]),
            )
        return CommandStream(commands, period_ms=self.command_period_ms, label=label)

    def stream_from_operator(self, operator: OperatorModel, n_repetitions: int = 10) -> CommandStream:
        """Generate an operator dataset and quantise it into a command stream."""
        raw = operator.generate_dataset(n_repetitions)
        return self.quantise(raw, label=operator.profile.name)
