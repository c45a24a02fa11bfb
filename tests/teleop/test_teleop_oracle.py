"""The vectorised teleop layer is bit-identical to its serial oracle.

Real operator datasets never bind the rate limit or the joint limits, so the
repair path of ``RemoteController.quantise`` is only reached through forced
cases here: small moving offsets and raw motion scaled past the limits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.robot.niryo import NiryoOneArm
from repro.teleop import (
    OperatorModel,
    RemoteController,
    experienced_operator,
    inexperienced_operator,
)
from repro.teleop.pick_place import PickPlaceTask, Waypoint
from tests.oracles import teleop as oracle

PROFILES = {"experienced": experienced_operator, "inexperienced": inexperienced_operator}
MOTIONS = ("trapezoidal", "minimum-jerk")
SEEDS = range(12)
OFFSETS = (0.04, 0.01, 0.003)


def assert_bit_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def model(profile: str, motion: str, seed: int, task: PickPlaceTask | None = None) -> OperatorModel:
    return OperatorModel(task=task, profile=PROFILES[profile](), motion_profile=motion, seed=seed)


@pytest.mark.parametrize("motion", MOTIONS)
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_generate_dataset_matches_oracle(profile, motion):
    for seed in SEEDS:
        assert_bit_identical(
            model(profile, motion, seed).generate_dataset(2),
            oracle.generate_dataset(model(profile, motion, seed), 2),
        )


def test_generate_cycle_matches_oracle_from_a_given_start():
    start = np.linspace(-0.5, 0.5, 6)
    assert_bit_identical(
        model("inexperienced", "trapezoidal", 5).generate_cycle(start),
        oracle.generate_cycle(model("inexperienced", "trapezoidal", 5), start),
    )


def test_generation_leaves_the_rng_where_the_oracle_does():
    fast, serial = model("experienced", "trapezoidal", 9), model("experienced", "trapezoidal", 9)
    fast.generate_cycle()
    oracle.generate_cycle(serial)
    assert fast.rng.random() == serial.rng.random()


def test_zero_dwell_segments_match_oracle():
    joints = np.array([0.0, 0.3, -0.4, 0.0, 0.5, 0.0])
    task = PickPlaceTask(
        waypoints=[
            Waypoint(joints, move_duration_s=0.3, dwell_s=0.0),
            Waypoint(joints + 0.2, move_duration_s=0.02, dwell_s=0.0),
            Waypoint(joints - 0.1, move_duration_s=0.5, dwell_s=0.0),
        ]
    )
    for seed in SEEDS:
        assert_bit_identical(
            model("experienced", "minimum-jerk", seed, task).generate_dataset(3),
            oracle.generate_dataset(model("experienced", "minimum-jerk", seed, task), 3),
        )


@pytest.mark.parametrize("scale", (1.0, 3.0))
@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_quantise_matches_oracle(profile, offset, scale):
    """Scale 3 drives the motion past the joint limits; small offsets bind the rate limit."""
    controller = RemoteController(moving_offset_rad=offset)
    for seed in SEEDS:
        raw = model(profile, "trapezoidal", seed).generate_dataset(1) * scale
        assert_bit_identical(controller.quantise(raw).commands, oracle.quantise(controller, raw))


def test_quantise_single_row():
    controller = RemoteController()
    raw = np.array([[0.1, -0.2, 0.3, 0.0, 0.4, -5.0]])
    assert_bit_identical(controller.quantise(raw).commands, oracle.quantise(controller, raw))


def test_quantise_first_row_outside_limits():
    """The first command is clamped but the controller state starts at the raw row."""
    controller = RemoteController()
    raw = model("experienced", "trapezoidal", 1).generate_dataset(1)
    raw[0] = [4.0, -2.0, 2.0, -4.0, 2.5, -3.0]
    assert_bit_identical(controller.quantise(raw).commands, oracle.quantise(controller, raw))


def test_quantise_signed_zeros_against_zero_limits():
    arm = NiryoOneArm()
    arm.limits.position_min = np.array([0.0, -1.0, -0.0, -3.0, -1.0, -2.0])
    arm.limits.position_max = np.array([1.0, 0.0, 1.0, -0.0, 1.0, 0.0])
    controller = RemoteController(arm=arm, moving_offset_rad=0.5)
    raw = np.random.default_rng(0).choice([0.0, -0.0, 0.25, -0.25, 1.5, -1.5], size=(400, 6))
    assert_bit_identical(controller.quantise(raw).commands, oracle.quantise(controller, raw))


def test_quantise_non_contiguous_input():
    controller = RemoteController(moving_offset_rad=0.003)
    raw = np.asfortranarray(model("inexperienced", "minimum-jerk", 2).generate_dataset(1) * 3.0)
    assert_bit_identical(controller.quantise(raw).commands, oracle.quantise(controller, raw))


def test_stream_from_operator_matches_oracle():
    controller = RemoteController()
    for profile in sorted(PROFILES):
        stream = controller.stream_from_operator(model(profile, "trapezoidal", 4), n_repetitions=3)
        expected = oracle.stream_commands(controller, model(profile, "trapezoidal", 4), 3)
        assert_bit_identical(stream.commands, expected)
        assert stream.label == profile
