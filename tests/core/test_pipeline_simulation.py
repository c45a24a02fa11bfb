"""Tests for the training pipeline and the end-to-end simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CommandDataset,
    ForecoConfig,
    BatchedRemoteControlSimulation,
    ForecoRecovery,
    TrainingPipeline,
    compare_baseline_and_foreco,
)
from repro.errors import ConfigurationError, DatasetError, DimensionError
from repro.wireless import ConsecutiveLossInjector, GilbertElliottJammer, InterferenceSource, WirelessChannel


# ------------------------------------------------------------------ pipeline
def test_pipeline_produces_fitted_forecaster_and_timings(experienced_stream):
    dataset = CommandDataset(6)
    dataset.extend(experienced_stream.commands)
    pipeline = TrainingPipeline(ForecoConfig())
    forecaster, report = pipeline.run(dataset)
    assert forecaster.is_fitted
    assert report.timings.total_s > 0.0
    assert report.timings.training_s > 0.0
    assert report.n_training_commands > report.n_test_commands
    assert report.test_rmse >= 0.0
    assert report.inference_time_ms < 20.0  # far below the control period
    assert report.quality.is_clean


def test_pipeline_downsampling_reduces_training_set(experienced_stream):
    dataset = CommandDataset(6)
    dataset.extend(experienced_stream.commands)
    plain = TrainingPipeline(ForecoConfig())
    halved = TrainingPipeline(ForecoConfig(), downsample_factor=2)
    _, report_plain = plain.run(dataset)
    _, report_halved = halved.run(dataset)
    assert report_halved.n_training_commands < report_plain.n_training_commands


def test_pipeline_rejects_tiny_dataset():
    dataset = CommandDataset(6)
    dataset.extend(np.zeros((5, 6)))
    with pytest.raises(DatasetError):
        TrainingPipeline(ForecoConfig(record=10)).run(dataset)


# ---------------------------------------------------------------- simulation
def _run_session(recovery, commands, delays):
    """One session through the session kernel (``B = 1``)."""
    return BatchedRemoteControlSimulation(recovery).run(commands, delays)[0]


def test_simulation_requires_trained_recovery():
    with pytest.raises(ConfigurationError):
        BatchedRemoteControlSimulation(ForecoRecovery(ForecoConfig()))


def test_simulation_perfect_channel_gives_zero_error(trained_recovery, inexperienced_stream):
    commands = inexperienced_stream.commands[:300]
    delays = np.full(300, 1.0)
    outcome = _run_session(trained_recovery, commands, delays)
    assert outcome.rmse_foreco_mm == pytest.approx(0.0, abs=1e-9)
    assert outcome.rmse_no_forecast_mm == pytest.approx(0.0, abs=1e-6)
    assert outcome.late_fraction == 0.0


def test_simulation_foreco_beats_baseline_under_bursty_loss(trained_recovery, inexperienced_stream):
    commands = inexperienced_stream.commands[:1200]
    injector = ConsecutiveLossInjector(burst_length=10, n_bursts=6, min_gap=80, seed=3)
    delays = injector.to_trace(1200).delays()
    outcome = _run_session(trained_recovery, commands, delays)
    assert outcome.rmse_foreco_mm < outcome.rmse_no_forecast_mm
    assert outcome.improvement_factor > 1.0
    assert outcome.late_fraction > 0.0
    assert len(outcome.defined) == len(outcome.foreco) == len(outcome.baseline)


def test_simulation_foreco_beats_baseline_under_interference(trained_recovery, inexperienced_stream):
    commands = inexperienced_stream.commands[:1200]
    channel = WirelessChannel(
        n_robots=15, interference=InterferenceSource(0.025, 50), seed=9
    )
    trace = channel.sample_trace(1200)
    outcome = _run_session(trained_recovery, commands, trace.delays())
    assert outcome.rmse_foreco_mm < outcome.rmse_no_forecast_mm


def test_simulation_foreco_beats_baseline_under_jammer(trained_recovery, inexperienced_stream):
    commands = inexperienced_stream.commands[:1500]
    delays = GilbertElliottJammer(seed=4).sample_trace(1500).delays()
    outcome = _run_session(trained_recovery, commands, delays)
    assert outcome.rmse_foreco_mm < outcome.rmse_no_forecast_mm


def test_simulation_baseline_lags_behind_with_delayed_commands(trained_recovery, inexperienced_stream):
    """Delayed (not lost) commands make the stock stack lag and accrue error,
    while FoReCo bridges a short delayed stretch with forecasts."""
    commands = inexperienced_stream.commands[:600]
    delays = np.full(600, 1.0)
    delays[200:215] = 400.0  # a 15-command stretch arrives 400 ms late
    outcome = _run_session(trained_recovery, commands, delays)
    assert outcome.rmse_no_forecast_mm > 0.3
    assert outcome.rmse_foreco_mm < outcome.rmse_no_forecast_mm

    # A sustained lag (every command late by two periods for one second)
    # accrues baseline error even though nothing is lost.
    delays_lag = np.full(600, 1.0)
    delays_lag[300:350] = 45.0
    lagged = _run_session(trained_recovery, commands, delays_lag)
    assert lagged.rmse_no_forecast_mm > 0.1


def test_simulation_shape_validation(trained_recovery):
    with pytest.raises(DimensionError):
        _run_session(trained_recovery, np.zeros((10, 6)), np.zeros(9))


def test_simulation_run_trace_length_check(trained_recovery, inexperienced_stream):
    """A delay trace shorter than the command stream is rejected."""
    commands = inexperienced_stream.commands[:100]
    channel = WirelessChannel(n_robots=5, seed=1)
    short_trace = channel.sample_trace(50)
    with pytest.raises(DimensionError):
        _run_session(trained_recovery, commands, short_trace.delays())


def test_compare_helper_end_to_end(experienced_stream, inexperienced_stream):
    commands = inexperienced_stream.commands[:800]
    injector = ConsecutiveLossInjector(burst_length=8, n_bursts=4, min_gap=60, seed=5)
    delays = injector.to_trace(800).delays()
    outcome = compare_baseline_and_foreco(
        experienced_stream.commands, commands, delays, config=ForecoConfig(record=10)
    )
    assert outcome.improvement_factor > 1.0
    assert 0.0 < outcome.recovery_fraction <= 1.0
