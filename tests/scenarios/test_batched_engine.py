"""Bit-equality tests for the session kernel.

The serial repetition loop in ``tests.oracles.session`` is the oracle: for
every named preset (at one and at several repetitions), every forecaster and
a stateful custom forecaster, :meth:`SessionEngine.run` — which executes
every session through :class:`repro.core.BatchedRemoteControlSimulation` —
must reproduce its metric tuples exactly, not approximately."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BatchedRemoteControlSimulation, ForecoConfig, ForecoRecovery
from repro.errors import ConfigurationError, DimensionError
from repro.forecasting import Forecaster, register_forecaster
from repro.scenarios import (
    SessionEngine,
    SessionResult,
    ScenarioSpec,
    get_scenario,
    loss_burst_channel,
    scenario_names,
)
from tests.oracles.session import SerialSessionEngine

#: Short but loss-rich runs keep the full preset × forecaster cross fast.
RUN_SECONDS = 8.0
REPETITIONS = 3

#: Tiny seq2seq so its NumPy BPTT fit does not dominate the suite.
SEQ2SEQ_OPTIONS = {
    "encoder_units": 4,
    "decoder_units": 2,
    "epochs": 1,
    "max_training_windows": 40,
}


def _assert_bit_identical(serial: SessionResult, batched: SessionResult) -> None:
    assert serial.rmse_no_forecast_mm == batched.rmse_no_forecast_mm
    assert serial.rmse_foreco_mm == batched.rmse_foreco_mm
    assert serial.late_fraction == batched.late_fraction
    assert serial.recovery_fraction == batched.recovery_fraction
    assert np.array_equal(serial.delays_ms, batched.delays_ms)
    assert serial.outcome is not None and batched.outcome is not None
    assert np.array_equal(serial.outcome.foreco.joints, batched.outcome.foreco.joints)
    assert np.array_equal(serial.outcome.baseline.joints, batched.outcome.baseline.joints)


def _run_both(spec) -> tuple[SessionResult, SessionResult]:
    serial = SerialSessionEngine(cache_results=False).run(spec)
    batched = SessionEngine(cache_results=False).run(spec)
    return serial, batched


@pytest.mark.parametrize("name", scenario_names())
def test_batched_equals_serial_for_every_preset(name):
    """Every named preset (incl. the PID jammer and the compound channel)."""
    spec = get_scenario(name).with_(run_seconds=RUN_SECONDS, repetitions=REPETITIONS)
    _assert_bit_identical(*_run_both(spec))


@pytest.mark.parametrize("name", scenario_names())
def test_single_repetition_equals_serial_for_every_preset(name):
    """``B = 1``: every single-session run goes through the kernel too."""
    spec = get_scenario(name).with_(run_seconds=RUN_SECONDS, repetitions=1)
    _assert_bit_identical(*_run_both(spec))


@pytest.mark.parametrize("algorithm", ["ma", "var", "varma", "ses", "seq2seq"])
def test_batched_equals_serial_for_every_forecaster(algorithm):
    """Every built-in forecaster over a loss-heavy channel."""
    options = SEQ2SEQ_OPTIONS if algorithm == "seq2seq" else {}
    spec = (
        get_scenario("bursty-loss")
        .with_(run_seconds=RUN_SECONDS, repetitions=REPETITIONS)
        .with_foreco(algorithm=algorithm, algorithm_options=options)
    )
    _assert_bit_identical(*_run_both(spec))


def test_batched_respects_recovery_knobs():
    """Tolerance, oracle feedback, unclamped steps, 'stop' fallback, R = 1."""
    base = get_scenario("bursty-loss").with_(run_seconds=RUN_SECONDS, repetitions=2)
    for spec in (
        base.with_foreco(tolerance_ms=40.0),
        base.with_foreco(feedback="oracle"),
        base.with_foreco(max_step_rad=None),
        base.with_(fallback="stop"),
        base.with_foreco(record=1),
    ):
        _assert_bit_identical(*_run_both(spec))


@pytest.mark.parametrize("name", ["jammer", "bursty-loss", "congested-ap"])
@pytest.mark.parametrize("repetitions", [1, 3])
def test_fallback_knob_does_not_change_results(name, repetitions):
    """``fallback`` is inert: FoReCo always injects a command and the
    baseline only executes arrived commands, so 'hold' == 'stop' bit for bit
    (``jammer`` runs the PID controller)."""
    base = get_scenario(name).with_(run_seconds=RUN_SECONDS, repetitions=repetitions)
    engine = SessionEngine(cache_results=False)
    hold = engine.run(base.with_(fallback="hold"))
    stop = engine.run(base.with_(fallback="stop"))
    assert hold.spec_hash != stop.spec_hash
    _assert_bit_identical(hold, stop)


class HoldLast(Forecaster):
    """Stateless custom forecaster without batched prediction."""

    name = "hold-last"

    def _fit(self, commands):
        return None

    def _predict_next(self, history):
        return history[-1]


class Drifting(Forecaster):
    """Stateful custom forecaster: each call adds a growing offset.

    Its forecasts depend on how often *this instance* was called, so the
    kernel matches the serial oracle only if every row predicts on its own
    copy, fed only that row's missing slots.
    """

    name = "drifting"

    def __init__(self, record: int = 5) -> None:
        super().__init__(record=record)
        self.calls = 0

    def _fit(self, commands):
        return None

    def _predict_next(self, history):
        self.calls += 1
        return history[-1] + 1e-3 * self.calls


def test_engine_serial_fallback_for_custom_forecaster():
    """Registered forecasters without batch support (stateless and stateful)
    run through the kernel's per-row copies, bit-identical to the oracle."""
    for name, cls in (("hold-last", HoldLast), ("drifting", Drifting)):
        try:
            register_forecaster(name, cls)
        except ConfigurationError:
            pass  # already registered earlier in this process
        spec = ScenarioSpec(
            name="custom",
            channel=loss_burst_channel(burst_length=10),
            run_seconds=RUN_SECONDS,
            repetitions=REPETITIONS,
        ).with_foreco(algorithm=name)
        _assert_bit_identical(*_run_both(spec))


def test_stateful_custom_forecaster_rows_do_not_share_state():
    """Direct kernel check: B = 3 equals three B = 1 runs, row for row."""
    config = ForecoConfig()
    rng = np.random.default_rng(0)
    train = np.cumsum(rng.normal(scale=0.02, size=(200, 6)), axis=0)
    recovery = ForecoRecovery(config=config, forecaster=Drifting(record=config.record))
    recovery.train(train)
    commands = train[:120]
    delays = np.ones((3, 120))
    delays[0, 20:40] = np.inf
    delays[1, 30:35] = np.inf
    delays[2, 50:90] = np.inf
    stacked = BatchedRemoteControlSimulation(recovery).run(commands, delays)
    for row in range(3):
        alone = BatchedRemoteControlSimulation(recovery).run(commands, delays[row])[0]
        assert np.array_equal(stacked[row].foreco.joints, alone.foreco.joints)
    # The master forecaster was never predicted on.
    assert recovery.forecaster.calls == 0


def test_batched_simulation_validates_shapes():
    rng = np.random.default_rng(0)
    train = np.cumsum(rng.normal(scale=0.02, size=(200, 6)), axis=0)
    recovery = ForecoRecovery(config=ForecoConfig()).train(train)
    simulation = BatchedRemoteControlSimulation(recovery)
    commands = train[:50]
    with pytest.raises(DimensionError):
        simulation.run(commands, np.ones((2, 49)))
    outcomes = simulation.run(commands, np.ones(50))  # 1-D => B = 1
    assert len(outcomes) == 1


def test_improvement_factor_inf_contract():
    """A zero/near-zero FoReCo RMSE denominator yields inf, never NaN."""
    result = SessionEngine(cache_results=False).run(
        get_scenario("clean").with_(run_seconds=RUN_SECONDS)
    )
    # Documented contract: near-zero denominators (< 1e-12 mm) report inf.
    tweaked = SessionResult(
        spec=result.spec,
        spec_hash=result.spec_hash,
        n_commands=result.n_commands,
        rmse_no_forecast_mm=(1.0,),
        rmse_foreco_mm=(0.0,),
        late_fraction=(0.0,),
        recovery_fraction=(0.0,),
    )
    assert tweaked.improvement_factor == float("inf")
    assert not np.isnan(tweaked.improvement_factor)
    subnormal = SessionResult(
        spec=result.spec,
        spec_hash=result.spec_hash,
        n_commands=result.n_commands,
        rmse_no_forecast_mm=(1.0,),
        rmse_foreco_mm=(1e-13,),
        late_fraction=(0.0,),
        recovery_fraction=(0.0,),
    )
    assert subnormal.improvement_factor == float("inf")
