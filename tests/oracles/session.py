"""Serial reference session engine (bit-equality oracle).

Every session, fleet and service run in ``repro`` executes through one
kernel: ``BatchedRemoteControlSimulation`` over a ``(B, n)`` delay stack.
The serial path it replaced is kept here verbatim, so the kernel can be
checked bit for bit against it and the batch benchmarks have a denominator:

* :class:`RemoteControlSimulation` — one session at a time, through
  ``ForecoRecovery.process_stream`` and two :class:`~tests.oracles.driver.RobotDriver`
  runs;
* :class:`SerialSessionEngine` — a ``SessionEngine`` whose ``run`` is the
  old serial repetition loop (serial channel sampler, one fresh forecaster
  copy and one :class:`RemoteControlSimulation` per repetition) and whose
  ``simulate`` is the old serial per-row fleet loop.  Plug it into a
  ``FleetEngine`` (``FleetEngine(sessions=SerialSessionEngine())``) to get
  the serial fleet oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.recovery import ForecoRecovery
from repro.core.simulation import SimulationOutcome, baseline_target_indices
from repro.errors import ConfigurationError, DimensionError
from repro.robot.niryo import NiryoOneArm
from repro.robot.trajectory import JointTrajectory, trajectory_rmse_mm
from repro.scenarios.engine import SessionEngine, SessionResult, repetition_seed
from repro.scenarios.spec import ScenarioSpec
from repro.wireless.channel import CommandDelayTrace

from .channels import sample_channel_delays
from .driver import DriverConfig, RobotDriver


class RemoteControlSimulation:
    """Replays a command stream through a channel, with and without FoReCo."""

    def __init__(
        self,
        recovery: ForecoRecovery,
        arm: NiryoOneArm | None = None,
        use_pid: bool = False,
        fallback: str = "hold",
    ) -> None:
        if not recovery.is_ready:
            raise ConfigurationError("the recovery engine must be trained before simulating")
        self.recovery = recovery
        self.arm = arm if arm is not None else NiryoOneArm()
        self.use_pid = bool(use_pid)
        self.fallback = fallback

    # ------------------------------------------------------------------ run
    def run(self, commands: np.ndarray, delays_ms: np.ndarray) -> SimulationOutcome:
        """Execute one session given per-command end-to-end delays."""
        commands = np.asarray(commands, dtype=float)
        delays_ms = np.asarray(delays_ms, dtype=float).ravel()
        if commands.ndim != 2 or commands.shape[0] != delays_ms.size:
            raise DimensionError("commands and delays_ms lengths must match")
        config = self.recovery.config

        # FoReCo pass: compute per-slot executed targets (real or forecast).
        foreco_targets = self.recovery.process_stream(commands, delays_ms)
        on_time_mask = np.array(
            [self.recovery.is_on_time(delay) for delay in delays_ms], dtype=bool
        )
        late_fraction = float(1.0 - on_time_mask.mean())
        recovery_fraction = self.recovery.stats.recovery_fraction

        driver_config = DriverConfig(
            command_period_ms=config.command_period_ms,
            tolerance_ms=config.tolerance_ms,
            fallback=self.fallback,  # type: ignore[arg-type]
            use_pid=self.use_pid,
        )

        # Baseline: execute commands as they arrive (stock stack behaviour).
        baseline_targets = self._baseline_targets(commands, delays_ms)
        baseline_driver = RobotDriver(arm=self.arm, config=driver_config)
        baseline_log = baseline_driver.run(
            baseline_targets, np.ones(commands.shape[0], dtype=bool), forecasts=None
        )

        # FoReCo: inject the recovery engine's forecasts for missing slots.
        foreco_driver = RobotDriver(arm=self.arm, config=driver_config)
        foreco_log = foreco_driver.run(commands, on_time_mask, forecasts=foreco_targets)

        period_s = config.command_period_ms / 1000.0
        times = np.arange(commands.shape[0]) * period_s
        defined = JointTrajectory(times, commands, label="defined")
        baseline = baseline_log.executed_trajectory(label="no-forecast")
        foreco = foreco_log.executed_trajectory(label="foreco")

        return SimulationOutcome(
            rmse_no_forecast_mm=trajectory_rmse_mm(baseline.joints, commands, arm=self.arm),
            rmse_foreco_mm=trajectory_rmse_mm(foreco.joints, commands, arm=self.arm),
            late_fraction=late_fraction,
            recovery_fraction=recovery_fraction,
            defined=defined,
            baseline=baseline,
            foreco=foreco,
        )

    def _baseline_targets(self, commands: np.ndarray, delays_ms: np.ndarray) -> np.ndarray:
        """Per-slot targets executed by the stock (no-forecast) robot stack."""
        period = self.recovery.config.command_period_ms
        return commands[baseline_target_indices(delays_ms, period)]

    def run_trace(self, commands: np.ndarray, trace: CommandDelayTrace) -> SimulationOutcome:
        """Convenience wrapper accepting a :class:`CommandDelayTrace`."""
        delays = trace.delays()
        if delays.size < commands.shape[0]:
            raise DimensionError(
                f"trace has {delays.size} samples but the stream has {commands.shape[0]} commands"
            )
        return self.run(commands, delays[: commands.shape[0]])


class SerialSessionEngine(SessionEngine):
    """A :class:`SessionEngine` that runs the serial reference path.

    ``run`` never reads or writes the result cache or a store: every call
    recomputes.  Datasets and trained forecasters come from the usual
    engine caches.
    """

    def run(self, spec: ScenarioSpec) -> SessionResult:
        """Run one scenario through the serial repetition loop."""
        commands = self.test_commands(spec)
        self.trained_forecaster(spec)  # ensure the master is fitted once
        outcomes, delays = self._run_serial(spec, commands)
        return SessionResult(
            spec=spec,
            spec_hash=spec.spec_hash(),
            n_commands=int(commands.shape[0]),
            rmse_no_forecast_mm=tuple(o.rmse_no_forecast_mm for o in outcomes),
            rmse_foreco_mm=tuple(o.rmse_foreco_mm for o in outcomes),
            late_fraction=tuple(o.late_fraction for o in outcomes),
            recovery_fraction=tuple(o.recovery_fraction for o in outcomes),
            outcome=outcomes[-1],
            delays_ms=delays,
        )

    def _serial_delays(self, spec: ScenarioSpec, n_commands: int, repetition: int) -> np.ndarray:
        """One repetition's channel realisation (seeded from the spec)."""
        return sample_channel_delays(
            spec.channel,
            n_commands,
            seed=repetition_seed(spec, repetition),
            command_period_ms=spec.foreco.command_period_ms,
        )

    def _run_serial(
        self, spec: ScenarioSpec, commands: np.ndarray
    ) -> tuple[list[SimulationOutcome], np.ndarray]:
        """One full simulation per repetition."""
        outcomes: list[SimulationOutcome] = []
        delays: np.ndarray | None = None
        for repetition in range(spec.repetitions):
            recovery = ForecoRecovery(
                config=spec.foreco.to_config(), forecaster=self.session_forecaster(spec)
            )
            simulation = RemoteControlSimulation(
                recovery, use_pid=spec.use_pid, fallback=spec.fallback
            )
            delays = self._serial_delays(spec, commands.shape[0], repetition)
            outcomes.append(simulation.run(commands, delays))
        assert delays is not None  # repetitions >= 1 by spec validation
        return outcomes, delays

    def simulate(
        self, spec: ScenarioSpec, commands: np.ndarray, delays_ms: np.ndarray
    ) -> list[SimulationOutcome]:
        """The serial per-row loop fleets and services used: one session per row."""
        outcomes: list[SimulationOutcome] = []
        for row in range(delays_ms.shape[0]):
            recovery = ForecoRecovery(
                config=spec.foreco.to_config(),
                forecaster=self.session_forecaster(spec),
            )
            simulation = RemoteControlSimulation(
                recovery, use_pid=spec.use_pid, fallback=spec.fallback
            )
            outcomes.append(simulation.run(commands, delays_ms[row]))
        return outcomes
