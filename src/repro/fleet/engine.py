"""Fleet engine: resolve a :class:`FleetSpec` into coupled session runs.

One fleet realisation couples ``N`` operator sessions through the access
points they share.  The engine reuses the scenario runtime wholesale —
datasets, trained forecasters and the batched session kernel all come from a
:class:`~repro.scenarios.SessionEngine` — and adds the one thing a list of
independent sessions cannot express: **contention**.

The contention model
--------------------

Each operator's own channel realisation is sampled exactly as a
single-session run would sample it, through
:func:`~repro.scenarios.engine.sample_channel_delays_batch` with the same
block-ordered RNG streams.  On top of those *base* delays, operators
assigned to the same AP contend for its air time:

* every delivered command occupies the AP for ``ap_service_ms`` of work;
* per command slot, the AP has one command period of budget; demand beyond
  the budget accumulates as **backlog** — a vectorized Lindley recursion
  ``backlog[k+1] = max(0, backlog[k] + work[k] - period)`` computed with one
  ``cumsum`` / ``minimum.accumulate`` pass per AP;
* a command arriving at slot ``k`` with in-slot service rank ``r`` (ranks
  follow operator index) waits ``backlog[k] + r * ap_service_ms`` on top of
  its base delay.  Commands the operator's own channel lost never reach the
  AP and contribute no work.

**Single-operator bit-equality contract:** with one operator per AP and
``ap_service_ms <= command_period_ms`` the per-slot demand never exceeds the
budget, so the backlog is identically zero, every rank is zero, and the
coupled delays equal the base delays *bit for bit* — a 1-operator fleet
reproduces :meth:`SessionEngine.run` on the template exactly, for every
channel kind.  The tests pin this contract.

Sessions and admission
----------------------

Operators start at the spec's arrival-process times (slot-quantised) and are
statically assigned to AP ``i % aps``.  A session whose AP already serves
``ap_capacity`` concurrent sessions at its arrival is **dropped**: it is
counted, never simulated.  All admitted operator-sessions across all
repetitions then advance through ONE batched session kernel call (the
``(B, n)`` stack of coupled delays), which is what makes fleet execution
several times faster than running the sessions one by one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scenarios.store import ResultStore

from ..core.simulation import SimulationOutcome
from ..errors import ConfigurationError
from ..scenarios.engine import (
    CachingEngine,
    SessionEngine,
    repetition_seed,
    sample_channel_delays_batch,
)
from ..scenarios.spec import ScenarioSpec
from .hybrid import ApClassification, classify_aps, cold_session_metrics
from .spec import FleetSpec, _hash_seed, sample_arrival_times


def operator_channel_spec(fleet: FleetSpec, operator: int) -> ScenarioSpec:
    """The scenario spec whose channel identity seeds one operator's delays.

    Operator 0 is the template itself — its channel realisations (and
    therefore a single-operator fleet) are bit-identical to a plain
    :meth:`SessionEngine.run` of the template.  Operators ``i > 0`` get a
    hash-decorrelated seed derived from the template seed and the operator
    index, so their channels are independent realisations of the same model.
    """
    operator = int(operator)
    if operator < 0:
        raise ConfigurationError("operator index must be >= 0")
    if operator == 0:
        return fleet.template
    derived = _hash_seed(f"fleet-operator::{int(fleet.template.seed)}::{operator}")
    return fleet.template.with_(seed=derived)


# -------------------------------------------------------------------- results
@dataclass
class FleetResult:
    """Uniform per-fleet result row produced by the engine.

    The per-session metric tuples hold one entry per **admitted**
    operator-session, ordered operator-major (operator 0's repetitions
    first) — so for a single-operator fleet they coincide entry-for-entry
    with the :class:`~repro.scenarios.SessionResult` tuples of the template.
    ``outcome`` and ``delays_ms`` keep the last admitted session's full
    detail for transient analyses and are in-memory only (the store persists
    everything else).
    """

    spec: FleetSpec
    spec_hash: str
    n_commands: int
    admitted: int
    dropped_sessions: int
    rmse_no_forecast_mm: tuple[float, ...]
    rmse_foreco_mm: tuple[float, ...]
    late_fraction: tuple[float, ...]
    recovery_fraction: tuple[float, ...]
    completion_time_s: tuple[float, ...]
    ap_utilization: tuple[float, ...]
    #: Simulation tier that produced this result ("exact" or "hybrid").
    tier: str = "exact"
    #: APs classified hot (all of them for an exact run).
    hot_aps: int = 0
    #: APs classified cold (0 for an exact run).
    cold_aps: int = 0
    #: Admitted sessions that went through the exact Lindley path.
    exact_sessions: int = 0
    #: Admitted sessions serviced by the analytic superposition model.
    analytic_sessions: int = 0
    outcome: SimulationOutcome | None = field(repr=False, default=None)
    delays_ms: np.ndarray | None = field(repr=False, default=None)

    #: Record kind this result stores under in a ResultStore.
    store_kind = "fleet"

    @property
    def repetitions(self) -> int:
        """Number of admitted operator-sessions (entries per metric tuple)."""
        return len(self.rmse_foreco_mm)

    @property
    def operators(self) -> int:
        """Operator population the fleet was specified with."""
        return self.spec.operators

    @property
    def mean_rmse_no_forecast_mm(self) -> float:
        """Baseline trajectory RMSE averaged over admitted sessions."""
        return float(np.mean(self.rmse_no_forecast_mm))

    @property
    def mean_rmse_foreco_mm(self) -> float:
        """FoReCo trajectory RMSE averaged over admitted sessions."""
        return float(np.mean(self.rmse_foreco_mm))

    @property
    def mean_late_fraction(self) -> float:
        """Late/lost command share averaged over admitted sessions."""
        return float(np.mean(self.late_fraction))

    @property
    def mean_recovery_fraction(self) -> float:
        """Share of missing slots FoReCo filled, averaged over sessions."""
        return float(np.mean(self.recovery_fraction))

    @property
    def improvement_factor(self) -> float:
        """Mean baseline RMSE over mean FoReCo RMSE (``inf`` on a ~zero denominator)."""
        denominator = self.mean_rmse_foreco_mm
        if denominator < 1e-12:
            return float("inf")
        return self.mean_rmse_no_forecast_mm / denominator

    @property
    def p50_recovery(self) -> float:
        """Median per-session recovery rate."""
        return float(np.percentile(self.recovery_fraction, 50))

    @property
    def p99_recovery(self) -> float:
        """Recovery rate at least 99% of operator-sessions achieve.

        Service-level semantics: this is the **1st percentile** of the
        per-session recovery distribution — the tail that capacity planning
        cares about ("99% of sessions recover at least this share of their
        missing commands").
        """
        return float(np.percentile(self.recovery_fraction, 1))

    @property
    def p50_completion_s(self) -> float:
        """Median session completion time (fleet start to last delivery, s)."""
        return float(np.percentile(self.completion_time_s, 50))

    @property
    def p99_completion_s(self) -> float:
        """99th-percentile session completion time in seconds (the slow tail)."""
        return float(np.percentile(self.completion_time_s, 99))

    @property
    def mean_ap_utilization(self) -> float:
        """AP air-time utilisation averaged over access points."""
        return float(np.mean(self.ap_utilization))

    def to_dict(self) -> dict:
        """JSON-safe summary row (trajectories and raw delays excluded)."""
        factor = self.improvement_factor
        return {
            "fleet": self.spec.name,
            "spec_hash": self.spec_hash,
            "template": self.spec.template.name,
            "channel": self.spec.template.channel.describe(),
            "operators": self.spec.operators,
            "aps": self.spec.aps,
            "ap_capacity": self.spec.ap_capacity,
            "arrival": self.spec.arrival,
            "repetitions": self.spec.repetitions,
            "n_commands": self.n_commands,
            "admitted": self.admitted,
            "dropped_sessions": self.dropped_sessions,
            "tier": self.tier,
            "hot_aps": self.hot_aps,
            "cold_aps": self.cold_aps,
            "exact_sessions": self.exact_sessions,
            "analytic_sessions": self.analytic_sessions,
            "mean_rmse_no_forecast_mm": self.mean_rmse_no_forecast_mm,
            "mean_rmse_foreco_mm": self.mean_rmse_foreco_mm,
            "improvement_factor": factor if np.isfinite(factor) else None,
            "mean_late_fraction": self.mean_late_fraction,
            "p50_recovery": self.p50_recovery,
            "p99_recovery": self.p99_recovery,
            "p50_completion_s": self.p50_completion_s,
            "p99_completion_s": self.p99_completion_s,
            "ap_utilization": [float(u) for u in self.ap_utilization],
        }

    def to_text(self) -> str:
        """Compact multi-line service report for one fleet."""
        if len(self.ap_utilization) > 8:
            busiest = sorted(
                range(len(self.ap_utilization)),
                key=lambda i: self.ap_utilization[i],
                reverse=True,
            )[:8]
            ap_cells = "  ".join(f"ap{i} {self.ap_utilization[i]:.2f}" for i in sorted(busiest))
            ap_cells += f"  ... ({len(self.ap_utilization)} APs, busiest 8 shown)"
        else:
            ap_cells = "  ".join(f"ap{i} {u:.2f}" for i, u in enumerate(self.ap_utilization))
        lines = [
                self.spec.describe(),
                (
                    f"  sessions: {self.admitted} admitted, "
                    f"{self.dropped_sessions} dropped | "
                    f"{self.n_commands} commands/session"
                ),
        ]
        if self.tier != "exact":
            lines.append(
                f"  tier: {self.tier} | {self.hot_aps} hot / {self.cold_aps} cold APs | "
                f"{self.exact_sessions} exact + {self.analytic_sessions} analytic sessions"
            )
        lines.extend(
            [
                (
                    f"  RMSE: baseline {self.mean_rmse_no_forecast_mm:.2f} mm -> "
                    f"FoReCo {self.mean_rmse_foreco_mm:.2f} mm "
                    f"(x{self.improvement_factor:.1f}, late {self.mean_late_fraction:.2f})"
                ),
                (
                    f"  recovery: p50 {self.p50_recovery:.2f}, p99 {self.p99_recovery:.2f} | "
                    f"completion: p50 {self.p50_completion_s:.1f} s, "
                    f"p99 {self.p99_completion_s:.1f} s"
                ),
                f"  AP utilization: {ap_cells}",
            ]
        )
        return "\n".join(lines)


# ------------------------------------------------------------------ schedule
@dataclass
class _Session:
    """One admitted operator-session inside a fleet realisation."""

    operator: int
    repetition: int
    offset_slots: int
    ap: int
    flat: int = -1  # row index in the stacked delay batch (set after admission)


def _plan_repetition(fleet: FleetSpec, repetition: int, n_commands: int) -> tuple[list[_Session], int]:
    """Admission plan for one fleet realisation: (admitted sessions, dropped).

    Operators arrive at the arrival-process times (quantised to command
    slots) and are processed in arrival order (ties broken by operator
    index).  An arrival whose AP already serves ``ap_capacity`` overlapping
    sessions is dropped.  Operator 0 always arrives first among ties, so at
    least one session per repetition is admitted.
    """
    period_s = fleet.template.foreco.command_period_ms / 1000.0
    arrivals = sample_arrival_times(fleet, repetition)
    offsets = np.floor(arrivals / period_s).astype(int)
    order = np.argsort(offsets, kind="stable")
    admitted: list[_Session] = []
    # Per-AP admitted arrival offsets, in admission (nondecreasing) order —
    # the sessions still active at a new arrival are a suffix, found by
    # bisection.  O(N log N) overall, which is what keeps admission planning
    # negligible at city scale (thousands of operators).
    per_ap_offsets: dict[int, list[int]] = {}
    dropped = 0
    for operator in order:
        operator = int(operator)
        offset = int(offsets[operator])
        ap = operator % fleet.aps
        active_offsets = per_ap_offsets.setdefault(ap, [])
        # active iff offset_slots + n_commands > offset
        active = len(active_offsets) - bisect_right(active_offsets, offset - n_commands)
        if active >= fleet.ap_capacity:
            dropped += 1
            continue
        active_offsets.append(offset)
        admitted.append(
            _Session(operator=operator, repetition=repetition, offset_slots=offset, ap=ap)
        )
    admitted.sort(key=lambda session: session.operator)
    return admitted, dropped


def _lindley_backlog(work_ms: np.ndarray, period_ms: float) -> np.ndarray:
    """Backlog (ms of unfinished AP work) at the *start* of each slot.

    Vectorized Lindley recursion ``backlog[k+1] = max(0, backlog[k] +
    work[k] - period)`` via the reflection identity ``W_k = S_k - min(0,
    min_{j<=k} S_j)`` over the running sum ``S`` of ``work - period``.
    """
    increments = work_ms - period_ms
    running = np.cumsum(increments)
    backlog_after = running - np.minimum.accumulate(np.minimum(running, 0.0))
    backlog_start = np.empty_like(backlog_after)
    backlog_start[0] = 0.0
    backlog_start[1:] = backlog_after[:-1]
    return backlog_start


def _couple(
    fleet: FleetSpec,
    plans: list[list[_Session]],
    base: np.ndarray,
    n_commands: int,
    period: float,
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Add shared-AP queueing delay to the base realisations.

    Returns the coupled ``(B, n)`` delay stack plus per-AP utilisation
    (mean over repetitions of the per-slot air-time demand, capped at
    1).  Lost commands stay lost; delivered commands gain
    ``backlog[slot] + rank_in_slot * ap_service_ms`` milliseconds.
    """
    service = float(fleet.ap_service_ms)
    coupled = base.copy()
    utilization = np.zeros((len(plans), fleet.aps))
    for repetition, admitted in enumerate(plans):
        for ap in range(fleet.aps):
            members = [session for session in admitted if session.ap == ap]
            if not members:
                continue
            total_slots = max(session.offset_slots for session in members) + n_commands
            active = np.zeros((len(members), total_slots), dtype=bool)
            for row, session in enumerate(members):
                offset = session.offset_slots
                active[row, offset : offset + n_commands] = np.isfinite(base[session.flat])
            work = service * active.sum(axis=0)
            backlog = _lindley_backlog(work, period)
            ranks = np.cumsum(active, axis=0) - active
            for row, session in enumerate(members):
                window = slice(session.offset_slots, session.offset_slots + n_commands)
                extra = backlog[window] + ranks[row, window] * service
                coupled[session.flat] = np.where(
                    active[row, window], base[session.flat] + extra, np.inf
                )
            utilization[repetition, ap] = float(np.minimum(work / period, 1.0).mean())
    return coupled, tuple(float(u) for u in utilization.mean(axis=0))


def _completion_times(
    sessions_flat: list[_Session],
    coupled: np.ndarray,
    n_commands: int,
    period: float,
) -> tuple[float, ...]:
    """Per-session completion times in seconds, fleet start to last delivery.

    A session's completion is the delivery time of its last delivered
    command on the global clock (arrival offset included); a session
    whose commands were all lost completes when its slot window ends.
    """
    slot_ms = np.arange(n_commands) * period
    times = []
    for session in sessions_flat:
        delays = coupled[session.flat]
        start_ms = session.offset_slots * period
        delivered = np.isfinite(delays)
        if delivered.any():
            last_ms = float(np.max(slot_ms[delivered] + delays[delivered]))
        else:
            last_ms = n_commands * period
        times.append((start_ms + last_ms) / 1000.0)
    return tuple(times)


# ------------------------------------------------------------------ executor
@dataclass
class AdmittedRun:
    """Every admitted session of a fleet realisation, executed together.

    ``sessions`` is in operator-major order and ``session.flat`` indexes
    the rows of ``outcomes``, ``delays_ms`` and ``completion_time_s``.
    """

    sessions: list[_Session]
    outcomes: list[SimulationOutcome]
    delays_ms: np.ndarray
    ap_utilization: tuple[float, ...]
    completion_time_s: tuple[float, ...]

    def session_metrics(self) -> dict[str, tuple[float, ...]]:
        """Per-session metric tuples, keyed by the result-row field names."""
        outcomes = self.outcomes
        return {
            "rmse_no_forecast_mm": tuple(o.rmse_no_forecast_mm for o in outcomes),
            "rmse_foreco_mm": tuple(o.rmse_foreco_mm for o in outcomes),
            "late_fraction": tuple(o.late_fraction for o in outcomes),
            "recovery_fraction": tuple(o.recovery_fraction for o in outcomes),
            "completion_time_s": self.completion_time_s,
        }


def run_admitted(
    sessions: SessionEngine,
    fleet: FleetSpec,
    plans: list[list[_Session]],
    commands: np.ndarray,
) -> AdmittedRun:
    """Execute the admitted sessions of ``plans`` (one list per repetition).

    The one execution path of fleets (both tiers) and services: the
    sessions are flattened operator-major (operator 0's repetitions first,
    so a single-operator fleet's tuples align with
    :class:`~repro.scenarios.SessionResult`'s); each session's base channel
    realisation is the template channel sampled with the same per-repetition
    seed a single-session run of its operator spec would use
    (:func:`operator_channel_spec`); all of them are sampled in one batch,
    coupled through the shared per-AP backlog (each session's ``ap`` field
    decides its AP), and advance through one session-kernel pass.  Plans
    that admitted nothing give an empty run with an all-idle utilisation
    profile.
    """
    template = fleet.template
    n_commands = int(commands.shape[0])
    period = float(template.foreco.command_period_ms)
    sessions_flat: list[_Session] = sorted(
        (session for admitted in plans for session in admitted),
        key=lambda session: (session.operator, session.repetition),
    )
    for flat, session in enumerate(sessions_flat):
        session.flat = flat
    operator_specs: dict[int, ScenarioSpec] = {}
    seeds = []
    for session in sessions_flat:
        spec = operator_specs.get(session.operator)
        if spec is None:
            spec = operator_channel_spec(fleet, session.operator)
            operator_specs[session.operator] = spec
        seeds.append(repetition_seed(spec, session.repetition))
    if seeds:
        base = sample_channel_delays_batch(template.channel, n_commands, seeds, command_period_ms=period)
    else:
        base = np.zeros((0, n_commands))
    coupled, utilization = _couple(fleet, plans, base, n_commands, period)
    outcomes = sessions.simulate(template, commands, coupled) if seeds else []
    completion = _completion_times(sessions_flat, coupled, n_commands, period)
    return AdmittedRun(sessions_flat, outcomes, coupled, utilization, completion)


# --------------------------------------------------------------------- engine
class FleetEngine(CachingEngine):
    """Resolves fleet specs (both tiers) into coupled multi-session runs, with caching.

    ``tier="exact"`` specs run every admitted session through the shared-AP
    coupling; ``tier="hybrid"`` specs run only the sessions of hot APs that
    way and service cold APs analytically (see :mod:`repro.fleet.hybrid`).
    The tier lives in the spec, so one engine serves mixed-tier sweeps.

    Parameters
    ----------
    sessions:
        The :class:`~repro.scenarios.SessionEngine` supplying datasets,
        trained forecasters, the template command stream and the session
        kernel (:meth:`~repro.scenarios.SessionEngine.simulate`); a private
        one is created when omitted.  Session results of fleet members are
        not individually cached or stored; the fleet result is the unit.
    cache_results:
        Keep finished :class:`FleetResult` objects keyed by spec hash.
    store:
        Optional persistent :class:`~repro.scenarios.ResultStore`.  Fleet
        results share the store (and its engine-epoch scheme) with session
        results: lookups go memory -> disk -> compute, computed fleets are
        written back immediately.
    """

    def __init__(
        self,
        sessions: SessionEngine | None = None,
        cache_results: bool = True,
        store: "ResultStore | None" = None,
    ) -> None:
        super().__init__(cache_results, store)
        self.sessions = sessions if sessions is not None else SessionEngine()

    # ------------------------------------------------------------------- run
    def run(self, fleet: FleetSpec) -> FleetResult:
        """Run one fleet (all repetitions, all admitted operators)."""
        return self._cached(fleet, self._compute)

    def _plans(self, fleet: FleetSpec, n_commands: int) -> tuple[list[list[_Session]], int]:
        """Admission plans of every repetition, and the sessions they dropped."""
        plans: list[list[_Session]] = []
        dropped = 0
        for repetition in range(fleet.template.repetitions):
            admitted, dropped_here = _plan_repetition(fleet, repetition, n_commands)
            plans.append(admitted)
            dropped += dropped_here
        return plans, dropped

    def classify(self, fleet: FleetSpec) -> tuple[ApClassification, ...]:
        """Hot/cold verdicts the hybrid tier would use for this fleet."""
        n_commands = int(self.sessions.test_commands(fleet.template).shape[0])
        return classify_aps(fleet, self._plans(fleet, n_commands)[0], n_commands)

    # --------------------------------------------------------------- compute
    def _compute(self, fleet: FleetSpec) -> FleetResult:
        """Plan admission, then execute the admitted sessions on the spec's tier."""
        template = fleet.template
        commands = self.sessions.test_commands(template)
        n_commands = int(commands.shape[0])
        plans, dropped = self._plans(fleet, n_commands)
        hot = set(range(fleet.aps))
        if fleet.tier == "hybrid":
            hot = {verdict.ap for verdict in classify_aps(fleet, plans, n_commands) if verdict.hot}
        exact = run_admitted(
            self.sessions, fleet, [[s for s in plan if s.ap in hot] for plan in plans], commands
        )
        metrics = exact.session_metrics()
        utilization = exact.ap_utilization
        admitted = sum(len(plan) for plan in plans)
        last = exact.sessions[-1] if exact.sessions else None
        if len(exact.sessions) < admitted:
            # Cold APs: analytic superposition, merged in operator-major order.
            cold, cold_utilization = cold_session_metrics(self.sessions, fleet, plans, hot, n_commands)
            everyone = sorted(
                (session for plan in plans for session in plan),
                key=lambda session: (session.operator, session.repetition),
            )
            metrics = {
                name: tuple(
                    values[s.flat] if s.ap in hot else cold[(s.operator, s.repetition)][name]
                    for s in everyone
                )
                for name, values in metrics.items()
            }
            utilization = tuple(
                u if ap in hot else float(cold_utilization[ap]) for ap, u in enumerate(utilization)
            )
            last = everyone[-1] if everyone[-1].ap in hot else None
        return FleetResult(
            spec=fleet,
            spec_hash=fleet.spec_hash(),
            n_commands=n_commands,
            admitted=admitted,
            dropped_sessions=dropped,
            ap_utilization=utilization,
            tier=fleet.tier,
            hot_aps=len(hot),
            cold_aps=fleet.aps - len(hot),
            exact_sessions=len(exact.sessions),
            analytic_sessions=admitted - len(exact.sessions),
            outcome=None if last is None else exact.outcomes[last.flat],
            delays_ms=None if last is None else exact.delays_ms[last.flat],
            **metrics,
        )
