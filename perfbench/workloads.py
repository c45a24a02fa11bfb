"""The three benchmark workloads, driven through the public ``repro`` facade.

Every workload is a closed loop with one client: :meth:`Workload.run_op`
issues one op and returns only when its result is back, and the worker
sends the next op after that (``jobs=1``, no extra threads).  An op's
latency is host time measured around the facade calls alone; fingerprints
and invariants are computed afterwards, outside the timed span, by
:meth:`Workload.check`.

A result fingerprint is the first 16 hex digits of the sha256 of the op's
result rows rendered with ``to_dict()`` as canonical JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Scenario presets of the serve-plan replay grid: one row per channel kind
#: the store can persist.  ``trace-replay`` is left out because
#: ``ResultStore.put`` cannot write it: its recorded delays hold ``inf``
#: (lost commands), which the shard's strict JSON encoding rejects with a
#: bare ``ValueError``.
REPLAY_PRESETS = (
    "clean",
    "congested-ap",
    "jammer",
    "bursty-loss",
    "random-loss",
    "markov-interference",
    "handover",
)


def derive_seed(*parts) -> int:
    """A 31-bit seed derived from the workload name, workload seed and op."""
    digest = hashlib.sha256(":".join(str(part) for part in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def fingerprint(rows) -> str:
    """Truncated sha256 over the rows' ``to_dict()`` as canonical JSON."""
    payload = json.dumps([row.to_dict() for row in rows], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _timed(parts: dict, name: str, call):
    """Run ``call()``, add its host time to ``parts[name]`` and return its result."""
    start = time.perf_counter()
    result = call()
    parts.setdefault(name, []).append(time.perf_counter() - start)
    return result


@dataclass
class Op:
    """One finished op: its timing, simulated slots and result rows."""

    index: int
    latency_s: float
    slots: int
    rows: list
    #: Host seconds of each named facade call in the op (serve-plan parts).
    parts: dict = field(default_factory=dict)
    #: ``(hits, misses)`` of the op's store replay, checked after timing.
    replay_partition: tuple[int, int] | None = None


# ------------------------------------------------------------- invariants
def _unit_interval(errors: list, label: str, values) -> None:
    for value in values:
        if not (0.0 <= float(value) <= 1.0):
            errors.append(f"{label} {value!r} outside [0, 1]")
            return


def _finite(errors: list, label: str, values) -> None:
    for value in values:
        if not math.isfinite(float(value)):
            errors.append(f"{label} {value!r} is not finite")
            return


def _session_rows(errors: list, row, name: str) -> None:
    """Invariants shared by session, fleet and service rows."""
    _finite(errors, f"{name} rmse_no_forecast_mm", row.rmse_no_forecast_mm)
    _finite(errors, f"{name} rmse_foreco_mm", row.rmse_foreco_mm)
    _unit_interval(errors, f"{name} late_fraction", row.late_fraction)
    _unit_interval(errors, f"{name} recovery_fraction", row.recovery_fraction)


def check_session(errors: list, row, repetitions: int) -> None:
    """A session row: finite RMSE, fractions in [0, 1], every repetition run."""
    _session_rows(errors, row, row.spec.name)
    if row.repetitions != repetitions:
        errors.append(f"{row.spec.name}: {row.repetitions} repetitions, spec asks {repetitions}")


def check_fleet(errors: list, row) -> None:
    """A fleet row: admitted + dropped = offered, one metric entry per session."""
    name = row.spec.name
    _session_rows(errors, row, name)
    _unit_interval(errors, f"{name} ap_utilization", row.ap_utilization)
    offered = row.spec.operators * row.spec.template.repetitions
    if row.admitted + row.dropped_sessions != offered:
        errors.append(f"{name}: admitted {row.admitted} + dropped {row.dropped_sessions} != {offered}")
    if len(row.rmse_foreco_mm) != row.admitted:
        errors.append(f"{name}: {len(row.rmse_foreco_mm)} metric rows for {row.admitted} sessions")
    if row.exact_sessions + row.analytic_sessions != row.admitted:
        errors.append(f"{name}: exact + analytic sessions != admitted")


def check_service(errors: list, row) -> None:
    """A service row: admitted + dropped = offered, migrations within admitted."""
    name = row.spec.name
    _session_rows(errors, row, name)
    _unit_interval(errors, f"{name} ap_utilization", row.ap_utilization)
    _unit_interval(errors, f"{name} drop_rate", [row.drop_rate])
    offered = row.spec.fleet.operators * row.spec.repetitions
    if row.spec.until_s is None and row.offered != offered:
        errors.append(f"{name}: admitted {row.admitted} + dropped {row.dropped_sessions} != {offered}")
    if len(row.rmse_foreco_mm) != row.admitted or not 0 <= row.migrated_sessions <= row.admitted:
        errors.append(f"{name}: inconsistent admitted/migrated accounting")


def check_plan(errors: list, plan) -> None:
    """A cold plan: capacity within its bounds, budget kept, no store hits."""
    spec = plan.spec
    if not spec.min_capacity <= plan.capacity <= spec.max_capacity:
        errors.append(
            f"plan capacity {plan.capacity} outside [{spec.min_capacity}, {spec.max_capacity}]"
        )
    if not 1 <= plan.evaluated <= spec.budget:
        errors.append(f"plan evaluated {plan.evaluated} probes with budget {spec.budget}")
    if plan.store_hits != 0 or plan.from_store:
        errors.append("plan against a fresh store reported store hits")
    _unit_interval(errors, "plan drop_rate", [plan.drop_rate])


# ---------------------------------------------------------------- workloads
class Workload:
    """Base class: seeds, scratch directory and the fingerprint gate.

    Parameters
    ----------
    repro:
        The imported ``repro`` package (the facade under test).
    seed:
        The workload seed; every input of every op derives from it.
    workdir:
        A private scratch directory inside the checkout for result stores.
    """

    name = ""

    def __init__(self, repro, seed: int, workdir: Path) -> None:
        self.repro = repro
        self.seed = int(seed)
        self.workdir = Path(workdir)
        #: Fingerprint every op must reproduce when no committed one applies.
        self.reference: str | None = None

    def setup(self) -> None:
        """Warm the workload up until it reaches steady state."""

    def run_op(self, index: int) -> Op:
        """Issue op ``index`` and return it once its result is back."""
        raise NotImplementedError

    def check(self, op: Op) -> list[str]:
        """Invariant violations of a finished op (empty when it is correct)."""
        raise NotImplementedError

    def expected(self, table: dict, index: int) -> str | None:
        """The committed fingerprint of op ``index``, if the table has one."""
        committed = table.get(self.name, {}).get(str(self.seed))
        return committed if isinstance(committed, str) else None

    def cleanup(self, op: Op) -> None:
        """Release what op ``op`` left on disk (outside the timed span)."""


class ColdSession(Workload):
    """``congested-ap`` at a fresh seed per op: datasets and VAR built cold."""

    name = "cold-session"
    preset = "congested-ap"

    def op_seed(self, index) -> int:
        """Scenario seed of op ``index`` (``"warmup"`` for the set-up op)."""
        return derive_seed(self.name, self.seed, index)

    def setup(self) -> None:
        """One op at a seed outside the op sequence loads every code path."""
        self.repro.run_scenario(self.preset, seed=self.op_seed("warmup"))

    def run_op(self, index: int) -> Op:
        """One cold single-repetition session."""
        seed = self.op_seed(index)
        start = time.perf_counter()
        result = self.repro.run_scenario(self.preset, seed=seed)
        latency = time.perf_counter() - start
        return Op(index, latency, result.repetitions * result.n_commands, [result])

    def check(self, op: Op) -> list[str]:
        """Session invariants."""
        errors: list[str] = []
        row = op.rows[0]
        check_session(errors, row, row.spec.repetitions)
        if row.spec.seed != self.op_seed(op.index):
            errors.append("session ran at the wrong seed")
        return errors

    def expected(self, table: dict, index: int) -> str | None:
        """Cold-session fingerprints are committed per op index."""
        committed = table.get(self.name, {}).get(str(self.seed), [])
        return committed[index] if index < len(committed) else None


class WarmFleet(Workload):
    """One round of fleets over warm datasets: exact tier, then hybrid tier."""

    name = "warm-fleet"
    presets = ("peak-hour", "diurnal-campus", "shared-ap", "city-scale")

    def __init__(self, repro, seed: int, workdir: Path) -> None:
        super().__init__(repro, seed, workdir)
        self.template_seed = derive_seed(self.name, self.seed)

    def setup(self) -> None:
        """One untimed round generates and caches every operator dataset."""
        self.reference = fingerprint(self.run_op(-1).rows)

    def run_op(self, index: int) -> Op:
        """``run_fleet`` on every preset in turn."""
        rows = []
        start = time.perf_counter()
        for preset in self.presets:
            rows.append(self.repro.run_fleet(preset, seed=self.template_seed))
        latency = time.perf_counter() - start
        slots = sum(len(row.rmse_foreco_mm) * row.n_commands for row in rows)
        return Op(index, latency, slots, rows)

    def check(self, op: Op) -> list[str]:
        """Fleet invariants on every row."""
        errors: list[str] = []
        for row in op.rows:
            check_fleet(errors, row)
        return errors


class ServePlan(Workload):
    """Live services, a cold capacity plan and a warm-store sweep replay."""

    name = "serve-plan"
    services = ("service-shared-ap", "service-peak-hour", "service-diurnal")
    plan_preset = "plan-shared-ap"

    def __init__(self, repro, seed: int, workdir: Path) -> None:
        super().__init__(repro, seed, workdir)
        template_seed = derive_seed(self.name, self.seed)
        self.service_specs = [repro.get_service(name, seed=template_seed) for name in self.services]
        self.plan_spec = repro.get_plan(self.plan_preset, seed=template_seed)
        self.grid = [repro.get_scenario(name, seed=template_seed) for name in REPLAY_PRESETS]
        self.replay_store = self.workdir / "replay-store"
        self.grid_fingerprint = ""
        self.probe_commands = 0

    def plan_store(self, index) -> Path:
        """The fresh store directory op ``index`` plans against."""
        return self.workdir / f"plan-store-{index}"

    def setup(self) -> None:
        """Persist the replay grid cold, then run one untimed round."""
        cold = self.repro.sweep(self.grid, store=str(self.replay_store))
        self.grid_fingerprint = fingerprint(cold.rows)
        template = self.plan_spec.fleet.template
        self.probe_commands = int(self.repro.SessionEngine().test_commands(template).shape[0])
        warm = self.run_op(-1)
        self.cleanup(warm)
        self.reference = fingerprint(warm.rows)

    def run_op(self, index: int) -> Op:
        """Three ``serve`` calls, one cold ``plan`` and one ``sweep`` replay."""
        parts: dict = {}
        store = str(self.plan_store(index))
        start = time.perf_counter()
        services = [_timed(parts, "serve", lambda s=spec: self.repro.serve(s)) for spec in self.service_specs]
        plan = _timed(parts, "plan", lambda: self.repro.plan(self.plan_spec, store=store))
        replay = _timed(parts, "replay", lambda: self.repro.sweep(self.grid, store=str(self.replay_store)))
        latency = time.perf_counter() - start
        slots = sum(len(row.rmse_foreco_mm) * row.n_commands for row in services)
        # A plan against a fresh store computes every probe; replay hits count 0.
        slots += sum(probe.admitted for probe in plan.probes) * self.probe_commands
        rows = [*services, plan, *replay.rows]
        return Op(index, latency, slots, rows, parts, (replay.store_hits, replay.store_misses))

    def check(self, op: Op) -> list[str]:
        """Service, plan and replay invariants; replay rows equal the cold grid."""
        errors: list[str] = []
        n_services = len(self.services)
        for row in op.rows[:n_services]:
            check_service(errors, row)
        check_plan(errors, op.rows[n_services])
        replay_rows = op.rows[n_services + 1 :]
        for row in replay_rows:
            check_session(errors, row, row.spec.repetitions)
        if op.replay_partition != (len(self.grid), 0):
            errors.append(f"replay partition (hits, misses) = {op.replay_partition}")
        if fingerprint(replay_rows) != self.grid_fingerprint:
            errors.append("replayed rows differ from the rows the grid was persisted with")
        return errors

    def cleanup(self, op: Op) -> None:
        """Delete the op's plan store so the next plan starts fresh."""
        shutil.rmtree(self.plan_store(op.index), ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ColdSession, WarmFleet, ServePlan)}
