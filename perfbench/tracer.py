"""Outside-in tracer: spans around calls into each layer's public callables.

Nothing under ``src/`` is instrumented.  :class:`Tracer` replaces each
callable of :data:`TARGETS` at run time with a wrapper that records a span
(layer, start, end, parent span, op id) and a few counts taken from the
call's arguments and result.  A function is replaced in every loaded
``repro`` module that holds it, i.e. where it is looked up (so
``repro.fleet.engine.sample_channel_delays_batch``, an imported name, is
caught too); a method is replaced on its class and on every subclass that
overrides it.  A call into a layer made while a span of the same layer is
open (a ``super()`` chain, a compound channel recursing) is part of that
span and is not recorded again.

Spans stay in memory.  :meth:`Tracer.summary` turns them into per-layer
call counts and self times -- a span's duration minus the time its child
spans cover -- when the run ends.  The benchmark is single-threaded
(``jobs=1``), so one span stack suffices.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Name of the span each op is wrapped in; its self time is op time that
#: no wrapped layer covers (facade glue and uninstrumented code).
ROOT = "unattributed"


# ------------------------------------------------------------------ counters
def _argument(args, kwargs):
    """The call's first argument after ``self``, passed by position or keyword."""
    return args[1] if len(args) > 1 else next(iter(kwargs.values()))


def _count_teleop(tracer, args, kwargs, result) -> None:
    tracer.add("teleop.commands", len(result))


def _count_fit(tracer, args, kwargs, result) -> None:
    forecaster, commands = args[0], np.ascontiguousarray(_argument(args, kwargs))
    digest = hashlib.blake2b(commands.tobytes(), digest_size=16).hexdigest()
    tracer.fit_identities[tracer.current_op].add((type(forecaster).__name__, forecaster.record, digest))


def _count_predict_batch(tracer, args, kwargs, result) -> None:
    tracer.add("forecasting.predict.rows", len(_argument(args, kwargs)))


def _count_predict_one(tracer, args, kwargs, result) -> None:
    tracer.add("forecasting.predict.rows", 1)


def _count_delays(tracer, args, kwargs, result) -> None:
    tracer.add("wireless.slots", result.size)
    tracer.add("wireless.lost", int(np.count_nonzero(~np.isfinite(result))))


def _count_recovery_batch(tracer, args, kwargs, result) -> None:
    tracer.add("core.recovery.slots", result.on_time.size)
    tracer.add("core.recovery.missing", int(result.on_time.size - np.count_nonzero(result.on_time)))
    tracer.add("core.recovery.forecasted", int(np.count_nonzero(result.forecasted)))


def _count_recovery_serial(tracer, args, kwargs, result) -> None:
    stats = args[0].stats
    tracer.add("core.recovery.slots", stats.n_slots)
    tracer.add("core.recovery.missing", stats.n_missing)
    tracer.add("core.recovery.forecasted", stats.n_forecasted)


def _count_simulation_batch(tracer, args, kwargs, result) -> None:
    tracer.add("core.simulation.rows", len(result))


def _count_simulation_serial(tracer, args, kwargs, result) -> None:
    tracer.add("core.simulation.rows", 1)


def _count_kinematics(tracer, args, kwargs, result) -> None:
    tracer.add("robot.kinematics.poses", len(result))


def _count_fleet(tracer, args, kwargs, result) -> None:
    tracer.add("fleet.admitted", result.admitted)
    tracer.add("fleet.dropped", result.dropped_sessions)
    tracer.add("fleet.analytic_sessions", result.analytic_sessions)


def _count_service(tracer, args, kwargs, result) -> None:
    tracer.add("service.admitted", result.admitted)
    tracer.add("service.dropped", result.dropped_sessions)
    tracer.add("service.migrated", result.migrated_sessions)


def _count_plan(tracer, args, kwargs, result) -> None:
    tracer.add("fleet.plan.probes", result.evaluated)
    tracer.add("fleet.plan.probe_hits", result.store_hits)


def _count_store_get(tracer, args, kwargs, result) -> None:
    tracer.stores[id(args[0])] = args[0]
    tracer.add("scenarios.store.hits" if result is not None else "scenarios.store.misses", 1)


def _count_store_put(tracer, args, kwargs, result) -> None:
    tracer.stores[id(args[0])] = args[0]
    tracer.add("scenarios.store.bytes_written", result.stat().st_size)


@dataclass(frozen=True)
class Target:
    """One wrapped callable: its layer, where it is defined, and its counter."""

    layer: str
    module: str
    qualname: str
    count: Callable | None = None


#: Every callable the traced run wraps, serial (B=1) variants included.
TARGETS = (
    Target("teleop", "repro.teleop.controller", "RemoteController.stream_from_operator", _count_teleop),
    Target("forecasting.fit", "repro.forecasting.base", "Forecaster.fit", _count_fit),
    Target(
        "forecasting.predict", "repro.forecasting.base", "Forecaster.predict_next_batch", _count_predict_batch
    ),
    Target("forecasting.predict", "repro.forecasting.base", "Forecaster.predict_next", _count_predict_one),
    Target("wireless", "repro.scenarios.engine", "sample_channel_delays_batch", _count_delays),
    Target("wireless", "repro.scenarios.engine", "sample_channel_delays", _count_delays),
    Target(
        "core.recovery", "repro.core.recovery", "ForecoRecovery.process_stream_batch", _count_recovery_batch
    ),
    Target("core.recovery", "repro.core.recovery", "ForecoRecovery.process_stream", _count_recovery_serial),
    Target(
        "core.simulation",
        "repro.core.simulation",
        "BatchedRemoteControlSimulation.run",
        _count_simulation_batch,
    ),
    Target(
        "core.simulation", "repro.core.simulation", "RemoteControlSimulation.run", _count_simulation_serial
    ),
    Target("robot.kinematics", "repro.robot.kinematics", "ForwardKinematics.positions", _count_kinematics),
    Target("fleet", "repro.fleet.engine", "FleetEngine.run", _count_fleet),
    Target("service", "repro.service.engine", "ServiceEngine.run", _count_service),
    Target("fleet.plan", "repro.fleet.plan", "CapacityPlanner.run", _count_plan),
    Target("scenarios.engine", "repro.scenarios.engine", "SessionEngine.run"),
    Target("scenarios.sweep", "repro.scenarios.sweep", "SweepExecutor.run"),
    Target("scenarios.store", "repro.scenarios.store", "ResultStore.get", _count_store_get),
    Target("scenarios.store", "repro.scenarios.store", "ResultStore.put", _count_store_put),
)

#: Layers in report order (the root span last).
LAYERS = tuple(dict.fromkeys(target.layer for target in TARGETS)) + (ROOT,)

#: ``(name, unit, better)`` of the extra counts: ``count/op`` and ``B/op``
#: values are run totals divided by the ops run; ratios are over the run.
COUNTS = (
    ("teleop.commands", "count/op", "lower"),
    ("forecasting.fit.useful_ratio", "ratio", "higher"),
    ("forecasting.predict.rows", "count/op", "lower"),
    ("wireless.slots", "count/op", "lower"),
    ("wireless.lost_fraction", "ratio", "lower"),
    ("core.recovery.slots", "count/op", "lower"),
    ("core.recovery.missing", "count/op", "lower"),
    ("core.recovery.forecasted", "count/op", "lower"),
    ("core.recovery.useful_ratio", "ratio", "higher"),
    ("core.simulation.rows", "count/op", "lower"),
    ("robot.kinematics.poses", "count/op", "lower"),
    ("fleet.admitted", "count/op", "higher"),
    ("fleet.dropped", "count/op", "lower"),
    ("fleet.analytic_sessions", "count/op", "higher"),
    ("service.admitted", "count/op", "higher"),
    ("service.dropped", "count/op", "lower"),
    ("service.migrated", "count/op", "lower"),
    ("fleet.plan.probes", "count/op", "lower"),
    ("fleet.plan.probe_hits", "count/op", "higher"),
    ("scenarios.store.hit_fraction", "ratio", "higher"),
    ("scenarios.store.bytes_written", "B/op", "lower"),
    ("scenarios.store.corrupted", "count/op", "lower"),
)


def _subclasses(cls) -> list[type]:
    found, pending = [], [cls]
    while pending:
        klass = pending.pop()
        found.append(klass)
        pending.extend(klass.__subclasses__())
    return found


class Tracer:
    """In-memory span recorder installed around :data:`TARGETS`.

    Use it as a context manager: entering installs the wrappers, leaving
    restores every original.  Only calls made inside :meth:`op` record
    spans, so set-up and result checks stay untraced.
    """

    def __init__(self) -> None:
        #: ``[layer, start, end, parent index, op id]`` per span.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.fit_identities: dict[int, set] = defaultdict(set)
        self.stores: dict[int, object] = {}
        self.current_op: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: float) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counts[name] += amount

    # ---------------------------------------------------------- install
    def __enter__(self) -> "Tracer":
        for target in TARGETS:
            try:
                self._install(target)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}.{target.qualname}")
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            for klass in _subclasses(getattr(module, owner_name)):
                if attr in klass.__dict__:
                    self._patch(klass, attr, self._wrap(target, klass.__dict__[attr]))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(target, original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, key, wrapper)

    def _wrap(self, target: Target, function):
        tracer, layer, count = self, target.layer, target.count

        def traced(*args, **kwargs):
            stack = tracer._stack
            if tracer.current_op is None or tracer.spans[stack[-1]][0] == layer:
                return function(*args, **kwargs)
            span = [layer, 0.0, 0.0, stack[-1], tracer.current_op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return functools.wraps(function)(traced)

    # --------------------------------------------------------------- ops
    def op(self, index: int) -> "_OpSpan":
        """Context manager opening the root span of op ``index``."""
        return _OpSpan(self, index)

    # ----------------------------------------------------------- results
    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer over every recorded span."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (layer, start, end, _, _) in enumerate(self.spans):
            totals[layer] += (end - start) - child[index]
        return totals

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-layer calls and self time plus the extra counts, per op."""
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        self_times = self.self_times()
        per_op = 1.0 / max(1, n_ops)
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = calls[layer] * per_op
            metrics[f"{layer}.self_ms_per_op"] = self_times[layer] * 1000.0 * per_op
        counts = self.counts
        counts["scenarios.store.corrupted"] = sum(store.stats().corrupted for store in self.stores.values())
        for name, unit, _ in COUNTS:
            if unit != "ratio":
                metrics[name] = counts[name] * per_op
        fits = calls["forecasting.fit"]
        distinct = sum(len(identities) for identities in self.fit_identities.values())
        metrics["forecasting.fit.useful_ratio"] = _ratio(distinct, fits)
        metrics["wireless.lost_fraction"] = _ratio(counts["wireless.lost"], counts["wireless.slots"])
        metrics["core.recovery.useful_ratio"] = _ratio(
            counts["core.recovery.forecasted"], counts["core.recovery.missing"]
        )
        lookups = counts["scenarios.store.hits"] + counts["scenarios.store.misses"]
        metrics["scenarios.store.hit_fraction"] = _ratio(counts["scenarios.store.hits"], lookups)
        return metrics

    def chrome_trace(self) -> str:
        """The spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": layer,
                "cat": "layer",
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"op": op},
            }
            for layer, start, end, _, op in self.spans
        ]
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _OpSpan:
    """Root span of one op; every layer span of the op nests under it."""

    def __init__(self, tracer: Tracer, index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer.current_op = self.index
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append([ROOT, time.perf_counter(), 0.0, -1, self.index])

    def __exit__(self, *exc_info) -> None:
        tracer = self.tracer
        tracer.spans[tracer._stack.pop()][2] = time.perf_counter()
        tracer.current_op = None
