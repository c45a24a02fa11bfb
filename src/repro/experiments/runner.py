"""Command-line runner for the paper experiments and scenario presets.

Installed as the ``foreco-experiments`` console script::

    foreco-experiments all                     # every figure/table at CI scale
    foreco-experiments fig8 --scale ci --jobs 4
    foreco-experiments fig7 fig9 --seed 7 --output results.txt
    foreco-experiments --scenario jammer --scenario congested-ap --jobs 2
    foreco-experiments all --format json       # machine-readable report
    foreco-experiments --scenario all --store ~/.cache/foreco-store
    foreco-experiments --scenario all --store ~/.cache/foreco-store --resume
    foreco-experiments fleet                   # every fleet preset
    foreco-experiments fleet --fleet 8 --jobs 4  # ... with 8 operators each

(also installed as ``repro-experiments``, the name CI uses)

Each experiment prints the text rendering of its result (the same tables the
benchmark harness produces) or, with ``--format json``, a JSON document, so
the paper-vs-measured comparison walked through in docs/figures.md can be
regenerated with a single command.  ``--jobs`` fans sweep-style experiments
out over worker threads through the scenario engine; results are identical
to the serial run.  ``--scenario`` runs named presets from
:mod:`repro.scenarios.registry` (repeat the flag for several; the special
name ``all`` runs every preset).

``--store PATH`` attaches a persistent :class:`repro.scenarios.ResultStore`
to the scenario sweep: results already stored are loaded instead of
recomputed, everything newly computed is written back, and the report states
the hit/miss partition — so an interrupted or extended sweep only ever
computes what is missing.  ``--resume`` additionally *requires* the store to
exist and be non-empty, guarding against a mistyped path silently
recomputing a whole grid from scratch.  (The figure/table experiments run
their own pipelines and are not stored.)

The ``search`` keyword runs the budgeted coverage-guided scenario search
(:mod:`repro.scenarios.search`) over the combinator grammar: ``--budget N``
sets the number of candidate evaluations, ``--promote`` registers the
top-discovered worst cases as ``adversarial-*`` presets for the rest of the
invocation (they then run like any preset via ``--scenario all``), and
``--store``/``--resume``/``--jobs``/``--backend`` memoize and parallelise
the probes exactly like scenario sweeps — a warm rerun against the same
store recomputes nothing.

The ``fleet`` keyword runs every fleet preset from
:mod:`repro.fleet.registry` — multi-operator service workloads with shared
access points, admission control and arrival processes (see
``docs/fleet.md``).  ``--fleet N`` overrides the operator population of
every fleet preset (and implies the ``fleet`` run); ``--fleet-tier
hybrid|exact`` overrides the simulation tier (the city-scale hybrid tier
classifies APs hot/cold and services the cold tail analytically — see
``docs/fleet.md`` "City scale"); fleets honour ``--jobs``, ``--store`` and
``--resume`` exactly like scenario sweeps.  Reports carry a tier section:
per-fleet tier fields in JSON rows plus an aggregate ``fleet_tier`` block,
and a ``tier:`` summary line in text mode.

The ``serve`` keyword runs every live-service preset from
:mod:`repro.service.registry` — fleet workloads operated under online
admission control on the virtual clock (see ``docs/fleet.md`` "Live
operations").  ``--policy NAME`` overrides each preset's admission policy
(``static-cap``, ``utilization-threshold`` or ``forecast-aware``) and
``--until SECONDS`` bounds the virtual admission horizon; serve runs honour
``--jobs``, ``--store`` and ``--resume`` exactly like the other sweeps and
are bit-identical for any worker count.

The ``plan`` keyword runs every capacity-plan preset from
:mod:`repro.fleet.plan` — SLO-driven searches over per-AP admission
capacities (see ``docs/fleet.md`` "Capacity planning").  ``--slo-p99`` and
``--slo-drop`` override the p99-recovery and drop-rate gates of every
preset, ``--budget N`` caps the number of capacities probed, and
``--jobs``/``--backend``/``--store``/``--resume`` parallelise and memoize
the probes exactly like scenario sweeps; with a store, the finished plans
persist under their own content addresses, so a warm rerun loads the plan
records and recomputes nothing.

Flags that only make sense for one keyword are rejected when that keyword
is absent (``--fleet-tier`` without ``fleet``, ``--budget`` without
``search``/``plan``, ``--promote`` without ``search``,
``--policy``/``--until`` without ``serve``, ``--slo-p99``/``--slo-drop``
without ``plan``): the
library entry point :func:`run_experiments` raises
:class:`~repro.errors.ConfigurationError`, which :func:`main` renders as a
clean CLI error.  JSON reports carry a top-level ``"report_version"``
field (:data:`REPORT_VERSION`); consumers should pin it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..errors import ConfigurationError
from ..scenarios import ResultStore, SweepExecutor, get_scenario, scenario_catalog, scenario_names
from . import (
    fig6_dataset,
    fig7_forecast_accuracy,
    fig8_simulation_heatmap,
    fig9_controlled_losses,
    fig10_jammer,
    table1_training_profile,
    table2_hardware_timing,
)

#: Version of the JSON report schema.  Bump when a section is added,
#: removed or restructured, so downstream consumers can pin the shape.
#: (2: added the ``plans`` section and plan lookups in ``store``.)
REPORT_VERSION = 2

#: Registry of experiment name -> run callable.
EXPERIMENTS: dict[str, Callable] = {
    "fig6": fig6_dataset.run,
    "fig7": fig7_forecast_accuracy.run,
    "fig8": fig8_simulation_heatmap.run,
    "fig9": fig9_controlled_losses.run,
    "fig10": fig10_jammer.run,
    "table1": table1_training_profile.run,
    "table2": table2_hardware_timing.run,
}


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``foreco-experiments`` entry point."""
    parser = argparse.ArgumentParser(
        prog="foreco-experiments",
        description="Regenerate the FoReCo paper's figures and tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help="experiments to run: " + ", ".join(sorted(EXPERIMENTS)) + ", 'all', "
        "'fleet' (every fleet preset), 'serve' (every live-service preset), "
        "'search' (coverage-guided scenario search), or 'plan' (SLO-driven "
        "capacity planning)",
    )
    parser.add_argument("--scale", default="ci", choices=["ci", "standard", "full"],
                        help="experiment scale (default: ci)")
    parser.add_argument("--seed", type=int, default=42, help="random seed (default: 42)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker threads for sweep-style experiments (default: 1)")
    parser.add_argument("--backend", default="thread", choices=["thread", "process"],
                        help="--scenario sweep backend: shared-cache threads or "
                        "multi-core worker processes (default: thread)")
    parser.add_argument(
        "--scenario",
        action="append",
        default=[],
        metavar="NAME",
        help="also run a named scenario preset ("
        + ", ".join(scenario_names())
        + "); repeat for several, or 'all' for every preset",
    )
    parser.add_argument("--fleet", type=int, default=None, metavar="N",
                        help="operator-population override for the fleet presets; "
                        "implies the 'fleet' run (see docs/fleet.md)")
    parser.add_argument("--fleet-tier", dest="fleet_tier", default=None,
                        choices=["exact", "hybrid"],
                        help="simulation-tier override for the fleet presets: "
                        "'exact' forces the vectorized Lindley path, 'hybrid' the "
                        "city-scale exact/analytic tier (default: each preset's own "
                        "tier; see docs/fleet.md 'City scale')")
    parser.add_argument("--budget", type=int, default=None, metavar="N",
                        help="evaluation budget: candidate evaluations for the "
                        "'search' keyword (default: 16), capacities probed per "
                        "plan for the 'plan' keyword (default: each preset's "
                        "own); only valid with 'search' or 'plan'")
    parser.add_argument("--promote", action="store_true",
                        help="register the search's top discoveries as "
                        "'adversarial-*' presets (requires the 'search' keyword)")
    parser.add_argument("--policy", default=None, metavar="NAME",
                        help="admission-policy override for the 'serve' keyword: "
                        "static-cap, utilization-threshold or forecast-aware "
                        "(default: each preset's own policy)")
    parser.add_argument("--until", type=float, default=None, metavar="SECONDS",
                        help="virtual-time admission horizon for the 'serve' "
                        "keyword: arrivals after this instant never enter the "
                        "service (default: accept every arrival)")
    parser.add_argument("--slo-p99", dest="slo_p99", type=float, default=None,
                        metavar="FRACTION",
                        help="p99-recovery SLO override for the 'plan' keyword: "
                        "99%% of admitted sessions must recover at least this "
                        "fraction (default: each preset's own gate)")
    parser.add_argument("--slo-drop", dest="slo_drop", type=float, default=None,
                        metavar="FRACTION",
                        help="drop-rate SLO override for the 'plan' keyword: the "
                        "chosen capacity may drop at most this fraction of "
                        "sessions (default: each preset's own gate)")
    parser.add_argument("--format", dest="fmt", default="text", choices=["text", "json"],
                        help="report format (default: text)")
    parser.add_argument("--output", default=None, help="also write the report to this file")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="persistent result store for --scenario sweeps: stored "
                        "results are reused, computed ones written back")
    parser.add_argument("--resume", action="store_true",
                        help="require --store to exist and be non-empty (refuses to "
                        "silently recompute a whole sweep from a mistyped path)")
    return parser


def _open_store(path: str | None, resume: bool) -> ResultStore | None:
    """Materialise the ``--store``/``--resume`` flags (shared CLI semantics)."""
    if path is None:
        if resume:
            raise ConfigurationError("--resume requires --store PATH (nothing to resume from)")
        return None
    store = ResultStore(path)
    if resume and len(store) == 0:
        raise ConfigurationError(
            f"--resume: store at {path!r} has no entries for engine epoch "
            f"{store.epoch}; drop --resume for a first run (or check the path)"
        )
    return store


#: Flags that only apply to some keywords: flag -> the keywords it needs.
#: ``run_experiments`` rejects a flag given without any of its keywords.
_SCOPED_FLAGS: dict[str, tuple[str, ...]] = {
    "fleet_tier": ("fleet",),
    "budget": ("search", "plan"),
    "promote": ("search",),
    "policy": ("serve",),
    "until": ("serve",),
    "slo_p99": ("plan",),
    "slo_drop": ("plan",),
}


def _option(flag: str) -> str:
    """CLI spelling of a ``run_experiments`` keyword (``slo_p99`` -> ``--slo-p99``)."""
    return "--" + flag.replace("_", "-")


def _scope_error(flag: str, keywords: tuple[str, ...]) -> str:
    if keywords == ("fleet",):
        return f"{_option(flag)} only applies to fleet runs: add the 'fleet' keyword or --fleet N"
    quoted = " and ".join(f"'{keyword}'" for keyword in keywords)
    return f"{_option(flag)} only applies to the {quoted} keyword" + "s" * (len(keywords) > 1)


@dataclass(frozen=True)
class _Run:
    """Inputs every keyword of one :func:`run_experiments` call reads."""

    scale: str
    seed: int
    executor: SweepExecutor
    scenarios: list[str]
    fleet: int | None
    fleet_tier: str | None
    budget: int | None
    promote: bool | None
    policy: str | None
    until: float | None
    slo_p99: float | None
    slo_drop: float | None


class _Lookups(NamedTuple):
    """One keyword's store lookups in this run."""

    hits: int
    misses: int
    reused: float  #: percentage shown on the text report's ``store:`` line


@dataclass
class _Section:
    """What one keyword adds to the report."""

    title: str
    json: dict
    text: list[str]
    #: ``None`` keeps the keyword out of the store accounting.
    lookups: _Lookups | None = None


def _sweep_lookups(sweep) -> _Lookups:
    return _Lookups(sweep.store_hits, sweep.store_misses, 100.0 * sweep.hit_fraction)


def _presets(names, rows, catalog, render: bool = True) -> list[str]:
    """A ``## name — description`` heading (and the rendering) per preset row."""
    lines = []
    for name, row in zip(names, rows):
        description = catalog.get(row.spec.name, "")
        if description:
            lines.append(f"## {name} — {description}")
        if render:
            lines.append(row.to_text())
    return lines


def _overrides(**flags) -> list[str]:
    """The ``overrides:`` line naming every given (not ``None``) flag."""
    given = [
        f"{_option(flag)} " + (str(value) if flag in ("policy", "budget") else f"{value:g}")
        for flag, value in flags.items()
        if value is not None
    ]
    return [f"overrides: {' '.join(given)}"] if given else []


def _search(run: _Run) -> _Section:
    from ..scenarios.search import ScenarioSearch, SearchConfig  # deferred: keeps import light

    config = SearchConfig(budget=16 if run.budget is None else run.budget, seed=run.seed)
    result = ScenarioSearch(config=config, executor=run.executor).run()
    if run.promote:
        result.promote()
    return _Section("# scenario search", {"search": result.to_dict()}, [result.to_text()])


def _scenarios(run: _Run) -> _Section:
    # Expanded after a possible --promote, so 'all' includes presets the
    # search registered moments ago.
    names = scenario_names() if "all" in run.scenarios else run.scenarios
    sweep = run.executor.run([get_scenario(name, scale=run.scale, seed=run.seed) for name in names])
    text = _presets(names, sweep, scenario_catalog(), render=False) + [sweep.to_table()]
    return _Section("# scenario presets", {"scenarios": sweep.to_records()}, text, _sweep_lookups(sweep))


def _fleets(run: _Run) -> _Section:
    from ..fleet import fleet_catalog, fleet_names, get_fleet  # deferred: keeps import light

    names = fleet_names()
    overrides = {} if run.fleet_tier is None else {"tier": run.fleet_tier}
    sweep = run.executor.run(
        [
            get_fleet(name, operators=run.fleet, scale=run.scale, seed=run.seed, **overrides)
            for name in names
        ]
    )
    tiers = {
        "override": run.fleet_tier,
        "tiers": {row.spec.name: row.tier for row in sweep},
        "hot_aps": sum(row.hot_aps for row in sweep),
        "cold_aps": sum(row.cold_aps for row in sweep),
        "exact_sessions": sum(row.exact_sessions for row in sweep),
        "analytic_sessions": sum(row.analytic_sessions for row in sweep),
    }
    tier_line = (
        f"tier: {sum(row.tier != 'exact' for row in sweep)}/{len(sweep)} presets hybrid "
        f"({tiers['exact_sessions']} exact + {tiers['analytic_sessions']} analytic sessions)"
    )
    if run.fleet_tier is not None:
        tier_line += f" | --fleet-tier {run.fleet_tier} override"
    return _Section(
        "# fleet presets",
        {"fleets": sweep.to_records(), "fleet_tier": tiers},
        _presets(names, sweep, fleet_catalog()) + [tier_line],
        _sweep_lookups(sweep),
    )


def _services(run: _Run) -> _Section:
    from ..service import get_service, service_catalog, service_names  # deferred: keeps import light

    names = service_names()
    specs = [get_service(name, policy=run.policy, scale=run.scale, seed=run.seed) for name in names]
    if run.until is not None:
        specs = [spec.with_(until_s=run.until) for spec in specs]
    sweep = run.executor.run(specs)
    return _Section(
        "# service presets",
        {"services": sweep.to_records()},
        _presets(names, sweep, service_catalog()) + _overrides(policy=run.policy, until=run.until),
        _sweep_lookups(sweep),
    )


def _plans(run: _Run) -> _Section:
    from ..fleet import CapacityPlanner, get_plan, plan_catalog, plan_names  # deferred: light import

    gates = {"slo_p99": run.slo_p99, "slo_drop": run.slo_drop, "budget": run.budget}
    given = {key: value for key, value in gates.items() if value is not None}
    names = plan_names()
    planner = CapacityPlanner(executor=run.executor)
    plans = [planner.run(get_plan(name, scale=run.scale, seed=run.seed, **given)) for name in names]
    # A plan loaded whole from its record is one hit and zero probes; a
    # computed plan contributes its probes' partition plus the one miss of
    # the failed plan-record lookup.
    hits = sum(1 if plan.from_store else plan.store_hits for plan in plans)
    misses = sum(0 if plan.from_store else plan.store_misses + 1 for plan in plans)
    lookups = hits + misses
    return _Section(
        "# capacity plans",
        {"plans": [plan.to_dict() for plan in plans]},
        _presets(names, plans, plan_catalog()) + _overrides(**gates),
        _Lookups(hits, misses, 100.0 * hits / lookups if lookups else 0.0),
    )


#: Every sweep-shaped keyword, in run and report order ('scenario' stands
#: for the ``--scenario`` presets).  They share one executor, and with it
#: the dataset and forecaster caches.
_KINDS: dict[str, Callable[[_Run], _Section]] = {
    "search": _search,
    "scenario": _scenarios,
    "fleet": _fleets,
    "serve": _services,
    "plan": _plans,
}


def run_experiments(
    names: list[str],
    scale: str,
    seed: int,
    jobs: int = 1,
    fmt: str = "text",
    scenarios: list[str] | None = None,
    backend: str = "thread",
    store: str | None = None,
    resume: bool = False,
    fleet: int | None = None,
    fleet_tier: str | None = None,
    budget: int | None = None,
    promote: bool = False,
    policy: str | None = None,
    until: float | None = None,
    slo_p99: float | None = None,
    slo_drop: float | None = None,
) -> str:
    """Run the selected experiments/scenarios/fleets/services and return the report.

    This is the library entry point behind :func:`main`; configuration
    misuse (unknown names, flags without their keyword) raises
    :class:`~repro.errors.ConfigurationError` rather than exiting the
    process, so programmatic callers can handle it.
    """
    names = list(names)
    scenarios = list(scenarios or [])
    requested = {keyword for keyword in ("fleet", "search", "serve", "plan") if keyword in names}
    names = [name for name in names if name not in requested]
    if fleet is not None:
        requested.add("fleet")
    if scenarios:
        requested.add("scenario")
    if any(name == "all" for name in names):
        names = sorted(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise ConfigurationError(f"unknown experiment(s): {', '.join(unknown)}")
    # --promote is a switch: False (or any falsy value) means "not given".
    flags = dict(
        fleet_tier=fleet_tier,
        budget=budget,
        promote=promote or None,
        policy=policy,
        until=until,
        slo_p99=slo_p99,
        slo_drop=slo_drop,
    )
    for flag, keywords in _SCOPED_FLAGS.items():
        if flags[flag] is not None and requested.isdisjoint(keywords):
            raise ConfigurationError(_scope_error(flag, keywords))
    if not names and not requested:
        raise ConfigurationError(
            "nothing to run: pass experiment names, 'fleet', 'serve', 'search', "
            "'plan' and/or --scenario"
        )
    result_store = _open_store(store, resume)

    results = {name: EXPERIMENTS[name](scale=scale, seed=seed, jobs=jobs) for name in names}
    executor = SweepExecutor(jobs=jobs, backend=backend, store=result_store)
    run = _Run(scale, seed, executor, scenarios, fleet, **flags)
    sections = [kind(run) for keyword, kind in _KINDS.items() if keyword in requested]
    counted = [section.lookups for section in sections if section.lookups is not None]

    if fmt == "json":
        document: dict = {
            "report_version": REPORT_VERSION,
            "scale": scale,
            "seed": seed,
            "experiments": {name: result.to_dict() for name, result in results.items()},
        }
        for section in sections:
            document.update(section.json)
        if result_store is not None and counted:
            stats = result_store.stats()
            document["store"] = {
                "path": str(result_store.root),
                "epoch": result_store.epoch,
                "hits": sum(lookups.hits for lookups in counted),
                "misses": sum(lookups.misses for lookups in counted),
                "entries": stats.entries,
                "total_bytes": stats.total_bytes,
            }
        return json.dumps(document, indent=2) + "\n"

    lines = []
    for result in results.values():
        lines += [result.to_text(), ""]
    for section in sections:
        lines += [section.title, *section.text]
        if result_store is not None and section.lookups is not None:
            hits, misses, reused = section.lookups
            lines.append(
                f"store: {hits} hits / {misses} misses ({reused:.0f}% reused), "
                f"{result_store.stats().entries} entries at {result_store.root} "
                f"(epoch {result_store.epoch})"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    """Entry point used by the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = run_experiments(
            args.experiments,
            scale=args.scale,
            seed=args.seed,
            jobs=args.jobs,
            fmt=args.fmt,
            scenarios=args.scenario,
            backend=args.backend,
            store=args.store,
            resume=args.resume,
            fleet=args.fleet,
            fleet_tier=args.fleet_tier,
            budget=args.budget,
            promote=args.promote,
            policy=args.policy,
            until=args.until,
            slo_p99=args.slo_p99,
            slo_drop=args.slo_drop,
        )
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from exc
    sys.stdout.write(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
