"""Reproducibility contracts of every sweep-shaped runner keyword.

One registry of tiny runs — a scenario sweep, an exact and a hybrid fleet, a
live service, a scenario search and the capacity plans — each driven through
:func:`repro.experiments.runner.run_experiments` in JSON form, exactly as
``foreco-experiments ... --format json`` would, so the runner's store
accounting is under test together with the engines.  Three contracts hold
for every row:

* **jobs invariance** — ``jobs=1`` and ``jobs=4`` render the same report;
* **backend invariance** — the ``"process"`` backend renders the report of
  the ``"thread"`` backend;
* **warm store** — a cold store run reports the pinned hit/miss partition
  (every lookup a miss, except plan probes shared between presets) and
  writes the pinned number of entries; a ``resume=True`` rerun is 100 %
  hits with identical records.

Kind-specific properties asserted elsewhere are not repeated here: a
1-operator fleet equals its session
(``tests/fleet/test_fleet_engine.py``), an all-hot hybrid fleet equals the
exact tier and ``--fleet-tier hybrid`` reaches every preset
(``tests/fleet/test_hybrid.py``), a static-cap service equals its fleet
(``tests/service/test_service_engine.py``), both plan presets sit at the
knee (``tests/fleet/test_plan.py``) and a search spends exactly its budget
(``tests/scenarios/test_search.py``).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import pytest

from repro.experiments.runner import run_experiments
from repro.scenarios import ResultStore


@dataclass(frozen=True)
class Row:
    """One tiny runner invocation and its pinned store accounting."""

    names: tuple[str, ...]
    kwargs: dict = field(default_factory=dict)
    seed: int = 42
    #: Top-level records the run produces (specs, probes or plans); a warm
    #: rerun reports exactly this many hits.
    records: int = 0
    #: ``(hits, misses)`` a cold store run reports.
    cold: tuple[int, int] = (0, 0)
    #: Store entries after the cold run.
    entries: int = 0


ROWS = {
    "scenarios": Row((), {"scenarios": ["bursty-loss", "random-loss"]},
                     records=2, cold=(0, 2), entries=2),
    # A hybrid preset also stores its template's solo session.
    "fleet": Row((), {"fleet": 4}, records=4, cold=(0, 4), entries=5),
    "fleet-hybrid": Row((), {"fleet": 4, "fleet_tier": "hybrid"},
                        records=4, cold=(0, 4), entries=6),
    "service": Row(("serve",), {"until": 120.0}, records=3, cold=(0, 3), entries=3),
    "search": Row(("search",), {"budget": 10}, seed=11, records=10, cold=(0, 10), entries=10),
    # Two plan-record misses plus six probe misses; the second preset
    # re-probes two capacities the first one stored moments earlier.
    "plan": Row(("plan",), seed=11, records=2, cold=(2, 8), entries=8),
}

ROW_IDS = list(ROWS)


def _run(row_id: str, **options) -> dict:
    row = ROWS[row_id]
    report = run_experiments(
        list(row.names), scale="ci", seed=row.seed, fmt="json", **row.kwargs, **options
    )
    return json.loads(report)


@functools.lru_cache(maxsize=None)
def _reference(row_id: str) -> dict:
    """The serial thread-backend report every invariance contract compares to."""
    return _run(row_id, jobs=1, backend="thread")


def _partition(document: dict) -> tuple[int, int]:
    """The ``(hits, misses)`` a report states for its store lookups."""
    if "store" in document:
        return document["store"]["hits"], document["store"]["misses"]
    # A search-only run reports its partition inside the search section.
    return document["search"]["store_hits"], document["search"]["store_misses"]


def _records(document: dict) -> dict:
    """The report minus the store accounting of this run, which a warm rerun changes.

    A plan record keeps its own ``store_hits``/``store_misses``: a warm run
    loads the record whole, so they must match the cold run's.
    """
    records = {key: value for key, value in document.items() if key != "store"}
    if "search" in records:
        records["search"] = {
            key: value
            for key, value in records["search"].items()
            if key not in ("store_hits", "store_misses")
        }
    return records


@pytest.mark.parametrize("row_id", ROW_IDS)
def test_jobs_do_not_change_the_report(row_id):
    assert _run(row_id, jobs=4) == _reference(row_id)


@pytest.mark.parametrize("row_id", ROW_IDS)
def test_process_backend_matches_thread_backend(row_id):
    assert _run(row_id, jobs=2, backend="process") == _reference(row_id)


@pytest.mark.parametrize("row_id", ROW_IDS)
def test_warm_store_rerun_is_all_hits_and_identical(row_id, tmp_path):
    row = ROWS[row_id]
    store = str(tmp_path / "store")
    cold = _run(row_id, jobs=2, store=store)
    assert _partition(cold) == row.cold
    assert len(ResultStore(store)) == row.entries
    warm = _run(row_id, jobs=2, store=store, resume=True)
    assert _partition(warm) == (row.records, 0)
    assert len(ResultStore(store)) == row.entries
    assert _records(warm) == _records(cold)


def test_every_service_row_carries_snapshots():
    services = _reference("service")["services"]
    assert len(services) == ROWS["service"].records
    assert all(row["snapshots"] for row in services)
