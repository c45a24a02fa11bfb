"""SweepExecutor routing for mixed scenario/fleet/service sweeps.

The executor dispatches rows by ``store_kind``: plain scenario specs go to
the session engine, ``FleetSpec`` values (both tiers) to the fleet engine
and ``ServiceSpec`` values to the live-service engine — all three sharing
one session engine and one store, through one router in either backend.
Any other row is a ``ConfigurationError`` before work starts.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetResult, get_fleet, get_plan
from repro.scenarios import ResultStore, SessionEngine, SessionResult, SweepExecutor, get_scenario
from repro.service import ServiceResult, get_service


def _service_spec():
    return get_service("service-shared-ap").with_template(scale="ci").with_(until_s=60.0)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_mixed_sweep_routes_by_store_kind(tmp_path, backend):
    specs = [
        get_scenario("clean"),
        get_fleet("shared-ap", operators=2).with_template(scale="ci"),
        get_fleet("shared-ap", operators=2, tier="hybrid").with_template(scale="ci"),
        _service_spec(),
    ]
    store = ResultStore(tmp_path / "store")
    sweep = SweepExecutor(jobs=2, backend=backend, store=store).run(specs)
    assert isinstance(sweep[0], SessionResult)
    assert isinstance(sweep[1], FleetResult) and sweep[1].tier == "exact"
    assert isinstance(sweep[2], FleetResult) and sweep[2].tier == "hybrid"
    assert isinstance(sweep[3], ServiceResult)
    assert sweep.store_misses == 4
    # Both backends route through one router: the rows match a serial run.
    serial = SweepExecutor(jobs=1).run(specs)
    for row, serial_row in zip(sweep, serial):
        assert row.to_dict() == serial_row.to_dict()
    # A warm rerun resolves every kind from the shared store.
    warm = SweepExecutor(jobs=2, backend=backend, store=store).run(specs)
    assert warm.store_hits == 4 and warm.store_misses == 0
    for cold_row, warm_row in zip(sweep, warm):
        assert cold_row.to_dict() == warm_row.to_dict()


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize(
    "row",
    [get_plan("plan-shared-ap"), 42, "clean", None],
    ids=["plan-spec", "int", "preset-name", "none"],
)
def test_sweep_rejects_rows_that_are_not_specs(backend, row):
    """Anything but a scenario, fleet or service spec fails before work starts."""
    engine = SessionEngine()
    executor = SweepExecutor(jobs=2, backend=backend, engine=engine)
    with pytest.raises(ConfigurationError, match="ScenarioSpec, FleetSpec and ServiceSpec"):
        executor.run([get_scenario("clean"), row])
    assert engine.cached_result(get_scenario("clean")) is None  # nothing ran


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_service_rows_match_across_backends_and_jobs(backend):
    specs = [_service_spec(), _service_spec().with_(policy="utilization-threshold")]
    serial = SweepExecutor(jobs=1).run(specs)
    fanned = SweepExecutor(jobs=2, backend=backend).run(specs)
    for row_s, row_f in zip(serial, fanned):
        assert row_s.to_dict() == row_f.to_dict()
