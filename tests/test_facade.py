"""The top-level facade: run_scenario / run_fleet / sweep / serve / plan.

One consistent surface over the layered engines: presets or specs in,
result rows out, with the same keyword vocabulary everywhere (``seed=``,
``store=``, ``jobs=``).  Facade runs must be byte-equivalent to driving
the engines directly — the facade adds convenience, never semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError
from repro.fleet import FleetEngine, get_fleet
from repro.scenarios import ResultStore, ScenarioSpec, get_scenario
from repro.service import get_service


def test_run_scenario_accepts_preset_and_spec():
    by_name = repro.run_scenario("clean")
    by_spec = repro.run_scenario(get_scenario("clean"))
    assert by_name.to_dict() == by_spec.to_dict()
    assert by_name.spec.name == "clean"


def test_run_scenario_seed_override():
    base = repro.run_scenario("clean")
    reseeded = repro.run_scenario("clean", seed=7)
    assert reseeded.spec.seed == 7
    assert reseeded.spec_hash != base.spec_hash


def test_run_fleet_matches_the_engine():
    fleet = get_fleet("shared-ap", operators=2).with_template(scale="ci")
    facade = repro.run_fleet(fleet)
    direct = FleetEngine().run(fleet)
    assert facade.to_dict() == direct.to_dict()
    assert repro.run_fleet("shared-ap", seed=3).spec.template.seed == 3


def test_sweep_mixes_kinds_and_hits_the_store(tmp_path):
    specs = [
        get_scenario("clean"),
        get_fleet("shared-ap", operators=2).with_template(scale="ci"),
        repro.get_service("service-shared-ap").with_template(scale="ci").with_(until_s=60.0),
    ]
    cold = repro.sweep(specs, jobs=2, store=tmp_path / "store")
    warm = repro.sweep(specs, jobs=2, store=tmp_path / "store")
    assert cold.store_misses == 3
    assert warm.store_hits == 3
    for a, b in zip(cold, warm):
        assert a.to_dict() == b.to_dict()


def test_facade_rejects_wrong_spec_types():
    with pytest.raises(ConfigurationError):
        repro.run_scenario(get_fleet("shared-ap"))
    with pytest.raises(ConfigurationError):
        repro.run_fleet(get_scenario("clean"))
    with pytest.raises(ConfigurationError):
        repro.serve(get_scenario("clean"))
    with pytest.raises(ConfigurationError):
        repro.run_scenario("no-such-preset")
    with pytest.raises(ConfigurationError):
        repro.run_fleet("no-such-preset")
    with pytest.raises(ConfigurationError):
        repro.serve("no-such-preset")
    with pytest.raises(ConfigurationError):
        repro.plan(get_scenario("clean"))
    with pytest.raises(ConfigurationError):
        repro.plan("no-such-preset")


def test_facade_rejects_non_integer_seeds():
    with pytest.raises(ConfigurationError, match="seed"):
        repro.run_scenario("clean", seed="x")
    with pytest.raises(ConfigurationError, match="seed"):
        repro.run_fleet("shared-ap", seed="x")
    with pytest.raises(ConfigurationError, match="seed"):
        get_service("service-shared-ap", seed="x")
    with pytest.raises(ConfigurationError, match="operators"):
        get_fleet("shared-ap", operators="x")


@pytest.mark.parametrize(
    "build",
    [
        lambda: ScenarioSpec(seed="x"),
        lambda: get_scenario("clean", seed="x"),
        lambda: get_fleet("shared-ap", seed="x"),
        lambda: repro.get_plan("plan-shared-ap", seed="x"),
    ],
    ids=["spec", "scenario-preset", "fleet-preset", "plan-preset"],
)
def test_non_integer_seed_is_rejected_when_the_spec_is_built(build):
    with pytest.raises(ConfigurationError, match="seed"):
        build()


def test_integer_seeds_keep_their_spec_hashes():
    assert get_scenario("clean").spec_hash() == "39ecfdf3190adb1e"
    assert get_scenario("clean", seed=7).spec_hash() == "cb38ef2243c0b5c1"
    assert get_scenario("clean", seed=np.int64(7)).spec_hash() == "cb38ef2243c0b5c1"
    assert get_fleet("shared-ap", seed=3).spec_hash() == "0fb2c2811afa6f51"


def test_serve_rejects_a_non_numeric_horizon():
    with pytest.raises(ConfigurationError, match="until"):
        repro.serve("service-shared-ap", until="x")


@pytest.mark.parametrize(
    "build",
    [
        lambda: get_scenario("clean").with_(nope=1),
        lambda: get_scenario("clean", nope=1),
        lambda: get_scenario("clean").with_foreco(nope=1),
        lambda: get_fleet("shared-ap", nope=1),
        lambda: get_fleet("shared-ap").with_template(nope=1),
        lambda: get_service("service-shared-ap").with_(nope=1),
        lambda: get_service("service-shared-ap").with_fleet(nope=1),
        lambda: repro.plan("plan-shared-ap", nope=1),
        lambda: repro.get_plan("plan-shared-ap").with_fleet(nope=1),
    ],
    ids=[
        "scenario",
        "scenario-preset",
        "scenario-foreco",
        "fleet-preset",
        "fleet-template",
        "service",
        "service-fleet",
        "plan-facade",
        "plan-fleet",
    ],
)
def test_unknown_override_field_is_a_configuration_error(build):
    """Every spec builder names an unknown field in a typed error."""
    with pytest.raises(ConfigurationError, match="'nope'"):
        build()


def test_store_keyword_accepts_paths_and_stores(tmp_path):
    path_store = tmp_path / "by-path"
    repro.run_scenario("clean", store=path_store)
    assert len(ResultStore(path_store)) == 1
    handle = ResultStore(tmp_path / "by-handle")
    repro.run_scenario("clean", store=handle)
    assert len(handle) == 1


def test_facade_exports_are_documented():
    for name in ("run_scenario", "run_fleet", "sweep", "serve", "plan"):
        assert name in repro.__all__
        assert getattr(repro, name).__doc__
