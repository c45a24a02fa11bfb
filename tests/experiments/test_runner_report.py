"""Runner report schema: pinned keys for the JSON document and text sections.

The JSON report is a machine-readable contract (docs/figures.md readers,
CI comparisons); this module pins its shape — the top-level
``report_version`` field, the per-section keys — so a restructuring shows
up as a failing test and a deliberate ``REPORT_VERSION`` bump, never as a
silent consumer break.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import REPORT_VERSION, run_experiments

#: Keys every scenario row carries (sweep record schema).
SCENARIO_ROW_KEYS = {
    "scenario",
    "spec_hash",
    "channel",
    "repetitions",
    "mean_rmse_no_forecast_mm",
    "mean_rmse_foreco_mm",
    "mean_late_fraction",
    "improvement_factor",
}

#: Keys every fleet row carries.
FLEET_ROW_KEYS = {
    "fleet",
    "spec_hash",
    "operators",
    "aps",
    "admitted",
    "dropped_sessions",
    "tier",
}

#: Keys every service row carries.
SERVICE_ROW_KEYS = {
    "service",
    "spec_hash",
    "policy",
    "operators",
    "aps",
    "until_s",
    "admitted",
    "dropped_sessions",
    "migrated_sessions",
    "drop_rate",
    "migration_rate",
    "p50_recovery",
    "p99_recovery",
    "p99_completion_s",
    "ap_utilization",
    "snapshots",
}

#: Keys the search section carries.
SEARCH_KEYS = {"budget", "evaluated", "rounds", "probes", "top"}

#: Keys every capacity-plan report carries.
PLAN_KEYS = {
    "plan",
    "plan_version",
    "spec_hash",
    "method",
    "feasible",
    "capacity",
    "admitted",
    "dropped_sessions",
    "drop_rate",
    "bracket",
    "evaluated",
    "slo",
    "bounds",
    "predicted",
    "probes",
    "trace",
}


@pytest.fixture(scope="module")
def document():
    report = run_experiments(
        ["fleet", "serve", "search", "plan"],
        scale="ci",
        seed=42,
        jobs=2,
        fmt="json",
        scenarios=["bursty-loss"],
        fleet=2,
        budget=2,
        until=120.0,
    )
    return json.loads(report)


def test_json_document_is_versioned(document):
    assert document["report_version"] == REPORT_VERSION
    assert REPORT_VERSION == 2


def test_json_top_level_sections(document):
    assert {"report_version", "scale", "seed", "experiments", "search",
            "scenarios", "fleets", "fleet_tier", "services", "plans"} <= set(document)


def test_json_section_schemas(document):
    assert SCENARIO_ROW_KEYS <= set(document["scenarios"][0])
    for row in document["fleets"]:
        assert FLEET_ROW_KEYS <= set(row)
    for row in document["services"]:
        assert SERVICE_ROW_KEYS <= set(row)
        assert row["until_s"] == 120.0
    assert SEARCH_KEYS <= set(document["search"])
    for row in document["plans"]:
        assert PLAN_KEYS <= set(row)
        assert row["evaluated"] <= 2  # --budget caps plan probes too


def test_json_plan_rows_cover_every_preset(document):
    from repro.fleet import plan_names

    assert [row["plan"] for row in document["plans"]] == plan_names()


def test_json_service_rows_cover_every_preset(document):
    from repro.service import service_names

    assert [row["service"] for row in document["services"]] == service_names()


def test_plan_text_section_is_pinned():
    report = run_experiments(["plan"], scale="ci", seed=42, jobs=2, slo_drop=0.2)
    assert "# capacity plans" in report
    assert "capacity plan 'plan-shared-ap'" in report
    assert "overrides: --slo-drop 0.2" in report
    assert "INFEASIBLE" in report  # the tightened drop gate flips the verdict


def test_text_sections_are_pinned():
    report = run_experiments(
        ["serve"], scale="ci", seed=42, jobs=2,
        scenarios=["bursty-loss"], policy="static-cap",
    )
    assert "# scenario presets" in report
    assert "# service presets" in report
    assert "overrides: --policy static-cap" in report
    assert "admitted" in report
    # Policy override applies to every preset row (result lines all render
    # as "static-cap admission over ..."; catalog descriptions may still
    # mention the presets' native policies).
    assert "utilization-threshold admission over" not in report
    assert "forecast-aware admission over" not in report
    assert report.count("static-cap admission over") == 3


def test_store_section_aggregates_all_sweeps(tmp_path):
    kwargs = dict(
        scale="ci", seed=42, fmt="json", scenarios=["bursty-loss"],
        store=str(tmp_path / "store"), until=60.0,
    )
    cold = json.loads(run_experiments(["serve"], **kwargs))
    assert cold["store"]["misses"] == cold["store"]["entries"] > 0
    warm = json.loads(run_experiments(["serve"], **kwargs))
    assert warm["store"]["misses"] == 0
    assert warm["store"]["hits"] == cold["store"]["misses"]
    assert warm["services"] == cold["services"]
    assert warm["scenarios"] == cold["scenarios"]
