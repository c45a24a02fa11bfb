"""Ablation benches for the design choices called out in DESIGN.md.

These do not correspond to a figure in the paper; they quantify the impact of
the reproduction's own design decisions so a reader can see which choices the
headline results depend on:

* forecast feedback vs oracle feedback during loss bursts (§VII-C),
* the VAR record length R,
* the ridge shrinkage that stabilises iterated forecasting,
* the tolerance τ.

Every ablation is a one-axis scenario grid executed through the shared
:class:`repro.scenarios.SweepExecutor`, so the benches exercise exactly the
code path the experiments and the CLI use.
"""

from __future__ import annotations

from repro.scenarios import (
    ScenarioSpec,
    SweepExecutor,
    SweepResult,
    get_scale,
    loss_burst_channel,
    scenario_grid,
    wireless_channel,
)

from conftest import emit

#: The interference channel shared by the delay-sensitive ablations.
_INTERFERENCE = wireless_channel(n_robots=15, probability=0.05, duration_slots=100)

#: The controlled-loss channel shared by the burst-sensitive ablations.
_BURSTS = loss_burst_channel(burst_length=15, n_bursts=5, min_gap=80)


def _base(bench_scale, bench_seed, channel, **fields) -> ScenarioSpec:
    scale = get_scale(bench_scale)
    return ScenarioSpec(
        name="ablation",
        scale=scale,
        seed=bench_seed,
        channel=channel,
        run_seconds=40.0,
        **fields,
    )


def _sweep(base: ScenarioSpec, axis: str, values) -> SweepResult:
    return SweepExecutor(jobs=2).run(scenario_grid(base, {axis: tuple(values)}))


def test_feedback_ablation(benchmark, bench_scale, bench_seed):
    """Forecast feedback (the paper's prototype) vs oracle feedback."""

    def run() -> dict[str, float]:
        base = _base(bench_scale, bench_seed, _INTERFERENCE)
        sweep = _sweep(base, "foreco.feedback", ("forecast", "oracle"))
        return {row.spec.foreco.feedback: row.mean_rmse_foreco_mm for row in sweep}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation — feedback mode",
        "\n".join(f"{mode:10s}: FoReCo RMSE {value:.2f} mm" for mode, value in results.items()),
    )
    assert results["oracle"] <= results["forecast"] * 1.5


def test_var_record_sweep(benchmark, bench_scale, bench_seed):
    """Sensitivity of the recovery error to the VAR record length R."""

    def run() -> dict[int, float]:
        base = _base(bench_scale, bench_seed, _BURSTS)
        sweep = _sweep(base, "foreco.record", (2, 5, 10, 20))
        return {row.spec.foreco.record: row.mean_rmse_foreco_mm for row in sweep}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation — VAR record length",
        "\n".join(f"R={record:<3d}: FoReCo RMSE {value:.2f} mm" for record, value in results.items()),
    )
    assert min(results.values()) > 0.0


def test_ridge_sweep(benchmark, bench_scale, bench_seed):
    """The ridge shrinkage that keeps iterated VAR forecasts stable."""

    def run() -> dict[float, float]:
        base = _base(bench_scale, bench_seed, _INTERFERENCE)
        results = {}
        for ridge in (0.0, 1e-3, 3e-2, 1e-1):
            spec = base.with_foreco(algorithm_options={"ridge": ridge})
            row = SweepExecutor(jobs=1).run([spec])[0]
            results[ridge] = row.mean_rmse_foreco_mm
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation — VAR ridge",
        "\n".join(f"ridge={ridge:<7g}: FoReCo RMSE {value:.2f} mm" for ridge, value in results.items()),
    )
    assert results[3e-2] <= results[0.0] * 1.5


def test_tolerance_sweep(benchmark, bench_scale, bench_seed):
    """Sensitivity to the tolerance τ: a larger τ accepts more late commands."""

    def run() -> dict[float, float]:
        base = _base(bench_scale, bench_seed, _INTERFERENCE)
        sweep = _sweep(base, "foreco.tolerance_ms", (0.0, 10.0, 40.0))
        return {row.spec.foreco.tolerance_ms: row.mean_late_fraction for row in sweep}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation — tolerance τ",
        "\n".join(
            f"tau={tolerance:>4.0f} ms: late fraction {value:.3f}"
            for tolerance, value in results.items()
        ),
    )
    values = list(results.values())
    assert values[0] >= values[1] >= values[2]
