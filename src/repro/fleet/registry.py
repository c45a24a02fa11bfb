"""Named fleet presets.

The registry maps human-friendly names to :class:`FleetSpec` values so the
capacity-planning examples, the CLI (``foreco-experiments fleet``) and the
benchmarks share one vocabulary of service workloads:

``shared-ap``
    Four operators saturating one access point, all starting at once — the
    canonical coupled-contention workload (the AP is oversubscribed, so the
    shared backlog stretches everyone's delays).
``peak-hour``
    Eight operators arriving as a Poisson process over two APs with a tight
    admission cap — sessions overlap at the peak and some are dropped.
``diurnal-campus``
    Twelve operators following a diurnal load curve over three APs — the
    arrival-rate swing concentrates sessions near the peak of the curve.
``city-scale``
    Two thousand operators arriving Poisson over 256 APs, run through the
    **hybrid** exact/analytic tier (see :mod:`repro.fleet.hybrid`): the few
    saturated APs simulate exactly, the long cold tail is serviced by the
    analytic heavy-tail superposition model — the workload shape of the
    "fleets of millions" north star, at a cost a laptop can pay.

Use :func:`register_fleet` to add project-specific presets.
"""

from __future__ import annotations

from .._validation import ensure_int
from ..errors import ConfigurationError
from ..scenarios.registry import get_scenario
from .spec import FleetSpec

_REGISTRY: dict[str, tuple[FleetSpec, str]] = {}


def register_fleet(spec: FleetSpec, description: str = "", overwrite: bool = False) -> None:
    """Register a fleet preset under ``spec.name``.

    Raises :class:`~repro.errors.ConfigurationError` when the name is taken
    and ``overwrite`` is false.
    """
    name = spec.name
    if not name or name == "fleet":
        raise ConfigurationError("a registered fleet needs a distinctive name")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"fleet {name!r} is already registered")
    _REGISTRY[name] = (spec, description)


def get_fleet(
    name: str,
    operators: int | None = None,
    scale: str | None = None,
    seed: int | None = None,
    **overrides,
) -> FleetSpec:
    """Fetch a fleet preset by name, optionally overriding common knobs.

    ``operators`` (and any other keyword accepted by
    :meth:`FleetSpec.with_`) replaces a fleet-level field; ``scale`` and
    ``seed`` are forwarded to the per-operator template, mirroring
    :func:`repro.scenarios.get_scenario`.
    """
    try:
        spec, _ = _REGISTRY[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown fleet {name!r}; available: {fleet_names()}"
        ) from exc
    if operators is not None:
        overrides["operators"] = ensure_int("operators", operators)
    if overrides:
        spec = spec.with_(**overrides)
    template_overrides = {}
    if scale is not None:
        template_overrides["scale"] = scale
    if seed is not None:
        template_overrides["seed"] = seed
    if template_overrides:
        spec = spec.with_template(**template_overrides)
    return spec


def fleet_names() -> list[str]:
    """Sorted names of the registered fleet presets."""
    return sorted(_REGISTRY)


def fleet_catalog() -> dict[str, str]:
    """Mapping of fleet preset name to its one-line description."""
    return {name: description for name, (_, description) in sorted(_REGISTRY.items())}


def _register_builtins() -> None:
    """Register the built-in fleet presets."""
    register_fleet(
        FleetSpec(
            name="shared-ap",
            template=get_scenario("bursty-loss"),
            operators=4,
            aps=1,
            ap_capacity=4,
            ap_service_ms=6.0,
            arrival="simultaneous",
        ),
        "4 operators saturating one AP (oversubscribed shared backlog)",
    )
    register_fleet(
        FleetSpec(
            name="peak-hour",
            template=get_scenario("random-loss"),
            operators=8,
            aps=2,
            ap_capacity=3,
            ap_service_ms=5.0,
            arrival="poisson",
            arrival_rate_hz=0.4,
        ),
        "8 operators arriving Poisson over 2 capacity-limited APs (drops expected)",
    )
    register_fleet(
        FleetSpec(
            name="diurnal-campus",
            template=get_scenario("markov-interference"),
            operators=12,
            aps=3,
            ap_capacity=3,
            ap_service_ms=4.0,
            arrival="diurnal",
            arrival_rate_hz=0.3,
            diurnal_period_s=120.0,
            diurnal_amplitude=0.9,
        ),
        "12 operators on a diurnal load curve over 3 APs (peak-hour clustering)",
    )
    register_fleet(
        FleetSpec(
            name="city-scale",
            template=get_scenario("bursty-loss"),
            operators=2048,
            aps=256,
            ap_capacity=8,
            ap_service_ms=4.0,
            arrival="poisson",
            arrival_rate_hz=8.0,
            tier="hybrid",
            hot_threshold=0.6,
            cold_tail="heavy",
        ),
        "2048 operators Poisson over 256 APs via the hybrid exact/analytic tier",
    )


_register_builtins()
