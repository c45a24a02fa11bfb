"""Named live-service presets.

The ``service-*`` family mirrors the scenario and fleet registries: each
preset is a fully-specified :class:`~repro.service.spec.ServiceSpec` fetched
by name, optionally re-parameterised (``policy=``, ``scale=``, ``seed=`` or
any :meth:`ServiceSpec.with_` keyword) without touching its identity
otherwise.  All three presets derive their workload from registered fleet
presets, so the service layer stays anchored to the same traffic models the
fleet experiments pin.
"""

from __future__ import annotations

from .._validation import ensure_int
from ..errors import ConfigurationError
from ..fleet.registry import get_fleet
from .spec import ServiceSpec

_REGISTRY: dict[str, tuple[ServiceSpec, str]] = {}


def register_service(spec: ServiceSpec, description: str = "", overwrite: bool = False) -> None:
    """Register a service preset under ``spec.name``.

    Raises :class:`~repro.errors.ConfigurationError` when the name is taken
    and ``overwrite`` is false.
    """
    name = spec.name
    if not name or name == "service":
        raise ConfigurationError("a registered service needs a distinctive name")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"service {name!r} is already registered")
    _REGISTRY[name] = (spec, description)


def get_service(
    name: str,
    policy: str | None = None,
    scale: str | None = None,
    seed: int | None = None,
    **overrides,
) -> ServiceSpec:
    """Fetch a service preset by name, optionally overriding common knobs.

    ``policy`` (and any other keyword accepted by
    :meth:`ServiceSpec.with_`) replaces a service-level field; ``scale`` and
    ``seed`` are forwarded to the fleet's per-operator template, mirroring
    :func:`repro.fleet.get_fleet`.
    """
    try:
        spec, _ = _REGISTRY[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown service {name!r}; available: {service_names()}"
        ) from exc
    if policy is not None:
        overrides["policy"] = policy
    if overrides:
        spec = spec.with_(**overrides)
    template_overrides: dict = {}
    if scale is not None:
        template_overrides["scale"] = scale
    if seed is not None:
        template_overrides["seed"] = ensure_int("seed", seed)
    if template_overrides:
        spec = spec.with_template(**template_overrides)
    return spec


def service_names() -> list[str]:
    """Sorted names of the registered service presets."""
    return sorted(_REGISTRY)


def service_catalog() -> dict[str, str]:
    """Mapping of service preset name to its one-line description."""
    return {name: description for name, (_, description) in sorted(_REGISTRY.items())}


def _register_builtins() -> None:
    """Register the built-in service presets."""
    register_service(
        ServiceSpec(
            name="service-shared-ap",
            # The shared-ap workload widened to three APs and slowed-down
            # Poisson arrivals: sessions overlap only partially, so arrival
            # clusters overload one home AP while another still has slack —
            # the regime where migration beats the static rule.  The
            # policy-comparison experiment pins its ranking on this preset.
            fleet=get_fleet(
                "shared-ap",
                operators=12,
                aps=3,
                ap_capacity=3,
                arrival="poisson",
                arrival_rate_hz=0.3,
            ),
            policy="static-cap",
            # One session costs 0.3 of a command period of air time (6 ms /
            # 20 ms), so capacity 3 peaks at 0.9 utilisation: a 0.95 limit
            # lets the balancing policies use the full cap AND migrate,
            # instead of being strictly tighter than static-cap.
            utilization_limit=0.95,
        ),
        "oversubscribed shared-AP workload widened to 3 APs (policy-comparison anchor)",
    )
    register_service(
        ServiceSpec(
            name="service-peak-hour",
            fleet=get_fleet("peak-hour"),
            policy="utilization-threshold",
            utilization_limit=0.75,
        ),
        "peak-hour fleet operated under a 0.75 utilisation admission threshold",
    )
    register_service(
        ServiceSpec(
            name="service-diurnal",
            fleet=get_fleet("diurnal-campus"),
            policy="forecast-aware",
            forecast_record=8,
        ),
        "diurnal campus fleet with forecast-aware admission (FoReCo-style congestion prediction)",
    )


_register_builtins()
