"""Serial reference channel sampler (bit-equality oracle).

``sample_channel_delays`` is the one-repetition-at-a-time sampler the
scenario engine used before every session went through
``repro.scenarios.sample_channel_delays_batch``.  It is kept here verbatim
so the batch sampler can be checked row by row against it, and so the
channel benchmark has a denominator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.scenarios.engine import _compound_stage_seeds, _trace_replay, _wireless_from_options
from repro.scenarios.spec import ChannelSpec
from repro.wireless import (
    ConsecutiveLossInjector,
    GilbertElliottJammer,
    HandoverChannel,
    HandoverConfig,
    JammerConfig,
    MarkovChannelConfig,
    MarkovModulatedChannel,
    PeriodicLossInjector,
    RandomLossInjector,
)


def sample_channel_delays(
    channel: ChannelSpec,
    n_commands: int,
    seed: int,
    command_period_ms: float = 20.0,
) -> np.ndarray:
    """Sample one realisation of per-command delays (ms, ``inf`` = lost).

    The serial reference path — one repetition at a time, through each
    kind's own serial sampler — and the bit-equality oracle for
    :func:`repro.scenarios.sample_channel_delays_batch`.
    """
    options = channel.options()
    if channel.kind == "clean":
        return np.full(n_commands, float(options.get("nominal_delay_ms", 1.0)))
    if channel.kind == "wireless":
        wireless = _wireless_from_options(options, command_period_ms, seed=seed)
        return wireless.sample_trace(n_commands).delays()
    if channel.kind == "jammer":
        jammer = GilbertElliottJammer(config=JammerConfig(**options), seed=seed)
        return jammer.sample_trace(n_commands).delays()
    if channel.kind == "loss-burst":
        nominal = float(options.pop("nominal_delay_ms", 1.0))
        injector = ConsecutiveLossInjector(seed=seed, **options)
        return injector.to_delays(n_commands, nominal_delay_ms=nominal)
    if channel.kind == "periodic-loss":
        nominal = float(options.pop("nominal_delay_ms", 1.0))
        injector = PeriodicLossInjector(**options)
        return injector.to_delays(n_commands, nominal_delay_ms=nominal)
    if channel.kind == "random-loss":
        nominal = float(options.pop("nominal_delay_ms", 1.0))
        injector = RandomLossInjector(seed=seed, **options)
        return injector.to_delays(n_commands, nominal_delay_ms=nominal)
    if channel.kind == "trace":
        return _trace_replay(options, n_commands, [seed])[0]
    if channel.kind == "markov-interference":
        markov = MarkovModulatedChannel(config=MarkovChannelConfig(**options), seed=seed)
        return markov.sample_delays(n_commands)
    if channel.kind == "handover":
        handover = HandoverChannel(config=HandoverConfig(**options), seed=seed)
        return handover.sample_delays(n_commands)
    if channel.kind == "compound":
        stages = options.get("stages", ())
        if not stages:
            raise ConfigurationError("compound channel has no stages")
        total = np.zeros(n_commands)
        for stage, stage_seed in zip(stages, _compound_stage_seeds(stages, seed)):
            total = total + sample_channel_delays(
                stage, n_commands, stage_seed, command_period_ms
            )
        return total
    raise ConfigurationError(f"unknown channel kind {channel.kind!r}")
