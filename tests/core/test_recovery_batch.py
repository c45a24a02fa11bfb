"""The level-scheduled recovery kernel against independent serial engines.

``ForecoRecovery.process_stream_batch(c, D)`` must return, for every row
``b``, exactly what ``copy.deepcopy(engine).process_stream(c, D[b])``
returns: the same executed commands bit for bit (uint64 view), the same
on-time and forecasted flags and the same stats.  The loss masks aim at the
kernel's scheduling edges: bursts, forecastable losses exactly ``record``
and ``record + 1`` slots apart (the run-break boundary), losses inside the
first ``record - 1`` slots (the fallback pre-pass), all-late and all-on-time
rows.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ForecoConfig, ForecoRecovery
from repro.forecasting import Forecaster, make_forecaster
from tests.oracles import recovery as lockstep

N_JOINTS = 6
RECORDS = (1, 3, 10)
#: Built-in forecasters; seq2seq gets tiny layer sizes so its fit stays fast.
BUILTINS: dict[str, dict] = {
    "ma": {},
    "var": {},
    "varma": {},
    "ses": {},
    "seq2seq": {"encoder_units": 4, "decoder_units": 2, "epochs": 1, "max_training_windows": 40},
}
FORECASTERS = (*sorted(BUILTINS), "drifting")
#: ``None`` disables the clamp; 0.004 rad binds on most forecasts of the stream.
MAX_STEPS = (None, 0.004)
#: Finite but past the 20 ms deadline: late without being lost.
LATE_MS = 25.0


class Drifting(Forecaster):
    """Stateful forecaster: each call adds a growing offset.

    Its forecasts depend on how often *this instance* was called, so the
    kernel matches the serial engines only if every row predicts on its own
    copy, fed only that row's missing slots, in slot order.
    """

    name = "drifting"

    def __init__(self, record: int = 5) -> None:
        super().__init__(record=record)
        self.calls = 0

    def _fit(self, commands):
        return None

    def _predict_next(self, history):
        self.calls += 1
        return history[-1] + 1e-3 * self.calls + 1e-2 * (history[-1] - history[0])


def _walk(n: int, seed: int, scale: float = 0.01) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(scale=scale, size=(n, N_JOINTS)), axis=0)


def _make(name: str, record: int) -> Forecaster:
    if name == "drifting":
        return Drifting(record=record)
    return make_forecaster(name, record=record, **BUILTINS[name])


@functools.lru_cache(maxsize=None)
def _fitted(name: str, record: int) -> Forecaster:
    return _make(name, record).fit(_walk(220, seed=0))


def _engine(name: str, record: int, fitted: bool, oracle: bool, max_step) -> ForecoRecovery:
    forecaster = _fitted(name, record) if fitted else _make(name, record)
    config = ForecoConfig(
        record=record, feedback="oracle" if oracle else "forecast", max_step_rad=max_step
    )
    return ForecoRecovery(config, forecaster=forecaster)


def _assert_matches_serial(engine: ForecoRecovery, commands: np.ndarray, delays: np.ndarray):
    """Kernel == one deep-copied serial engine per row, bit for bit."""
    batch = engine.process_stream_batch(commands, delays)
    n_batch, n_slots = delays.shape
    assert batch.executed.shape == (n_batch, n_slots, N_JOINTS)
    for row in range(n_batch):
        serial = copy.deepcopy(engine)
        executed = serial.process_stream(commands, delays[row])
        assert np.array_equal(batch.executed[row].view(np.uint64), executed.view(np.uint64)), row
        assert batch.stats[row] == serial.stats
        flags = copy.deepcopy(engine)
        flags.reset(N_JOINTS, seed_history=commands[:1])
        decisions = [flags.process_slot(c, d) for c, d in zip(commands, delays[row])]
        assert batch.on_time[row].tolist() == [d.on_time for d in decisions]
        assert batch.forecasted[row].tolist() == [d.forecasted for d in decisions]


def _edge_masks(record: int, n_slots: int) -> np.ndarray:
    """Five ``(n_slots,)`` late masks, one per scheduling edge."""
    slots = np.arange(n_slots)
    start = record + 2
    masks = np.zeros((5, n_slots), dtype=bool)
    # Bursts of 1-4 slots separated by short on-time gaps.
    masks[0] = (slots % 7 < (slots // 7) % 4 + 1) & (slots >= start)
    # Single losses exactly `record` apart: one run, level = rank.
    masks[1, start::record] = True
    # Two-slot bursts, each `record + 1` slots after the previous one ends:
    # separate runs.
    masks[2, start :: record + 2] = masks[2, start + 1 :: record + 2] = True
    # Losses inside the first record - 1 slots plus a burst right after.
    masks[3, : record + 3] = slots[: record + 3] % 2 == 0
    masks[3, record + 3 : record + 6] = True
    # All late.
    masks[4] = True
    return masks


def _delays(masks: np.ndarray, lost: bool = True) -> np.ndarray:
    return np.where(masks, np.inf if lost else LATE_MS, 1.0)


@pytest.mark.parametrize("record", RECORDS)
@pytest.mark.parametrize("name", FORECASTERS)
def test_kernel_matches_serial_on_edge_masks(name, record):
    """Every forecaster x record x feedback x clamp x fitted, at B = 5 and 1."""
    n_slots = 4 * record + 16
    commands = _walk(n_slots, seed=record)
    masks = _edge_masks(record, n_slots)
    for oracle in (False, True):
        for max_step in MAX_STEPS:
            for fitted in (True, False):
                engine = _engine(name, record, fitted, oracle, max_step)
                _assert_matches_serial(engine, commands, _delays(masks, lost=not oracle))
                for row in (1, 2):
                    _assert_matches_serial(engine, commands, _delays(masks[row : row + 1]))


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(FORECASTERS))
    record = draw(st.sampled_from(RECORDS))
    n_slots = draw(st.integers(0, 3 * record + 20))
    n_batch = draw(st.sampled_from((1, 5)))
    rows = []
    for _ in range(n_batch):
        kind = draw(st.sampled_from(("random", "bursts", "late", "on-time")))
        if kind == "random":
            rows.append(draw(st.lists(st.booleans(), min_size=n_slots, max_size=n_slots)))
        elif kind == "bursts":
            mask = np.zeros(n_slots, dtype=bool)
            slot = draw(st.integers(0, record + 1))
            while slot < n_slots:
                burst = draw(st.integers(1, 6))
                mask[slot : slot + burst] = True
                slot += burst + draw(st.sampled_from((1, record - 1, record, record + 1, record + 2)))
            rows.append(mask.tolist())
        else:
            rows.append([kind == "late"] * n_slots)
    return {
        "name": name,
        "record": record,
        "masks": np.array(rows, dtype=bool).reshape(n_batch, n_slots),
        "oracle": draw(st.booleans()),
        "max_step": draw(st.sampled_from(MAX_STEPS)),
        "fitted": draw(st.booleans()),
        "lost": draw(st.booleans()),
        "seed": draw(st.integers(0, 3)),
    }


@settings(max_examples=60, deadline=None)
@given(case=_cases())
def test_kernel_matches_serial_property(case):
    """Random configurations and loss masks, including empty streams."""
    masks = case["masks"]
    engine = _engine(case["name"], case["record"], case["fitted"], case["oracle"], case["max_step"])
    commands = _walk(masks.shape[1], seed=case["seed"])
    _assert_matches_serial(engine, commands, _delays(masks, lost=case["lost"]))


def test_kernel_matches_per_slot_lockstep_oracle():
    """The level schedule reproduces the per-slot lockstep kernel it replaced."""
    record = 10
    commands = _walk(300, seed=5)
    rng = np.random.default_rng(7)
    masks = rng.random((6, 300)) < 0.3
    masks[-1] = True
    for oracle in (False, True):
        engine = _engine("var", record, True, oracle, 0.004)
        delays = _delays(masks)
        expected = lockstep.process_stream_batch(engine, commands, delays)
        actual = engine.process_stream_batch(commands, delays)
        assert np.array_equal(actual.executed.view(np.uint64), expected.executed.view(np.uint64))
        assert np.array_equal(actual.forecasted, expected.forecasted)
        assert actual.stats == expected.stats


def test_empty_stream_gives_empty_result():
    """An empty stream returns ``(B, 0, d)`` arrays and zero stats, like the serial path."""
    engine = _engine("var", 3, True, False, 0.04)
    result = engine.process_stream_batch(np.zeros((0, N_JOINTS)), np.zeros((2, 0)))
    assert result.executed.shape == (2, 0, N_JOINTS)
    assert result.on_time.shape == result.forecasted.shape == (2, 0)
    assert [stats.n_slots for stats in result.stats] == [0, 0]
    assert [stats.n_forecasted for stats in result.stats] == [0, 0]
    assert copy.deepcopy(engine).process_stream(np.zeros((0, N_JOINTS)), np.zeros(0)).shape == (
        0,
        N_JOINTS,
    )
