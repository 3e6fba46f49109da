"""Unit tests for the latency model and Table 1 presets."""

import pytest

from repro.nvm.latency import (
    DRAM,
    PAPER_NVM,
    PCM,
    RERAM,
    STT_MRAM,
    TECHNOLOGY_PRESETS,
    LatencyModel,
)


def test_paper_default_flush_penalty_is_300ns():
    # Section 4.1: "we set the extra latency to 300ns by default"
    assert PAPER_NVM.nvm_write_extra_ns == 300


def test_dirty_flush_costs_more_than_clean():
    model = LatencyModel()
    assert model.flush_cost(dirty=True) > model.flush_cost(dirty=False)
    assert model.flush_cost(dirty=True) == (
        model.flush_base_ns + model.nvm_write_extra_ns
    )


def test_dram_has_no_flush_penalty():
    assert DRAM.nvm_write_extra_ns == 0
    assert DRAM.flush_cost(dirty=True) == DRAM.flush_base_ns


def test_table1_write_latency_ordering():
    # Table 1: STT-MRAM (10-30ns) < ReRAM (100ns) < PCM (150-1000ns) writes
    assert STT_MRAM.nvm_write_extra_ns < RERAM.nvm_write_extra_ns
    assert RERAM.nvm_write_extra_ns < PCM.nvm_write_extra_ns
    assert DRAM.nvm_write_extra_ns < STT_MRAM.nvm_write_extra_ns


def test_presets_registry_complete_and_consistent():
    assert set(TECHNOLOGY_PRESETS) == {"dram", "paper-nvm", "pcm", "reram", "stt-mram"}
    for name, model in TECHNOLOGY_PRESETS.items():
        assert model.name == name


def test_prefetch_hit_cheaper_than_line_fill():
    for model in TECHNOLOGY_PRESETS.values():
        assert model.prefetch_hit_ns < model.line_fill_ns


def test_model_is_frozen():
    with pytest.raises(AttributeError):
        PAPER_NVM.fence_ns = 0  # type: ignore[misc]


@pytest.mark.parametrize(
    "field, value",
    [
        ("cache_hit_ns", -1),
        ("line_fill_ns", 97.5),
        ("fence_ns", 10.0),
        ("flush_base_ns", True),
    ],
)
def test_costs_must_be_non_negative_ints(field, value):
    """A negative, fractional, float-typed or bool cost is refused, and
    the error names the field: the simulated clock is an int."""
    with pytest.raises(ValueError, match=field):
        LatencyModel(**{field: value})


def test_every_preset_constructs_with_int_costs():
    for model in TECHNOLOGY_PRESETS.values():
        rebuilt = LatencyModel(**vars(model))
        assert rebuilt == model
        assert type(rebuilt.flush_cost(True)) is int
