"""Capacity enforcement and structural checks of controller memories, at
write time and at play time."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinctl.errors import CapacityError
from spinctl.controller.executor import Transmitter, TxConfig
from spinctl.controller.memory import (
    ENVELOPE_CAPACITY,
    LIST_CAPACITY,
    TABLE_CAPACITY,
    EnvelopeMemory,
    Instruction,
    ListEntry,
    MemoryImage,
)


def test_envelope_fills_to_capacity_then_rejects():
    mem = EnvelopeMemory()
    mem.write_codes(np.zeros(ENVELOPE_CAPACITY, dtype=int))
    assert len(mem) == ENVELOPE_CAPACITY
    with pytest.raises(CapacityError):
        mem.write_codes([0])


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=25)
def test_envelope_overflow_rejected_without_partial_write(extra):
    mem = EnvelopeMemory()
    mem.write_codes(np.ones(ENVELOPE_CAPACITY - 10, dtype=int))
    with pytest.raises(CapacityError):
        mem.write_codes(np.full(10 + extra, 2))
    assert len(mem) == ENVELOPE_CAPACITY - 10  # nothing truncated in


def test_amplitude_code_range_checked():
    mem = EnvelopeMemory(amp_bits=8)
    mem.write_codes([127])
    mem.write_codes([-128])
    with pytest.raises(ValueError):
        mem.write_codes([128])


def test_write_values_quantizes_to_grid():
    mem = EnvelopeMemory(amp_bits=10)
    start, stop = mem.write_values(np.array([0.5, -0.25, 0.999]))
    assert (start, stop) == (0, 2)
    codes = mem.amp_codes.tolist()
    assert codes == [256, -128, 511]


def test_bad_block_is_rejected_whole():
    mem = EnvelopeMemory(amp_bits=8, phase_mod_bits=4)
    mem.write_codes([1, 2, 3], [0, 1, 15])
    for amp, phase in (
        ([5, 6, 128], None),  # one amplitude code off the grid
        ([5, 6, 7], [0, 16, 0]),  # one phase code out of range
        ([5, 6, 7], [0, 1]),  # lengths differ
        ([0.5, 1.0], None),  # not integer codes
        ([], None),
    ):
        with pytest.raises(ValueError):
            mem.write_codes(amp, phase)
    assert mem.amp_codes.tolist() == [1, 2, 3]
    assert mem.phase_mods.tolist() == [0, 1, 15]


def test_write_values_rejects_length_mismatch():
    mem = EnvelopeMemory()
    with pytest.raises(ValueError, match="equal-length"):
        mem.write_values(np.full(3, 0.5), [1])
    assert len(mem) == 0


def test_equality_is_a_bool():
    a, b = EnvelopeMemory(), EnvelopeMemory()
    for mem in (a, b):
        mem.write_values(np.full(4, 0.5), [0, 1, 2, 3])
    assert (a == b) is True and (a != b) is False
    b.write_codes([0])
    assert (a == b) is False and (a != b) is True
    assert EnvelopeMemory(amp_bits=12) != EnvelopeMemory()
    assert MemoryImage(a) == MemoryImage(EnvelopeMemory(10, 10, a.amp_codes, a.phase_mods))


def test_rollback_truncates():
    mem = EnvelopeMemory()
    mem.write_codes([1, 2, 3])
    mem.truncate(1)
    assert mem.write_codes([7, 8]) == (1, 2)
    assert mem.amp_codes.tolist() == [1, 7, 8]
    assert mem.amp_values(1, 2).tolist() == [7 / 512, 8 / 512]
    assert mem.phase_codes(0, 2).tolist() == [0, 0, 0]


def test_table_rejects_ninth_instruction():
    img = MemoryImage()
    for _ in range(TABLE_CAPACITY):
        img.add_instruction(0, 3, Instruction(3, phase_update=1))
    with pytest.raises(CapacityError):
        img.add_instruction(0, 3, Instruction(3, phase_update=1))
    assert len(img.tables[0][3]) == TABLE_CAPACITY


def test_list_rejects_2049th_entry():
    img = MemoryImage()
    img.add_instruction(0, 0, Instruction(0, phase_update=1))
    for _ in range(LIST_CAPACITY):
        img.schedule(0, 0, 0)
    with pytest.raises(CapacityError):
        img.schedule(0, 0, 0)
    assert len(img.instruction_list) == LIST_CAPACITY


@given(st.integers(min_value=0, max_value=TABLE_CAPACITY + 4))
@settings(max_examples=20)
def test_table_boundary_exact(n):
    img = MemoryImage()
    if n <= TABLE_CAPACITY:
        for _ in range(n):
            img.add_instruction(1, 0, Instruction(0, phase_update=5))
        assert len(img.tables[1][0]) == n
    else:
        for _ in range(TABLE_CAPACITY):
            img.add_instruction(1, 0, Instruction(0, phase_update=5))
        with pytest.raises(CapacityError):
            img.add_instruction(1, 0, Instruction(0, phase_update=5))


def test_instruction_needs_exactly_one_form():
    with pytest.raises(ValueError):
        Instruction(0)
    with pytest.raises(ValueError):
        Instruction(0, start_addr=0, stop_addr=3, phase_update=7)
    with pytest.raises(ValueError):
        Instruction(0, start_addr=5, stop_addr=4)


def test_schedule_checks_bank_nco_and_slot_ranges():
    img = MemoryImage()
    for bank, nco, slot, message in ((2, 0, 0, "bank 2 outside 0..1"),
                                     (-1, 0, 0, "bank -1 outside 0..1"),
                                     (0, 16, 0, "nco 16 outside 0..15"),
                                     (0, 0, 8, "slot 8 outside 0..7")):
        with pytest.raises(ValueError, match=message):
            img.schedule(bank, nco, slot)
    assert img.instruction_list == []
    img.schedule(1, 15, 7)  # in range; an empty slot is found when played
    assert img.instruction_list == [ListEntry(1, 15, 7)] == [(1, 15, 7)]


def _good_image():
    """A phase update on bank 0 / NCO 0, then a burst of the 4-point block."""
    img = MemoryImage()
    img.envelope.write_values(np.full(4, 0.5))
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=3))
    img.add_instruction(0, 0, Instruction(0, phase_update=1000))
    img.add_instruction(1, 0, Instruction(0, phase_update=7))  # what bank -1 would wrap to
    img.schedule(0, 0, 1)
    img.schedule(0, 0, 0)
    return img


def _played_transmitter():
    tx = Transmitter(TxConfig())
    tx.play([_good_image()])
    assert tx.sample_count == 4 and tx.ref_phase[0, 0] == 1000
    return tx


def _assert_rejected(tx, images, error, match):
    count, ref = tx.sample_count, tx.ref_phase.copy()
    with pytest.raises(error, match=match):
        tx.play(images)
    assert tx.sample_count == count
    assert np.array_equal(tx.ref_phase, ref)


def test_play_catches_dangling_slot_and_bad_range():
    tx = _played_transmitter()
    for entry in (ListEntry(0, 0, 5), ListEntry(0, 3, 0), ListEntry(2, 0, 0),
                  ListEntry(0, 16, 0), ListEntry(-1, 0, 0), ListEntry(0, -16, 0),
                  ListEntry(0, 0, -1)):
        img = _good_image()
        img.instruction_list.append(entry)
        _assert_rejected(tx, [img], ValueError, "list entry 2 references empty slot")
        # A good image played before the bad one in the same call is undone too.
        _assert_rejected(tx, [_good_image(), img], ValueError, "empty slot")

    img = _good_image()
    img.tables[0][0][0] = Instruction(0, start_addr=0, stop_addr=10)
    _assert_rejected(tx, [img], ValueError,
                     r"list entry 1 envelope range \[0, 10\] exceeds envelope length 4")
    tx.play([_good_image()])
    assert tx.sample_count == 8 and tx.ref_phase[0, 0] == 2000


def test_play_rejects_envelope_bit_widths_other_than_the_config():
    tx = _played_transmitter()
    for amp_bits, phase_mod_bits in ((8, 10), (10, 12)):
        img = _good_image()
        img.envelope = EnvelopeMemory(amp_bits, phase_mod_bits)
        img.envelope.write_values(np.full(4, 0.5))
        _assert_rejected(tx, [img], ValueError, "bit widths do not match")


def test_play_rejects_a_list_padded_past_capacity():
    tx = _played_transmitter()
    img = _good_image()
    for _ in range(LIST_CAPACITY - len(img.instruction_list)):
        img.schedule(0, 0, 0)
    img.instruction_list.append(ListEntry(0, 0, 0))  # past what schedule allows
    _assert_rejected(tx, [img], CapacityError, "instruction list .* requested 2049, limit 2048")
    img.instruction_list.pop()
    tx.play([img])  # a full list plays
    assert tx.sample_count == 4 + 4 * (LIST_CAPACITY - 1)
