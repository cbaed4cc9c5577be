"""Binary round trips and disassembly of memory images."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinctl.errors import ImageFormatError
from spinctl.controller.image_io import assemble, disassemble, dump_image, load_image
from spinctl.controller.memory import EnvelopeMemory, Instruction, MemoryImage


def sample_image():
    img = MemoryImage()
    img.envelope.write_values(np.concatenate([np.full(20, 0.5), np.zeros(5)]))
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=19))
    img.add_instruction(0, 0, Instruction(0, phase_update=1 << 20))
    img.add_instruction(1, 3, Instruction(3, start_addr=20, stop_addr=24))
    img.schedule(0, 0, 0)
    img.schedule(0, 0, 1)
    img.schedule(1, 3, 0)
    return img


def images_equal(a, b):
    if not (
        np.array_equal(a.envelope.amp_codes, b.envelope.amp_codes)
        and np.array_equal(a.envelope.phase_mods, b.envelope.phase_mods)
    ):
        return False
    if (a.envelope.amp_bits, a.envelope.phase_mod_bits) != (
        b.envelope.amp_bits,
        b.envelope.phase_mod_bits,
    ):
        return False
    if a.tables != b.tables:
        return False
    return a.instruction_list == b.instruction_list


# sha256 of the byte layout and the listing of sample_image().  Round trips
# alone would pass if dump and load changed the layout together.
SAMPLE_DUMP_SHA256 = "76555eb690ac02558e35a5ed0d5f4d586881811712f0269509eb8fa15ae1d4e1"
SAMPLE_LISTING_SHA256 = "47943e58e21a24e20abb1f3ba13b938c23e14d9c204c96d2b691560a755d3cdd"


def test_dump_bytes_golden():
    assert hashlib.sha256(dump_image(sample_image())).hexdigest() == SAMPLE_DUMP_SHA256


def test_disassembly_golden():
    text = disassemble(sample_image())
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLE_LISTING_SHA256


def test_binary_round_trip():
    img = sample_image()
    assert images_equal(load_image(dump_image(img)), img)


def test_empty_image_round_trip_and_listing():
    img = MemoryImage()
    assert images_equal(load_image(dump_image(img)), img)
    text = disassemble(img)
    assert "env" not in text.replace("; memory image", "")
    assert images_equal(assemble(text), img)


def test_disassembly_round_trip():
    img = sample_image()
    text = disassemble(img)
    assert "burst 0..19" in text
    assert "phase +1048576" in text
    assert images_equal(assemble(text), img)


def test_one_gate_listing_shape():
    img = MemoryImage()
    img.envelope.write_values(np.full(500, 0.25))
    img.add_instruction(1, 0, Instruction(0, start_addr=0, stop_addr=499))
    img.schedule(1, 0, 0)
    text = disassemble(img)
    assert "instr b1.n0.s0 burst 0..499 (500 samples)" in text
    assert "run b1.n0.s0" in text


def test_codes_wider_than_the_file_rejected_before_writing():
    img = MemoryImage(EnvelopeMemory(amp_bits=20))
    img.envelope.write_values(np.full(4, 0.5))  # code 2**18 needs 20 bits
    with pytest.raises(ImageFormatError, match="amp_bits=20"):
        dump_image(img)
    img = MemoryImage(EnvelopeMemory(phase_mod_bits=20))
    img.envelope.write_codes([1, 2], [0, 1 << 16])
    with pytest.raises(ImageFormatError, match="phase_mod_bits=20"):
        dump_image(img)


def test_wide_image_with_narrow_codes_round_trips():
    img = MemoryImage(EnvelopeMemory(amp_bits=20, phase_mod_bits=20))
    img.envelope.write_codes([-(1 << 15), (1 << 15) - 1], [0, (1 << 16) - 1])
    assert images_equal(load_image(dump_image(img)), img)


def test_listing_with_bad_code_raises_format_error():
    text = disassemble(sample_image()).replace("amp=256", "amp=4096")
    with pytest.raises(ImageFormatError, match="amplitude code 4096"):
        assemble(text)


@pytest.mark.parametrize("offset, value, field", [(6, 0, "amp_bits"), (7, 40, "phase_mod_bits")])
def test_bad_bit_width_byte_names_the_field(offset, value, field):
    data = bytearray(dump_image(sample_image()))
    data[offset] = value
    with pytest.raises(ImageFormatError, match=f"{field}={value} outside") as err:
        load_image(bytes(data))
    assert err.value.offset == 6


def test_listing_with_bad_bit_width_names_the_field():
    text = disassemble(sample_image()).replace("bits amp=10", "bits amp=0")
    with pytest.raises(ImageFormatError, match="line 2: amp_bits=0 outside"):
        assemble(text)


def test_truncated_file_reports_offset():
    data = dump_image(sample_image())
    with pytest.raises(ImageFormatError) as err:
        load_image(data[: len(data) - 2])
    assert err.value.offset is not None
    assert err.value.offset <= len(data)


def test_bad_magic_rejected():
    with pytest.raises(ImageFormatError, match="magic"):
        load_image(b"NOPE" + b"\x00" * 16)


def test_trailing_bytes_rejected():
    data = dump_image(sample_image()) + b"\x00"
    with pytest.raises(ImageFormatError, match="trailing"):
        load_image(data)


@given(
    st.lists(st.integers(min_value=-512, max_value=511), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=(1 << 22) - 1),
)
@settings(max_examples=25, deadline=None)
def test_round_trip_random_images(codes, phase):
    img = MemoryImage()
    img.envelope.write_codes(codes)
    img.add_instruction(0, 1, Instruction(1, start_addr=0, stop_addr=len(codes) - 1))
    img.add_instruction(0, 1, Instruction(1, phase_update=phase))
    img.schedule(0, 1, 1)
    img.schedule(0, 1, 0)
    assert images_equal(load_image(dump_image(img)), img)
    assert images_equal(assemble(disassemble(img)), img)
