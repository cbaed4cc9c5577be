"""Tuning-word arithmetic and phase-accumulator behavior."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from spinctl.controller.executor import BurstSegment
from spinctl.controller.nco import (
    PHASE_BITS,
    PHASE_WORDS,
    freq_to_ftw,
    ftw_to_freq,
    ftw_to_offset,
    max_grid_value,
    offset_to_ftw,
    output_phase,
    pac_convert,
)


def exact_ftw(f, f_clk):
    """Independent oracle: rational round-half-away of f * 2^22 / f_clk."""
    x = Fraction(f) * PHASE_WORDS / Fraction(f_clk)
    n = math.floor(x)
    return n + 1 if (x - n) >= Fraction(1, 2) else n


def test_zero_frequency_is_zero_word():
    assert freq_to_ftw(0.0, 1e9) == 0


def test_one_lsb_is_the_frequency_resolution():
    lsb = 1e9 / PHASE_WORDS
    assert freq_to_ftw(lsb, 1e9) == 1
    assert ftw_to_freq(1, 1e9) == lsb
    assert round(lsb, 2) == 238.42


def test_24_mhz_offset_word():
    assert freq_to_ftw(24e6, 1e9) == 100663
    assert freq_to_ftw(24e6, 1e9) == exact_ftw(24e6, 1e9)


@given(st.floats(min_value=0, max_value=499.999e6), st.sampled_from([1e9, 0.5e9, 2.4e9]))
def test_ftw_matches_rational_oracle(f, f_clk):
    if f >= f_clk / 2:
        return
    assert freq_to_ftw(f, f_clk) == exact_ftw(f, f_clk)


def fraction_word(f, f_clk):
    """The tuning-word formula on ``Fraction``s: round half away from zero
    of f * 2^22 / f_clk, negative offsets wrapped."""
    x = Fraction(abs(f)) * PHASE_WORDS / Fraction(f_clk)
    word = int((2 * x + 1) // 2)
    return word if f >= 0 else (PHASE_WORDS - word) % PHASE_WORDS


# (k + 1/2) * f_clk / 2^22 is exact for these clocks: the words' halves.
EXACT_CLOCKS = (1e9, 0.5e9, 2.4e9, 2.0**30)


@st.composite
def signed_offsets(draw):
    """(f, f_clk): any offset in (-f_clk/2, f_clk/2), an exact half word, or
    one of the few floats next to +-f_clk/2."""
    f_clk = draw(st.sampled_from(EXACT_CLOCKS) | st.floats(1e3, 1e12))
    half = f_clk / 2
    kind = draw(st.sampled_from(["any", "half", "edge"]))
    if kind == "any":
        f = draw(st.floats(-half, half, exclude_min=True, exclude_max=True))
    elif kind == "half":
        k = draw(st.integers(-PHASE_WORDS // 2, PHASE_WORDS // 2 - 1))
        f = (k + 0.5) * f_clk / PHASE_WORDS
    else:
        f = half
        for _ in range(draw(st.integers(1, 4))):
            f = np.nextafter(f, 0.0)
        f = float(f) * draw(st.sampled_from([1, -1]))
    assume(-half < f < half)
    return f, f_clk


@given(signed_offsets())
@example((0.5 * 1e9 / PHASE_WORDS, 1e9))  # half an LSB rounds up to word 1
@example((-0.5 * 1e9 / PHASE_WORDS, 1e9))  # and away from zero below it
@example((float(np.nextafter(0.5e9, 0.0)), 1e9))
@example((-float(np.nextafter(0.5e9, 0.0)), 1e9))
def test_integer_words_match_the_fraction_formula_bit_for_bit(offset):
    f, f_clk = offset
    assert offset_to_ftw(f, f_clk) == fraction_word(f, f_clk)
    if f >= 0:
        assert freq_to_ftw(f, f_clk) == fraction_word(f, f_clk)


def test_exact_half_words_round_away_from_zero():
    for f_clk in EXACT_CLOCKS:
        for k in (0, 1, 7, PHASE_WORDS // 2 - 1):
            f = (k + 0.5) * f_clk / PHASE_WORDS
            assert Fraction(f) * PHASE_WORDS / Fraction(f_clk) == Fraction(2 * k + 1, 2)
            assert freq_to_ftw(f, f_clk) == k + 1
            assert offset_to_ftw(-f, f_clk) == PHASE_WORDS - (k + 1)


@given(st.floats(min_value=0, max_value=499e6))
def test_synthesized_frequency_within_half_lsb(f):
    ftw = freq_to_ftw(f, 1e9)
    assert abs(ftw_to_freq(ftw, 1e9) - f) <= 1e9 / 2 ** (PHASE_BITS + 1)


def test_out_of_nyquist_rejected():
    with pytest.raises(ValueError):
        freq_to_ftw(0.5e9, 1e9)
    with pytest.raises(ValueError):
        freq_to_ftw(-1.0, 1e9)


def test_negative_offset_wraps():
    ftw = offset_to_ftw(-90e6, 1e9)
    assert ftw == PHASE_WORDS - freq_to_ftw(90e6, 1e9)
    assert ftw_to_offset(ftw, 1e9) == pytest.approx(-90e6, abs=120)


def stepped_words(ftw, n, *, acc=0, ref=0):
    """Scalar oracle of the accumulator: each clock adds ftw, then the output
    reads accumulator + reference phase, all modulo 2^22.  Returns the
    outputs and the final accumulator."""
    out = []
    for _ in range(n):
        acc = (acc + ftw) % PHASE_WORDS
        out.append((acc + ref) % PHASE_WORDS)
    return out, acc


def played_words(ftw, n, *, t0=0, ref=0):
    """Output phase words of an n-sample burst that starts t0 clocks after
    the accumulator was zero, without envelope phase codes."""
    seg = BurstSegment(bank=0, nco=0, t0=t0, n=n, ftw=ftw, ref_word=ref,
                       amp_values=np.zeros(n), phase_codes=np.zeros(n, dtype=np.int64))
    return seg.phase_words(10)


def test_half_turn_step_alternates():
    half = 1 << (PHASE_BITS - 1)
    assert stepped_words(half, 4)[0] == [half, 0, half, 0]
    assert played_words(half, 4).tolist() == [half, 0, half, 0]


def test_unit_ftw_wraps_after_full_cycle():
    # Started 12345 clocks in, a unit tuning word is back on 12345 after
    # one full cycle of 2^22 clocks, and stepped by one everywhere between.
    words = played_words(1, PHASE_WORDS, t0=12345)
    assert words[-1] == 12345
    assert np.all(np.diff(words) % PHASE_WORDS == 1)


def test_accumulator_after_1000_steps():
    out, acc = stepped_words(100663, 1000)
    assert acc == (100663 * 1000) % PHASE_WORDS
    assert played_words(100663, 1000)[-1] == acc == out[-1]


@given(
    st.integers(min_value=0, max_value=PHASE_WORDS - 1),
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=0, max_value=PHASE_WORDS - 1),
    st.integers(min_value=1, max_value=300),
)
def test_vectorized_phase_matches_stepping(ftw, t0, ref, n):
    expected, acc = stepped_words(ftw, n, acc=ftw * t0 % PHASE_WORDS, ref=ref)
    got = played_words(ftw, n, t0=t0, ref=ref)
    assert got.tolist() == expected
    assert (int(got[-1]) - ref) % PHASE_WORDS == acc


@given(
    st.integers(min_value=0, max_value=PHASE_WORDS - 1),
    st.integers(min_value=0, max_value=(1 << 62) - 1),
    st.integers(min_value=0, max_value=PHASE_WORDS - 1),
    st.integers(min_value=0, max_value=(1 << 10) - 1),
)
@example(PHASE_WORDS - 1, 1 << 42, PHASE_WORDS - 1, 1023)
def test_output_phase_is_exact_for_ints_arrays_and_int64_scalars(ftw, k, ref, code):
    # Python ints, int64 arrays and int64 scalars all give the exact word;
    # an int64 scalar product past 2**63 would warn, which fails the test.
    shift = PHASE_BITS - 10
    exact = (ftw * k + ref + (code << shift)) % PHASE_WORDS
    assert output_phase(ftw, k, ref, code, shift) == exact
    as_int64 = [np.int64(v) for v in (ftw, k, ref, code)]
    assert output_phase(*as_int64, shift) == exact
    as_arrays = [np.full(3, v, dtype=np.int64) for v in (ftw, k, ref, code)]
    assert output_phase(*as_arrays, shift).tolist() == [exact] * 3


def test_ref_phase_offsets_output_not_accumulator():
    plain, acc = stepped_words(777, 10)
    offset, offset_acc = stepped_words(777, 10, ref=1000)
    assert offset == [(a + 1000) % PHASE_WORDS for a in plain]
    assert offset_acc == acc
    np.testing.assert_array_equal(played_words(777, 10, ref=1000), offset)


def test_pac_zero_phase_full_amplitude():
    amp = max_grid_value(10)
    i, q = pac_convert(np.array([0]), amp, pac_addr_bits=10, dac_bits=10)
    assert i[0] == 0.0
    assert q[0] == max_grid_value(10)


def test_pac_quarter_turn():
    amp = max_grid_value(10)
    i, q = pac_convert(np.array([1 << 20]), amp, pac_addr_bits=10, dac_bits=10)
    assert i[0] == max_grid_value(10)
    assert abs(q[0]) <= 2.0 / (1 << 10)


def test_pac_zero_amplitude_anywhere():
    phases = np.arange(0, PHASE_WORDS, 99991)
    i, q = pac_convert(phases, 0.0, pac_addr_bits=10, dac_bits=10)
    assert not i.any() and not q.any()


def test_pac_phase_mod_shifts_lookup():
    # A phase code of a quarter of the code range is a quarter turn.
    def burst(ref_word, code):
        return BurstSegment(bank=0, nco=0, t0=0, n=1, ftw=0, ref_word=ref_word,
                            amp_values=np.array([0.5]), phase_codes=np.array([code]))

    bits = dict(pac_addr_bits=12, dac_bits=16)
    i0, q0 = pac_convert(burst(0, 256).phase_words(10), 0.5, **bits)
    i1, q1 = pac_convert(burst(1 << 20, 0).phase_words(10), 0.5, **bits)
    assert i0[0] == i1[0] and q0[0] == q1[0]


@pytest.mark.parametrize("pac_addr_bits", [1, 10, 13])
def test_pac_table_gather_matches_direct_evaluation(pac_addr_bits):
    # A call with at least as many phases as table entries gathers from the
    # table; shorter calls evaluate sin/cos of each angle.  Every address
    # appears, and 30-bit DAC codes keep the angles' low bits visible.
    rng = np.random.default_rng(pac_addr_bits)
    every_address = np.arange(1 << pac_addr_bits) << (PHASE_BITS - pac_addr_bits)
    phases = np.concatenate([every_address, rng.integers(0, PHASE_WORDS, size=2 << pac_addr_bits)])
    amp = rng.uniform(-1.0, 1.0, size=phases.size)
    bits = dict(pac_addr_bits=pac_addr_bits, dac_bits=30)
    table = pac_convert(phases, amp, **bits)
    short = (1 << pac_addr_bits) - 1
    direct = [pac_convert(phases[s : s + short], amp[s : s + short], **bits)
              for s in range(0, phases.size, short)]
    for part, pieces in zip(table, zip(*direct)):
        assert part.tobytes() == np.concatenate(pieces).tobytes()


def test_wide_pac_on_a_short_input_builds_no_table():
    tracemalloc.start()
    try:
        i, q = pac_convert(np.arange(1000) * 4099, 0.5, pac_addr_bits=PHASE_BITS, dac_bits=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a 2**22-entry sine table alone would take 32 MiB
    assert i.shape == q.shape == (1000,)
