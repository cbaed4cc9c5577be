"""Tuning-word arithmetic and phase-accumulator behavior."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinctl.controller.executor import BurstSegment
from spinctl.controller.nco import (
    PHASE_BITS,
    PHASE_WORDS,
    NcoState,
    freq_to_ftw,
    ftw_to_freq,
    ftw_to_offset,
    max_grid_value,
    offset_to_ftw,
    pac_convert,
    synthesize_ideal,
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


def test_half_turn_step_alternates():
    s = NcoState(ftw=1 << (PHASE_BITS - 1))
    out = [s.step() for _ in range(4)]
    assert out == [1 << (PHASE_BITS - 1), 0, 1 << (PHASE_BITS - 1), 0]


def test_unit_ftw_wraps_after_full_cycle():
    s = NcoState(ftw=1, phase_acc=12345)
    for _ in range(PHASE_WORDS):
        s.step()
    assert s.phase_acc == 12345


def test_accumulator_after_1000_steps():
    s = NcoState(ftw=100663)
    for _ in range(1000):
        s.step()
    assert s.phase_acc == (100663 * 1000) % PHASE_WORDS


@given(
    st.integers(min_value=0, max_value=PHASE_WORDS - 1),
    st.integers(min_value=0, max_value=PHASE_WORDS - 1),
    st.integers(min_value=0, max_value=PHASE_WORDS - 1),
    st.integers(min_value=1, max_value=300),
)
def test_vectorized_phase_matches_stepping(ftw, acc, ref, n):
    stepped = NcoState(ftw=ftw, phase_acc=acc, ref_phase=ref)
    vector = NcoState(ftw=ftw, phase_acc=acc, ref_phase=ref)
    expected = [stepped.step() for _ in range(n)]
    got = vector.phase_words(n)
    assert got.tolist() == expected
    assert vector.phase_acc == stepped.phase_acc


def test_ref_phase_offsets_output_not_accumulator():
    plain = NcoState(ftw=777)
    offset = NcoState(ftw=777, ref_phase=1000)
    for _ in range(10):
        a, b = plain.step(), offset.step()
        assert b == (a + 1000) % PHASE_WORDS
    assert plain.phase_acc == offset.phase_acc


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


def test_ideal_synthesis_peaks_at_ftw_bin():
    n = 1 << 14
    ftw = 100663
    z = synthesize_ideal(ftw, n)
    spec = np.abs(np.fft.fft(z))
    peak = int(np.argmax(spec))
    expected = ftw * n / PHASE_WORDS
    assert abs(peak - expected) <= 1.0
