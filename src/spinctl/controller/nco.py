"""Numerically controlled oscillators and the phase-to-amplitude converter.

All phase arithmetic is integer, modulo 2**PHASE_BITS.  One phase LSB is
2*pi / 2**PHASE_BITS radians; a tuning word of ``ftw`` synthesizes exactly
``ftw * f_clk / 2**PHASE_BITS`` hertz.  ``output_phase`` is the one rule
for the output phase word at a clock sample; every burst's phase words, the
PAC's input and the trace engine's phase frames are read through it.

The phase-to-amplitude converter (PAC) is a table of sin/cos over its
2**pac_addr_bits addresses, read at the top bits of each phase word.
``pac_convert`` builds that table and gathers from it when the table is no
larger than its input, and evaluates sin/cos of the addressed angles
directly otherwise (a wide PAC on a short input); both give the same bits.
"""

from __future__ import annotations

import numpy as np

PHASE_BITS = 22
PHASE_WORDS = 1 << PHASE_BITS
PHASE_MASK = PHASE_WORDS - 1


def output_phase(ftw, k, ref_word, code, shift: int):
    """Output phase word at clock sample ``k``: ftw * k + ref_word + (code <<
    shift), mod 2**PHASE_BITS.  Elementwise over ints or int64 arrays, and
    exact for any k: k is reduced first, so ftw * k stays below 2**44."""
    return (ftw * (k & PHASE_MASK) + ref_word + (code << shift)) & PHASE_MASK


def round_half_away(x):
    """Round to nearest with halves away from zero (array-safe)."""
    x = np.asarray(x)
    return np.trunc(x + np.copysign(0.5, x))


def freq_to_ftw(f: float, f_clk: float = 1e9) -> int:
    """Convert a frequency in Hz to a tuning word.

    Exact integer arithmetic on the floats' ratios, round half away from
    zero; the synthesized frequency then differs from ``f`` by at most
    ``f_clk / 2**(PHASE_BITS+1)``.
    """
    if not 0.0 <= f < f_clk / 2:
        raise ValueError(f"frequency {f} Hz outside [0, f_clk/2) Nyquist range")
    (a, b), (c, d) = float(f).as_integer_ratio(), float(f_clk).as_integer_ratio()
    # f * PHASE_WORDS / f_clk = num / den with den > 0; the word is floor(num / den + 1/2).
    num, den = a * d * PHASE_WORDS, b * c
    return (2 * num + den) // (2 * den)


def ftw_to_freq(ftw: int, f_clk: float = 1e9) -> float:
    return ftw * f_clk / PHASE_WORDS


def offset_to_ftw(f: float, f_clk: float = 1e9) -> int:
    """Tuning word for a signed baseband offset; negative offsets wrap."""
    if not -f_clk / 2 < f < f_clk / 2:
        raise ValueError(f"offset {f} Hz outside (-f_clk/2, f_clk/2)")
    if f >= 0:
        return freq_to_ftw(f, f_clk)
    return (PHASE_WORDS - freq_to_ftw(-f, f_clk)) % PHASE_WORDS


def ftw_to_offset(ftw: int, f_clk: float = 1e9) -> float:
    """Signed offset frequency of a tuning word (upper half maps negative)."""
    ftw %= PHASE_WORDS
    if ftw >= PHASE_WORDS // 2:
        ftw -= PHASE_WORDS
    return ftw * f_clk / PHASE_WORDS


def quantize_unit(x, bits: int):
    """Quantize values in [-1, 1) to a 2**bits-level mid-tread grid."""
    scale = 1 << (bits - 1)
    codes = round_half_away(np.asarray(x, dtype=float) * scale)
    codes = np.clip(codes, -scale, scale - 1)
    return codes / scale


def max_grid_value(bits: int) -> float:
    """Largest representable value on the signed unit grid."""
    scale = 1 << (bits - 1)
    return (scale - 1) / scale


def pac_convert(phase, amplitude, *, pac_addr_bits: int, dac_bits: int):
    """Phase-to-amplitude conversion followed by DAC quantization.

    ``phase`` are output phase words, envelope phase modulation included.
    The table address keeps the top ``pac_addr_bits`` bits of the phase.
    The table is built when it has no more entries than ``phase``, so its
    cost never exceeds the direct evaluation it replaces.  Returns
    (i, q) = amplitude * (sin, cos) of the table angle, on the DAC grid.
    """
    addr = np.asarray(phase, dtype=np.int64) >> (PHASE_BITS - pac_addr_bits)
    size = 1 << pac_addr_bits
    step = 2.0 * np.pi / size
    if size <= addr.size:
        theta = np.arange(size) * step
        sin, cos = np.sin(theta)[addr], np.cos(theta)[addr]
    else:
        theta = addr * step
        sin, cos = np.sin(theta), np.cos(theta)
    i = quantize_unit(amplitude * sin, dac_bits)
    q = quantize_unit(amplitude * cos, dac_bits)
    return i, q
