"""Numerically controlled oscillators and the phase-to-amplitude converter.

All phase arithmetic is integer, modulo 2**PHASE_BITS.  One phase LSB is
2*pi / 2**PHASE_BITS radians; a tuning word of ``ftw`` synthesizes exactly
``ftw * f_clk / 2**PHASE_BITS`` hertz.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

PHASE_BITS = 22
PHASE_WORDS = 1 << PHASE_BITS
PHASE_MASK = PHASE_WORDS - 1


def round_half_away(x):
    """Round to nearest with halves away from zero (array-safe)."""
    x = np.asarray(x)
    return np.trunc(x + np.copysign(0.5, x))


def freq_to_ftw(f: float, f_clk: float = 1e9) -> int:
    """Convert a frequency in Hz to a tuning word.

    Exact rational arithmetic, round half away from zero; the synthesized
    frequency then differs from ``f`` by at most ``f_clk / 2**(PHASE_BITS+1)``.
    """
    if not 0.0 <= f < f_clk / 2:
        raise ValueError(f"frequency {f} Hz outside [0, f_clk/2) Nyquist range")
    x = Fraction(f) * PHASE_WORDS / Fraction(f_clk)
    return int((2 * x + 1) // 2)


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


@dataclass
class NcoState:
    """One oscillator: tuning word, accumulator, and reference phase.

    All three fields live strictly below 2**PHASE_BITS; arithmetic wraps.
    """

    ftw: int = 0
    phase_acc: int = 0
    ref_phase: int = 0
    active: bool = False

    def __post_init__(self):
        for name in ("ftw", "phase_acc", "ref_phase"):
            v = getattr(self, name)
            if not 0 <= v < PHASE_WORDS:
                raise ValueError(f"{name}={v} not an unsigned {PHASE_BITS}-bit word")

    def step(self) -> int:
        """Advance one clock; return the instantaneous output phase word."""
        self.phase_acc = (self.phase_acc + self.ftw) & PHASE_MASK
        return (self.phase_acc + self.ref_phase) & PHASE_MASK

    def phase_words(self, n: int) -> np.ndarray:
        """Output phases for the next ``n`` clocks (advances the state)."""
        k = np.arange(1, n + 1, dtype=np.int64)
        words = (self.phase_acc + k * self.ftw + self.ref_phase) % PHASE_WORDS
        self.phase_acc = int((self.phase_acc + n * self.ftw) % PHASE_WORDS)
        return words


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
    Returns (i, q) = amplitude * (sin, cos) of the table angle, on the DAC
    grid.
    """
    addr = np.asarray(phase, dtype=np.int64) >> (PHASE_BITS - pac_addr_bits)
    theta = addr * (2.0 * np.pi / (1 << pac_addr_bits))
    i = quantize_unit(amplitude * np.sin(theta), dac_bits)
    q = quantize_unit(amplitude * np.cos(theta), dac_bits)
    return i, q


def synthesize_ideal(ftw: int, n: int, *, phase_acc: int = 0, ref_phase: int = 0) -> np.ndarray:
    """Full-scale, unquantized complex synthesis of ``n`` samples.

    Reference signal for spectral checks: exp(j * 2pi * word / 2**PHASE_BITS)
    with the same increment-then-output phase sequence the hardware produces.
    """
    k = np.arange(1, n + 1, dtype=np.int64)
    words = (phase_acc + k * ftw + ref_phase) % PHASE_WORDS
    theta = words * (2.0 * np.pi / PHASE_WORDS)
    return np.cos(theta) + 1j * np.sin(theta)
