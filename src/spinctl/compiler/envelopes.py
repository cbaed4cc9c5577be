"""Burst envelope synthesis.

Gaussian bursts use sigma = T / GAUSSIAN_TRUNCATION, truncated at the
burst edges and rescaled so both endpoints hit exactly zero; a truncation
of 6 puts the edges at +/- 3 sigma.
"""

from __future__ import annotations

import numpy as np

GAUSSIAN_TRUNCATION = 6.0  # burst length in units of sigma


def synthesize_envelope(shape: str, n: int, amplitude: float) -> np.ndarray:
    """Amplitude samples for one burst of ``n`` clock samples (at least
    two), before grid quantization; ``amplitude`` in DAC fraction [0, 1)."""
    if n < 2:
        raise ValueError(f"envelope needs at least 2 samples, got {n}")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"amplitude {amplitude} outside [0, 1)")
    if shape == "rectangular":
        return np.full(n, amplitude)
    if shape == "gaussian":
        t = np.linspace(0.0, 1.0, n)  # normalized to the burst length
        sigma = 1.0 / GAUSSIAN_TRUNCATION
        g = np.exp(-((t - 0.5) ** 2) / (2.0 * sigma**2))
        edge = np.exp(-0.125 * GAUSSIAN_TRUNCATION**2)
        return amplitude * (g - edge) / (1.0 - edge)
    raise ValueError(f"unknown envelope shape {shape!r}")
