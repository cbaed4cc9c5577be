"""Shared construction helpers for metric, physics and acceptance tests."""

import numpy as np

from spinctl.controller.nco import quantize_unit
from spinctl.experiments.cliffords import N_CLIFFORDS, recovery_index, sequence_primitives
from spinctl.physics.state import renormalized


def final_state(propagators, n_factors, k=0):
    """Amplitudes that the first draw's unitary makes of basis state ``k``
    (index 2*q1 + q2), norm-checked over ``n_factors`` samples."""
    return renormalized(propagators[0][:, k], n_factors)


def rb_primitives(n_cliffords, seed):
    """Primitive gate names of a random RB sequence plus its recovery Clifford."""
    indices = np.random.default_rng(seed).integers(0, N_CLIFFORDS, size=n_cliffords).tolist()
    return sequence_primitives(indices + [recovery_index(indices)])


def dithered_quantize(x, bits, rng):
    """Subtractively dithered quantizer: error is exactly uniform white.

    Makes the quantization-noise power land on q^2/12 per channel with no
    harmonic lines, so the 6.02*N + 1.76 dB law holds bin-for-bin.
    """
    q = 2.0 ** (1 - bits)
    d = rng.uniform(-q / 2, q / 2, size=np.shape(x))
    return quantize_unit(np.asarray(x) + d, bits) - d


def dithered_quantize_complex(z, bits, rng):
    return dithered_quantize(np.real(z), bits, rng) + 1j * dithered_quantize(
        np.imag(z), bits, rng
    )
