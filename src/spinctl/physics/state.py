"""Register amplitudes and the norm policy both engines share.

A register state is a complex amplitude array of shape (..., 4) over the
basis {|00>, |01>, |10>, |11>}.  The first label is qubit 1, so basis
index = 2*q1 + q2.  Spin-down is |0> (the ground state); spin-up is |1>.
Final states are columns of a propagator stack: ``u[..., :, k]`` is basis
state k after the program.
"""

from __future__ import annotations

import numpy as np

# Norm drift that counts as rounding: NORM_TOL at least, and ROUNDING_PER_FACTOR
# for every per-sample unitary multiplied into a propagator.  Measured on RB
# programs of 1 to 200 Cliffords (either qubit, exchange off and on, 8 noise
# rows, every column), both engines folding through one structure-of-arrays
# product: the trace engine drifts by up to 4.2 eps per factor with 4x4
# exponentials (exchange on) and 1.0 eps folding two 2x2 spins, its
# constant-burst powers included, joined once at the end (exchange off); the
# dense engine by 0.97 eps (exchange on) and 0.54 eps (exchange off).
NORM_TOL = 1e-12
ROUNDING_PER_FACTOR = 16 * np.finfo(float).eps


def renormalized(amplitudes: np.ndarray, n_factors) -> np.ndarray:
    """Amplitudes of shape (..., 4) rescaled to unit norm, after a drift check.

    ``n_factors`` is the number of per-sample unitaries in the propagator
    (the program length in samples, for either engine), one for all states
    or one per state, broadcastable to shape (...).  Drift within the
    rounding allowance is removed; more means a wrong propagator and raises.
    """
    norms = np.linalg.norm(amplitudes, axis=-1)
    n_factors = np.broadcast_to(n_factors, norms.shape)
    tol = np.maximum(NORM_TOL, n_factors * ROUNDING_PER_FACTOR)
    drift = np.abs(norms - 1.0)
    if np.any(drift >= tol):
        worst = np.argmax(drift / tol)
        raise ValueError(f"state norm drifted by {drift.flat[worst]:.3g} over "
                         f"{n_factors.flat[worst]} factors, beyond {tol.flat[worst]:.3g}")
    return amplitudes / norms[..., None]
