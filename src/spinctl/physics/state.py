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
# rows), both engines reducing through one structure-of-arrays product: the
# trace engine drifts by up to 5.3 eps per factor (at 1 Clifford, where its
# eigh and matrix powers dominate); the dense engine by 1.0 eps with 4x4
# exponentials (exchange on) and 0.42 eps with two 2x2 (exchange off).
NORM_TOL = 1e-12
ROUNDING_PER_FACTOR = 16 * np.finfo(float).eps


def renormalized(amplitudes: np.ndarray, n_factors: int) -> np.ndarray:
    """Amplitudes of shape (..., 4) rescaled to unit norm, after a drift check.

    ``n_factors`` is the number of per-sample unitaries in the propagator
    (the program length in samples, for either engine).  Drift within the
    rounding allowance is removed; more means a wrong propagator and raises.
    """
    norms = np.linalg.norm(amplitudes, axis=-1, keepdims=True)
    tol = max(NORM_TOL, n_factors * ROUNDING_PER_FACTOR)
    drift = float(np.max(np.abs(norms - 1.0), initial=0.0))
    if drift >= tol:
        raise ValueError(
            f"state norm drifted by {drift:.3g} over {n_factors} factors, beyond {tol:.3g}"
        )
    return amplitudes / norms
