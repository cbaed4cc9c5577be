"""Two-qubit register state over the basis {|00>, |01>, |10>, |11>}.

The first label is qubit 1, so basis index = 2*q1 + q2.  Spin-down is
|0> (the ground state); spin-up is |1>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Norm drift that counts as rounding: NORM_TOL at least, and ROUNDING_PER_FACTOR
# for every per-sample unitary multiplied into a propagator.  Measured on RB
# programs of up to 200 Cliffords: the trace engine's repeated squaring drifts
# by up to 4.5 eps per factor, the dense engine's pairwise product by 0.7 eps.
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


@dataclass
class QuantumState:
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (4,):
            raise ValueError("state needs exactly 4 amplitudes")

    @classmethod
    def ground(cls) -> "QuantumState":
        return cls(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))

    @classmethod
    def basis(cls, q1: int, q2: int) -> "QuantumState":
        amps = np.zeros(4, dtype=complex)
        amps[2 * q1 + q2] = 1.0
        return cls(amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def p_up(self, qubit: int) -> float:
        """Probability of reading |1> on the given qubit (1 or 2)."""
        p = self.probabilities()
        if qubit == 1:
            return float(p[2] + p[3])
        if qubit == 2:
            return float(p[1] + p[3])
        raise ValueError("qubit must be 1 or 2")
