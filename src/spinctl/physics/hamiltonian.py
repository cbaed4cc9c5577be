"""Rotating-frame generator of the driven, exchange-coupled two-spin system.

Everything is expressed in the frame rotating at the LO for both spins,
with the rotating-wave approximation built in: the generator is assembled
directly from the complex baseband envelope, so counter-rotating terms
never appear.  Energies are in Hz; propagators are exp(-i 2 pi H t).

Diagonal (relative to the frame), with detunings dk = fk - f_lo:

    E(00) = 0, E(01) = d2 - J/2, E(10) = d1 - J/2, E(11) = d1 + d2

Exchange lowers the antiparallel states, which makes each qubit's
transition conditional on the other: qubit k responds at dk - J/2 when
its neighbor is |0> and at dk + J/2 when it is |1>.

The shared microwave gate drives both spins: the drive term is
(1/2) conj(z(t)) (W1 S1 + W2 S2) + h.c., where Sk raises spin k in the
basis {|00>, |01>, |10>, |11>} (index 2*q1 + q2) and Wk is that spin's
coupling in Hz per unit full scale.  With this sign choice a
positive-frequency envelope is resonant with a spin above the LO, matching
the upper-sideband output of the mixer.
"""

from __future__ import annotations

import numpy as np

from .device import DeviceModel, NoiseSample, ZERO_NOISE

# Total excitation number; generates phase-frame rotations of the drive.
NUMBER_OP = np.diag([0.0, 1.0, 1.0, 2.0])


def detunings(model: DeviceModel, lo_freq: float, exchange_on: bool,
              noise: NoiseSample = ZERO_NOISE):
    """Frame-relative qubit frequencies and exchange for one noise draw."""
    d1 = model.f1 - lo_freq + noise.delta_f1
    d2 = model.f2 - lo_freq + noise.delta_f2
    j = model.exchange(exchange_on) + noise.delta_j
    return d1, d2, j


def diagonal_energies(d1, d2, j) -> np.ndarray:
    """Diagonal of the generator, shape (..., 4) for scalar or array inputs."""
    e = np.zeros(np.broadcast(d1, d2, j).shape + (4,))
    e[..., 1], e[..., 2], e[..., 3] = d2 - j / 2, d1 - j / 2, d1 + d2
    return e


def drive_operator(model: DeviceModel) -> np.ndarray:
    """w1 S1 + w2 S2: the two raising operators have disjoint entries."""
    d = np.zeros((4, 4), dtype=complex)
    d[2, 0] = d[3, 1] = model.drive_coupling[0]
    d[1, 0] = d[3, 2] = model.drive_coupling[1]
    return d


def generator_batch(z: np.ndarray, energies: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Generators for a block of envelope samples under each row of
    ``energies`` (one row per noise draw), shape (n, r, 4, 4)."""
    h = np.zeros((len(z), len(energies), 4, 4), dtype=complex)
    idx = np.arange(4)
    h[..., idx, idx] = energies
    h += 0.5 * np.conj(z)[:, None, None, None] * drive
    h += 0.5 * z[:, None, None, None] * drive.conj().T
    return h


def transition_frequencies(model: DeviceModel, exchange_on: bool = False,
                           noise: NoiseSample = ZERO_NOISE) -> dict:
    """Single-spin-flip resonances, absolute Hz, keyed by (qubit, neighbor state)."""
    j = model.exchange(exchange_on) + noise.delta_j
    f1 = model.f1 + noise.delta_f1
    f2 = model.f2 + noise.delta_f2
    return {
        (1, 0): f1 - j / 2,
        (1, 1): f1 + j / 2,
        (2, 0): f2 - j / 2,
        (2, 1): f2 + j / 2,
    }
