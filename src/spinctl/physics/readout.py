"""Two-step single-shot readout of the register.

Qubit 2 is read directly (spin-selective tunneling in the modeled device):
a Born-rule draw followed by the (F0, F1) confusion channel, after which
qubit 2 is reinitialized to |0>.  Qubit 1 is read by mapping its state
onto the freshly reset qubit 2 through a controlled rotation, modeled as a
depolarizing channel of the configured fidelity, then reading qubit 2
again.
"""

from __future__ import annotations

import numpy as np

from .device import DeviceModel
from .state import QuantumState


def born_probabilities(state) -> tuple:
    """(P(q1 = 1), P(q2 = 1)) before any readout imperfection.

    ``state`` is a QuantumState or an amplitude array of shape (..., 4);
    arrays give arrays of shape (...).
    """
    amps = state.amplitudes if isinstance(state, QuantumState) else np.asarray(state)
    probs = np.abs(amps) ** 2
    return probs[..., 2] + probs[..., 3], probs[..., 1] + probs[..., 3]


def _through_confusion(p_up, fid):
    """Probability of *reading* 1 given P(true 1) = p_up."""
    return fid.f1 * p_up + (1.0 - fid.f0) * (1.0 - p_up)


def readout_probabilities(state, model: DeviceModel) -> tuple:
    """Analytic per-qubit probabilities of reading 1, with all errors applied.

    Takes what ``born_probabilities`` takes and returns the same shapes.
    """
    p1, p2 = born_probabilities(state)
    d = model.crot_readout_fidelity
    p1_mapped = d * p1 + (1.0 - d) / 2.0
    return (
        _through_confusion(p1_mapped, model.readout_q1),
        _through_confusion(p2, model.readout_q2),
    )


def measure(state: QuantumState, model: DeviceModel, shots: int,
            rng: np.random.Generator) -> np.ndarray:
    """Sample shot records, shape (shots, 2) with columns (q1_bit, q2_bit).

    Qubit 2 first; its outcome conditions the qubit-1 distribution through
    state collapse before the mapping rotation is applied.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = state.probabilities()
    p2 = probs[1] + probs[3]
    q2_true = rng.random(shots) < p2

    # P(q1 = 1 | q2 outcome) from the collapsed state.
    with np.errstate(divide="ignore", invalid="ignore"):
        p1_given_up = probs[3] / p2 if p2 > 0 else 0.0
        p1_given_down = probs[2] / (1.0 - p2) if p2 < 1 else 0.0
    p1_cond = np.where(q2_true, p1_given_up, p1_given_down)
    q1_true = rng.random(shots) < p1_cond

    # Mapping rotation: correct with probability (1 + d) / 2.
    d = model.crot_readout_fidelity
    faithful = rng.random(shots) < (1.0 + d) / 2.0
    q1_mapped = np.where(faithful, q1_true, ~q1_true)

    q2_read = _flip_through(q2_true, model.readout_q2, rng)
    q1_read = _flip_through(q1_mapped, model.readout_q1, rng)
    # Post-measurement state of qubit 2 is |0>: the protocol reinitializes it.
    return np.stack([q1_read, q2_read], axis=1).astype(np.int8)


def _flip_through(bits: np.ndarray, fid, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(len(bits))
    keep = np.where(bits, u < fid.f1, u < fid.f0)
    return np.where(keep, bits, ~bits)


def empirical_p_up(records: np.ndarray) -> tuple[float, float]:
    """Fraction of shots reading 1, per qubit."""
    return float(records[:, 0].mean()), float(records[:, 1].mean())
