"""Two-step single-shot readout of the register.

States come in as register amplitudes of shape (..., 4) (see ``state``),
typically a column of a propagator stack.  Qubit 2 is read directly
(spin-selective tunneling in the modeled device): a Born-rule draw
followed by the (F0, F1) confusion channel, after which qubit 2 is
reinitialized to |0>.  Qubit 1 is read by mapping its state onto the
freshly reset qubit 2 through a controlled rotation, modeled as a
depolarizing channel of the configured fidelity, then reading qubit 2
again.  ``readout_probabilities`` gives that chain in closed form,
``measure`` samples it shot by shot, and ``corrected_p_up`` inverts it
exactly for one qubit.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .device import DeviceModel


def born_probabilities(amplitudes) -> tuple:
    """(P(q1 = 1), P(q2 = 1)) before any readout imperfection, each of
    shape (...) for amplitudes of shape (..., 4)."""
    probs = np.abs(np.asarray(amplitudes)) ** 2
    return probs[..., 2] + probs[..., 3], probs[..., 1] + probs[..., 3]


def _through_confusion(p_up, fid):
    """Probability of *reading* 1 given P(true 1) = p_up."""
    return fid.f1 * p_up + (1.0 - fid.f0) * (1.0 - p_up)


def readout_probabilities(amplitudes, model: DeviceModel) -> tuple:
    """Analytic per-qubit probabilities of reading 1, with all errors applied,
    in the shapes ``born_probabilities`` returns."""
    p1, p2 = born_probabilities(amplitudes)
    d = model.crot_readout_fidelity
    p1_mapped = d * p1 + (1.0 - d) / 2.0
    return (
        _through_confusion(p1_mapped, model.readout_q1),
        _through_confusion(p2, model.readout_q2),
    )


def _readout_chain(model: DeviceModel, qubit: int):
    """Confusion fidelities and mapping fidelity that ``qubit`` is read through."""
    if qubit not in (1, 2):
        raise ValueError("qubit must be 1 or 2")
    if qubit == 2:
        return model.readout_q2, 1.0
    if model.crot_readout_fidelity == 0.0:
        raise ConfigError(
            "crot_readout_fidelity is 0: qubit 1 readout carries no information to correct"
        )
    return model.readout_q1, model.crot_readout_fidelity


def corrected_p_up(p_read, model: DeviceModel, qubit: int) -> float:
    """P(true 1) of ``qubit`` from its probability of reading 1, clipped to
    [0, 1]: the exact inverse of ``readout_probabilities``.

    Qubit 2 undoes its confusion matrix; qubit 1 undoes its confusion matrix
    and then the mapping depolarization.  Perfect readout inverts to the
    identity in floating point.
    """
    fid, d = _readout_chain(model, qubit)
    mapped = (p_read - (1.0 - fid.f0)) / (fid.f0 + fid.f1 - 1.0)
    return float(np.clip((mapped - (1.0 - d) / 2.0) / d, 0.0, 1.0))


def correction_slope(model: DeviceModel, qubit: int) -> float:
    """Slope of ``corrected_p_up`` in the read probability (inside the clip):
    the factor that carries an error of P(read 1) over to P(true 1)."""
    fid, d = _readout_chain(model, qubit)
    return 1.0 / ((fid.f0 + fid.f1 - 1.0) * d)


def measure(amplitudes, model: DeviceModel, shots: int,
            rng: np.random.Generator) -> np.ndarray:
    """Sample shot records of one state (amplitudes of shape (4,)), shape
    (shots, 2) with columns (q1_bit, q2_bit).

    Qubit 2 first; its outcome conditions the qubit-1 distribution through
    state collapse before the mapping rotation is applied.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = np.abs(np.asarray(amplitudes)) ** 2
    if probs.shape != (4,):
        raise ValueError(f"measure samples one state of 4 amplitudes, got shape {probs.shape}")
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
