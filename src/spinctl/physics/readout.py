"""Two-step single-shot readout of the register.

States come in as register amplitudes of shape (..., 4) (see ``state``),
typically a column of a propagator stack.  Qubit 2 is read directly
(spin-selective tunneling in the modeled device): a Born-rule draw
followed by the (F0, F1) confusion channel, after which qubit 2 is
reinitialized to |0>.  Qubit 1 is read by mapping its state onto the
freshly reset qubit 2 through a controlled rotation, modeled as a
depolarizing channel of the configured fidelity, then reading qubit 2
again.  ``readout_probabilities`` gives that chain in closed form and
``corrected_p_up`` inverts it exactly for one qubit.
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
