"""Single-sideband I/Q upconversion with configurable analog impairments.

The RF output is kept as an analytic signal: a complex envelope around a
carrier.  An ideal mixer maps a tone at baseband offset +f to exactly one
spectral line at carrier + f.  Gain/phase mismatch between the mixing
paths adds an image tone at carrier - f; LO leakage adds a line at the
carrier itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .executor import BasebandWaveform, TxConfig


@dataclass
class RfSignal:
    """Analytic RF signal: complex envelope plus carrier metadata."""

    envelope: np.ndarray
    sample_rate: float
    carrier_freq: float
    gain_linear: float = 1.0
    start_time: float = 0.0

    def __len__(self) -> int:
        return len(self.envelope)


def upconvert(bb: BasebandWaveform, cfg: TxConfig) -> RfSignal:
    """Mix the baseband I/Q streams up to the LO (or its third harmonic).

    The passband signal is q(t)cos(wt) - i(t)sin(wt); mismatch scales and
    rotates the sin path, splitting the envelope into direct and image
    (conjugate) terms.  Output amplitudes stay in full-scale units with the
    configured gain recorded separately, so dBc metrics are gain-invariant.
    """
    imp = cfg.impairments
    z = bb.envelope
    g = 1.0 + imp.iq_gain_mismatch
    rot = g * np.exp(1j * imp.iq_phase_error)
    direct = 0.5 * (1.0 + rot)
    image = 0.5 * (1.0 - rot)
    out = direct * z + image * np.conj(z)
    if imp.lo_leakage_dbc is not None:
        out = out + 10.0 ** (imp.lo_leakage_dbc / 20.0)
    return RfSignal(
        envelope=out,
        sample_rate=bb.sample_rate,
        carrier_freq=cfg.carrier,
        gain_linear=10.0 ** (cfg.gain_db / 20.0),
        start_time=bb.start_time,
    )
