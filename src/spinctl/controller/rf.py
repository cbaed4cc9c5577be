"""Single-sideband I/Q upconversion with configurable analog impairments.

The RF output is the same ``Waveform`` type as the baseband it is made
from, an analytic signal: its complex envelope now sits around the carrier
and the front-end gain is recorded beside it.  An ideal mixer maps a tone at
baseband offset +f to exactly one spectral line at carrier + f.  Gain/phase
mismatch between the mixing paths adds an image tone at carrier - f; LO
leakage adds a line at the carrier itself.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..errors import ConfigError
from .executor import TxConfig, Waveform


def upconvert(bb: Waveform, cfg: TxConfig) -> Waveform:
    """Mix a baseband waveform up to the LO (or its third harmonic).

    The passband signal is q(t)cos(wt) - i(t)sin(wt); mismatch scales and
    rotates the sin path, splitting the envelope into direct and image
    (conjugate) terms.  Output amplitudes stay in full-scale units with the
    configured gain recorded separately, so dBc metrics are gain-invariant.
    A waveform that already has a carrier is rejected: it would be mixed
    twice.
    """
    if bb.carrier_freq != 0.0:
        raise ConfigError(f"waveform already sits at a {bb.carrier_freq} Hz carrier; "
                          "upconvert takes the baseband output of synthesize")
    imp = cfg.impairments
    z = bb.envelope
    g = 1.0 + imp.iq_gain_mismatch
    rot = g * np.exp(1j * imp.iq_phase_error)
    direct = 0.5 * (1.0 + rot)
    image = 0.5 * (1.0 - rot)
    out = direct * z + image * np.conj(z)
    if imp.lo_leakage_dbc is not None:
        out = out + 10.0 ** (imp.lo_leakage_dbc / 20.0)
    return replace(bb, envelope=out, carrier_freq=cfg.carrier,
                   gain_linear=10.0 ** (cfg.gain_db / 20.0))
