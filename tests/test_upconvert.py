"""I/Q upconversion: sideband placement, impairment tones, gain."""

import numpy as np
import pytest

from spinctl.controller.executor import Impairments, TxConfig, Waveform
from spinctl.controller.rf import upconvert
from spinctl.errors import ConfigError
from spinctl.metrics import compute_spectrum, lo_rejection, sfdr

LO = 13.54e9
FS = 1e9


def bb_tone(offset, n, amp=1.0):
    k = np.arange(1, n + 1)
    z = amp * np.exp(2j * np.pi * offset * k / FS)
    return Waveform(z, FS)


def test_ideal_ssb_single_line():
    n = 1 << 14
    offset = 24e6 * 0 + 384 * FS / n  # coherent bin
    cfg = TxConfig(lo_freq=LO)
    spec = compute_spectrum(upconvert(bb_tone(offset, n), cfg))
    assert spec.tone_freq == pytest.approx(LO + offset, abs=FS / n)
    others = np.delete(spec.power_dbc, spec.lobe_bins(spec.tone_bin))
    assert others.max() < -250


def test_two_tones_land_at_absolute_frequencies():
    n = 1 << 14
    f_a, f_b = 24e6, -90e6
    ka = round(f_a * n / FS)
    kb = round(f_b * n / FS)
    za = bb_tone(ka * FS / n, n, 0.5).envelope + bb_tone(kb * FS / n, n, 0.5).envelope
    wf = Waveform(za, FS)
    spec = compute_spectrum(upconvert(wf, TxConfig(lo_freq=LO)))
    p = spec.power_linear()
    top2 = np.argsort(p)[-2:]
    freqs = sorted(spec.freqs[b] for b in top2)
    assert freqs[0] == pytest.approx(13.45e9, abs=FS / n)
    assert freqs[1] == pytest.approx(13.564e9, abs=FS / n)


def test_lo_leakage_line_level():
    n = 1 << 14
    cfg = TxConfig(lo_freq=LO, impairments=Impairments(lo_leakage_dbc=-40.0))
    spec = compute_spectrum(upconvert(bb_tone(512 * FS / n, n), cfg))
    assert lo_rejection(spec) == pytest.approx(40.0, abs=0.1)


def test_iq_mismatch_image_tone_level():
    n = 1 << 14
    g, phi = 0.02, 0.01
    cfg = TxConfig(lo_freq=LO, impairments=Impairments(iq_gain_mismatch=g, iq_phase_error=phi))
    offset = 2048 * FS / n
    rf = upconvert(bb_tone(offset, n), cfg)
    spec = compute_spectrum(rf)
    image_bin = spec.bin_of(LO - offset)
    rot = (1 + g) * np.exp(1j * phi)
    expected = 20 * np.log10(abs(1 - rot) / abs(1 + rot))
    measured = 10 * np.log10(spec.tone_power_at(image_bin) / spec.tone_power)
    assert measured == pytest.approx(expected, abs=0.05)


def test_iq_mismatch_sets_sfdr():
    # Gain mismatch chosen for an image tone 46 dB below the carrier.
    n = 1 << 14
    ratio = 10 ** (-46 / 20)
    g = 2 * ratio / (1 - ratio)
    cfg = TxConfig(lo_freq=LO, impairments=Impairments(iq_gain_mismatch=g))
    rf = upconvert(bb_tone(2048 * FS / n, n), cfg)
    assert sfdr(compute_spectrum(rf)) == pytest.approx(46.0, abs=0.1)


def test_gain_recorded_not_baked_into_dbc():
    n = 4096
    cfg = TxConfig(lo_freq=LO, gain_db=34.0)
    rf = upconvert(bb_tone(256 * FS / n, n), cfg)
    assert rf.gain_linear == pytest.approx(10 ** (34 / 20))
    assert np.max(np.abs(rf.envelope)) == pytest.approx(1.0, abs=1e-9)


def test_waveform_with_a_carrier_is_not_mixed_again():
    cfg = TxConfig(lo_freq=LO)
    rf = upconvert(bb_tone(1e6, 128), cfg)
    with pytest.raises(ConfigError, match="already sits at a 13540000000.0 Hz carrier"):
        upconvert(rf, cfg)


def test_rf_high_triples_carrier():
    cfg = TxConfig(lo_freq=4e9, rf_high=True)
    rf = upconvert(bb_tone(1e6, 128), cfg)
    assert rf.carrier_freq == 12e9


def test_config_validation():
    with pytest.raises(ValueError, match="gain_db"):
        TxConfig(gain_db=41)
    with pytest.raises(ValueError, match="lo_freq"):
        TxConfig(lo_freq=1e9)
    with pytest.raises(ValueError, match="pac_addr_bits"):
        TxConfig(pac_addr_bits=23)
