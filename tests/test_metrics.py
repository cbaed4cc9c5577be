"""Spectrum, SNR, SFDR, and intermodulation measurements on built signals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import get_window

from helpers import dithered_quantize_complex
from spinctl.controller.executor import Waveform
from spinctl.errors import ConfigError
from spinctl.metrics import (
    WINDOWS,
    _local_median_db,
    compute_spectrum,
    periodic_window,
    lo_rejection,
    sfdr,
    snr,
    two_tone_report,
)

FS = 1e9
LO = 13.54e9


def tone(freq, n, amp=1.0, fs=FS, phase=0.0):
    t = np.arange(n) / fs
    return amp * np.exp(1j * (2 * np.pi * freq * t + phase))


def rf(env, carrier=LO, fs=FS):
    return Waveform(env, fs, carrier_freq=carrier)


def coherent_freq(cycles, n, fs=FS):
    return cycles * fs / n


def test_pure_tone_rect_window_has_numerical_floor():
    n = 1 << 14
    f = coherent_freq(384, n)
    spec = compute_spectrum(rf(tone(f, n)), window="rectangular")
    assert spec.tone_freq == pytest.approx(LO + f, abs=spec.fs / n)
    others = np.delete(spec.power_dbc, spec.lobe_bins(spec.tone_bin))
    assert others.max() < -250.0


def test_parseval_total_power_rectangular():
    n = 1 << 12
    rng = np.random.default_rng(7)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    spec = compute_spectrum(rf(z), window="rectangular")
    total = spec.power_linear().sum()
    time_power = np.mean(np.abs(z) ** 2)
    assert 10 * abs(np.log10(total / time_power)) < 0.1


def test_tone_power_window_invariant():
    n = 1 << 14
    f = coherent_freq(1000, n)
    z = tone(f, n, amp=0.8)
    powers = []
    for w in ("rectangular", "hann", "blackman-harris"):
        spec = compute_spectrum(rf(z), window=w)
        powers.append(10 * np.log10(spec.tone_power))
    assert max(powers) - min(powers) < 0.2


def test_quantized_10bit_sine_integrated_noise():
    # Noise of an N-bit quantized full-scale complex tone integrates to
    # -(6.02 N + 1.76) dBc across the whole band.
    n = 1 << 16
    rng = np.random.default_rng(11)
    f = coherent_freq(101, n)  # near mid-span so a ~full band fits around it
    z = tone(f, n, amp=1.0)
    zq = dithered_quantize_complex(z, 10, rng)
    spec = compute_spectrum(rf(zq), window="rectangular")
    measured = snr(spec, integration_bw=0.95 * FS)
    expected = 6.02 * 10 + 1.76 - 10 * np.log10(0.95)  # 95% of the noise band
    assert measured == pytest.approx(expected, abs=1.0)


def test_injected_spur_at_minus_46dbc():
    n = 1 << 16
    f_main = coherent_freq(1571, n)
    f_spur = coherent_freq(9973, n)
    z = tone(f_main, n) + 10 ** (-46 / 20) * tone(f_spur, n)
    spec = compute_spectrum(rf(z), window="rectangular")
    assert sfdr(spec) == pytest.approx(46.0, abs=0.1)


def test_lo_leakage_excluded_from_sfdr():
    n = 1 << 16
    f_main = coherent_freq(1571, n)
    f_spur = coherent_freq(9973, n)
    z = tone(f_main, n) + 10 ** (-46 / 20) * tone(f_spur, n) + 10 ** (-35 / 20)
    spec = compute_spectrum(rf(z), window="rectangular")
    assert sfdr(spec) == pytest.approx(46.0, abs=0.1)  # LO line at -35 ignored
    assert lo_rejection(spec) == pytest.approx(35.0, abs=0.1)
    no_exclusion = sfdr(spec, exclusions=[])
    assert no_exclusion == pytest.approx(35.0, abs=0.1)


def test_exclusions_covering_band_rejected():
    n = 1 << 12
    spec = compute_spectrum(rf(tone(coherent_freq(100, n), n)))
    with pytest.raises(ValueError, match="whole analysis band"):
        sfdr(spec, exclusions=[(spec.freqs[0], spec.freqs[-1])])


def test_added_white_noise_snr_matches_analytic():
    n = 1 << 16
    rng = np.random.default_rng(42)
    f = coherent_freq(2000, n)
    sigma = 1e-3  # per real dimension
    z = tone(f, n) + sigma * (rng.normal(size=n) + 1j * rng.normal(size=n))
    spec = compute_spectrum(rf(z), window="rectangular")
    bw = 25e6
    # Complex noise density: 2 sigma^2 / fs per Hz.
    expected = 10 * np.log10(1.0 / (2 * sigma**2 * bw / FS))
    assert snr(spec, integration_bw=bw) == pytest.approx(expected, abs=0.5)


def test_snr_band_validation():
    n = 1 << 12
    spec = compute_spectrum(rf(tone(coherent_freq(64, n), n)))
    with pytest.raises(ValueError, match="Nyquist"):
        snr(spec, integration_bw=3e9)
    with pytest.raises(ValueError, match="below resolution"):
        snr(spec, integration_bw=spec.rbw / 10)


def test_pure_tone_snr_is_floor():
    n = 1 << 12
    spec = compute_spectrum(rf(tone(coherent_freq(64, n), n)))
    assert snr(spec, integration_bw=spec.rbw * 8) > 200.0


@given(st.integers(min_value=200, max_value=1800), st.floats(min_value=-80, max_value=-30))
@settings(max_examples=10, deadline=None)
def test_adding_a_spur_never_raises_sfdr(cycles, level_db):
    n = 1 << 13
    base = tone(coherent_freq(101, n), n)
    spec0 = compute_spectrum(rf(base))
    before = sfdr(spec0, exclusions=[])
    spur = 10 ** (level_db / 20) * tone(coherent_freq(cycles, n), n)
    after = sfdr(compute_spectrum(rf(base + spur)), exclusions=[])
    assert after <= before + 1e-6


def test_adding_noise_never_raises_snr():
    n = 1 << 14
    rng = np.random.default_rng(3)
    z = tone(coherent_freq(500, n), n)
    noise = 1e-4 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    s0 = snr(compute_spectrum(rf(z + noise)), integration_bw=100e6)
    s1 = snr(compute_spectrum(rf(z + 3 * noise)), integration_bw=100e6)
    assert s1 < s0


def test_two_tone_linear_sum_has_no_imd():
    n = 1 << 15
    fa, fb = coherent_freq(787, n), coherent_freq(-2953, n)
    z = 0.4 * tone(fa, n) + 0.4 * tone(fb, n)
    report = two_tone_report(rf(z), LO + fa, LO + fb)
    assert report["imd_worst_dbc"] < -200.0
    assert report["tone_a_dbc"] == pytest.approx(report["tone_b_dbc"], abs=0.01)


def test_cubic_nonlinearity_imd3_level():
    # Baseband cubic z + a*|z|^2*z: IMD3 relative to the distorted tone is
    # exactly a*A^2 / (1 + 3*a*A^2).
    n = 1 << 15
    fa, fb = coherent_freq(787, n), coherent_freq(1193, n)
    amp, alpha = 0.4, 0.01
    z = amp * tone(fa, n) + amp * tone(fb, n)
    z = z + alpha * np.abs(z) ** 2 * z
    report = two_tone_report(rf(z), LO + fa, LO + fb)
    expected = 20 * np.log10(alpha * amp**2 / (1 + 3 * alpha * amp**2))
    assert report["imd_worst_dbc"] == pytest.approx(expected, abs=0.5)


@pytest.mark.parametrize("spur", [(-1, 2), (2, -1)], ids=["2fb-fa", "2fa-fb"])
def test_two_tone_reads_a_third_order_spur_on_either_side(spur):
    # An analytic signal's 2fb - fa and fa - 2fb are distinct lines.
    n = 1 << 15
    fa, fb = coherent_freq(787, n), coherent_freq(1193, n)
    m, k = spur
    z = 0.4 * tone(fa, n) + 0.4 * tone(fb, n) + 0.4e-2 * tone(m * fa + k * fb, n)
    report = two_tone_report(rf(z), LO + fa, LO + fb)
    products = report["products_dbc"]
    assert products[f"{m}fa{k:+d}fb"] == pytest.approx(-40.0, abs=1e-6)
    assert report["imd_worst_dbc"] == products[f"{m}fa{k:+d}fb"]
    assert len(products) == 20  # every signed order-2 and order-3 product, once


def test_two_tone_skips_products_on_a_tone_or_outside_the_span():
    n = 4096
    fa, fb = coherent_freq(400, n), coherent_freq(800, n)
    z = Waveform(0.4 * tone(fa, n) + 0.4 * tone(fb, n), FS)  # baseband, span +-500 MHz
    report = two_tone_report(z, fa, fb)
    products = report["products_dbc"]
    assert len(products) == 16
    for label in ("-1fa+1fb", "2fa+0fb"):  # fb - fa = fa and 2fa = fb: on a tone's lobe
        assert label not in products
    for label in ("0fa+3fb", "0fa-3fb"):  # +-3fb = +-586 MHz
        assert label not in products
    assert report["imd_worst_dbc"] < -200.0


def test_two_tone_rejects_tones_outside_the_span():
    n = 1 << 12
    fa, fb = coherent_freq(100, n), coherent_freq(300, n)
    z = rf(0.4 * tone(fa, n) + 0.4 * tone(fb, n))
    with pytest.raises(ConfigError, match=f"span.*carrier {LO}") as info:
        two_tone_report(z, fa, fb)  # baseband offsets for an RF waveform
    assert len(info.value.problems) == 2
    with pytest.raises(ConfigError, match="f_b"):
        two_tone_report(z, LO + fa, LO + FS)


def test_two_tone_unresolvable_error():
    n = 1 << 10
    z = tone(coherent_freq(100, n), n) + tone(coherent_freq(101, n), n)
    with pytest.raises(ValueError, match="unresolvable"):
        two_tone_report(rf(z), LO + coherent_freq(100, n), LO + coherent_freq(100.5, n))


def test_empty_waveform_rejected():
    with pytest.raises(ValueError, match="empty"):
        compute_spectrum(rf(np.zeros(0, dtype=complex)))



# scipy (a test-only dependency) names of the windows, as the reference.
SCIPY_WINDOWS = {"rectangular": "boxcar", "hann": "hann", "blackman-harris": "blackmanharris"}


@pytest.mark.parametrize("n", [1, 2, 7, 1024, 1 << 17])
def test_windows_match_scipy_periodic_windows(n):
    assert set(SCIPY_WINDOWS) == set(WINDOWS)
    for name, reference in SCIPY_WINDOWS.items():
        w = periodic_window(name, n)
        assert np.max(np.abs(w - get_window(reference, n, fftbins=True))) <= 1e-15


@pytest.mark.parametrize("n", [64 * 9, 64 * 9 + 13, 37, 1])
def test_block_median_matches_a_per_block_loop(n):
    rng = np.random.default_rng(n)
    power_dbc = np.round(rng.normal(-120.0, 20.0, size=n), 1)  # repeated values too
    reference = np.empty(n)
    for start in range(0, n, 64):
        reference[start : start + 64] = np.median(power_dbc[start : start + 64])
    assert _local_median_db(power_dbc).tobytes() == reference.tobytes()


@pytest.mark.parametrize("carrier", [0.0, LO])
def test_bin_of_matches_argmin_with_its_tie_rule(carrier):
    n = 64
    spec = compute_spectrum(rf(tone(coherent_freq(5, n), n), carrier=carrier))
    freqs = spec.freqs
    midpoints = (freqs[:-1] + freqs[1:]) / 2  # exact ties: the lower bin wins
    outside = [freqs[0] - 1e6, freqs[-1] + 1e6, carrier - 1e12, carrier + 1e12,
               -1e30, 1e30]  # the last two tie across the whole span
    for f in [*freqs, *midpoints, *(midpoints + 1e-3), *outside]:
        assert spec.bin_of(f) == int(np.argmin(np.abs(freqs - f))), f


@pytest.mark.parametrize("window", sorted(WINDOWS))
def test_tone_power_at_sums_power_linear_over_the_lobe(window):
    n = 1 << 10
    rng = np.random.default_rng(5)
    z = tone(coherent_freq(100, n), n) + 1e-3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    spec = compute_spectrum(rf(z), window=window)
    p = spec.power_linear()
    for b in (0, 1, spec.tone_bin, n - 2, n - 1):
        assert spec.tone_power_at(b) == float(p[spec.lobe_bins(b)].sum())
