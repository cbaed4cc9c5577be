"""Spectral analysis of synthesized signals: spectra, SNR, SFDR, two-tone.

Bin powers are normalized so that summing bins of a tone's main lobe
recovers the tone's mean-square power exactly (Parseval), independent of
the window.  ``compute_spectrum`` and ``two_tone_report`` take a
``Waveform``, the DAC output or its upconverted RF signal alike; all
frequencies in reports are absolute, offset by the waveform's carrier (0 at
baseband).

Noise floor: ``spur_mask`` (and so ``snr``) compares each bin with the
median dBc of its block, the 64 consecutive bins 0..63, 64..127, ... of the
spectrum, a shorter last block standing alone.  A bin 20 dB above its
block's median is a spur.

Two-tone products: ``two_tone_report`` measures m*f_a + n*f_b (offsets from
the carrier) for every signed pair of order |m| + |n| = 2 or 3,
``IMD_PRODUCTS``, twenty in all.  An analytic signal has distinct lines at
+f and -f, so 2f_b - f_a and f_a - 2f_b are two products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller.executor import Waveform
from .errors import ConfigError

# Cosine-sum coefficients and main-lobe half-width in bins of each window.
WINDOWS = {
    "rectangular": ((1.0,), 1),
    "hann": ((0.5, 0.5), 3),
    "blackman-harris": ((0.35875, 0.48829, 0.14128, 0.01168), 5),
}

SPUR_ABOVE_MEDIAN_DB = 20.0  # a bin this far above local median noise is a spur
_MEDIAN_BLOCK = 64  # bins per noise-floor block
# (m, n) of each intermodulation product m*f_a + n*f_b.
IMD_PRODUCTS = tuple((m, n) for m in range(-3, 4) for n in range(-3, 4)
                     if abs(m) + abs(n) in (2, 3))


@dataclass
class Spectrum:
    """One-sided power spectrum of an analytic signal, in dB re carrier tone."""

    freqs: np.ndarray  # absolute RF per bin, Hz
    power_dbc: np.ndarray
    rbw: float  # equivalent noise bandwidth per bin, Hz
    window: str
    carrier_freq: float
    tone_bin: int
    tone_power: float  # linear mean-square power of the main tone
    lobe_halfwidth: int
    fs: float

    def __len__(self) -> int:
        return len(self.freqs)

    @property
    def tone_freq(self) -> float:
        return float(self.freqs[self.tone_bin])

    def power_linear(self) -> np.ndarray:
        return self.tone_power * 10.0 ** (self.power_dbc / 10.0)

    def lobe_bins(self, center: int) -> np.ndarray:
        lo = max(center - self.lobe_halfwidth, 0)
        hi = min(center + self.lobe_halfwidth, len(self.freqs) - 1)
        return np.arange(lo, hi + 1)

    def bin_of(self, freq_hz: float) -> int:
        """The bin nearest ``freq_hz``, the lower one on a tie: the index
        ``argmin(abs(freqs - freq_hz))`` gives."""
        freqs = self.freqs
        b = int(np.searchsorted(freqs, freq_hz))  # first bin at or above
        if b == len(freqs) or (b > 0 and abs(freqs[b - 1] - freq_hz) <= abs(freqs[b] - freq_hz)):
            b -= 1
        # Distances grow away from ``freq_hz`` on either side, so an earlier
        # bin can tie only if the one just below ties too (rounded distances
        # far outside the span, or repeated bin frequencies).
        if b > 0 and not abs(freqs[b - 1] - freq_hz) > abs(freqs[b] - freq_hz):
            return int(np.argmin(np.abs(freqs - freq_hz)))
        return b

    def tone_power_at(self, bin_index: int) -> float:
        """Linear tone power from the lobe sum around a bin: the sum of
        ``power_linear()`` over ``lobe_bins(bin_index)``."""
        lobe = self.power_dbc[self.lobe_bins(bin_index)]
        return float((self.tone_power * 10.0 ** (lobe / 10.0)).sum())


def periodic_window(name: str, n: int) -> np.ndarray:
    """Periodic (DFT-even) window of length ``n``: sum_k a_k cos(k x) over
    x = -pi .. pi with the endpoint dropped; ones when n <= 1."""
    coefficients, _ = WINDOWS[name]
    if n <= 1:
        return np.ones(n)
    x = np.linspace(-np.pi, np.pi, n + 1)[:-1]
    w = np.full(n, coefficients[0])
    for k, a in enumerate(coefficients[1:], start=1):
        w += a * np.cos(k * x)
    return w


def compute_spectrum(signal: Waveform, window: str = "rectangular") -> Spectrum:
    """Windowed FFT power spectrum over the whole signal, normalized to the
    main tone.

    Parameters
    ----------
    signal : Waveform
        Analytic signal to analyze, at baseband or upconverted; bin
        frequencies are offset by its carrier.
    window : one of "rectangular", "hann", "blackman-harris"
    """
    z, fs, carrier = signal.envelope, signal.sample_rate, signal.carrier_freq
    if len(z) == 0:
        raise ValueError("cannot compute a spectrum of an empty waveform")
    if window not in WINDOWS:
        raise ValueError(f"unknown window {window!r}; choose from {sorted(WINDOWS)}")
    n = len(z)
    w = periodic_window(window, n)
    halfwidth = WINDOWS[window][1]
    x = np.fft.fftshift(np.fft.fft(w * z))
    # Parseval normalization: lobe-summed tone power equals A^2 exactly.
    power = np.abs(x) ** 2 / (n * np.sum(w**2))
    freqs = carrier + np.fft.fftshift(np.fft.fftfreq(n, d=1.0 / fs))
    rbw = fs * np.sum(w**2) / np.sum(w) ** 2

    peak = int(np.argmax(power))
    lo = max(peak - halfwidth, 0)
    hi = min(peak + halfwidth, n - 1)
    tone_power = float(power[lo : hi + 1].sum())
    if tone_power <= 0.0:
        raise ValueError("waveform contains no signal power")
    return Spectrum(
        freqs=freqs,
        power_dbc=10.0 * np.log10(np.maximum(power / tone_power, 1e-300)),
        rbw=rbw,
        window=window,
        carrier_freq=carrier,
        tone_bin=peak,
        tone_power=tone_power,
        lobe_halfwidth=halfwidth,
        fs=fs,
    )


def _local_median_db(power_dbc: np.ndarray, block: int = _MEDIAN_BLOCK) -> np.ndarray:
    """Blockwise median as a cheap local noise-floor estimate: every bin
    reads the median of its block of ``block`` consecutive bins, counted
    from bin 0; a shorter last block is its own block."""
    n = len(power_dbc)
    full = n - n % block
    out = np.empty(n)
    out[:full] = np.repeat(np.median(power_dbc[:full].reshape(-1, block), axis=1), block)
    if full < n:
        out[full:] = np.median(power_dbc[full:])
    return out


def spur_mask(spec: Spectrum) -> np.ndarray:
    """Bins whose power exceeds the local median noise by 20 dB."""
    floor = _local_median_db(spec.power_dbc)
    return spec.power_dbc > floor + SPUR_ABOVE_MEDIAN_DB


def sfdr(spec: Spectrum, exclusions=None) -> float:
    """Carrier power minus the largest remaining bin, in dB.

    ``exclusions`` is an iterable of absolute-frequency intervals (lo, hi)
    removed from the search; None applies the default exclusion of
    +/- 2 RBW around the LO (residual LO leakage does not count as a spur).
    The carrier's own main lobe is always excluded.
    """
    if exclusions is None:
        exclusions = [(spec.carrier_freq - 2 * spec.rbw, spec.carrier_freq + 2 * spec.rbw)]
    mask = np.ones(len(spec), dtype=bool)
    mask[spec.lobe_bins(spec.tone_bin)] = False
    for lo, hi in exclusions:
        mask &= ~((spec.freqs >= lo) & (spec.freqs <= hi))
    if not mask.any():
        raise ValueError("exclusions cover the whole analysis band")
    worst = float(spec.power_dbc[mask].max())
    return -worst


def snr(spec: Spectrum, integration_bw: float = 25e6) -> float:
    """Tone power over integrated noise in a band centered on the tone.

    Spur bins (and the tone's own lobe) are excluded from the noise sum.
    """
    if integration_bw < spec.rbw:
        raise ValueError(
            f"integration bandwidth {integration_bw} Hz below resolution {spec.rbw} Hz"
        )
    center = spec.tone_freq
    half = integration_bw / 2.0
    f_lo, f_hi = spec.freqs[0], spec.freqs[-1]
    if center - half < f_lo - spec.rbw or center + half > f_hi + spec.rbw:
        raise ValueError("integration band exceeds the Nyquist span of the spectrum")
    mask = np.abs(spec.freqs - center) <= half
    mask[spec.lobe_bins(spec.tone_bin)] = False
    mask &= ~spur_mask(spec)
    tone = spec.tone_power_at(spec.tone_bin)
    noise = float(spec.power_linear()[mask].sum())
    if noise <= 0.0:
        return float("inf")
    return 10.0 * np.log10(tone / noise)


def lo_rejection(spec: Spectrum) -> float:
    """Carrier power minus the residual LO line, in dB."""
    lo_bin = spec.bin_of(spec.carrier_freq)
    leak = spec.tone_power_at(lo_bin)
    return 10.0 * np.log10(spec.tone_power / leak)


def two_tone_report(signal: Waveform, f_a: float, f_b: float) -> dict:
    """Characterize a two-tone signal: tone powers plus intermodulation.

    ``f_a`` and ``f_b`` are absolute RF frequencies inside the analysis span
    (``ConfigError`` otherwise).  Each product of ``IMD_PRODUCTS`` that falls
    inside the span and off both tones' lobes is reported under the label
    ``"{m}fa{n:+d}fb"`` (e.g. ``"2fa-1fb"``, ``"-1fa+2fb"``) in dB relative
    to the weaker tone.  The spectrum is rectangular-windowed.
    """
    spec = compute_spectrum(signal)
    span_lo, span_hi = spec.freqs[0], spec.freqs[-1]
    outside = [f"tone {name} = {f} Hz outside the spectrum's span {span_lo}..{span_hi} Hz "
               f"around the carrier {spec.carrier_freq} Hz (tones are absolute frequencies)"
               for name, f in (("f_a", f_a), ("f_b", f_b)) if not span_lo <= f <= span_hi]
    if outside:
        raise ConfigError(outside)
    min_spacing = (2 * spec.lobe_halfwidth + 1) * spec.fs / len(spec)
    if abs(f_a - f_b) < min_spacing:
        raise ValueError(
            f"tones {f_a} and {f_b} Hz unresolvable at this FFT length "
            f"(need {min_spacing:.1f} Hz spacing)"
        )
    bin_a, bin_b = spec.bin_of(f_a), spec.bin_of(f_b)
    p_a, p_b = spec.tone_power_at(bin_a), spec.tone_power_at(bin_b)
    weaker = min(p_a, p_b)

    base_a = f_a - spec.carrier_freq
    base_b = f_b - spec.carrier_freq
    products = {}
    claimed = set(spec.lobe_bins(bin_a)) | set(spec.lobe_bins(bin_b))
    for m, n in IMD_PRODUCTS:
        f = spec.carrier_freq + m * base_a + n * base_b
        if not span_lo <= f <= span_hi:
            continue
        b = spec.bin_of(f)
        if b in claimed:
            continue
        p = spec.tone_power_at(b)
        products[f"{m}fa{n:+d}fb"] = 10.0 * np.log10(max(p / weaker, 1e-300))
    largest = max(products.values()) if products else float("-inf")
    return {
        "tone_a_dbc": 10.0 * np.log10(p_a / spec.tone_power),
        "tone_b_dbc": 10.0 * np.log10(p_b / spec.tone_power),
        "products_dbc": products,
        "imd_worst_dbc": largest,
    }
