"""Time evolution under a played burst trace.

Both engines start from the transmitter's ``ExecutionTrace``, share the
same physics definitions, and return one total unitary per quasi-static
noise draw, shape (r, 4, 4).  The caller picks one; neither falls back to
the other.

``dense_propagators``
    Reference path.  Consumes the DAC samples synthesized from the trace
    and applies the exact matrix exponential of the piecewise-constant
    generator, sample by sample (batched eigendecompositions plus a pairwise
    product, so the result is the exact ordered product, not an integrator
    approximation).

``trace_propagators``
    Structured path.  Consumes the trace itself; no samples are synthesized.
    For constant-amplitude bursts the per-sample product telescopes exactly:
    every sample's generator is the previous one conjugated by a fixed phase
    rotation of the excitation number, so the whole burst reduces to one
    matrix power.  This evaluates the idealized synthesis (no phase-table or
    DAC requantization) and is vectorized over quasi-static noise draws,
    which is what makes randomized benchmarking tractable.  It plays one
    tone at a time: overlapping bursts raise ``FastPathUnavailable``.

``evolve`` and ``evolve_trace`` apply either engine to one state.  Both
share the norm policy of ``renormalized``.
"""

from __future__ import annotations

import numpy as np

from ..controller.executor import BasebandWaveform, ExecutionTrace
from ..controller.nco import PHASE_WORDS
from ..errors import SpinctlError
from .device import DeviceModel, NoiseSample, ZERO_NOISE
from .hamiltonian import (
    NUMBER_OP,
    detunings,
    diagonal_energies,
    drive_operator,
    generator_batch,
)
from .state import QuantumState, renormalized

_CHUNK = 2048
_KVEC = np.diag(NUMBER_OP).real  # (0, 1, 1, 2)


class FastPathUnavailable(SpinctlError):
    """The structured engine cannot represent this trace: bursts overlap."""


def _expm_batch(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-2j pi dt H) for a stack of Hermitian matrices."""
    w, v = np.linalg.eigh(h)
    phases = np.exp(-2j * np.pi * dt * w)
    return (v * phases[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def _ordered_product(us: np.ndarray) -> np.ndarray:
    """U[n-1] @ ... @ U[0] by pairwise reduction (index 0 acts first)."""
    while us.shape[0] > 1:
        m = us.shape[0] // 2
        head = np.matmul(us[1 : 2 * m : 2], us[0 : 2 * m : 2])
        us = np.concatenate([head, us[2 * m :]], axis=0) if us.shape[0] % 2 else head
    return us[0]


def _matrix_power_batch(m: np.ndarray, p: int) -> np.ndarray:
    out = np.broadcast_to(np.eye(m.shape[-1], dtype=complex), m.shape).copy()
    base = m
    while p:
        if p & 1:
            out = base @ out
        base = base @ base
        p >>= 1
    return out


def _sampled_product(z: np.ndarray, energies: np.ndarray, drive: np.ndarray, dt: float) -> np.ndarray:
    """Ordered product of the per-sample propagators of envelope ``z``, one
    per row of ``energies``, shape (r, 4, 4).

    Generators are built in blocks of at most _CHUNK sample-draw pairs, so
    memory stays flat in both the program length and the number of draws.
    """
    r = len(energies)
    if r > _CHUNK:
        return np.concatenate(
            [_sampled_product(z, energies[i : i + _CHUNK], drive, dt) for i in range(0, r, _CHUNK)]
        )
    total = np.broadcast_to(np.eye(4, dtype=complex), (r, 4, 4)).copy()
    step = _CHUNK // r
    for start in range(0, len(z), step):
        h = generator_batch(z[start : start + step], energies, drive)
        total = _ordered_product(_expm_batch(h, dt)) @ total
    return total


def _energies(model: DeviceModel, lo_freq: float, exchange_on: bool, noise: NoiseSample) -> np.ndarray:
    """Diagonal energies per noise draw, shape (r, 4); r = 1 for scalar noise."""
    return np.atleast_2d(diagonal_energies(*detunings(model, lo_freq, exchange_on, noise)))


def dense_propagators(
    waveform: BasebandWaveform,
    model: DeviceModel,
    lo_freq: float,
    *,
    exchange_on: bool = False,
    noise: NoiseSample = ZERO_NOISE,
) -> np.ndarray:
    """Total unitaries over every DAC sample of ``waveform``, one per noise
    draw, shape (r, 4, 4).

    Idle samples (zero envelope) evolve under the drive-free generator.
    """
    energies = _energies(model, lo_freq, exchange_on, noise)
    dt = 1.0 / waveform.sample_rate
    return _sampled_product(waveform.envelope, energies, drive_operator(model), dt)


def evolve(
    state: QuantumState,
    waveform: BasebandWaveform,
    model: DeviceModel,
    lo_freq: float,
    *,
    exchange_on: bool = False,
    noise: NoiseSample = ZERO_NOISE,
    expected_sample_rate: float | None = None,
) -> QuantumState:
    """Propagate one state through every DAC sample of ``waveform``."""
    if expected_sample_rate is not None and waveform.sample_rate != expected_sample_rate:
        raise ValueError(
            f"waveform sampled at {waveform.sample_rate} Hz, expected "
            f"{expected_sample_rate} Hz"
        )
    u = dense_propagators(waveform, model, lo_freq, exchange_on=exchange_on, noise=noise)[0]
    return QuantumState(renormalized(u @ state.amplitudes, len(waveform)))


def trace_propagators(
    trace: ExecutionTrace,
    model: DeviceModel,
    lo_freq: float,
    *,
    exchange_on: bool = False,
    noise: NoiseSample = ZERO_NOISE,
) -> np.ndarray:
    """Total unitaries of a burst trace, one per noise draw, shape (r, 4, 4).

    Segments must not overlap in time (one tone at a time); overlapping
    traces raise FastPathUnavailable and belong on the dense engine.
    """
    energies = _energies(model, lo_freq, exchange_on, noise)  # (r, 4)
    r = len(energies)
    drive = drive_operator(model)
    dt = 1.0 / trace.sample_rate

    total = np.broadcast_to(np.eye(4, dtype=complex), (r, 4, 4)).copy()

    def apply_gap(n_samples: int):
        nonlocal total
        if n_samples <= 0:
            return
        ph = np.exp(-2j * np.pi * dt * n_samples * energies)  # (r, 4)
        total = ph[:, :, None] * total

    # Zero-amplitude bursts (idle pads) are inert: treat them as gaps.
    segments = sorted(
        (s for s in trace.segments if np.any(s.amp_values)), key=lambda s: s.t0
    )
    t = trace.start
    for seg in segments:
        if seg.t0 < t:
            raise FastPathUnavailable(
                f"bursts overlap at sample {seg.t0}: the trace engine plays one "
                'tone at a time; run this program with engine="dense"'
            )
        apply_gap(seg.t0 - t)
        t = seg.t_end

        amp = seg.amp_values
        codes = seg.phase_codes
        words = seg.phase_words(trace.phase_mod_bits)
        if not (np.all(amp == amp[0]) and np.all(codes == codes[0])):
            # Shaped burst: rebuild its samples and take the per-sample product.
            z = amp * np.exp(2j * np.pi * words / PHASE_WORDS)
            total = _sampled_product(z, energies, drive, dt) @ total
            continue
        theta0 = 2.0 * np.pi * words[0] / PHASE_WORDS
        dtheta = 2.0 * np.pi * seg.ftw / PHASE_WORDS

        u_bar = _expm_batch(generator_batch(amp[:1], energies, drive)[0], dt)

        p_diag = np.exp(-1j * theta0 * _KVEC)
        vinv_diag = np.exp(1j * dtheta * _KVEC)
        vpow_diag = np.exp(-1j * dtheta * (seg.n - 1) * _KVEC)
        m = u_bar * vinv_diag[None, None, :]
        u_seg = _matrix_power_batch(m, seg.n - 1) @ u_bar
        u_seg = vpow_diag[None, :, None] * u_seg
        u_seg = p_diag[None, :, None] * u_seg * np.conj(p_diag)[None, None, :]
        total = u_seg @ total

    apply_gap(trace.end - t)
    return total


def evolve_trace(
    state: QuantumState,
    trace: ExecutionTrace,
    model: DeviceModel,
    lo_freq: float,
    *,
    exchange_on: bool = False,
    noise: NoiseSample = ZERO_NOISE,
) -> QuantumState:
    """Propagate one state through a burst trace on the structured engine."""
    u = trace_propagators(trace, model, lo_freq, exchange_on=exchange_on, noise=noise)[0]
    return QuantumState(renormalized(u @ state.amplitudes, trace.n_samples))


# --- closed-form two-level references ---------------------------------------


def su2_exp(c0, ax, ay, az, dt):
    """exp(-2j pi dt (c0 I + a . sigma)) elementwise over arrays."""
    c0, ax, ay, az = np.broadcast_arrays(c0, ax, ay, az)
    mag = np.sqrt(ax**2 + ay**2 + az**2)
    phi = 2.0 * np.pi * dt * mag
    sinc = np.where(mag > 0, np.sin(phi) / np.where(mag > 0, mag, 1.0), 2 * np.pi * dt)
    cosv = np.cos(phi)
    u = np.empty(np.shape(c0) + (2, 2), dtype=complex)
    u[..., 0, 0] = cosv - 1j * sinc * az
    u[..., 1, 1] = cosv + 1j * sinc * az
    u[..., 0, 1] = -1j * sinc * (ax - 1j * ay)
    u[..., 1, 0] = -1j * sinc * (ax + 1j * ay)
    return np.exp(-2j * np.pi * dt * c0)[..., None, None] * u


def two_level_evolve(envelope: np.ndarray, detuning: float, coupling: float, dt: float) -> np.ndarray:
    """Exact 2x2 propagator of one driven spin over a sampled envelope.

    Independent reference for the factorized (J = 0) limit: same sampled
    physics, different code path from the 4x4 engine.
    """
    z = np.asarray(envelope, dtype=complex)
    c0 = np.full(len(z), detuning / 2.0)
    ax = 0.5 * coupling * np.real(z)
    ay = -0.5 * coupling * np.imag(z)
    az = np.full(len(z), -detuning / 2.0)
    return _ordered_product(su2_exp(c0, ax, ay, az, dt))


def rotation_for_phase(phi: float, angle: float) -> np.ndarray:
    """Resonant-burst unitary for drive phase ``phi`` and rotation ``angle``.

    exp(-i (angle/2) (cos phi sx - sin phi sy)); phase 0 is the +x gate,
    phase pi/2 the +y gate of the compiled gate set.
    """
    nx, ny = np.cos(phi), -np.sin(phi)
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array(
        [[c, -1j * s * (nx - 1j * ny)], [-1j * s * (nx + 1j * ny), c]], dtype=complex
    )


def z_rotation(theta: float) -> np.ndarray:
    """Operator equivalent of a virtual z: a reference-phase update of
    ``theta`` turns every later burst U(phi) into U(phi + theta), which is
    the same as inserting diag(1, e^{i theta}) once at the update point."""
    return np.diag([1.0, np.exp(1j * theta)]).astype(complex)


def rabi_probability(t, f_rabi: float, detuning: float = 0.0):
    """Generalized Rabi formula: P(flip) for a resonant or detuned drive."""
    t = np.asarray(t, dtype=float)
    f_gen = np.hypot(f_rabi, detuning)
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(f_gen > 0, (f_rabi / np.where(f_gen > 0, f_gen, 1.0)) ** 2, 0.0)
    return weight * np.sin(np.pi * f_gen * t) ** 2
