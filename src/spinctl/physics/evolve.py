"""Time evolution under a played burst trace.

Both engines start from the transmitter's ``ExecutionTrace``, share one
per-sample kernel, and return one total unitary per quasi-static noise
draw, shape (r, 4, 4).  The caller picks one; neither falls back to the
other.  The kernel factors the phase out: the drive changes the excitation
number by exactly one, so with the diagonal P(phi) = exp(-i phi NUMBER_OP),
H(a e^{i phi}) = P(phi) H(a) P(phi)^dagger, an identity, not an
approximation.  Each distinct amplitude is exponentiated once per noise
draw; each sample's factor is that exponential conjugated by its phase.

``dense_propagators``
    Reference path: the exact ordered product over the DAC samples
    synthesized from the trace.

``trace_propagators``
    Structured path: the idealized synthesis (no phase-table or DAC
    requantization) of the trace itself; no samples are synthesized.  A lone
    constant burst telescopes to one matrix power, which is what makes
    randomized benchmarking tractable.  That power is computed once per
    distinct (amplitude, n, ftw) per call and conjugated into each burst's
    own phase frame, so a sequence that replays a few calibrated bursts
    exponentiates only those few.  A shaped burst, or bursts on both banks
    at once, go through the kernel.

The result is the only representation of an evolved program: the final
state from basis state k is column k of a unitary, checked and rescaled by
the norm policy of ``state.renormalized``.  The closed-form two-level
functions at the end are independent references for tests.
"""

from __future__ import annotations

import numpy as np

from ..controller.executor import BasebandWaveform, ExecutionTrace
from ..controller.nco import PHASE_WORDS
from .device import DeviceModel, NoiseSample, ZERO_NOISE
from .hamiltonian import (
    NUMBER_OP,
    detunings,
    diagonal_energies,
    drive_operator,
    generator_batch,
)

_CHUNK = 2048
_KVEC = np.diag(NUMBER_OP).real  # (0, 1, 1, 2)


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


def _sampled_product(z: np.ndarray, energies: np.ndarray, drive: np.ndarray, dt: float) -> np.ndarray:
    """Ordered product of the per-sample propagators of envelope ``z``, one
    per row of ``energies``, shape (r, 4, 4).

    Sample k contributes P(arg z_k) E(|z_k|) P(arg z_k)^dagger, with E
    exponentiated once per distinct |z| and draw.  At most _CHUNK
    exponentials and _CHUNK gathered sample-draw factors are held at once:
    the draws are taken in groups that fit beside the distinct amplitudes,
    and an envelope with more than _CHUNK of them is split in halves.
    """
    levels, which = np.unique(np.abs(z), return_inverse=True)
    if len(levels) > _CHUNK:
        head, tail = np.array_split(z, 2)
        return _sampled_product(tail, energies, drive, dt) @ _sampled_product(head, energies, drive, dt)
    draws = _CHUNK // max(len(levels), 1)
    out = []
    for i in range(0, len(energies), draws):
        group = energies[i : i + draws]
        expm = _expm_batch(generator_batch(levels, group, drive), dt)  # (levels, draws, 4, 4)
        step = _CHUNK // len(group)
        total = np.broadcast_to(np.eye(4, dtype=complex), (len(group), 4, 4)).copy()
        for start in range(0, len(z), step):
            p = np.exp(-1j * np.angle(z[start : start + step])[:, None, None] * _KVEC)  # (n, 1, 4)
            factors = p[..., :, None] * expm[which[start : start + step]] * np.conj(p)[..., None, :]
            total = _ordered_product(factors) @ total
        out.append(total)
    return np.concatenate(out)


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


def trace_propagators(
    trace: ExecutionTrace,
    model: DeviceModel,
    lo_freq: float,
    *,
    exchange_on: bool = False,
    noise: NoiseSample = ZERO_NOISE,
) -> np.ndarray:
    """Total unitaries of a burst trace, one per noise draw, shape (r, 4, 4).

    Bursts that overlap in time form one cluster, whose idealized samples
    are summed as the DAC sums the banks.  A lone constant burst's matrix
    power depends on the draws only through ``energies`` and on the burst
    only through (amplitude, n, ftw): it is computed once per distinct
    triple in this call and conjugated by each burst's start and end phase
    (reference phase, start time and phase code).
    """
    energies = _energies(model, lo_freq, exchange_on, noise)  # (r, 4)
    drive = drive_operator(model)
    dt = 1.0 / trace.sample_rate
    bits = trace.phase_mod_bits

    # Zero-amplitude bursts (idle pads) are inert: treat them as gaps.
    clusters = []  # [t0, t_end, segments]
    for seg in sorted((s for s in trace.segments if np.any(s.amp_values)), key=lambda s: s.t0):
        if clusters and seg.t0 < clusters[-1][1]:
            clusters[-1][1] = max(clusters[-1][1], seg.t_end)
            clusters[-1][2].append(seg)
        else:
            clusters.append([seg.t0, seg.t_end, [seg]])

    total = np.broadcast_to(np.eye(4, dtype=complex), (len(energies), 4, 4)).copy()

    def apply_gap(n_samples: int):
        nonlocal total
        if n_samples > 0:
            total = np.exp(-2j * np.pi * dt * n_samples * energies)[:, :, None] * total

    powers = {}  # (amplitude, n, ftw) -> constant-burst unitary at zero phase
    t = trace.start
    for t0, t_end, group in clusters:
        apply_gap(t0 - t)
        t = t_end
        seg = group[0]
        amp, codes = seg.amp_values, seg.phase_codes
        if len(group) == 1 and np.all(amp == amp[0]) and np.all(codes == codes[0]):
            # Sample k is sample 0 conjugated by k phase steps of the tuning
            # word, so the burst telescopes to one matrix power.
            key = (float(amp[0]), seg.n, seg.ftw)
            if key not in powers:
                u_bar = _expm_batch(generator_batch(amp[:1], energies, drive)[0], dt)
                undo_step = np.exp(2j * np.pi * seg.ftw / PHASE_WORDS * _KVEC)
                powers[key] = np.linalg.matrix_power(u_bar * undo_step, seg.n - 1) @ u_bar
            ends = seg.phase_words(bits)[[0, -1], None]
            p0, p_end = np.exp(-2j * np.pi * ends / PHASE_WORDS * _KVEC)
            total = (p_end[:, None] * powers[key] * np.conj(p0)) @ total
            continue
        z = np.zeros(t_end - t0, dtype=complex)  # idealized samples, banks summed
        for seg in group:
            phase = 2j * np.pi * seg.phase_words(bits) / PHASE_WORDS
            z[seg.t0 - t0 : seg.t_end - t0] += seg.amp_values * np.exp(phase)
        total = _sampled_product(z, energies, drive, dt) @ total

    apply_gap(trace.end - t)
    return total


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
