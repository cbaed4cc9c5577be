"""Shared construction helpers and reference oracles for metric, physics,
readout and acceptance tests."""

import numpy as np

from spinctl.controller.nco import quantize_unit
from spinctl.experiments.cliffords import N_CLIFFORDS, recovery_index, sequence_primitives
from spinctl.physics import DeviceModel, NoiseSample
from spinctl.physics.state import renormalized


def ordered_product(us):
    """U[n-1] @ ... @ U[0] of a (n, ..., k, k) stack by pairwise matmul
    reduction (index 0 acts first): the tests' reference product, written
    apart from the structure-of-arrays reduction of ``physics.evolve``."""
    while us.shape[0] > 1:
        m = us.shape[0] // 2
        head = np.matmul(us[1 : 2 * m : 2], us[0 : 2 * m : 2])
        us = np.concatenate([head, us[2 * m :]], axis=0) if us.shape[0] % 2 else head
    return us[0]


def final_state(propagators, n_factors, k=0):
    """Amplitudes that the first draw's unitary makes of basis state ``k``
    (index 2*q1 + q2), norm-checked over ``n_factors`` samples."""
    return renormalized(propagators[0][:, k], n_factors)


def sample_noise_batch(model: DeviceModel, rng, n):
    """``n`` independent Gaussian draws of the quasi-static offsets with the
    model's spreads: the Monte Carlo reference for the quadrature average."""
    d1 = model.sigma_detune * rng.standard_normal(n) if model.sigma_detune else np.zeros(n)
    d2 = model.sigma_detune * rng.standard_normal(n) if model.sigma_detune else np.zeros(n)
    dj = model.sigma_j * rng.standard_normal(n) if model.sigma_j else np.zeros(n)
    return NoiseSample(d1, d2, dj)


def rb_primitives(n_cliffords, seed):
    """Primitive gate names of a random RB sequence plus its recovery Clifford."""
    indices = np.random.default_rng(seed).integers(0, N_CLIFFORDS, size=n_cliffords).tolist()
    return sequence_primitives(indices + [recovery_index(indices)])


def dithered_quantize(x, bits, rng):
    """Subtractively dithered quantizer: error is exactly uniform white.

    Makes the quantization-noise power land on q^2/12 per channel with no
    harmonic lines, so the 6.02*N + 1.76 dB law holds bin-for-bin.
    """
    q = 2.0 ** (1 - bits)
    d = rng.uniform(-q / 2, q / 2, size=np.shape(x))
    return quantize_unit(np.asarray(x) + d, bits) - d


def dithered_quantize_complex(z, bits, rng):
    return dithered_quantize(np.real(z), bits, rng) + 1j * dithered_quantize(
        np.imag(z), bits, rng
    )


def measure(amplitudes, model: DeviceModel, shots: int,
            rng: np.random.Generator) -> np.ndarray:
    """Sample shot records of one state (amplitudes of shape (4,)), shape
    (shots, 2) with columns (q1_bit, q2_bit): the shot-by-shot reference for
    the chain that ``readout_probabilities`` gives in closed form.

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
