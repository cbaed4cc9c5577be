"""Shared construction helpers and reference oracles for metric, physics,
readout, randomized-benchmarking and acceptance tests."""

import numpy as np

from spinctl.compiler.plan import hold_factor
from spinctl.controller.nco import quantize_unit
from spinctl.experiments.cliffords import (
    DECOMPOSITIONS,
    IDENTITY_INDEX,
    INVERSE_TABLE,
    MULT_TABLE,
    N_CLIFFORDS,
    PRIMITIVE_PARAMS,
    UNITARIES,
    recovery_index,
    sequence_primitives,
)
from spinctl.physics import DeviceModel, NoiseSample, dense_propagators, evolve_trace
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


PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def two_level_evolve(envelope, detuning, coupling, dt):
    """Exact 2x2 propagator of one driven spin over a sampled envelope: the
    reference for the factorized (J = 0) limit, with the spin's generator
    H = (detuning / 2) I + a . sigma, a = (coupling Re z, -coupling Im z,
    -detuning) / 2, exponentiated per sample in closed form and multiplied
    in order by ``ordered_product``.  An empty envelope gives the identity.
    """
    z = np.asarray(envelope, dtype=complex)
    if not len(z):
        return np.eye(2, dtype=complex)
    a = np.stack([0.5 * coupling * z.real, -0.5 * coupling * z.imag,
                  np.full(len(z), -0.5 * detuning)], axis=1)
    # a . sigma is traceless with (a . sigma)^2 = |a|^2 I.
    w = 2 * np.pi * dt * np.linalg.norm(a, axis=1)[:, None, None]
    h = np.einsum("na,aij->nij", a, PAULIS[1:])
    us = np.exp(-1j * np.pi * dt * detuning) * (
        np.cos(w) * PAULIS[0] - 2j * np.pi * dt * np.sinc(w / np.pi) * h)
    return ordered_product(us)


def rabi_probability(t, f_rabi, detuning=0.0):
    """Generalized Rabi formula: P(flip) for a resonant or detuned drive."""
    t = np.asarray(t, dtype=float)
    f_gen = np.hypot(f_rabi, detuning)
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(f_gen > 0, (f_rabi / np.where(f_gen > 0, f_gen, 1.0)) ** 2, 0.0)
    return weight * np.sin(np.pi * f_gen * t) ** 2


def evolve_one(trace, *args, **kwargs):
    """One trace's unitaries, shape (r, 4, 4): a batch of one through ``evolve_trace``."""
    return evolve_trace([trace], *args, **kwargs)[0]


def dense_one(waveform, *args, **kwargs):
    """One waveform's unitaries, shape (r, 4, 4): a batch of one through
    ``dense_propagators``."""
    return dense_propagators([waveform], *args, **kwargs)[0]


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


def rb_cliffords(bench, qubit, detunings=(0.0,)):
    """The 24 Cliffords as the bench implements them on ``qubit``, one set
    per quasi-static detuning (Hz): shape (len(detunings), 24, 2, 2).

    Each primitive is exp(-i T (pi f_R (cos phi sx - sin phi sy) + pi delta sz))
    in the frame of its drive, with phi its drive phase, T its calibrated
    pi/2 or pi duration (``i`` idles for a pi duration) and f_R the Rabi
    rate its calibrated amplitude reaches, the hold factor included.
    """
    slot = bench.plan.for_qubit(qubit)[0]
    cal = bench.cal.for_slot(slot)
    f_r = (bench.model.drive_coupling[qubit - 1] * cal.amplitude
           * hold_factor(slot.offset_hz, bench.cfg.f_clk))
    delta = np.asarray(detunings, dtype=float)[:, None, None]
    gates = {}
    for name, (phi, angle) in PRIMITIVE_PARAMS.items():
        t = (cal.half_pi_samples if angle == np.pi / 2 else cal.pi_samples) / bench.cfg.f_clk
        rabi = f_r if angle else 0.0
        h = np.pi * (rabi * (np.cos(phi) * PAULIS[1] - np.sin(phi) * PAULIS[2]) + delta * PAULIS[3])
        # h is traceless with h @ h = (pi |a|)^2 I, |a| = hypot(f_R, delta).
        w = np.pi * np.hypot(rabi, delta) * t
        gates[name] = np.cos(w) * PAULIS[0] - 1j * t * np.sinc(w / np.pi) * h
    out = []
    for names in DECOMPOSITIONS:
        u = np.broadcast_to(PAULIS[0], gates["i"].shape)
        for name in names:  # the first acts first
            u = gates[name] @ u
        out.append(u)
    return np.stack(out, axis=1)


def quasi_static_rule(sigma, n):
    """Detunings and weights of an n-node Gauss-Hermite rule for a Gaussian
    offset of spread ``sigma`` (numpy's rule, apart from spinctl's)."""
    # Imported here: the numpy-only smoke script imports this module and
    # checks that numpy.polynomial stays unloaded.
    from numpy.polynomial.hermite_e import hermegauss

    x, w = hermegauss(n)
    return sigma * x, w / w.sum()


def rb_survival(cliffords, lengths, weights=(1.0,)):
    """Exact mean survival over uniform random RB sequences of each length,
    with the recovery Clifford, for implemented Cliffords ``cliffords`` of
    shape (r, 24, 2, 2), averaged over the r sets with ``weights``.

    One vectorized density matrix per ideal composite element: a length
    step sends the state of element g through each noisy Clifford c, with
    probability 1/24, to element MULT_TABLE[g, c]; survival reads <0|.|0>
    after each element's implemented recovery INVERSE_TABLE[g].
    """
    u = np.asarray(cliffords)
    r = u.shape[0]
    sup = np.einsum("rcij,rckl->rcikjl", u, u.conj()).reshape(r, N_CLIFFORDS, 4, 4)
    source = MULT_TABLE[:, INVERSE_TABLE]  # g' = MULT[g, c] comes from g = MULT[g', c^-1]
    recover = sup[:, INVERSE_TABLE, 0, :]  # row <0|.|0> after each element's recovery
    state = np.zeros((r, N_CLIFFORDS, 4), dtype=complex)
    state[:, IDENTITY_INDEX, 0] = 1.0  # |0><0| at the identity, length 0
    out = {}
    for m in range(max(lengths) + 1):
        out[m] = np.asarray(weights) @ np.einsum("rgj,rgj->r", recover, state).real
        state = np.einsum("rcij,rgcj->rgi", sup, state[:, source]) / N_CLIFFORDS
    return np.array([out[m] for m in lengths])


def pauli_transfer(u):
    """Pauli transfer matrices R_ij = tr(P_i U P_j U^dagger) / 2 of (..., 2, 2) unitaries."""
    return np.einsum("aij,...jk,bkl,...il->...ab", PAULIS, u, PAULIS, u.conj()).real / 2


def rb_decay(cliffords):
    """RB decay p of 24 implemented Cliffords (24, 2, 2): the second
    eigenvalue, by modulus, of (1/24) sum_c R(U~_c) x R(C_c); the first is 1."""
    twirl = np.mean([np.kron(a, b) for a, b in zip(pauli_transfer(cliffords),
                                                    pauli_transfer(UNITARIES))], axis=0)
    ev = np.linalg.eigvals(twirl)
    ev = ev[np.argsort(-np.abs(ev))]
    assert abs(ev[0] - 1.0) < 1e-9, ev[:2]
    return float(ev[1].real)


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
