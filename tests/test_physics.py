"""Hamiltonian structure, unitary evolution, and engine cross-checks."""

import numpy as np
import pytest

from spinctl.controller.executor import (
    BasebandWaveform,
    Transmitter,
    TxConfig,
    synthesize,
)
from spinctl.controller.memory import Instruction, MemoryImage
from spinctl.controller.nco import offset_to_ftw
from spinctl.physics import (
    DeviceModel,
    NoiseSample,
    QuantumState,
    dense_propagators,
    evolve,
    evolve_trace,
    generator,
    rabi_probability,
    trace_propagators,
    transition_frequencies,
    two_level_evolve,
)
from spinctl.physics.evolve import FastPathUnavailable

LO = 13.54e9
FS = 1e9


def model(**kw):
    kw.setdefault("f1", LO + 24e6)
    kw.setdefault("f2", LO - 90e6)
    kw.setdefault("j_on", 10e6)
    kw.setdefault("drive_coupling", (2e6, 2e6))
    return DeviceModel(**kw)


def resonant_waveform(offset, amp, n, fs=FS):
    """Ideal sampled envelope at a baseband offset (no DAC quantization)."""
    k = np.arange(1, n + 1)
    z = amp * np.exp(2j * np.pi * offset * k / fs)
    return BasebandWaveform(sample_rate=fs, i=np.imag(z), q=np.real(z))


def test_uncoupled_transition_energies():
    m = model()
    freqs = transition_frequencies(m, exchange_on=False)
    assert freqs[(1, 0)] == freqs[(1, 1)] == m.f1
    assert freqs[(2, 0)] == freqs[(2, 1)] == m.f2


def test_exchange_gives_four_lines_matching_eigenvalues():
    m = model()
    h = generator(m, 0.0, LO, exchange_on=True)
    evals = np.sort(np.linalg.eigvalsh(h))
    # Brute-force oracle: every single-spin-flip eigenvalue difference.
    labels = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    diag = np.real(np.diag(h))
    diffs = set()
    for a in range(4):
        for b in range(4):
            qa, qb = labels[a], labels[b]
            flipped = [i for i in range(2) if qa[i] != qb[i]]
            # b is the state with the flipped spin pointing up.
            if len(flipped) == 1 and qb[flipped[0]] == 1:
                diffs.add(round(diag[b] - diag[a] + LO, 3))
    expected = {m.f1 - 5e6, m.f1 + 5e6, m.f2 - 5e6, m.f2 + 5e6}
    assert diffs == {round(f, 3) for f in expected}
    assert len(evals) == 4


def test_pi_pulse_flips_target():
    m = model(f1=LO)  # zero offset: sampled drive has no hold distortion
    f_r = 1e6  # coupling 2 MHz at amplitude 0.5
    n = int(round(1 / (2 * f_r) * FS))
    wf = resonant_waveform(0.0, 0.5, n)
    out = evolve(QuantumState.ground(), wf, m, LO)
    assert out.p_up(1) == pytest.approx(1.0, abs=1e-6)
    assert out.p_up(2) == pytest.approx(0.0, abs=1e-4)  # far off-resonant spectator


def test_pi_pulse_at_offset_tone_has_only_hold_error():
    # At a 24 MHz offset the zero-order hold shrinks the effective Rabi
    # rate by sinc(pi f dt); the flip stays complete to ~(pi^2 f dt)^2.
    m = model()
    n = 500
    wf = resonant_waveform(24e6, 0.5, n)
    out = evolve(QuantumState.ground(), wf, m, LO)
    assert out.p_up(1) == pytest.approx(1.0, abs=1e-5)


def test_rabi_formula_on_resonance_at_lo():
    # Qubit exactly at the LO: zero-order-hold drive is exact there.
    m = model(f1=LO, f2=LO - 90e6)
    f_r = 1e6
    for n in (125, 250, 375, 500, 1333):
        wf = resonant_waveform(0.0, 0.5, n)
        out = evolve(QuantumState.ground(), wf, m, LO)
        assert out.p_up(1) == pytest.approx(
            float(rabi_probability(n / FS, f_r)), abs=1e-6
        )


def test_detuned_drive_reaches_half():
    m = model(f1=LO + 1e6, f2=LO - 90e6)  # detuning equals the Rabi rate
    f_gen = np.hypot(1e6, 1e6)
    n = int(round(1 / (2 * f_gen) * FS))  # half a generalized period
    wf = resonant_waveform(0.0, 0.5, n)
    out = evolve(QuantumState.ground(), wf, m, LO)
    assert out.p_up(1) == pytest.approx(0.5, abs=1e-3)
    assert float(rabi_probability(n / FS, 1e6, detuning=1e6)) == pytest.approx(0.5, abs=1e-4)


def test_norm_preserved_through_long_evolution():
    m = model(j_off=0.3e6)
    rng = np.random.default_rng(5)
    z = 0.3 * (rng.random(20000) - 0.5) + 0.2j * rng.random(20000)
    wf = BasebandWaveform(sample_rate=FS, i=np.imag(z), q=np.real(z))
    out = evolve(QuantumState.ground(), wf, m, LO, exchange_on=False)
    assert abs(out.norm() - 1.0) < 1e-12


def test_j_zero_factorizes_to_two_level_oracle():
    m = model()
    n = 731
    wf = resonant_waveform(24e6, 0.4, n)
    out = evolve(QuantumState.ground(), wf, m, LO)
    u1 = two_level_evolve(wf.envelope, 24e6, m.drive_coupling[0], 1 / FS)
    u2 = two_level_evolve(wf.envelope, -90e6, m.drive_coupling[1], 1 / FS)
    psi = np.kron(u1 @ [1, 0], u2 @ [1, 0])
    assert np.max(np.abs(out.amplitudes - psi)) < 1e-9


def test_gauge_invariance_under_lo_shift():
    # Shift the LO by k phase LSBs and the tone by -k words: same physics.
    m = model()
    df = FS / (1 << 22)  # one tuning-word LSB
    n = 1000
    wf_a = resonant_waveform(24e6, 0.5, n)
    wf_b = resonant_waveform(24e6 - df, 0.5, n)
    out_a = evolve(QuantumState.ground(), wf_a, m, LO)
    out_b = evolve(QuantumState.ground(), wf_b, m, LO + df)
    assert abs(out_a.p_up(1) - out_b.p_up(1)) < 1e-9
    assert abs(out_a.p_up(2) - out_b.p_up(2)) < 1e-9


def test_conditional_selectivity():
    # J / f_rabi = 50: a pi burst at f1 + J/2 flips Q1 only when Q2 is up.
    m = model(j_on=10e6, drive_coupling=(2e6, 2e6))
    f_r = 0.2e6
    amp = f_r / m.drive_coupling[0]
    n = int(round(1 / (2 * f_r) * FS))
    wf = resonant_waveform(24e6 + 5e6, amp, n)
    hit = evolve(QuantumState.basis(0, 1), wf, m, LO, exchange_on=True)
    miss = evolve(QuantumState.ground(), wf, m, LO, exchange_on=True)
    assert hit.p_up(1) > 0.999
    assert miss.p_up(1) < 0.01


def test_quasistatic_detuning_changes_outcome():
    m = model(sigma_detune=50e3)
    wf = resonant_waveform(24e6, 0.5, 500)
    clean = evolve(QuantumState.ground(), wf, m, LO)
    noisy = evolve(
        QuantumState.ground(), wf, m, LO, noise=NoiseSample(delta_f1=50e3)
    )
    assert clean.p_up(1) != pytest.approx(noisy.p_up(1), abs=1e-6)


# --- structured engine vs dense engine ---------------------------------------


def executed(image, cfg, ftws):
    trace = Transmitter(cfg, ftws=ftws).play([image])
    return synthesize(trace, cfg), trace


def burst_image(cfg, amp, n, gap=0, phase_update=None):
    img = MemoryImage()
    img.envelope.amp_bits = cfg.amp_bits
    img.envelope.phase_mod_bits = cfg.phase_mod_bits
    img.envelope.write_values(np.full(n, amp))
    z0, z1 = (None, None)
    if gap:
        z0, z1 = img.envelope.write_values(np.zeros(gap))
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=n - 1))
    slots = [0]
    if phase_update is not None:
        img.add_instruction(0, 0, Instruction(0, phase_update=phase_update))
        slots.append(1)
    if gap:
        img.add_instruction(0, 0, Instruction(0, start_addr=z0, stop_addr=z1))
        slots.append(len(img.tables[0][0]) - 1)
    for s in slots:
        img.schedule(0, 0, s)
    img.schedule(0, 0, 0)  # second burst
    return img


def test_trace_engine_matches_dense_engine():
    # High-resolution converters so DAC requantization is negligible.
    cfg = TxConfig(dac_bits=26, amp_bits=22, pac_addr_bits=22, lo_freq=LO)
    m = model()
    ftw = offset_to_ftw(24e6)
    img = burst_image(cfg, 0.5, 250, gap=137, phase_update=1 << 20)
    wf, trace = executed(img, cfg, {(0, 0): ftw})
    dense = evolve(QuantumState.ground(), wf, m, LO)
    fast = evolve_trace(QuantumState.ground(), trace, m, LO)
    assert np.max(np.abs(dense.amplitudes - fast.amplitudes)) < 1e-6


def test_trace_engine_matches_dense_with_noise_and_exchange():
    cfg = TxConfig(dac_bits=26, amp_bits=22, pac_addr_bits=22, lo_freq=LO)
    m = model()
    noise = NoiseSample(delta_f1=30e3, delta_f2=-12e3, delta_j=5e3)
    ftw = offset_to_ftw(24e6 + 5e6)
    img = burst_image(cfg, 0.25, 400, gap=49)
    wf, trace = executed(img, cfg, {(0, 0): ftw})
    dense = evolve(QuantumState.basis(0, 1), wf, m, LO, exchange_on=True, noise=noise)
    fast = evolve_trace(
        QuantumState.basis(0, 1), trace, m, LO, exchange_on=True, noise=noise
    )
    assert np.max(np.abs(dense.amplitudes - fast.amplitudes)) < 1e-6


def test_trace_engine_batches_noise_draws():
    cfg = TxConfig(dac_bits=26, amp_bits=22, pac_addr_bits=22, lo_freq=LO)
    m = model()
    ftw = offset_to_ftw(24e6)
    img = burst_image(cfg, 0.5, 300)
    _, trace = executed(img, cfg, {(0, 0): ftw})
    deltas = np.array([0.0, 20e3, -40e3])
    batch = trace_propagators(trace, m, LO, noise=NoiseSample(delta_f1=deltas))
    assert batch.shape == (3, 4, 4)
    for u, d in zip(batch, deltas):
        single = evolve_trace(QuantumState.ground(), trace, m, LO, noise=NoiseSample(delta_f1=d))
        assert np.max(np.abs(u @ QuantumState.ground().amplitudes - single.amplitudes)) < 1e-12


def test_dense_engine_batches_noise_draws():
    # Three draws over 1500 samples span several generator blocks; one
    # draw at a time spans one, so the products also differ in grouping.
    m = model()
    wf = resonant_waveform(24e6, 0.5, 1500)
    noise = NoiseSample(
        delta_f1=np.array([0.0, 20e3, -40e3]),
        delta_f2=np.array([5e3, 0.0, -5e3]),
        delta_j=np.array([0.0, 1e3, 2e3]),
    )
    batch = dense_propagators(wf, m, LO, exchange_on=True, noise=noise)
    assert batch.shape == (3, 4, 4)
    for u, draw in zip(batch, zip(*noise)):
        single = evolve(QuantumState.ground(), wf, m, LO, exchange_on=True,
                        noise=NoiseSample(*draw))
        assert np.max(np.abs(u @ QuantumState.ground().amplitudes - single.amplitudes)) < 1e-12


def test_trace_engine_rejects_overlapping_banks():
    cfg = TxConfig(lo_freq=LO)
    img = MemoryImage()
    img.envelope.write_values(np.full(100, 0.5))
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=99))
    img.add_instruction(1, 0, Instruction(0, start_addr=0, stop_addr=99))
    img.schedule(0, 0, 0)
    img.schedule(1, 0, 0)
    _, trace = executed(img, cfg, {(0, 0): 1000, (1, 0): 2000})
    with pytest.raises(FastPathUnavailable):
        trace_propagators(trace, model(), LO)


def test_sample_rate_mismatch_rejected():
    wf = resonant_waveform(0, 0.5, 10)
    with pytest.raises(ValueError, match="sampled at"):
        evolve(QuantumState.ground(), wf, model(), LO, expected_sample_rate=2e9)
