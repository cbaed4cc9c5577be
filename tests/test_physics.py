"""Hamiltonian structure, unitary evolution, and engine cross-checks."""

import numpy as np
import pytest

from spinctl.controller.executor import (
    BasebandWaveform,
    Transmitter,
    TxConfig,
    synthesize,
)
from spinctl.controller.memory import EnvelopeMemory, Instruction, MemoryImage
from spinctl.controller.nco import offset_to_ftw
from spinctl.physics import (
    DeviceModel,
    NoiseSample,
    born_probabilities,
    dense_propagators,
    detunings,
    rabi_probability,
    trace_propagators,
    transition_frequencies,
    two_level_evolve,
)
import spinctl.physics.evolve as evolve
from spinctl.compiler import GateOp, parse_program
from spinctl.experiments import Bench
from spinctl.physics.evolve import _expm_batch, _ordered_product
from spinctl.physics.hamiltonian import diagonal_energies, drive_operator, generator_batch

from helpers import final_state, rb_primitives

LO = 13.54e9
FS = 1e9


def model(**kw):
    kw.setdefault("f1", LO + 24e6)
    kw.setdefault("f2", LO - 90e6)
    kw.setdefault("j_on", 10e6)
    kw.setdefault("drive_coupling", (2e6, 2e6))
    return DeviceModel(**kw)


def dense_final(wf, m, lo, k=0, **kw):
    """Dense-engine amplitudes after ``wf`` from basis state ``k``."""
    return final_state(dense_propagators(wf, m, lo, **kw), len(wf), k)


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
    energies = diagonal_energies(*detunings(m, LO, True))[None]
    h = generator_batch(np.zeros(1), energies, drive_operator(m))[0, 0]
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
    p1, p2 = born_probabilities(dense_final(wf, m, LO))
    assert p1 == pytest.approx(1.0, abs=1e-6)
    assert p2 == pytest.approx(0.0, abs=1e-4)  # far off-resonant spectator


def test_pi_pulse_at_offset_tone_has_only_hold_error():
    # At a 24 MHz offset the zero-order hold shrinks the effective Rabi
    # rate by sinc(pi f dt); the flip stays complete to ~(pi^2 f dt)^2.
    m = model()
    n = 500
    wf = resonant_waveform(24e6, 0.5, n)
    p1, _ = born_probabilities(dense_final(wf, m, LO))
    assert p1 == pytest.approx(1.0, abs=1e-5)


def test_rabi_formula_on_resonance_at_lo():
    # Qubit exactly at the LO: zero-order-hold drive is exact there.
    m = model(f1=LO, f2=LO - 90e6)
    f_r = 1e6
    for n in (125, 250, 375, 500, 1333):
        wf = resonant_waveform(0.0, 0.5, n)
        p1, _ = born_probabilities(dense_final(wf, m, LO))
        assert p1 == pytest.approx(
            float(rabi_probability(n / FS, f_r)), abs=1e-6
        )


def test_detuned_drive_reaches_half():
    m = model(f1=LO + 1e6, f2=LO - 90e6)  # detuning equals the Rabi rate
    f_gen = np.hypot(1e6, 1e6)
    n = int(round(1 / (2 * f_gen) * FS))  # half a generalized period
    wf = resonant_waveform(0.0, 0.5, n)
    p1, _ = born_probabilities(dense_final(wf, m, LO))
    assert p1 == pytest.approx(0.5, abs=1e-3)
    assert float(rabi_probability(n / FS, 1e6, detuning=1e6)) == pytest.approx(0.5, abs=1e-4)


def test_norm_preserved_through_long_evolution():
    m = model(j_off=0.3e6)
    rng = np.random.default_rng(5)
    z = 0.3 * (rng.random(20000) - 0.5) + 0.2j * rng.random(20000)
    wf = BasebandWaveform(sample_rate=FS, i=np.imag(z), q=np.real(z))
    out = dense_final(wf, m, LO, exchange_on=False)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_j_zero_factorizes_to_two_level_oracle():
    m = model()
    n = 731
    wf = resonant_waveform(24e6, 0.4, n)
    out = dense_final(wf, m, LO)
    u1 = two_level_evolve(wf.envelope, 24e6, m.drive_coupling[0], 1 / FS)
    u2 = two_level_evolve(wf.envelope, -90e6, m.drive_coupling[1], 1 / FS)
    psi = np.kron(u1 @ [1, 0], u2 @ [1, 0])
    assert np.max(np.abs(out - psi)) < 1e-9


def test_gauge_invariance_under_lo_shift():
    # Shift the LO by k phase LSBs and the tone by -k words: same physics.
    m = model()
    df = FS / (1 << 22)  # one tuning-word LSB
    n = 1000
    wf_a = resonant_waveform(24e6, 0.5, n)
    wf_b = resonant_waveform(24e6 - df, 0.5, n)
    p_a = born_probabilities(dense_final(wf_a, m, LO))
    p_b = born_probabilities(dense_final(wf_b, m, LO + df))
    assert abs(p_a[0] - p_b[0]) < 1e-9
    assert abs(p_a[1] - p_b[1]) < 1e-9


def test_conditional_selectivity():
    # J / f_rabi = 50: a pi burst at f1 + J/2 flips Q1 only when Q2 is up.
    m = model(j_on=10e6, drive_coupling=(2e6, 2e6))
    f_r = 0.2e6
    amp = f_r / m.drive_coupling[0]
    n = int(round(1 / (2 * f_r) * FS))
    wf = resonant_waveform(24e6 + 5e6, amp, n)
    hit, _ = born_probabilities(dense_final(wf, m, LO, k=1, exchange_on=True))  # from |01>
    miss, _ = born_probabilities(dense_final(wf, m, LO, exchange_on=True))
    assert hit > 0.999
    assert miss < 0.01


def test_quasistatic_detuning_changes_outcome():
    m = model(sigma_detune=50e3)
    wf = resonant_waveform(24e6, 0.5, 500)
    clean, _ = born_probabilities(dense_final(wf, m, LO))
    noisy, _ = born_probabilities(dense_final(wf, m, LO, noise=NoiseSample(delta_f1=50e3)))
    assert clean != pytest.approx(noisy, abs=1e-6)


# --- structured engine vs dense engine ---------------------------------------


def executed(image, cfg, ftws):
    trace = Transmitter(cfg, ftws=ftws).play([image])
    return synthesize(trace, cfg), trace


def burst_image(cfg, amp, n, gap=0, phase_update=None):
    img = MemoryImage(EnvelopeMemory(cfg.amp_bits, cfg.phase_mod_bits))
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
    dense = dense_final(wf, m, LO)
    fast = final_state(trace_propagators(trace, m, LO), trace.n_samples)
    assert np.max(np.abs(dense - fast)) < 1e-6


def test_trace_engine_matches_dense_with_noise_and_exchange():
    cfg = TxConfig(dac_bits=26, amp_bits=22, pac_addr_bits=22, lo_freq=LO)
    m = model()
    noise = NoiseSample(delta_f1=30e3, delta_f2=-12e3, delta_j=5e3)
    ftw = offset_to_ftw(24e6 + 5e6)
    img = burst_image(cfg, 0.25, 400, gap=49)
    wf, trace = executed(img, cfg, {(0, 0): ftw})
    physics = dict(exchange_on=True, noise=noise)
    dense = dense_final(wf, m, LO, k=1, **physics)  # from |01>
    fast = final_state(trace_propagators(trace, m, LO, **physics), trace.n_samples, k=1)
    assert np.max(np.abs(dense - fast)) < 1e-6


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
        single = trace_propagators(trace, m, LO, noise=NoiseSample(delta_f1=d))[0]
        assert np.max(np.abs(u - single)) < 1e-12


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
        single = dense_propagators(wf, m, LO, exchange_on=True, noise=NoiseSample(*draw))[0]
        assert np.max(np.abs(u - single)) < 1e-12


def test_dense_engine_matches_plain_per_sample_product():
    # Reference formulation: one generator and one exponential per sample
    # and draw, multiplied in order.  2500 distinct amplitudes exceed _CHUNK,
    # so the kernel splits the envelope, and then takes one draw at a time.
    m = model()
    rng = np.random.default_rng(11)
    z = 0.4 * (rng.random(2500) - 0.5) + 0.3j * (rng.random(2500) - 0.5)
    wf = BasebandWaveform(sample_rate=FS, i=np.imag(z), q=np.real(z))
    noise = NoiseSample(
        delta_f1=np.array([0.0, 20e3, -40e3]),
        delta_f2=np.array([5e3, 0.0, -5e3]),
        delta_j=np.array([0.0, 1e3, 2e3]),
    )
    energies = diagonal_energies(*detunings(m, LO, True, noise))
    plain = _ordered_product(_expm_batch(generator_batch(z, energies, drive_operator(m)), 1 / FS))
    kernel = dense_propagators(wf, m, LO, exchange_on=True, noise=noise)
    assert np.max(np.abs(kernel - plain)) < 1e-12


def test_trace_engine_matches_dense_on_overlapping_banks():
    # Bank 0 drives qubit 1 while bank 1, after a zero-amplitude pad, drives
    # qubit 2, each at its lower conditional line: the bursts overlap in part
    # and the trace engine sums them.
    cfg = TxConfig(dac_bits=26, amp_bits=22, pac_addr_bits=22, lo_freq=LO)
    m = model()
    img = MemoryImage(EnvelopeMemory(cfg.amp_bits, cfg.phase_mod_bits))
    img.envelope.write_values(np.full(600, 0.4))
    img.envelope.write_values(np.zeros(200))
    img.add_instruction(0, 0, Instruction(0, start_addr=0, stop_addr=499))
    img.add_instruction(1, 0, Instruction(0, start_addr=600, stop_addr=799))
    img.add_instruction(1, 0, Instruction(0, start_addr=0, stop_addr=599))
    img.schedule(0, 0, 0)
    img.schedule(1, 0, 0)
    img.schedule(1, 0, 1)
    ftws = {(0, 0): offset_to_ftw(24e6 - 5e6), (1, 0): offset_to_ftw(-90e6 - 5e6)}
    wf, trace = executed(img, cfg, ftws)
    assert trace.segments[0].t_end > trace.segments[2].t0  # the banks overlap
    fast = trace_propagators(trace, m, LO, exchange_on=True)
    for k in range(4):
        dense = dense_final(wf, m, LO, k=k, exchange_on=True)
        assert np.max(np.abs(dense - final_state(fast, trace.n_samples, k))) < 1e-6


THREE_DRAWS = NoiseSample(
    delta_f1=np.array([0.0, 30e3, -20e3]),
    delta_f2=np.array([-12e3, 0.0, 40e3]),
    delta_j=np.array([0.0, 5e3, -3e3]),
)


@pytest.mark.parametrize("exchange_on", [False, True])
def test_trace_engine_matches_dense_on_a_recurring_burst(exchange_on):
    # One (amplitude, n, ftw) burst recurs under other reference phases
    # (axis and virtual-z frame) and start times: its shared matrix power
    # must still be conjugated into each burst's own phase frame.
    cfg = TxConfig(dac_bits=26, amp_bits=22, pac_addr_bits=22, lo_freq=LO)
    m = model()
    bench = Bench(m, cfg, exchange_on=exchange_on)
    prog = bench.compile(parse_program(
        "x q2\ny q2\nz q2 angle=pi/3\nx q2\nmx q2\nx2 q2\nx q2\n"))
    trace = bench.run_program(prog)
    x_bursts = [s for s in trace.segments if s.n == trace.segments[0].n
                and s.ftw == trace.segments[0].ftw]
    assert len(x_bursts) == 5  # x, y, x, mx, x: four frames, the last x shares one
    assert len({s.ref_word for s in x_bursts}) == 4
    physics = dict(exchange_on=exchange_on, noise=THREE_DRAWS)
    fast = trace_propagators(trace, m, LO, **physics)
    dense = dense_propagators(synthesize(trace, cfg), m, LO, **physics)
    assert fast.shape == dense.shape == (3, 4, 4)
    assert np.max(np.abs(dense - fast)) < 1e-6


def test_trace_engine_powers_each_distinct_constant_burst_once(monkeypatch):
    calls = []

    def counting(h, dt):
        calls.append(h.shape)
        return _expm_batch(h, dt)

    monkeypatch.setattr(evolve, "_expm_batch", counting)
    bench = Bench(model(), TxConfig(lo_freq=LO))
    trace = bench.run_program(bench.compile([GateOp(g, 2) for g in rb_primitives(20, seed=5)]))
    bursts = [s for s in trace.segments if np.any(s.amp_values)]
    assert all(np.all(s.amp_values == s.amp_values[0]) for s in bursts)  # all constant
    distinct = {(float(s.amp_values[0]), s.n, s.ftw) for s in bursts}
    trace_propagators(trace, bench.model, LO, noise=THREE_DRAWS)
    assert 1 < len(distinct) < len(bursts)
    assert len(calls) == len(distinct)
