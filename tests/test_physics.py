"""Hamiltonian structure, unitary evolution, and engine cross-checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from spinctl.controller.executor import (
    BurstSegment,
    ExecutionTrace,
    Transmitter,
    TxConfig,
    Waveform,
    synthesize,
)
from spinctl.controller.memory import EnvelopeMemory, Instruction, MemoryImage
from spinctl.controller.nco import PHASE_WORDS, offset_to_ftw
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
from spinctl.experiments import Bench, run_allxy, run_qst_trajectory, run_rabi, run_rb
from spinctl.experiments.base import noise_axes, noise_rule
from spinctl.physics.evolve import _expm_batch
from spinctl.physics.hamiltonian import diagonal_energies, drive_operator, generator_batch
from spinctl.physics.state import ROUNDING_PER_FACTOR, renormalized

from helpers import final_state, ordered_product, rb_primitives

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
    return Waveform(z, fs)


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
    wf = Waveform(z, FS)
    out = dense_final(wf, m, LO, exchange_on=False)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_renormalized_removes_rounding_and_raises_on_drift():
    state = np.array([[1.0, 0.0, 0.0, 1e-7]])  # drifts by 5e-15, under 1e-12
    assert np.linalg.norm(renormalized(state, 10)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="drifted by 5e-05 over 10 factors, beyond 1e-12"):
        renormalized(np.array([[1.0, 0.0, 0.0, 0.01]]), 10)


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
    wf = Waveform(z, FS)
    noise = NoiseSample(
        delta_f1=np.array([0.0, 20e3, -40e3]),
        delta_f2=np.array([5e3, 0.0, -5e3]),
        delta_j=np.array([0.0, 1e3, 2e3]),
    )
    energies = diagonal_energies(*detunings(m, LO, True, noise))
    plain = ordered_product(_expm_batch(generator_batch(z, energies, drive_operator(m)), 1 / FS))
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


def test_trace_engine_result_does_not_depend_on_the_constant_flag():
    # A burst not flagged constant goes through the per-sample kernel
    # instead of the matrix power; the physics is the same.
    m = model()
    bench = Bench(m, TxConfig(lo_freq=LO), exchange_on=True)
    trace = bench.run_program(bench.compile(parse_program(
        "x q2\ny q1 shape=gaussian\nz q2 angle=pi/3\nx2 q2\ncrot_high q1\n")))
    assert {s.constant for s in trace.segments} == {True, False}
    unflagged = dataclasses.replace(
        trace, segments=[dataclasses.replace(s, constant=False) for s in trace.segments])
    physics = dict(exchange_on=True, noise=THREE_DRAWS)
    fast = trace_propagators(trace, m, LO, **physics)
    assert np.max(np.abs(trace_propagators(unflagged, m, LO, **physics) - fast)) < 1e-9


# --- the trace engine's fold of burst clusters ---------------------------------


def sequential_propagators(trace, m, lo, exchange_on=False, noise=NoiseSample()):
    """Reference for the trace engine, one factor at a time in time order:
    each gap, each lone constant burst's matrix power conjugated into its
    phase frame, and the per-sample product of every other cluster (a shaped
    burst, or overlapping bursts with their idealized samples summed)."""
    energies = np.atleast_2d(diagonal_energies(*detunings(m, lo, exchange_on, noise)))
    drive, dt, bits = drive_operator(m), 1 / trace.sample_rate, trace.phase_mod_bits

    def p(words):  # diagonal of P(phi) = exp(-i phi NUMBER_OP) at phase words
        return np.exp(-2j * np.pi * np.asarray(words, dtype=float)[..., None] / PHASE_WORDS
                      * np.array([0.0, 1.0, 1.0, 2.0]))

    def gap(n):
        return np.exp(-2j * np.pi * dt * n * energies)[:, :, None]

    total = np.array([np.eye(4, dtype=complex)] * len(energies))
    bursts = sorted((s for s in trace.segments if np.any(s.amp_values)), key=lambda s: s.t0)
    t = trace.start
    while bursts:
        cluster = [bursts.pop(0)]
        end = cluster[0].t_end
        while bursts and bursts[0].t0 < end:
            cluster.append(bursts.pop(0))
            end = max(end, cluster[-1].t_end)
        start, seg = cluster[0].t0, cluster[0]
        total = gap(start - t) * total
        if len(cluster) == 1 and len(set(seg.amp_values)) == len(set(seg.phase_codes)) == 1:
            # P(phi_n) (E P(-2 pi ftw / W))^(n - 1) E P(phi_1)^dagger
            e = _expm_batch(generator_batch(seg.amp_values[:1], energies, drive)[0], dt)
            first, last = seg.phase_words(bits)[[0, -1]]
            power = np.linalg.matrix_power(e * np.conj(p(seg.ftw)), seg.n - 1) @ e
            factor = p(last)[:, None] * power * np.conj(p(first))
        else:
            z = np.zeros(end - start, dtype=complex)
            for s in cluster:
                z[s.t0 - start : s.t_end - start] += s.amp_values * np.exp(
                    2j * np.pi * s.phase_words(bits) / PHASE_WORDS)
            factor = ordered_product(_expm_batch(generator_batch(z, energies, drive), dt))
        total = factor @ total
        t = end
    return gap(trace.end - t) * total


def noise_rows(r, seed=0):
    rng = np.random.default_rng(seed)
    return NoiseSample(*(rng.normal(0.0, 40e3, r) for _ in range(3)))


def lone_constant_bursts(trace):
    bursts = [s for s in trace.segments if np.any(s.amp_values)]
    return [s for s in bursts if s.constant and not any(
        o is not s and o.t0 < s.t_end and s.t0 < o.t_end for o in bursts)]


@pytest.mark.parametrize("n_cliffords, rows", [(150, 8), (12, evolve._CHUNK // 16 + 2)])
def test_fold_matches_a_sequential_product_across_chunks(n_cliffords, rows):
    # A chunk gathers _ENTRIES complex entries, 16 per burst and row: at 8
    # rows it folds 64 bursts, so the 150-Clifford sequence (282 lone
    # bursts) needs five chunks; at 130 rows a chunk holds three bursts.
    bench = Bench(model(), TxConfig(lo_freq=LO))
    trace = bench.run_program(bench.compile([GateOp(g, 2) for g in rb_primitives(n_cliffords, 4)]))
    per_chunk = max(1, evolve._ENTRIES // 16 // rows)
    assert len(lone_constant_bursts(trace)) > 2 * per_chunk
    noise = noise_rows(rows)
    fast = trace_propagators(trace, bench.model, LO, noise=noise)
    assert np.allclose(fast, sequential_propagators(trace, bench.model, LO, noise=noise),
                       rtol=0, atol=1e-12)


def test_fold_matches_a_sequential_product_around_kernel_clusters(monkeypatch):
    # Runs of constant bursts, with and without idle gaps before them and
    # with a zero-amplitude pad, are cut by a gaussian burst and by two
    # overlapping constant bursts on both banks; the trace ends in a gap.
    # Chunks of 1600 entries hold two clusters at 50 rows, so every run
    # crosses a chunk boundary, and each kernel cluster folds two samples a
    # chunk, so its frame telescopes across hundreds of chunk boundaries.
    monkeypatch.setattr(evolve, "_ENTRIES", 2 * 16 * 50)
    rng = np.random.default_rng(7)
    ftws = (offset_to_ftw(24e6), offset_to_ftw(-90e6), offset_to_ftw(19e6))
    gauss = np.exp(-0.5 * ((np.arange(200) - 99.5) / 40) ** 2)
    t, segments = 1000, []

    def play(n, amp, bank=0, ftw=ftws[0], idle=0, shape=None, at=None):
        nonlocal t
        t0 = t + idle if at is None else at
        amps = np.full(n, amp) if shape is None else amp * shape
        codes = np.full(n, rng.integers(0, 1024)) if shape is None else rng.integers(0, 1024, n)
        segments.append(BurstSegment(bank, 0, t0, n, ftw, int(rng.integers(0, PHASE_WORDS)),
                                     amps, codes, constant=shape is None))
        t = max(t, t0 + n)

    def overlap(idle):  # two constant bursts on both banks, one cluster
        start = t + idle
        play(300, 0.3, at=start)
        play(300, 0.35, bank=1, ftw=ftws[1], at=start + 120)

    m, noise = model(), noise_rows(50, seed=1)

    def check(trace, n_lone, n_kernel):
        ends = []  # of each cluster of overlapping bursts
        for s in sorted((s for s in trace.segments if np.any(s.amp_values)), key=lambda s: s.t0):
            if ends and s.t0 < ends[-1]:
                ends[-1] = max(ends[-1], s.t_end)
            else:
                ends.append(s.t_end)
        assert len(lone_constant_bursts(trace)) == n_lone and len(ends) - n_lone == n_kernel
        fast = trace_propagators(trace, m, LO, exchange_on=True, noise=noise)
        reference = sequential_propagators(trace, m, LO, exchange_on=True, noise=noise)
        assert np.allclose(fast, reference, rtol=0, atol=1e-12)

    run = [(250, 0.5, 0), (125, 0.5, 13), (250, 0.5, 0), (250, 0.5, 40), (125, 0.5, 0)]
    for n, amp, idle in run:
        play(n, amp, idle=idle)
    play(60, 0.0)  # an idle pad
    play(200, 0.4, shape=gauss, idle=7)
    for n, amp, idle in run[:3]:
        play(n, amp, ftw=ftws[2], idle=idle)
    overlap(11)  # overlaps the burst before
    for n, amp, idle in run[1:4]:
        play(n, amp, idle=idle)
    check(ExecutionTrace(segments, 1000, t + 77, 10, FS), 11, 2)

    # Kernel clusters that start chunks (clusters 0, 4 and 6) and end one
    # (cluster 3), the first one with no gap or total before it.
    t, segments = 1000, []
    play(200, 0.4, shape=gauss)
    play(250, 0.5, idle=5)
    play(125, 0.5)
    play(200, 0.3, shape=gauss, ftw=ftws[2], idle=9)
    play(200, 0.4, shape=gauss, bank=1, ftw=ftws[1])
    play(250, 0.5, idle=3)
    overlap(0)
    play(125, 0.5, idle=21)
    check(ExecutionTrace(segments, 1000, t, 10, FS), 4, 4)

    # Kernel clusters only, across three chunks.
    t, segments = 1000, []
    for k in range(3):
        play(200, 0.4, shape=gauss, idle=17 * k)
        overlap(k)
    check(ExecutionTrace(segments, 1000, t + 5, 10, FS), 0, 6)

    # No active burst: the product is the idle gap alone.
    t, segments = 1000, []
    play(60, 0.0, idle=30)
    check(ExecutionTrace(segments, 900, t + 40, 10, FS), 0, 0)
    check(ExecutionTrace([], 900, 900, 10, FS), 0, 0)


# --- exchange off: each spin evolved as a 2x2 ---------------------------------


def per_sample_product(z, m, lo, noise=NoiseSample(), exchange_on=False, dt=1 / FS):
    """The 4x4 oracle: one generator and one eigh exponential per sample and
    row, multiplied in order; the identity for an empty envelope."""
    energies = np.atleast_2d(diagonal_energies(*detunings(m, lo, exchange_on, noise)))
    if len(z) == 0:
        return np.array([np.eye(4, dtype=complex)] * len(energies))
    return ordered_product(_expm_batch(generator_batch(np.asarray(z), energies,
                                                       drive_operator(m)), dt))


@pytest.fixture
def paths(monkeypatch):
    """Exponential sets made on each kernel path: "spins" (two 2x2) and
    "matrix" (one 4x4)."""
    calls = {"spins": 0, "matrix": 0}
    for name, exponentials in (("spins", evolve._spin_exponentials),
                               ("matrix", evolve._matrix_exponentials)):
        def counting(*args, _name=name, _exponentials=exponentials):
            calls[_name] += 1
            return _exponentials(*args)

        monkeypatch.setattr(evolve, exponentials.__name__, counting)
    return calls


def rule_rows(bench, n):
    """The noise rows of ``Bench.sample``'s n-node rule on ``bench``."""
    return noise_rule(noise_axes(bench.model, bench.exchange_on), n)[0]


def test_runner_programs_at_j_zero_match_the_4x4_oracle_on_both_engines(monkeypatch, paths):
    # Every trace that Rabi (one qubit and both at once, t = 0 included),
    # AllXY, RB and QST play on a noisy exchange-off bench, plus gaussian
    # bursts, evolved over the 3- and 5-node rows.  The dense engine takes
    # the spin path on each; the trace engine on its kernel clusters (both
    # banks at once in simultaneous Rabi, the gaussian bursts).
    traces = []
    run_program = Bench.run_program

    def recording(self, prog):
        traces.append(run_program(self, prog))
        return traces[-1]

    monkeypatch.setattr(Bench, "run_program", recording)
    bench = Bench(model(sigma_detune=50e3), TxConfig(lo_freq=LO))
    run_rabi(bench, [0.0, 0.3e-6], shots=10)
    run_rabi(bench, [0.4e-6], simultaneous=True, shots=10)
    run_allxy(bench, shots=10)
    run_rb(bench, (1, 3), n_sequences=1, repetitions=10)
    run_qst_trajectory(bench, [0.2e-6], shots=10)
    bench.sample(bench.compile(parse_program(
        "x2 q2\nx q2 shape=gaussian\nz q2 angle=pi/3\ny q1 shape=gaussian\n")), (1, 2), 10,
        np.random.default_rng(0))
    assert len(traces) == 2 + 1 + 21 + 2 + 4 + 1
    assert traces[0].n_samples == 0  # Rabi at t = 0 plays nothing
    noise = NoiseSample(*(np.concatenate(pair) for pair in zip(rule_rows(bench, 3),
                                                               rule_rows(bench, 5))))
    m, with_clusters = bench.model, 0
    for trace in traces:
        paths.update(spins=0, matrix=0)
        wf = synthesize(trace, bench.cfg)
        dense = dense_propagators(wf, m, LO, noise=noise)
        assert dense.shape == (8, 4, 4) and paths["matrix"] == 0
        assert paths["spins"] >= (wf.envelope.size > 0)  # more if the levels split
        assert np.max(np.abs(dense - per_sample_product(wf.envelope, m, LO, noise))) < 1e-12
        paths.update(spins=0)
        fast = trace_propagators(trace, m, LO, noise=noise)
        active = [s for s in trace.segments if np.any(s.amp_values)]
        kernel = len(lone_constant_bursts(trace)) < len(active)
        assert paths["matrix"] == 0 and (paths["spins"] > 0) == kernel
        with_clusters += kernel
        reference = sequential_propagators(trace, m, LO, noise=noise)
        assert np.max(np.abs(fast - reference)) < 1e-12
    assert with_clusters == 2  # simultaneous Rabi and the gaussian bursts


def test_spin_path_edge_cases_match_the_4x4_oracle(paths):
    # Unequal couplings, so a spin given the other's coupling shows.
    m, rng = model(drive_coupling=(2.3e6, 1.7e6)), np.random.default_rng(3)
    x = np.linspace(-3.0, 3.0, 65)
    three = NoiseSample(np.array([0.0, 20e3, -40e3]), np.array([5e3, 0.0, -5e3]))
    z = 0.4 * (rng.random(2500) - 0.5) + 0.3j * (rng.random(2500) - 0.5)
    assert len(np.unique(np.abs(z))) > evolve._CHUNK  # the kernel splits the envelope
    bench = Bench(m, TxConfig(lo_freq=LO))
    pair = synthesize(bench.run_program(bench.compile([GateOp("x", 2), GateOp("y2", 2)])),
                      bench.cfg).envelope
    cases = [
        (np.zeros(0, dtype=complex), three),
        (np.array([0.3 - 0.1j]), three),
        (z, three),
        (pair, NoiseSample(40e3 * x, 40e3 * x)),  # the 65-node rule
    ]
    for envelope, noise in cases:
        got = dense_propagators(Waveform(envelope, FS), m, LO, noise=noise)
        assert got.shape == (len(noise[0]), 4, 4)
        assert np.max(np.abs(got - per_sample_product(envelope, m, LO, noise))) < 1e-12
    assert paths["matrix"] == 0 and paths["spins"] >= len(cases)
    assert np.array_equal(dense_propagators(Waveform(np.zeros(0), FS), m, LO, noise=three),
                          np.array([np.eye(4)] * 3))


def test_spin_path_over_a_long_envelope_matches_the_4x4_oracle_to_rounding(paths):
    # 20,000 samples of 26 levels take 59 chunks at 3 rows.  Both products
    # round at about 1e-16 a factor and the same levels recur, so rounding
    # adds up coherently: against a long-double product of the same factors
    # the spin path is 1.9e-12 off and the oracle 5.8e-12, both beyond 1e-12.
    # The bound is the norm policy's rounding allowance per factor.
    m, rng = model(), np.random.default_rng(5)
    z = np.round((0.3 * (rng.random(20_000) - 0.5) + 0.2j * rng.random(20_000)) * 32) / 32
    noise = NoiseSample(np.array([0.0, 30e3, -30e3]), np.array([0.0, 30e3, -30e3]))
    got = dense_propagators(Waveform(z, FS), m, LO, noise=noise)
    assert paths == dict(spins=1, matrix=0)
    error = np.max(np.abs(got - per_sample_product(z, m, LO, noise)))
    assert error < len(z) * ROUNDING_PER_FACTOR


@pytest.mark.parametrize("entries", [1, 200, evolve._ENTRIES])
@pytest.mark.parametrize("exchange_on", [False, True])
def test_kernel_products_match_the_4x4_oracle_at_any_chunk_size(monkeypatch, paths, entries,
                                                               exchange_on):
    # One sample a chunk, a few, and the default: the telescoped frame
    # carries each chunk's last phase into the next, so the chunk rule
    # never shows in the product, on either block structure.
    monkeypatch.setattr(evolve, "_ENTRIES", entries)
    m, rng = model(), np.random.default_rng(9)
    z = np.round((0.3 * (rng.random(700) - 0.5) + 0.2j * rng.random(700)) * 16) / 16
    z[100:160] = 0.0  # an idle stretch: angle 0 inside the envelope
    noise = NoiseSample(*(np.array([0.0, 30e3, -30e3]) for _ in range(2)))
    got = dense_propagators(Waveform(z, FS), m, LO, exchange_on=exchange_on, noise=noise)
    assert paths == dict(spins=int(not exchange_on), matrix=int(exchange_on))
    oracle = per_sample_product(z, m, LO, noise, exchange_on=exchange_on)
    assert np.max(np.abs(got - oracle)) < 1e-12


@pytest.mark.parametrize("case", ["j_off", "exchange_on", "sigma_j"])
def test_any_row_with_exchange_takes_the_4x4_path(paths, case):
    # sigma_j > 0: only the quadrature's centre node has delta_j = 0, so the
    # call's rows are not all separable.
    bench = {"j_off": Bench(model(j_off=0.3e6, sigma_detune=50e3), TxConfig(lo_freq=LO)),
             "exchange_on": Bench(model(sigma_detune=50e3), TxConfig(lo_freq=LO), exchange_on=True),
             "sigma_j": Bench(model(sigma_detune=50e3, sigma_j=20e3), TxConfig(lo_freq=LO))}[case]
    prog = bench.compile([GateOp("x", 2, shape="gaussian"), GateOp("y2", 1)])
    for engine in ("dense", "trace"):
        paths.update(spins=0, matrix=0)
        bench.sample(prog, (1, 2), 100, np.random.default_rng(0), engine=engine)
        assert paths["spins"] == 0 and paths["matrix"] > 0
    if case == "sigma_j":
        # The centre node's rows alone (delta_j = sigma_j x 0, zero to
        # rounding) meet E(11) = E(01) + E(10) exactly and take the spin path.
        rows = rule_rows(bench, 3)
        centre = np.abs(rows[2]) < 1e-6
        assert 0 < centre.sum() < len(centre)
        centre_rows = NoiseSample(*(r[centre] for r in rows))
        e = diagonal_energies(*detunings(bench.model, LO, False, centre_rows))
        assert np.array_equal(e[:, 3], e[:, 1] + e[:, 2])
        paths.update(spins=0, matrix=0)
        wf = synthesize(bench.run_program(prog), bench.cfg)
        dense_propagators(wf, bench.model, LO, noise=centre_rows)
        assert paths["spins"] > 0 and paths["matrix"] == 0


def test_spin_path_transients_do_not_grow_with_the_envelope():
    # 65 rows, the finest rule: a chunk holds 15 samples on the spin path
    # and 7 on the 4x4 path.  Only per-sample arrays (np.unique's, and the
    # phase steps) grow with the envelope, on either path, and the spin
    # path stays within the 4x4 path's peak on the same samples.
    m, rng = model(), np.random.default_rng(1)
    x = np.linspace(-3.0, 3.0, 65)
    drive = drive_operator(m)
    separable = np.atleast_2d(diagonal_energies(*detunings(
        m, LO, False, NoiseSample(40e3 * x, 40e3 * x))))
    coupled = np.atleast_2d(diagonal_energies(*detunings(
        m, LO, False, NoiseSample(40e3 * x, 40e3 * x, 1e3 * x))))
    z = np.round((0.3 * (rng.random(20_000) - 0.5) + 0.2j * rng.random(20_000)) * 8) / 8
    amp, phi = np.abs(z), np.angle(z)

    def peak(n, energies):
        tracemalloc.start()
        try:
            evolve._sampled_product(amp[:n], phi[:n], energies, drive, 1 / FS)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(2_000, separable), peak(20_000, separable)
    assert long - short <= 18_000 * 48
    coupled_short, coupled_long = peak(2_000, coupled), peak(20_000, coupled)
    assert coupled_long - coupled_short <= 18_000 * 48
    assert long <= coupled_long
