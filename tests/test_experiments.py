"""Experiment runners against analytic oracles, plus fixed-seed golden outputs."""

import itertools
import json
import re
import warnings
from functools import reduce

import numpy as np
import pytest
from scipy.optimize import curve_fit

import spinctl.compiler as compiler
from spinctl.compiler import CompiledProgram, default_calibration
from spinctl.compiler.ir import GateOp
from spinctl.compiler.plan import hold_factor
from spinctl.controller import executor
from spinctl.controller.executor import TxConfig, synthesize
from spinctl.errors import ConfigError
from spinctl.experiments import (
    IDEAL_SIGMA_Z,
    Bench,
    locate_peaks,
    run_allxy,
    run_dj,
    run_qst_trajectory,
    run_rabi,
    run_rb,
    run_spectroscopy,
)
from spinctl.experiments.allxy import allxy_oracle
from spinctl.experiments.base import binomial_stderr
from spinctl.experiments.cliffords import (
    DECOMPOSITIONS,
    N_CLIFFORDS,
    PRIMITIVE_PARAMS,
    UNITARIES,
    recovery_index,
)
from spinctl.experiments.rabi import _rabi_image
from spinctl.physics import (
    DeviceModel,
    ReadoutFidelity,
    rotation_for_phase,
    shot_rng,
)

from helpers import (dense_one, evolve_one, final_state, quasi_static_rule, rabi_probability,
                     rb_cliffords, rb_decay, rb_survival)


def plain_bench(**model_kw):
    return Bench(DeviceModel(**model_kw), TxConfig())


def exchange_bench():
    return Bench(DeviceModel(), TxConfig(), exchange_on=True)


def over_rotated_bench(scale=0.9):
    """Calibrated against a model whose coupling is 1/scale too strong, so
    every rotation turns by scale of its intended angle."""
    model = DeviceModel()
    strong = DeviceModel(drive_coupling=tuple(c / scale for c in model.drive_coupling))
    nominal = Bench(model, TxConfig())
    return Bench(model, TxConfig(), plan=nominal.plan,
                 cal=default_calibration(strong, nominal.plan, amp_bits=nominal.cfg.amp_bits))


def rabi_rate(bench, qubit, branch="main"):
    """Calibrated Rabi rate of one of a qubit's slots, with the hold factor."""
    slot = bench.plan.slot(qubit, branch)
    amp = bench.cal.for_slot(slot).amplitude
    coupling = bench.model.drive_coupling[qubit - 1]
    return coupling * amp * hold_factor(slot.offset_hz, bench.cfg.f_clk)


def test_bench_compile_looks_up_compile_program_at_call_time(monkeypatch):
    # perfbench/tracing.py counts compiles by wrapping the package attribute.
    seen = []
    original = compiler.compile_program

    def recording(ops, *args, **kwargs):
        seen.append(ops)
        return original(ops, *args, **kwargs)

    monkeypatch.setattr(compiler, "compile_program", recording)
    ops = [GateOp("x", 2)]
    plain_bench().compile(ops)
    assert seen == [ops]


# --- analytic oracles ----------------------------------------------------------


def test_allxy_reproduces_ideal_pattern():
    res = run_allxy(plain_bench(), shots=100_000, seed=1, engine="trace")
    np.testing.assert_allclose(res.sigma_z, IDEAL_SIGMA_Z, atol=0.02)


def test_allxy_on_qubit_1_undoes_mapping_and_confusion():
    # Qubit 1 is read through the mapping depolarization and then its own
    # confusion matrix; the correction must invert both.
    bench = plain_bench(crot_readout_fidelity=0.9, readout_q1=ReadoutFidelity(0.95, 0.9))
    res = run_allxy(bench, qubit=1, shots=200_000, seed=1, engine="trace")
    np.testing.assert_allclose(res.sigma_z, IDEAL_SIGMA_Z, atol=0.02)


def test_allxy_amplitude_miscalibration_follows_oracle():
    scale = 0.9
    res = run_allxy(over_rotated_bench(scale), shots=100_000, seed=1, engine="trace")
    oracle = allxy_oracle(amplitude_scale=scale)
    np.testing.assert_allclose(allxy_oracle(), IDEAL_SIGMA_Z, atol=1e-12)
    assert np.max(np.abs(oracle - IDEAL_SIGMA_Z)) > 0.4  # the shape is visible
    np.testing.assert_allclose(res.sigma_z, oracle, atol=0.02)


def test_dj_separates_constant_from_balanced_oracles():
    # Crosstalk at J / Rabi = 10 leaves about 0.05 of error on each oracle.
    res = run_dj(exchange_bench(), shots=20_000, seed=0)
    for oracle in ("cnot", "z_cnot"):
        assert res.p_output_one[oracle] == pytest.approx(1.0, abs=0.1)
    for oracle in ("identity", "x2"):
        assert res.p_output_one[oracle] == pytest.approx(0.0, abs=0.1)


def test_dj_on_an_exchange_off_bench_names_the_fix():
    with pytest.raises(ConfigError, match=r"Bench\(\.\.\., exchange_on=True\)"):
        run_dj(plain_bench(), shots=100)


def test_dj_stderr_is_readout_corrected():
    # The corrected P(1) is the read fraction through an affine map of slope
    # 1 / (f0 + f1 - 1), so its stderr is the binomial one times that slope.
    fid = ReadoutFidelity(0.9, 0.85)
    bench = Bench(DeviceModel(readout_q2=fid), TxConfig(), exchange_on=True)
    res = run_dj(bench, shots=2000, seed=3)
    for oracle, p in res.p_output_one.items():
        if 0.0 < p < 1.0:  # inside the correction's clip
            p_read = (1.0 - fid.f0) + (fid.f0 + fid.f1 - 1.0) * p
            expected = binomial_stderr(p_read, 2000) / 0.75
            assert res.stderr[oracle] == pytest.approx(expected, rel=1e-9)
    assert 0.0 < res.p_output_one["cnot"] < 1.0


def test_dj_flags_estimates_on_the_clip():
    # At 400 shots through confusion (0.9, 0.85), seed 2 corrects z_cnot
    # above 1 and identity below 0; seed 3 stays inside.
    bench = Bench(DeviceModel(readout_q2=ReadoutFidelity(0.9, 0.85)), TxConfig(), exchange_on=True)
    res = run_dj(bench, shots=400, seed=2)
    assert res.meta["clipped"] == ["z_cnot", "identity"]
    assert res.p_output_one["z_cnot"] == 1.0 and res.p_output_one["identity"] == 0.0
    assert run_dj(bench, shots=400, seed=3).meta["clipped"] == []


def survival_z(res, expected):
    """Per length: (mean survival - expected) / (SD across sequences / sqrt(n))."""
    return np.array([(np.mean(s) - e) / (np.std(s, ddof=1) / np.sqrt(len(s)))
                     for s, e in zip(res.per_sequence, expected)])


@pytest.mark.parametrize("seed", [0, 1])
def test_over_rotated_rb_follows_the_exact_expectation(seed):
    # Every rotation at 0.9 of its angle, noiseless: each length's mean
    # survival sits on the exact average over uniform random sequences.
    bench = over_rotated_bench()
    lengths = (1, 3, 6, 12, 25, 50, 100)
    res = run_rb(bench, lengths, n_sequences=100, repetitions=10**6, seed=seed)
    cliffords = rb_cliffords(bench, 2)
    assert np.max(np.abs(survival_z(res, rb_survival(cliffords, lengths)))) <= 4.0
    # p_stderr understates the spread of p under coherent errors (ROADMAP
    # item 9), hence 4 of them: seed 1 lands 3.0 away.
    p = rb_decay(cliffords[0])
    assert p == pytest.approx(0.9761, abs=1e-4)
    assert abs(res.p - p) < min(0.02, 4.0 * res.p_stderr)
    assert abs(res.fidelity_clifford - (1.0 - (1.0 - p) / 2.0)) < 4.0 * (res.p_stderr / 2.0)
    gate_eps = (1.0 - p) / (2.0 * 45 / 24)  # 45 primitives over the 24 Cliffords
    assert abs(res.fidelity_gate - (1.0 - gate_eps)) < 4.0 * res.fidelity_gate_stderr
    assert res.fidelity_gate_stderr == pytest.approx(res.p_stderr / (2.0 * 45 / 24), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_noisy_rb_follows_the_exact_quasi_static_average(seed):
    # rb_noisy's bench: the expectation is the Gauss-Hermite average of the
    # exact survival at each detuning.
    sigma = 50e3
    bench = plain_bench(sigma_detune=sigma)
    lengths = (1, 5, 10, 25, 50, 100)
    res = run_rb(bench, lengths, n_sequences=60, repetitions=1000, seed=seed)
    detunings, weights = quasi_static_rule(sigma, 41)
    expected = rb_survival(rb_cliffords(bench, 2, detunings), lengths, weights)
    assert np.max(np.abs(survival_z(res, expected))) <= 4.0


def test_rb_oracle_matches_every_short_sequence_and_the_over_rotated_decay():
    # Every rotation at 0.9 of its angle: the recursion equals the average
    # over all 24^m sequences of length m, and p is ROADMAP item 3's 0.97576.
    def rotation(name):
        phase, angle = PRIMITIVE_PARAMS[name]
        return rotation_for_phase(phase, 0.9 * angle)

    over = np.stack([reduce(lambda u, g: rotation(g) @ u, names, np.eye(2))
                     for names in DECOMPOSITIONS])
    for m in (0, 1, 2):
        survival = []
        for indices in itertools.product(range(N_CLIFFORDS), repeat=m):
            u = reduce(lambda u, k: over[k] @ u, [*indices, recovery_index(indices)], np.eye(2))
            survival.append(abs(u[0, 0]) ** 2)
        assert rb_survival(over[None], [m])[0] == pytest.approx(np.mean(survival), abs=1e-12)
    assert rb_decay(over) == pytest.approx(0.97576, abs=1e-5)
    ideal = rb_survival(UNITARIES[None], (1, 7, 40))
    np.testing.assert_allclose(ideal, 1.0, atol=1e-12)
    assert rb_decay(UNITARIES) == pytest.approx(1.0, abs=1e-12)


def test_noiseless_rb_decays_with_p_at_one():
    # Noiseless physics leaves only the DAC/PAC quantisation error, so
    # p ~ 1 (Magesan et al., PRL 106, 180504, 2011); the fit pins on the bound.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_rb(plain_bench(), (1, 10, 50), n_sequences=4, repetitions=100, seed=0)
    assert res.p >= 1.0 - 1e-4
    assert res.p_at_bound


def test_rb_fit_pinned_at_bound_is_flagged_not_warned():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_rb(plain_bench(sigma_detune=300e3), (1, 8, 24), n_sequences=3,
                     repetitions=20, seed=13)
        free = run_rb(over_rotated_bench(), (1, 10, 30, 60, 100), n_sequences=10,
                      repetitions=200, seed=2)
    assert res.p_at_bound and res.p == pytest.approx(1.0)
    assert not free.p_at_bound and np.isfinite(free.p_stderr)


def test_rb_reports_the_lengths_that_split_across_triggers():
    # 600 Cliffords overflow one image; a single Clifford does not.
    res = run_rb(plain_bench(), (1, 600), n_sequences=1, repetitions=50, seed=4)
    assert res.split_lengths == [600]
    assert res.survival == [1.0, 1.0]


def _no_compiling(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("compiled or played before the arguments were checked")
    monkeypatch.setattr(compiler, "compile_program", fail)
    monkeypatch.setattr(Bench, "run_program", fail)


def test_rb_rejects_empty_lengths_before_compiling(monkeypatch):
    with monkeypatch.context() as patch:
        _no_compiling(patch)
        with pytest.raises(ConfigError, match="^lengths is empty"):
            run_rb(plain_bench(), [])
        # A negative or non-integer length.
        for lengths, bad in (((1, -3), "[-3]"), ((2.5, 4, 2.0), "[2.5, 2.0]")):
            with pytest.raises(ConfigError, match=rf"^lengths \{bad}\: each must be a whole "):
                run_rb(plain_bench(), lengths)
    res = run_rb(plain_bench(), np.array([0, 3]), n_sequences=1,
                 repetitions=10)  # numpy integers, 0 included, are lengths
    assert res.lengths == [0, 3]


def test_rb_rejects_fewer_than_one_sequence_before_compiling(monkeypatch):
    _no_compiling(monkeypatch)
    for n in (0, -2, 2.5):
        with pytest.raises(ConfigError, match=f"^n_sequences={n}: sample at least 1"):
            run_rb(plain_bench(), (1, 4), n_sequences=n)
    # Fewer than one shot per sequence, a fraction of one, or a qubit that
    # is not there.
    for r in (0, 2.5):
        with pytest.raises(ConfigError, match=f"^repetitions={r}: take at least 1 shot"):
            run_rb(plain_bench(), (1, 4), repetitions=r)
    with pytest.raises(ConfigError, match="^qubit=3: benchmark qubit 1 or 2$"):
        run_rb(plain_bench(), (1, 4), qubit=3)
    with pytest.raises(ConfigError) as err:
        run_rb(plain_bench(), (), n_sequences=0)
    assert len(err.value.problems) == 2
    with pytest.raises(ConfigError) as err:
        run_rb(plain_bench(), (-1,), n_sequences=0, repetitions=0, qubit=0)
    assert len(err.value.problems) == 4


ENGINES_NAMED = re.escape("engine='fast': choose one of ('dense', 'trace')")


@pytest.mark.parametrize("run, message", [
    (lambda: run_allxy(plain_bench(), qubit=3), "^qubit=3: measure qubit 1 or 2$"),
    (lambda: run_allxy(plain_bench(), shots=0), "^shots=0: take at least 1 shot per pair"),
    (lambda: run_allxy(plain_bench(), engine="fast"), f"^{ENGINES_NAMED}$"),
    (lambda: run_qst_trajectory(plain_bench(), [1e-7], qubit=3), "^qubit=3: measure qubit"),
    (lambda: run_qst_trajectory(plain_bench(), [1e-7], shots=0), "^shots=0: take at least 1"),
    (lambda: run_rabi(plain_bench(), [1e-7], qubit=3), "^qubit=3: drive qubit 1 or 2$"),
    (lambda: run_rabi(plain_bench(), [1e-7], qubit=3, simultaneous=True, shots=10),
     "^qubit=3: drive qubit"),
    (lambda: run_rabi(plain_bench(), [1e-7], shots=0), "^shots=0: take at least 1 shot per point"),
    (lambda: run_rabi(plain_bench(), []), "^durations is empty: give at least one burst duration$"),
    (lambda: run_rabi(plain_bench(), [np.nan]), r"^durations \[nan\] s: each must be finite$"),
    (lambda: run_rabi(plain_bench(), [1e-7, np.inf, -np.inf]),
     r"^durations \[inf, -inf\] s: each must be finite$"),
    (lambda: run_rabi(plain_bench(), [np.nan, 1e-9], shots=0),
     r"^durations \[nan\] s: .*; the longest Rabi duration .*, not 1; shots=0: "),
    (lambda: run_spectroscopy(plain_bench(), 3, [13.45e9]), "^qubit=3: probe qubit 1 or 2$"),
    (lambda: run_spectroscopy(plain_bench(), 2, [13.45e9], shots=0), "^shots=0: take at least"),
    (lambda: run_spectroscopy(plain_bench(), 2, [13.45e9], engine="fast"), f"^{ENGINES_NAMED}$"),
    (lambda: run_spectroscopy(plain_bench(), 2, [13.45e9], shape="square"),
     r"^shape='square': choose one of \['gaussian', 'rectangular'\]$"),
    (lambda: run_spectroscopy(plain_bench(), 2, [13.45e9, 15e9]),
     r"^frequencies \[15000000000\.0\] Hz: each under the Nyquist limit, 500 MHz either side "
     r"of the 13\.54 GHz carrier$"),
    (lambda: run_spectroscopy(plain_bench(), 2, [13.45e9, np.nan, np.inf]),
     r"^frequencies \[nan, inf\] Hz: each must be finite$"),
    (lambda: run_dj(exchange_bench(), shots=0), "^shots=0: take at least 1 shot per oracle"),
    (lambda: run_dj(exchange_bench(), engine="fast"), f"^{ENGINES_NAMED}$"),
    (lambda: run_dj(plain_bench(), shots=2.5, engine="fast"),
     rf"exchange_on=True\); shots=2\.5: .*; {ENGINES_NAMED}$"),
], ids=["allxy-qubit", "allxy-shots", "allxy-engine", "qst-qubit", "qst-shots", "rabi-qubit",
        "rabi-simultaneous-qubit", "rabi-shots", "rabi-empty", "rabi-nan", "rabi-inf", "rabi-all",
        "spectroscopy-qubit", "spectroscopy-shots", "spectroscopy-engine", "spectroscopy-shape",
        "spectroscopy-nyquist", "spectroscopy-nan", "dj-shots", "dj-engine", "dj-all"])
def test_runners_reject_bad_arguments_before_compiling(monkeypatch, run, message):
    _no_compiling(monkeypatch)
    with pytest.raises(ConfigError, match=message):
        run()


@pytest.mark.parametrize("f_clk, durations, got", [
    (1e9, [0.0, 1.4e-9], 1), (1e9, np.zeros(3), 0), (2e9, [0.7e-9], 1),
])
def test_rabi_sweep_without_a_two_sample_burst_is_a_config_error(f_clk, durations, got):
    bench = Bench(DeviceModel(), TxConfig(f_clk=f_clk))
    ns = 2e9 / f_clk
    with pytest.raises(ConfigError, match=rf"at least 2 samples \({ns:g} ns at the "
                                          rf"{f_clk / 1e9:g} GHz clock\), not {got}$"):
        run_rabi(bench, durations)


def test_rabi_frequency_matches_calibrated_rate():
    bench = plain_bench()
    durations = np.linspace(0.0, 1.5e-6, 31)
    res = run_rabi(bench, durations, qubit=2, shots=5000, seed=4)
    expected = rabi_rate(bench, 2)
    (f_fit,), _ = curve_fit(lambda t, f: rabi_probability(t, f), durations,
                            res.p1_q2, p0=(0.9 * expected,))
    assert f_fit == pytest.approx(expected, rel=2e-3)
    np.testing.assert_allclose(res.p1_q2, rabi_probability(durations, expected), atol=0.03)


def test_rabi_on_exchange_on_bench_follows_low_branch_rate():
    # Runs start in |00>, so each qubit's f - J/2 tone is the resonant one;
    # the neighbour stays in |0>.
    bench = exchange_bench()
    durations = np.array([0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.8, 1.0]) * 1e-6
    for qubit in (1, 2):
        res = run_rabi(bench, durations, qubit=qubit, shots=4000, seed=qubit)
        driven, other = (res.p1_q1, res.p1_q2) if qubit == 1 else (res.p1_q2, res.p1_q1)
        oracle = rabi_probability(durations, rabi_rate(bench, qubit, "low"))
        np.testing.assert_allclose(driven, oracle, atol=0.04)
        assert max(other) <= 0.005


@pytest.mark.parametrize("shape", ["rectangular", "gaussian"])
def test_spectroscopy_exchange_on_finds_both_conditional_lines(shape):
    # Gaussian is the benchmark's spectroscopy configuration: shaped probes
    # through the trace engine's kernel and fold, the spectator prepared.
    model = DeviceModel()
    bench = exchange_bench()
    step = 0.25e6
    for prepare, line in ((False, model.f2 - model.j_on / 2), (True, model.f2 + model.j_on / 2)):
        freqs = line + 0.1e6 + step * np.arange(-6, 7)
        res = run_spectroscopy(bench, 2, freqs, shots=2000, seed=5, shape=shape,
                               prepare_other=prepare, engine="trace")
        assert abs(locate_peaks(res, 2)[0] - line) <= step


def test_spectroscopy_exchange_off_finds_qubit_frequency():
    model = DeviceModel()
    step = 0.25e6
    freqs = model.f2 + 0.1e6 + step * np.arange(-6, 7)
    res = run_spectroscopy(plain_bench(), 2, freqs, shots=2000, seed=5, engine="trace")
    assert abs(locate_peaks(res, 2)[0] - model.f2) <= step


def test_qst_trajectory_tracks_x_rotation_inside_bloch_ball():
    bench = plain_bench()
    times = np.linspace(0.0, 0.5e-6, 6)
    res = run_qst_trajectory(bench, times, shots=20_000, seed=6)
    rate = rabi_rate(bench, 2)
    for point in res.points:
        theta = 2.0 * np.pi * rate * point.time
        ideal = np.array([0.0, -np.sin(theta), -np.cos(theta)])
        assert np.linalg.norm(point.bloch_mle) <= 1.0 + 1e-12
        rho = point.rho
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        paulis = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
        bloch = [np.trace(rho @ np.array(s)).real for s in paulis]
        np.testing.assert_allclose(bloch, point.bloch_mle, atol=1e-12)
        np.testing.assert_allclose(point.bloch_raw, ideal, atol=0.05)


def test_long_program_runs_on_both_engines_and_they_agree():
    # 80 quarter turns (20240 samples) drift the norm past a flat 1e-12.
    bench = plain_bench()
    prog = bench.compile([GateOp("x", 2)] * 80)
    trace = bench.run_program(prog)
    wf = synthesize(trace, bench.cfg)
    args = (bench.model, bench.cfg.lo_freq)
    dense = final_state(dense_one(wf, *args), len(wf))
    fast = final_state(evolve_one(trace, *args), trace.n_samples)
    assert abs(np.vdot(dense, fast)) ** 2 > 0.999
    ((hits,),) = bench.sample([prog], (2,), 1000, [shot_rng(0, 0)])
    assert hits < 50  # twenty full turns end near |00>


def test_noisy_ramsey_decays_as_gaussian_average():
    # Quasi-static detuning of spread sigma: P(read 1) after x, idle tau, x is
    # 1/2 (1 + exp(-(2 pi sigma tau_eff)^2 / 2)); finite pi/2 pulses of length
    # t_p add 4 t_p / pi to the free time.
    sigma = 150e3
    bench = plain_bench(sigma_detune=sigma)
    t_p = bench.cal.for_slot(bench.plan.for_qubit(2)[0]).half_pi_samples / bench.cfg.f_clk
    shots = 4000
    for k, tau in enumerate((1e-6, 2e-6)):
        prog = bench.compile([GateOp("x", 2), GateOp("i", 2, duration=tau), GateOp("x", 2)])
        ((hits,),) = bench.sample([prog], (2,), shots, [shot_rng(1, k)], engine="trace")
        tau_eff = tau + 4.0 * t_p / np.pi
        oracle = 0.5 * (1.0 + np.exp(-0.5 * (2.0 * np.pi * sigma * tau_eff) ** 2))
        assert hits / shots == pytest.approx(oracle, abs=0.03)


def test_noisy_sampling_agrees_across_engines():
    # Both engines see the same noise draws and readout uniforms of the point.
    bench = plain_bench(sigma_detune=300e3)
    prog = bench.compile([GateOp("y2", 2), GateOp("x", 2)])
    (dense,) = bench.sample([prog], (1, 2), 100, [shot_rng(3, 0)], engine="dense")
    (fast,) = bench.sample([prog], (1, 2), 100, [shot_rng(3, 0)], engine="trace")
    assert np.all(np.abs(dense - fast) <= 3)


def test_trace_engine_never_synthesizes_samples(monkeypatch):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("DAC samples synthesized")

    monkeypatch.setattr(executor, "pac_convert", no_synthesis)
    bench = plain_bench(sigma_detune=300e3)
    prog = bench.compile([GateOp("y2", 2), GateOp("x", 2, shape="gaussian")])
    bench.sample([prog], (1, 2), 10, [shot_rng(0, 0)], engine="trace")
    with pytest.raises(AssertionError, match="synthesized"):
        bench.sample([prog], (1, 2), 10, [shot_rng(0, 0)], engine="dense")


def test_simultaneous_rabi_agrees_across_engines():
    # Both qubits' NCOs play at once, one per bank: the DAC sums the banks,
    # the trace engine sums the two bursts' idealized samples.  With exchange
    # on, each low-branch tone is resonant only while the other qubit is in
    # |0>, so every basis input counts.
    for exchange_on in (False, True):
        bench = Bench(DeviceModel(), TxConfig(), exchange_on=exchange_on)
        img = _rabi_image(bench, (1, 2), 300)
        trace = bench.run_program(CompiledProgram(images=[img], ftws=bench.plan.ftws(), report={}))
        assert len({seg.bank for seg in trace.segments}) == 2
        physics = dict(model=bench.model, lo_freq=bench.cfg.lo_freq, exchange_on=exchange_on)
        dense = dense_one(synthesize(trace, bench.cfg), **physics)
        fast = evolve_one(trace, **physics)
        for k in range(4):
            overlap = np.vdot(final_state(dense, 300, k), final_state(fast, 300, k))
            assert abs(overlap) ** 2 > 0.999


def test_sample_rejects_unknown_engine_and_empty_shot_count():
    bench = plain_bench()
    prog = bench.compile([GateOp("x", 2)])
    with pytest.raises(ValueError, match="engine"):
        bench.sample([prog], (2,), 10, [shot_rng(0, 0)], engine="fast")
    with pytest.raises(ValueError, match="shots"):
        bench.sample([prog], (2,), 0, [shot_rng(0, 0)])


@pytest.mark.parametrize("qubits, named", [((), "none"), ((3,), "3"), ((2, 0), "0")])
def test_sample_rejects_qubits_the_device_does_not_have(qubits, named):
    bench = plain_bench()
    prog = bench.compile([GateOp("x", 2)])
    with pytest.raises(ValueError, match=f"1, 2 or both, not {named}$"):
        bench.sample([prog], qubits, 10, [shot_rng(0, 0)])


# --- golden outputs -------------------------------------------------------------
# Noiseless runs draw one binomial per qubit and point; these values were
# recorded before the runners shared one sampling path and must not move.

ALLXY_DENSE = [
    -1.0, -1.0, -1.0, -1.0, -1.0, -0.04600000000000004, -0.014000000000000012,
    0.02400000000000002, 0.028000000000000025, -0.07799999999999996,
    0.03200000000000003, -0.05600000000000005, 0.026000000000000023,
    -0.02400000000000002, -0.05800000000000005, -0.02200000000000002,
    -0.008000000000000007, 1.0, 1.0, 1.0, 1.0,
]
ALLXY_TRACE = [
    -1.0, -1.0, -1.0, -1.0, -1.0, -0.04600000000000004, -0.014000000000000012,
    0.02400000000000002, 0.028000000000000025, -0.07799999999999996,
    0.03200000000000003, -0.05600000000000005, 0.026000000000000023,
    -0.026000000000000023, -0.06000000000000005, -0.02400000000000002,
    -0.010000000000000009, 1.0, 1.0, 1.0, 1.0,
]


@pytest.mark.parametrize("engine, golden", [("dense", ALLXY_DENSE), ("trace", ALLXY_TRACE)])
def test_allxy_noiseless_golden(engine, golden):
    assert run_allxy(plain_bench(), shots=1000, seed=3, engine=engine).sigma_z == golden


def test_every_runner_reports_the_quadrature_of_its_own_calls():
    noisy = plain_bench(sigma_detune=50e3)
    coupled = Bench(DeviceModel(sigma_detune=50e3), TxConfig(), exchange_on=True)
    f2 = noisy.model.f2
    runs = [  # (calls to Bench.sample, dimensions, result)
        (21, 1, run_allxy(noisy, shots=100, engine="trace")),
        (2 * 3, 1, run_rb(noisy, (1, 4), n_sequences=3, repetitions=10)),
        (2 * 4, 1, run_qst_trajectory(noisy, [0.0, 0.1e-6], shots=100)),
        (3, 1, run_rabi(noisy, [0.1e-6, 0.2e-6, 0.3e-6], shots=100)),
        (5, 1, run_spectroscopy(noisy, 2, f2 + 0.2e6 * np.arange(5), shots=100,
                                engine="trace")),
        (4, 2, run_dj(coupled, shots=100, engine="trace")),
    ]
    for calls, dims, res in runs:
        q = res.meta["quadrature"]
        assert (q["calls"], q["dims"]) == (calls, dims), res
        assert q["rows"] >= calls * (3**dims + 5**dims)
        assert json.loads(json.dumps(res.meta)) == res.meta
    assert run_allxy(plain_bench(), shots=100).meta["quadrature"]["calls"] == 0


def test_rf_high_bench_plans_and_evolves_against_the_tripled_carrier():
    # An LO at a third of 13.54 GHz puts the rf_high carrier exactly on the
    # default one, so the plan, the physics and the goldens are the same.
    cfg = TxConfig(lo_freq=13.54e9 / 3, rf_high=True)
    assert cfg.carrier == TxConfig().carrier == 13.54e9
    bench = Bench(DeviceModel(), cfg)
    assert bench.plan.slots == plain_bench().plan.slots
    assert run_allxy(bench, shots=1000, seed=3, engine="trace").sigma_z == ALLXY_TRACE
    model = DeviceModel()
    freqs = model.f2 - model.j_on / 2 + 0.5e6 * np.arange(-3, 4)
    res = run_spectroscopy(Bench(model, cfg, exchange_on=True), 2, freqs, shots=500, seed=7,
                           shape="gaussian", engine="trace")
    assert res.p1_q2 == [0.162, 0.274, 0.326, 0.39, 0.334, 0.288, 0.198]


def test_rf_high_bench_rejects_qubits_near_the_lo_instead_of_the_carrier():
    # The carrier sits at 13.56 GHz, 9 GHz above both qubits.
    with pytest.raises(ConfigError, match=r"qubit 1 \(main\) offset -9030\.000 MHz"):
        Bench(DeviceModel(f1=4.53e9, f2=4.50e9), TxConfig(lo_freq=4.52e9, rf_high=True))


def test_dj_noiseless_golden():
    res = run_dj(exchange_bench(), shots=1000, seed=5)
    assert res.p_output_one == {"cnot": 0.96, "z_cnot": 0.968, "identity": 0.033, "x2": 0.043}


def test_spectroscopy_noiseless_golden():
    model = DeviceModel()
    freqs = model.f2 - model.j_on / 2 + 0.5e6 * np.arange(-3, 4)
    res = run_spectroscopy(exchange_bench(), 2, freqs, shots=500, seed=7,
                           shape="gaussian", engine="trace")
    assert res.p1_q1 == [0.0] * 7
    assert res.p1_q2 == [0.162, 0.274, 0.326, 0.39, 0.334, 0.288, 0.198]


def test_rabi_noiseless_golden():
    res = run_rabi(plain_bench(), np.arange(7) * 0.1e-6, simultaneous=True, shots=500, seed=9)
    assert res.p1_q1 == [0.0, 0.114, 0.3, 0.64, 0.884, 1.0, 0.9]
    assert res.p1_q2 == [0.0, 0.122, 0.36, 0.634, 0.9, 1.0, 0.924]


def test_qst_noiseless_golden():
    res = run_qst_trajectory(plain_bench(), [0.0, 0.1e-6, 0.25e-6], shots=500, seed=11)
    assert [p.bloch_raw.tolist() for p in res.points] == [
        [0.040000000000000036, 0.008000000000000007, -1.0],
        [0.0040000000000000036, -0.5960000000000001, -0.808],
        [0.040000000000000036, -1.0, -0.0040000000000000036],
    ]


def test_rb_noisy_golden():
    # RB keeps one stream per (length, sequence): the sequence's Cliffords,
    # then one binomial readout over the quadrature-averaged noise.
    res = run_rb(plain_bench(sigma_detune=300e3), (1, 8, 24), n_sequences=3,
                 repetitions=20, seed=13)
    assert [s.tolist() for s in res.per_sequence] == [
        [0.6, 0.75, 0.9], [0.5, 0.85, 0.45], [0.65, 0.85, 0.7],
    ]
