"""Batches of programs: every program that ``Bench.sample``,
``evolve_trace`` and ``dense_propagators`` take together matches its own
batch of one, the quadrature and memo counts stay those of one call per
program, every runner samples its programs in one call, an empty batch
does nothing, and a batch stays small in memory."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import spinctl.experiments.base as base
import spinctl.physics.evolve as evolve_module
from spinctl.compiler import CompiledProgram
from spinctl.compiler.ir import GateOp
from spinctl.controller.executor import TxConfig, Waveform, synthesize
from spinctl.controller.nco import offset_to_ftw
from spinctl.experiments import Bench, run_qst_trajectory, run_rabi, run_spectroscopy
from spinctl.experiments.allxy import ALLXY_PAIRS
from spinctl.experiments.base import noise_axes, noise_rule
from spinctl.experiments.rabi import _rabi_image
from spinctl.physics import (DeviceModel, NoiseSample, PropagatorMemo, dense_propagators,
                             evolve_trace, shot_rng)

from helpers import rb_primitives

SPEC_STEP = 0.25e6


def sweep_programs(bench, n, prepare_other=False, seed=3):
    """The programs of the benchmark's gaussian spectroscopy sweep of qubit
    2, one per point: the probe image with the probe NCO retuned."""
    model = bench.model
    start = model.f2 - 1.3 * model.j_on + np.random.default_rng(seed).uniform(0.0, SPEC_STEP)
    slot = bench.plan.for_qubit(2)[0]
    ops = [GateOp("x2", 1)] if prepare_other else []
    prog = bench.compile(ops + [GateOp("x2", 2, shape="gaussian", branch=slot.branch)])
    probe = (slot.bank, slot.nco)
    return [dataclasses.replace(prog, ftws={**prog.ftws, probe: offset_to_ftw(
        f - bench.cfg.carrier, bench.cfg.f_clk)}) for f in start + SPEC_STEP * np.arange(n)]


class Expectation:
    """Stands in for a program's generator and keeps the probabilities that
    ``Bench.sample`` draws its binomials from."""

    def binomial(self, n, p):
        self.p = np.array(p)
        return np.zeros(len(self.p), dtype=int)


# Per engine: its batch call, and what it evolves of a played trace.
ENGINE_CALLS = {"trace": (evolve_trace, lambda trace, cfg: trace),
                "dense": (dense_propagators, synthesize)}


def assert_each_matches_its_own_batch(engine, played, physics, batch):
    """Each trace or waveform in ``played`` agrees with its row of ``batch``
    when the ``engine`` evolves it as a batch of one."""
    evolve, _ = ENGINE_CALLS[engine]
    assert batch.shape[0] == len(played)
    for item, props in zip(played, batch):
        alone = evolve([item], **physics)[0]
        assert np.max(np.abs(props - alone)) < 1e-12


def quadrature_rows(bench):
    """The rows of ``Bench.sample``'s first noisy batch: the 3- and 5-node rules."""
    rules = [noise_rule(noise_axes(bench.model, bench.exchange_on), n)[0] for n in (3, 5)]
    return NoiseSample(*(np.concatenate(pair) for pair in zip(*rules)))


@pytest.mark.parametrize("prepare_other", [False, True], ids=["plain", "spectator-flipped"])
def test_spectroscopy_sweep_batch_matches_each_point_alone(monkeypatch, prepare_other):
    bench = Bench(DeviceModel(), TxConfig(), exchange_on=True)
    programs = sweep_programs(bench, 104, prepare_other)
    traces = [bench.run_program(p) for p in programs]
    physics = dict(model=bench.model, lo_freq=bench.cfg.carrier, exchange_on=True)
    batch = evolve_trace(traces, **physics, memo=bench.memo)
    assert batch.shape == (104, 1, 4, 4)
    assert_each_matches_its_own_batch("trace", traces, physics, batch)
    # The 104 probes share one exponential set, counted once per point.
    assert bench.memo.counts == dict(level_hits=103, level_misses=1,
                                     power_hits=206 if prepare_other else 0,
                                     power_misses=2 if prepare_other else 0)

    # Bench.sample plays the sweep's image once and retunes that trace for
    # every later point; each point still reads as if sampled alone.
    plays = []
    run_program = Bench.run_program
    monkeypatch.setattr(Bench, "run_program", lambda self, prog: plays.append(prog) or
                        run_program(self, prog))
    rngs = [Expectation() for _ in programs]
    bench.sample(programs, (1, 2), 100, rngs, engine="trace")
    assert len(plays) == 1
    for prog, rng in zip(programs, rngs):
        own = Expectation()
        bench.sample([prog], (1, 2), 100, [own], engine="trace")
        assert np.max(np.abs(own.p - rng.p)) < 1e-12


@pytest.mark.parametrize("engine", ["trace", "dense"])
@pytest.mark.parametrize("exchange_on", [False, True])
def test_batch_of_both_banks_constant_bursts_and_an_idle_program_matches_each_alone(engine,
                                                                                   exchange_on):
    # Simultaneous Rabi plays one burst per bank at once (a kernel cluster of
    # summed samples); x and y2 play two lone constant bursts, x alone one,
    # padded after its end words; the idle program plays nothing and is all
    # padding.  On the dense engine the same programs are 300, 753, 250 and
    # 0 samples long (1508 and 500 in place of 753 and 250 with exchange on),
    # padded with the identity to the longest.
    bench = Bench(DeviceModel(), TxConfig(), exchange_on=exchange_on)
    img = _rabi_image(bench, (1, 2), 300)
    programs = [CompiledProgram(images=[img], ftws=bench.plan.ftws(), report={}),
                bench.compile([GateOp("x", 2), GateOp("y2", 1)]),
                bench.compile([GateOp("x", 1)]),
                CompiledProgram(images=[], ftws=bench.plan.ftws(), report={})]
    traces = [bench.run_program(p) for p in programs]
    assert len({s.bank for s in traces[0].segments}) == 2 and not traces[3].segments
    rows = NoiseSample(np.array([0.0, 30e3, -40e3]), np.array([5e3, 0.0, -5e3]),
                       np.array([0.0, 2e3, 0.0]))
    physics = dict(model=bench.model, lo_freq=bench.cfg.carrier, exchange_on=exchange_on,
                   noise=rows)
    evolve, played_by = ENGINE_CALLS[engine]
    played = [played_by(trace, bench.cfg) for trace in traces]
    batch = evolve(played, **physics)
    assert batch.shape == (4, 3, 4, 4)
    assert_each_matches_its_own_batch(engine, played, physics, batch)
    assert np.array_equal(batch[3], np.array([np.eye(4)] * 3))


def allxy_waveforms(bench):
    """The DAC samples of the 21 AllXY pairs on qubit 2, then of the idle program."""
    programs = [bench.compile([GateOp(g, 2) for g in pair]) for pair in ALLXY_PAIRS]
    programs.append(CompiledProgram(images=[], ftws=bench.plan.ftws(), report={}))
    return [synthesize(bench.run_program(prog), bench.cfg) for prog in programs]


@pytest.mark.parametrize("exchange_on", [False, True], ids=["spins", "4x4"])
def test_noisy_allxy_dense_batch_matches_each_pair_alone(exchange_on):
    # Pairs of 506, 760 and 1014 samples (1012 to 2028 with exchange on) and
    # an empty waveform, over the first quadrature batch's rows: 8 separable
    # rows (the spin path) with exchange off, 9 + 25 coupled ones (the 4x4
    # path) with it on.
    bench = Bench(DeviceModel(sigma_detune=50e3), TxConfig(), exchange_on=exchange_on)
    waveforms = allxy_waveforms(bench)
    lengths = sorted({len(wf) for wf in waveforms})
    assert lengths[0] == 0 and (exchange_on or lengths == [0, 506, 760, 1014]), lengths
    rows = quadrature_rows(bench)
    physics = dict(model=bench.model, lo_freq=bench.cfg.carrier, exchange_on=exchange_on,
                   noise=rows)
    energies = evolve_module._energies(bench.model, bench.cfg.carrier, exchange_on, rows)
    assert evolve_module._separable(energies) == (not exchange_on)
    batch = dense_propagators(waveforms, **physics)
    assert batch.shape == (22, 34 if exchange_on else 8, 4, 4)
    assert_each_matches_its_own_batch("dense", waveforms, physics, batch)
    assert np.array_equal(batch[-1], np.array([np.eye(4)] * len(rows[0])))


def test_dense_batch_of_more_levels_than_a_chunk_matches_each_alone(monkeypatch):
    # 1500 + 900 distinct levels exceed _CHUNK together, though neither
    # waveform does alone: the batch splits its samples in halves, and the
    # later half holds the shorter waveform's pads and all of the empty one.
    levels = []
    exponentials = evolve_module._matrix_exponentials
    monkeypatch.setattr(evolve_module, "_matrix_exponentials",
                        lambda lv, *args: levels.append(len(lv)) or exponentials(lv, *args))
    rng = np.random.default_rng(12)
    waveforms = [Waveform(0.4 * (rng.random(n) - 0.5) + 0.3j * (rng.random(n) - 0.5), 1e9)
                 for n in (1500, 900, 0)]
    rows = NoiseSample(np.array([0.0, 20e3]), np.array([5e3, 0.0]), np.array([0.0, 1e3]))
    physics = dict(model=DeviceModel(), lo_freq=13.54e9, exchange_on=True, noise=rows)
    batch = dense_propagators(waveforms, **physics)
    assert max(levels) <= evolve_module._CHUNK < 1500 + 900
    assert_each_matches_its_own_batch("dense", waveforms, physics, batch)
    assert np.array_equal(batch[2], np.array([np.eye(4)] * 2))


def test_dense_batch_plays_at_one_sample_rate():
    bench = Bench(DeviceModel(), TxConfig())
    wf = synthesize(bench.run_program(bench.compile([GateOp("x", 2)])), bench.cfg)
    slower = Waveform(wf.envelope, wf.sample_rate / 2)
    with pytest.raises(ValueError, match=r"one batch plays at one sample rate, not \[5"):
        dense_propagators([wf, slower], bench.model, bench.cfg.carrier)


def test_rabi_and_tomography_sample_every_program_in_one_call(monkeypatch):
    # One Bench.sample call per run, with the substreams of the programs
    # sampled one at a time: shot_rng(seed, k) per Rabi point and
    # shot_rng(seed, time index, basis index) per tomography program.
    calls = []
    sample = Bench.sample

    def recording(self, programs, qubits, shots, rngs, **kwargs):
        calls.append([rng.bit_generator.state for rng in rngs])
        return sample(self, programs, qubits, shots, rngs, **kwargs)

    monkeypatch.setattr(Bench, "sample", recording)
    bench = Bench(DeviceModel(sigma_detune=50e3), TxConfig())
    run_rabi(bench, [0.0, 0.1e-6, 0.3e-6], shots=10, seed=4)
    run_qst_trajectory(bench, [0.0, 0.1e-6], shots=10, seed=5)
    rabi, qst = calls
    assert rabi == [shot_rng(4, k).bit_generator.state for k in range(3)]
    assert qst == [shot_rng(5, t, b).bit_generator.state for t in range(2) for b in range(4)]


def test_noisy_rb_batch_refines_only_the_programs_that_need_it(monkeypatch):
    # At 1000 shots the 1-Clifford sequences and one 100-Clifford sequence
    # settle on the first two rules; the other two climb to 17 nodes.
    model = DeviceModel(sigma_detune=50e3)
    batched, alone = Bench(model, TxConfig()), Bench(model, TxConfig())
    programs = [batched.compile([GateOp(g, 2) for g in rb_primitives(m, seed)])
                for m in (1, 100) for seed in (1, 2, 3)]
    sizes = []

    def recording(traces, *args, **kwargs):
        sizes.append(len(traces))
        return evolve_trace(traces, *args, **kwargs)

    monkeypatch.setattr(base, "evolve_trace", recording)
    rngs = [Expectation() for _ in programs]
    batched.sample(programs, (2,), 1000, rngs, engine="trace")
    assert sizes == [6, 2, 2]  # one batch, then only the programs still refining
    sizes.clear()
    for prog, rng in zip(programs, rngs):
        own = Expectation()
        alone.sample([prog], (2,), 1000, [own], engine="trace")
        assert np.max(np.abs(own.p - rng.p)) < 1e-12
    assert sizes == [1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
    # The tallies count one call per program, as the programs alone do.
    got, want = batched.tallies(), alone.tallies()
    assert got["quadrature"].pop("max_difference") == pytest.approx(
        want["quadrature"].pop("max_difference"), rel=0, abs=1e-12)
    assert got == want
    assert got["quadrature"]["calls"] == 6 and got["quadrature"]["nodes"] == 17


@pytest.mark.parametrize("engine", ["dense", "trace"])
def test_empty_batch_plays_and_evolves_nothing(monkeypatch, engine):
    def refuse(*args, **kwargs):
        raise AssertionError("an empty batch played or evolved a program")

    for name in ("evolve_trace", "dense_propagators", "synthesize"):
        monkeypatch.setattr(base, name, refuse)
    monkeypatch.setattr(Bench, "run_program", refuse)
    bench = Bench(DeviceModel(sigma_detune=50e3), TxConfig(), exchange_on=True)
    counts = bench.sample([], (1, 2), 10, [], engine=engine)
    assert counts.shape == (0, 2) and counts.dtype.kind == "i"
    res = run_spectroscopy(bench, 2, [], shots=10, engine=engine)
    assert (res.x, res.p1_q1, res.p1_q2, res.stderr) == ([], [], [], [])
    assert res.meta["quadrature"]["calls"] == 0
    monkeypatch.undo()
    assert evolve_trace([], bench.model, bench.cfg.carrier).shape == (0, 1, 4, 4)
    assert dense_propagators([], bench.model, bench.cfg.carrier).shape == (0, 1, 4, 4)


def test_sample_takes_one_generator_per_program():
    bench = Bench(DeviceModel(), TxConfig())
    prog = bench.compile([GateOp("x", 2)])
    with pytest.raises(ValueError, match="2 programs need as many generators, not 1"):
        bench.sample([prog, prog], (2,), 10, [np.random.default_rng(0)])


def test_sweep_batch_stays_small_in_memory():
    # One call for a 104-point sweep holds every point's phases (0.42 MB)
    # and a chunk of gathered factors at a time; a single point's call
    # peaked at 0.46 MB.
    bench = Bench(DeviceModel(), TxConfig(), exchange_on=True)
    traces = [bench.run_program(p) for p in sweep_programs(bench, 104)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evolve_trace(traces, bench.model, bench.cfg.carrier, exchange_on=True,
                     memo=PropagatorMemo())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


def test_dense_allxy_batch_stays_small_in_memory():
    # The 21 noisy AllXY pairs over the first quadrature batch's 8 rows, as
    # one dense call: it holds a padded (1014, 21) level index and phase
    # array (0.34 MB) beside a chunk of gathered factors, and peaked at
    # 0.81 MB traced; the 21 calls of one pair each peaked at 0.50 MB.
    bench = Bench(DeviceModel(sigma_detune=50e3), TxConfig())
    waveforms = allxy_waveforms(bench)[:21]
    physics = dict(model=bench.model, lo_freq=bench.cfg.carrier, noise=quadrature_rows(bench))
    dense_propagators(waveforms[:1], **physics)  # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dense_propagators(waveforms, **physics)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.0e6, peak
