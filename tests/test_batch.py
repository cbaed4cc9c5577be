"""Batches of programs: every program that ``Bench.sample`` and
``evolve_trace`` take together matches its own batch of one, the quadrature
and memo counts stay those of one call per program, an empty batch does
nothing, and a sweep's batch stays small in memory."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import spinctl.experiments.base as base
from spinctl.compiler import CompiledProgram
from spinctl.compiler.ir import GateOp
from spinctl.controller.executor import TxConfig
from spinctl.controller.nco import offset_to_ftw
from spinctl.experiments import Bench, run_spectroscopy
from spinctl.experiments.rabi import _rabi_image
from spinctl.physics import DeviceModel, NoiseSample, PropagatorMemo, evolve_trace

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


def assert_each_matches_its_own_batch(traces, physics, batch):
    assert batch.shape[0] == len(traces)
    for trace, props in zip(traces, batch):
        alone = evolve_trace([trace], **physics)[0]
        assert np.max(np.abs(props - alone)) < 1e-12


@pytest.mark.parametrize("prepare_other", [False, True], ids=["plain", "spectator-flipped"])
def test_spectroscopy_sweep_batch_matches_each_point_alone(monkeypatch, prepare_other):
    bench = Bench(DeviceModel(), TxConfig(), exchange_on=True)
    programs = sweep_programs(bench, 104, prepare_other)
    traces = [bench.run_program(p) for p in programs]
    physics = dict(model=bench.model, lo_freq=bench.cfg.carrier, exchange_on=True)
    batch = evolve_trace(traces, **physics, memo=bench.memo)
    assert batch.shape == (104, 1, 4, 4)
    assert_each_matches_its_own_batch(traces, physics, batch)
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


@pytest.mark.parametrize("exchange_on", [False, True])
def test_batch_of_both_banks_constant_bursts_and_an_idle_program_matches_each_alone(exchange_on):
    # Simultaneous Rabi plays one burst per bank at once (a kernel cluster of
    # summed samples); x and y2 play two lone constant bursts, x alone one,
    # padded after its end words; the idle program plays nothing and is all
    # padding.
    bench = Bench(DeviceModel(), TxConfig(), exchange_on=exchange_on)
    img, _ = _rabi_image(bench, (1, 2), 300)
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
    batch = evolve_trace(traces, **physics)
    assert batch.shape == (4, 3, 4, 4)
    assert_each_matches_its_own_batch(traces, physics, batch)
    assert np.array_equal(batch[3], np.array([np.eye(4)] * 3))


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
