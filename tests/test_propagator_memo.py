"""The trace engine's propagator memo: exact amplitude levels, reuse across
the points of a sweep and the rules of the noise quadrature, keys that
carry the physics, per-run counts, and its bound."""

import dataclasses

import numpy as np
import pytest

import spinctl.experiments.base as base
import spinctl.physics.evolve as evolve
from spinctl.compiler.ir import GateOp
from spinctl.controller.executor import TxConfig
from spinctl.controller.nco import PHASE_WORDS, offset_to_ftw
from spinctl.experiments import (Bench, run_allxy, run_dj, run_qst_trajectory, run_rabi, run_rb,
                                 run_spectroscopy)
from spinctl.experiments.cliffords import N_CLIFFORDS, recovery_index, sequence_primitives
from spinctl.physics import DeviceModel, NoiseSample, PropagatorMemo, trace_propagators
from spinctl.physics.evolve import _sampled_product

SPEC_STEP = 0.25e6


def exchange_bench(**model_kw):
    return Bench(DeviceModel(**model_kw), TxConfig(), exchange_on=True)


def probe(bench, prepare_other=False):
    """The spectroscopy image of qubit 2 (gaussian x2), and its probe slot."""
    slot = bench.plan.for_qubit(2)[0]
    branch = "both" if slot.branch == "main" else slot.branch
    ops = [GateOp("x2", 1)] if prepare_other else []
    ops.append(GateOp("x2", 2, shape="gaussian", branch=branch))
    return bench.compile(ops), slot


def retune(bench, prog, slot, freq):
    prog.ftws[(slot.bank, slot.nco)] = offset_to_ftw(freq - bench.cfg.lo_freq, bench.cfg.f_clk)


def sweep_freqs(n, seed=3):
    model = DeviceModel()
    start = model.f2 - 1.3 * model.j_on + np.random.default_rng(seed).uniform(0.0, SPEC_STEP)
    return start + SPEC_STEP * np.arange(n)


@pytest.fixture
def recorded(monkeypatch):
    """Every trace_propagators call Bench.sample makes: (args, kwargs, result)."""
    calls = []

    def recording(*args, **kwargs):
        props = trace_propagators(*args, **kwargs)
        calls.append((args, kwargs, props))
        return props

    monkeypatch.setattr(base, "trace_propagators", recording)
    return calls


def test_lone_shaped_burst_hands_the_kernel_its_exact_amplitude_levels(monkeypatch):
    bench = exchange_bench()
    prog, slot = probe(bench)
    seen = []
    generator_batch = evolve.generator_batch

    def spying(z, energies, drive):
        seen.append(np.array(z))
        return generator_batch(z, energies, drive)

    monkeypatch.setattr(evolve, "generator_batch", spying)
    level_bytes = []
    for freq in (bench.model.f2 - 2e6, bench.model.f2 + 3e6):
        retune(bench, prog, slot, freq)
        trace = bench.run_program(prog)
        (seg,) = [s for s in trace.segments if np.any(s.amp_values)]
        seen.clear()
        trace_propagators(trace, bench.model, bench.cfg.lo_freq, exchange_on=True)
        (levels,) = seen
        assert np.array_equal(levels, np.unique(seg.amp_values))
        level_bytes.append(levels.tobytes())
    assert len(np.unique(seg.amp_values)) == 186
    assert level_bytes[0] == level_bytes[1]

    # The exact levels and the complex |z|, arg z of the same samples give
    # the same burst propagator.
    monkeypatch.undo()
    energies = evolve._energies(bench.model, bench.cfg.lo_freq, True, evolve.ZERO_NOISE)
    drive, dt = evolve.drive_operator(bench.model), 1.0 / bench.cfg.f_clk
    phi = 2 * np.pi * seg.phase_words(bench.cfg.phase_mod_bits) / PHASE_WORDS
    z = seg.amp_values * np.exp(1j * phi)
    exact = _sampled_product(seg.amp_values, phi, energies, drive, dt)
    complex_abs = _sampled_product(np.abs(z), np.angle(z), energies, drive, dt)
    assert np.max(np.abs(exact - complex_abs)) < 1e-12


# Noisy, the probe's 186 levels times the 9 + 25 rows of the first
# quadrature batch (3 and 5 nodes over both detuning offsets) exceed one
# kernel chunk, so its exponentials are made in draw groups of 11 rows, each
# kept under its own rows.  At a 1 MHz spread the sweep with the spectator
# flipped refines its rule to 9 nodes, so finer rules share the memo too.
@pytest.mark.parametrize("sigma_detune, shots", [(0.0, 100), (50e3, 12), (1e6, 50)])
def test_sweep_through_one_bench_matches_memo_free_calls_bit_for_bit(recorded, sigma_detune,
                                                                     shots):
    bench = exchange_bench(sigma_detune=sigma_detune)
    nodes = []
    for prepare in (False, True):
        run_spectroscopy(bench, 2, sweep_freqs(6), shots=shots, seed=3, shape="gaussian",
                         prepare_other=prepare, engine="trace")
        nodes.append(bench.quadrature["nodes"])
    # One call per point unless a point refines its rule past the first
    # batch: at 12 shots the batch's finer rule has 25 rows, which reach the
    # shots, so only the 1 MHz case climbs, one more call per finer rule.
    climbed = sigma_detune == 1e6
    assert (max(nodes) > 5) == climbed
    assert len(recorded) > 12 if climbed else len(recorded) == 12
    for args, kwargs, props in recorded:
        assert kwargs["memo"] is bench.memo
        fresh = trace_propagators(*args, **{k: v for k, v in kwargs.items() if k != "memo"})
        assert np.array_equal(props, fresh)


def test_spectroscopy_sweep_exponentiates_each_level_once(monkeypatch):
    # The benchmark's spectroscopy run at seed 3: two 104-point gaussian
    # sweeps of qubit 2 on one exchange-on bench, without and with the
    # spectator flipped.  Without the memo it took 416 _expm_batch calls
    # over 64,680 matrices.
    shapes = []
    expm_batch = evolve._expm_batch

    def counting(h, dt):
        shapes.append(h.shape[:-2])
        return expm_batch(h, dt)

    monkeypatch.setattr(evolve, "_expm_batch", counting)
    bench = exchange_bench()
    results = [
        run_spectroscopy(bench, 2, sweep_freqs(104), shots=100_000, seed=3, shape="gaussian",
                         prepare_other=prepare, engine="trace")
        for prepare in (False, True)
    ]
    assert len(shapes) == 3
    assert sum(int(np.prod(s)) for s in shapes) == 188
    # 186 probe levels once; the spectator's two constant bursts once each.
    assert results[0].meta["propagator_memo"] == dict(
        level_hits=103, level_misses=1, power_hits=0, power_misses=0)
    assert results[1].meta["propagator_memo"] == dict(
        level_hits=104, level_misses=0, power_hits=206, power_misses=2)


@pytest.mark.parametrize("engine", ["trace", "dense"])
def test_noiseless_sweep_reports_one_level_miss_then_hits(engine):
    n = 5
    res = run_spectroscopy(exchange_bench(), 2, sweep_freqs(n), shots=100, seed=1,
                           shape="gaussian", engine=engine)
    hits = n - 1 if engine == "trace" else 0
    misses = 1 if engine == "trace" else 0
    assert res.meta["propagator_memo"] == dict(
        level_hits=hits, level_misses=misses, power_hits=0, power_misses=0)


def test_noisy_exchange_on_sweep_keeps_every_draw_group_of_its_levels():
    # The probe's 186 levels take draw groups of _CHUNK // 186 = 11 rows, so
    # the 9 + 25 rows of the first quadrature batch make four groups.  Each
    # is exponentiated at the first point and served at every later one.
    n, rows = 5, 9 + 25
    res = run_spectroscopy(exchange_bench(sigma_detune=50e3), 2, sweep_freqs(n), shots=12,
                           seed=3, shape="gaussian", engine="trace")
    assert res.meta["quadrature"]["rows"] == rows * n  # no point refines its rule
    groups = -(-rows // (evolve._CHUNK // 186))
    assert groups == 4
    assert res.meta["propagator_memo"] == dict(
        level_hits=groups * (n - 1), level_misses=groups, power_hits=0, power_misses=0)


def test_each_runner_reports_the_memo_use_of_its_own_run():
    bench = Bench(DeviceModel(), TxConfig())
    # AllXY's 21 pairs play 36 constant bursts of two kinds (pi and pi/2);
    # a second run on the same bench counts from zero and misses nothing.
    first = run_allxy(bench, shots=100, engine="trace").meta["propagator_memo"]
    again = run_allxy(bench, shots=100, engine="trace").meta["propagator_memo"]
    assert first == dict(level_hits=0, level_misses=0, power_hits=34, power_misses=2)
    assert again == dict(level_hits=0, level_misses=0, power_hits=36, power_misses=0)
    rb = run_rb(bench, (1, 4), n_sequences=2, repetitions=10).meta["propagator_memo"]
    assert rb["power_misses"] == 0 and rb["power_hits"] > 0
    zeros = dict.fromkeys(first, 0)  # the dense engine uses no memo
    dense = [run_allxy(bench, shots=100), run_rabi(bench, [0.1e-6], shots=100),
             run_qst_trajectory(bench, [0.1e-6], shots=100), run_dj(exchange_bench(), shots=100)]
    for res in dense:
        assert res.meta["propagator_memo"] == zeros


def test_every_lone_constant_burst_counts_one_power_lookup():
    # An RB sequence replays a few calibrated bursts many times within one
    # call; each play counts one hit or one miss, whether its power was
    # made earlier in the call or in an earlier call on the same memo.
    bench = Bench(DeviceModel(), TxConfig())
    indices = np.random.default_rng(2).integers(0, N_CLIFFORDS, size=40).tolist()
    ops = [GateOp(g, 2) for g in sequence_primitives(indices + [recovery_index(indices)])]
    trace = bench.run_program(bench.compile(ops))
    played = [s for s in trace.segments if np.any(s.amp_values)]
    assert all(s.constant for s in played)
    assert all(a.t_end <= b.t0 for a, b in zip(played, played[1:]))  # none overlap
    distinct = {(float(s.amp_values[0]), s.n, s.ftw) for s in played}
    assert len(played) > 2 * len(distinct)
    memo = PropagatorMemo()
    for noise in (NoiseSample(), NoiseSample(delta_f2=np.array([-30e3, 0.0, 30e3]))):
        trace_propagators(trace, bench.model, bench.cfg.carrier, noise=noise, memo=memo)
    counts = memo.counts
    assert counts["power_hits"] + counts["power_misses"] == 2 * len(played)
    assert counts["power_misses"] == 2 * len(distinct)  # new energies, new keys
    trace_propagators(trace, bench.model, bench.cfg.carrier, memo=memo)
    assert counts["power_misses"] == 2 * len(distinct)
    assert counts["power_hits"] + counts["power_misses"] == 3 * len(played)


def test_noisy_sweep_hits_the_memo_across_points_and_stays_within_the_bound(monkeypatch):
    held = []
    get = PropagatorMemo.get

    def tracking(self, kind, key, compute):
        value = get(self, kind, key, compute)
        held.append(self.held)
        return value

    monkeypatch.setattr(PropagatorMemo, "get", tracking)
    n = 6
    # Exchange off, the quadrature has one dimension; every point brings the
    # same 3 + 5 rows, so the probe's 187 levels at this calibration (8 rows
    # each, one kernel chunk) and the spectator's power are made once for
    # the whole sweep.  The levels are kept as two 2x2 per level and row,
    # half a 4x4 matrix each; the power is 8 matrices.
    bench = Bench(DeviceModel(sigma_detune=50e3), TxConfig())
    res = run_spectroscopy(bench, 2, sweep_freqs(n), shots=10_000, seed=2, shape="gaussian",
                           prepare_other=True, engine="trace")
    assert res.meta["quadrature"]["rows"] == 8 * n
    assert res.meta["propagator_memo"] == dict(
        level_hits=n - 1, level_misses=1, power_hits=n - 1, power_misses=1)
    assert max(held) == 187 * 8 // 2 + 8 <= PropagatorMemo.bound


def test_a_full_memo_keeps_nothing_more_and_changes_no_result(monkeypatch, recorded):
    bench = exchange_bench()
    run_spectroscopy(bench, 2, sweep_freqs(3), shots=100, seed=1, shape="gaussian",
                     prepare_other=True, engine="trace")
    roomy = [props for _, _, props in recorded]
    recorded.clear()
    monkeypatch.setattr(PropagatorMemo, "bound", 2)
    small = exchange_bench()
    res = run_spectroscopy(small, 2, sweep_freqs(3), shots=100, seed=1, shape="gaussian",
                           prepare_other=True, engine="trace")
    assert small.memo.held == 2  # both powers fit; the 186 levels do not
    assert res.meta["propagator_memo"]["level_misses"] == 3
    assert len(recorded) == len(roomy) == 3
    assert all(np.array_equal(a, b) for a, (_, _, b) in zip(roomy, recorded))


def test_a_memo_full_of_other_physics_empties_for_the_current_one(monkeypatch):
    # Room for one set of the probe's 186 levels: the sweep under new
    # physics empties the memo at its first point and hits at every later one.
    monkeypatch.setattr(PropagatorMemo, "bound", 200)
    bench, n = exchange_bench(), 4
    counts = []
    for f2 in (bench.model.f2, bench.model.f2 + 0.3e6):
        bench.model = dataclasses.replace(bench.model, f2=f2)
        res = run_spectroscopy(bench, 2, sweep_freqs(n), shots=100, seed=1, shape="gaussian",
                               engine="trace")
        counts.append(res.meta["propagator_memo"])
        assert bench.memo.held == 186
    assert counts[0] == counts[1] == dict(
        level_hits=n - 1, level_misses=1, power_hits=0, power_misses=0)


@pytest.mark.parametrize("change", ["model", "drive", "lo_freq"])
def test_memo_serves_no_entry_made_under_other_physics(change, recorded):
    bench = exchange_bench()
    prog, _ = probe(bench, prepare_other=True)
    bench.sample(prog, (1, 2), 100, np.random.default_rng(0), engine="trace")
    if change == "model":
        bench.model = dataclasses.replace(bench.model, f2=bench.model.f2 + 0.3e6)
    elif change == "drive":
        bench.model.drive_coupling = (2.2e6, 1.9e6)
    else:
        bench.cfg.lo_freq += 0.4e6
    fresh = Bench(bench.model, bench.cfg, exchange_on=True, plan=bench.plan, cal=bench.cal)
    for b in (bench, fresh):
        b.sample(prog, (1, 2), 100, np.random.default_rng(0), engine="trace")
    first, changed, reference = (props for _, _, props in recorded)
    assert np.array_equal(changed, reference)
    assert not np.allclose(changed, first)


def test_memo_is_not_part_of_bench_construction_equality_or_repr():
    a, b = exchange_bench(), exchange_bench()
    prog, _ = probe(a)
    a.sample(prog, (2,), 10, np.random.default_rng(0), engine="trace")
    assert a.memo.held > 0 and b.memo.held == 0
    assert a == b
    assert "memo" not in repr(a)
    with pytest.raises(TypeError):
        Bench(DeviceModel(), TxConfig(), memo=PropagatorMemo())


def test_memo_counts_both_block_structures_in_the_bytes_of_4x4_matrices(monkeypatch):
    # One memo holds the level sets of both kernel paths.  A 4x4 set counts
    # its matrices; a spin set, two 2x2 per level and row, half a matrix per
    # level and row, rounded up, so ``bound`` means the same bytes for both
    # and even a one-level, one-row spin set counts.
    model = DeviceModel()
    drive, dt = evolve.drive_operator(model), 1e-9
    operator = (drive.tobytes(), dt)
    rows = NoiseSample(np.array([0.0, 20e3, -20e3]), np.array([5e3, 0.0, -5e3]))
    coupled = evolve._energies(model, 13.54e9, True, rows)
    separable = evolve._energies(model, 13.54e9, False, rows)
    amp, phi = np.array([0.2, 0.0, 0.35, 0.2]), np.array([0.3, 0.0, -1.2, 2.0])

    memo = PropagatorMemo()
    for energies in (coupled, separable):
        _sampled_product(amp, phi, energies, drive, dt, memo, operator)
    assert memo.counts["level_misses"] == 2
    assert memo.held == 3 * 3 + 5  # 9 matrices; 3 x 3 x 8 complex = 4.5 matrices
    bytes_held = sum(v.nbytes for table in memo._tables.values() for v in table.values())
    assert bytes_held == (9 + 4.5) * 256
    # The same rows serve both paths only under their own block structure.
    for energies in (coupled, separable):
        _sampled_product(amp, phi, energies, drive, dt, memo, operator)
    assert memo.counts["level_hits"] == 2 and memo.held == 14

    # A separable row in a call with a coupled one takes the 4x4 path: with
    # more than _CHUNK // 2 levels it is a draw group of its own, kept under
    # the 4x4 structure and never served to a call of that row alone.
    levels = np.linspace(0.0, 0.5, evolve._CHUNK // 2 + 5)
    both = np.concatenate([separable[1:2], coupled[2:]])
    for energies in (both, separable[1:2]):
        kept = _sampled_product(levels, levels, energies, drive, dt, memo, operator)
        fresh = _sampled_product(levels, levels, energies, drive, dt)
        assert np.array_equal(kept, fresh)
    assert memo.counts["level_misses"] == 2 + 3

    monkeypatch.setattr(PropagatorMemo, "bound", 2)
    small, one_row = PropagatorMemo(), separable[:1]
    held = []
    for level in (0.1, 0.2, 0.3):
        _sampled_product(np.array([level]), np.array([0.5]), one_row, drive, dt, small, operator)
        held.append(small.held)
    assert held == [1, 2, 1]  # each fills half the bound; the third empties the memo
    assert small.counts["level_misses"] == 3
    assert sum(len(table) for table in small._tables.values()) == 1
