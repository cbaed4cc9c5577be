"""Import every spinctl module and run a small over-rotated RB, two noisy
dense AllXY pairs on an exchange-off bench (the kernel's closed-form spin
path), one noisy RB sequence and one program of gaussian and rectangular
gates on the trace engine, that program's trace and dense unitaries on
wide converters (exchange off), a noiseless exchange-on gaussian spectroscopy
probe on the trace engine (the kernel's 4x4 path), a played program through
synthesize, upconvert, its spectrum, SNR, SFDR, LO rejection and two-tone
report, a program split across triggers through image dump, load and play
(and one image with a dangling list entry, which play must reject), and the
spectra of each window with scipy made unimportable; exits non-zero on
failure.

    python tests/no_scipy_smoke.py

spinctl's runtime is numpy alone: scipy is a test-only dependency.  A
deferred ``import scipy`` inside a function fails here too.  The noise
quadrature builds its rules itself, so ``numpy.polynomial`` (about 1.7 MB
of resident memory) must stay unloaded as well.
"""

import importlib
import importlib.abc
import pkgutil
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, fullname, path=None, target=None):
        if fullname.partition(".")[0] == "scipy":
            raise ImportError(f"{fullname} is blocked: spinctl must run on numpy alone")
        return None


def main():
    sys.meta_path.insert(0, NoScipy())
    import numpy as np

    import spinctl

    for module in pkgutil.walk_packages(spinctl.__path__, "spinctl."):
        importlib.import_module(module.name)

    from spinctl.compiler import default_calibration
    from spinctl.compiler.ir import GateOp
    from spinctl.controller.executor import Transmitter, TxConfig, Waveform, synthesize
    from spinctl.controller.image_io import dump_image, load_image
    from spinctl.controller.memory import ListEntry
    from spinctl.controller.rf import upconvert
    from spinctl.experiments import Bench, run_rb, run_spectroscopy
    from spinctl.experiments.allxy import ALLXY_PAIRS, IDEAL_SIGMA_Z
    from spinctl.experiments.base import gauss_hermite
    from spinctl.experiments.cliffords import N_CLIFFORDS, recovery_index, sequence_primitives
    from spinctl.metrics import (
        IMD_PRODUCTS,
        WINDOWS,
        compute_spectrum,
        lo_rejection,
        sfdr,
        snr,
        two_tone_report,
    )
    from spinctl.physics import (
        DeviceModel,
        NoiseSample,
        corrected_p_up,
        dense_propagators,
        shot_rng,
        trace_propagators,
    )

    # Every rotation at 0.9 of its angle (calibrated against a 1/0.9 stronger
    # coupling): compiled, played and evolved like any RB, p near 0.976.
    # With 3 sequences at 4 lengths the free-floor fit left (0.9, 1] for 24
    # of 200 seeds; these sizes kept p in [0.93, 0.995] over 400.
    model = DeviceModel()
    strong = DeviceModel(drive_coupling=tuple(c / 0.9 for c in model.drive_coupling))
    nominal = Bench(model, TxConfig())
    over = Bench(model, TxConfig(), plan=nominal.plan,
                 cal=default_calibration(strong, nominal.plan, amp_bits=nominal.cfg.amp_bits))
    res = run_rb(over, (1, 5, 10, 20, 40, 60, 100), n_sequences=20, repetitions=100, seed=1)
    assert 0.9 < res.p <= 1.0 and np.isfinite(res.p_stderr), res

    assert gauss_hermite.cache_info().currsize == 0  # rules are made on first use
    noisy = Bench(DeviceModel(sigma_detune=50e3), TxConfig())
    prog = noisy.compile([GateOp("x", 2), GateOp("x", 2)])
    (hits,) = noisy.sample(prog, (2,), 10_000, shot_rng(0, 5), engine="dense")
    assert hits > 9_900 and noisy.quadrature["calls"] == 1, (hits, noisy.quadrature)

    # Exchange off, the dense kernel evolves each spin as a 2x2 in closed
    # form.  An equator pair puts qubit 2 at <sigma_z> = 0.
    k = ALLXY_PAIRS.index(("x", "y"))
    prog = noisy.compile([GateOp(g, 2) for g in ALLXY_PAIRS[k]])
    (hits,) = noisy.sample(prog, (2,), 10_000, shot_rng(0, k), engine="dense")
    sigma_z = 2.0 * corrected_p_up(hits / 10_000, noisy.model, 2) - 1.0
    assert not noisy.exchange_on and abs(sigma_z - IDEAL_SIGMA_Z[k]) <= 0.05, sigma_z

    # The trace engine folds the sequence's constant bursts as matrix powers.
    indices = np.random.default_rng(4).integers(0, N_CLIFFORDS, size=25).tolist()
    ops = [GateOp(g, 2) for g in sequence_primitives(indices + [recovery_index(indices)])]
    noisy.new_tally()
    (hits,) = noisy.sample(noisy.compile(ops), (2,), 1_000, shot_rng(0, 6), engine="trace")
    assert hits < 100, hits  # the sequence returns qubit 2 to |0>
    assert noisy.memo.counts["power_hits"] > 0, noisy.memo.counts
    assert noisy.quadrature["calls"] == 1 and noisy.quadrature["converged"], noisy.quadrature

    # Gaussian bursts go through the kernel inside the same fold.  A virtual
    # z by pi turns the second half back, whatever the gaussian's angle.
    shaped = [GateOp("x2", 2), GateOp("x", 2, shape="gaussian"), GateOp("z", 2, angle=np.pi),
              GateOp("x", 2, shape="gaussian"), GateOp("x2", 2)]
    noisy.new_tally()
    (hits,) = noisy.sample(noisy.compile(shaped), (2,), 1_000, shot_rng(0, 7), engine="trace")
    assert hits < 100, hits  # qubit 2 returns to |0>
    counts = noisy.memo.counts
    assert counts["level_hits"] + counts["level_misses"] > 0, counts
    assert counts["power_hits"] + counts["power_misses"] > 0, counts

    # On converters wide enough that requantization is negligible, the same
    # program's spin-path powers and kernel cluster, folded together, agree
    # with the dense engine's per-sample product.
    wide = Bench(DeviceModel(), TxConfig(dac_bits=26, amp_bits=22, pac_addr_bits=22))
    trace = wide.run_program(wide.compile(shaped))
    rows = NoiseSample(np.array([0.0, 30e3, -30e3]), np.array([-20e3, 0.0, 40e3]))
    physics = dict(model=wide.model, lo_freq=wide.cfg.carrier, noise=rows)
    fast = trace_propagators(trace, **physics)
    dense = dense_propagators(synthesize(trace, wide.cfg), **physics)
    assert not wide.exchange_on and fast.shape == dense.shape == (3, 4, 4), fast.shape
    assert np.max(np.abs(fast - dense)) < 1e-6, np.max(np.abs(fast - dense))

    # Exchange on, a gaussian probe is a kernel cluster of 4x4 exponentials:
    # on the lower conditional line of qubit 2 it flips the spin more than
    # twice as often as 2 MHz off it, and the second point reuses the
    # first's exponentials.
    exchange = Bench(DeviceModel(), TxConfig(), exchange_on=True)
    line = exchange.model.f2 - exchange.model.j_on / 2
    res = run_spectroscopy(exchange, 2, [line, line + 2e6], shots=10_000, seed=1,
                           shape="gaussian", engine="trace")
    on, off = res.p1_q2
    assert on > 2 * off > 0.0, res.p1_q2
    assert res.meta["propagator_memo"]["level_hits"] == 1, res.meta

    # The DAC output and its RF signal are one type, which the metrics read.
    bench = Bench(DeviceModel(), TxConfig())
    wf = synthesize(bench.run_program(bench.compile([GateOp("x", 2), GateOp("y2", 1)])), bench.cfg)
    rf = upconvert(wf, bench.cfg)
    spec = compute_spectrum(rf)
    assert rf.carrier_freq == bench.cfg.carrier and len(spec) == len(wf), (rf.carrier_freq, len(spec))
    offsets = [slot.offset_hz for slot in bench.plan.slots]
    assert min(abs(spec.tone_freq - rf.carrier_freq - f) for f in offsets) < 2e6, spec.tone_freq
    levels = snr(spec), sfdr(spec), lo_rejection(spec)
    assert all(np.isfinite(levels)) and min(levels) > 0.0, levels
    # The program plays both qubits' tones, one after the other.
    report = two_tone_report(rf, *(rf.carrier_freq + f for f in offsets))
    tones = report["tone_a_dbc"], report["tone_b_dbc"]
    assert max(tones) == 0.0 and min(tones) > -10.0, report
    assert len(report["products_dbc"]) == len(IMD_PRODUCTS), report

    # A program split across triggers round-trips through the image format
    # and plays its reported duration; a dangling list entry is caught in play.
    prog = bench.compile([GateOp("x", 2), GateOp("y2", 1)] * 1200)
    assert prog.report["split"] and prog.n_triggers >= 2, prog.report
    blobs = [dump_image(image) for image in prog.images]
    loaded = [load_image(blob) for blob in blobs]
    assert [dump_image(image) for image in loaded] == blobs
    tx = Transmitter(bench.cfg, prog.ftws)
    trace = tx.play(loaded)
    assert trace.n_samples == prog.report["duration_samples"], trace.n_samples
    count = tx.sample_count
    loaded[-1].instruction_list.append(ListEntry(1, 15, 7))  # the earlier images play first
    try:
        tx.play(loaded)
    except ValueError as exc:
        assert "empty slot" in str(exc), exc
    else:
        raise AssertionError("a dangling list entry played")
    assert tx.sample_count == count, tx.sample_count

    n = 1024
    t = np.arange(n)
    z = 0.4 * np.exp(2j * np.pi * 100 / n * t) + 0.4 * np.exp(2j * np.pi * 180 / n * t)
    z = Waveform(z, sample_rate=1.0)
    for window in WINDOWS:
        compute_spectrum(z, window=window)
    report = two_tone_report(z, 100 / n, 180 / n)
    assert report["imd_worst_dbc"] < -200.0, report

    loaded = sorted(name for name in sys.modules
                    if name.partition(".")[0] == "scipy" or name.startswith("numpy.polynomial"))
    assert not loaded, loaded
    print("spinctl ran on numpy alone")


if __name__ == "__main__":
    main()
