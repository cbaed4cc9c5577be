"""The four benchmark workloads, built from the paper's experiments.

Each workload is closed loop: one experiment at a time, from one process.
``inputs(seed)`` makes everything the run consumes from the seed alone;
``bench()`` builds the workload's ``Bench`` (set-up time covers one);
``run(inputs)`` builds a fresh ``Bench`` and drives the stack; ``check``
compares the outputs with an oracle and returns the names of the checks
that failed.  Checks use tolerances, never golden values, so a deliberate
change of the random substream layout keeps them valid.

Entry points of the other layers are looked up on their modules at call
time (``compiler.parse_program``, ``image_io.dump_image``, ...), so the
traced run sees these calls too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import spinctl.compiler as compiler
import spinctl.controller.image_io as image_io
import spinctl.controller.rf as rf
import spinctl.experiments as experiments
import spinctl.metrics as metrics
from spinctl.controller.executor import Transmitter, TxConfig
from spinctl.controller.memory import Instruction, MemoryImage
from spinctl.controller.nco import PHASE_WORDS
from spinctl.physics import DeviceModel

# Quasi-static detuning noise of the noisy workloads, Hz (one draw per shot).
SIGMA_DETUNE = 50e3
# Outcomes this many binomial standard errors from the oracle fail a check.
Z_TOL = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict]
    bench: Callable[[], experiments.Bench]
    run: Callable[[dict], object]
    check: Callable[[dict, object], list]


# --- rb_noisy ---------------------------------------------------------------

# Quasi-static detuning makes survival differ strongly from one random
# sequence to the next (each sequence echoes the noise differently).  With
# four lengths or fewer than twelve sequences the A p^m + B fit settles on
# a fast decay to a high floor (p < 0.9) for about one seed in forty.
RB_LENGTHS = (1, 5, 10, 25, 50, 100)
RB_SEQUENCES = 12
RB_REPETITIONS = 30


def _noisy_bench():
    return experiments.Bench(DeviceModel(sigma_detune=SIGMA_DETUNE), TxConfig())


def _rb_run(inp):
    return experiments.run_rb(
        _noisy_bench(), RB_LENGTHS, qubit=2, n_sequences=RB_SEQUENCES,
        repetitions=RB_REPETITIONS, seed=inp["seed"],
    )


def _rb_check(inp, res):
    failed = []
    if not math.isfinite(res.p_stderr):
        failed.append("rb: p_stderr is not finite")
    if not 0.9 < res.p <= 1.0:
        failed.append(f"rb: p={res.p:.4f} outside (0.9, 1]")
    if res.survival[0] < 0.95:
        failed.append(f"rb: survival {res.survival[0]:.3f} at m={RB_LENGTHS[0]} below 0.95")
    return failed


# --- allxy_noisy_dense --------------------------------------------------------

ALLXY_SHOTS = 20
# Per-shot error allowed on the +-1 pairs.  Noise and DAC quantization give
# about 0.002 (measured at 400 shots per pair on the trace engine).
ALLXY_SHOT_ERROR = 0.02


def _allxy_run(inp):
    return experiments.run_allxy(
        _noisy_bench(), qubit=2, shots=ALLXY_SHOTS, seed=inp["seed"], engine="dense"
    )


def _sigma_z_tol(ideal, n_shots):
    """Allowed |<sigma_z> - ideal| for a mean over ``n_shots`` shots."""
    p = 0.5 if ideal == 0.0 else ALLXY_SHOT_ERROR
    bias = 0.0 if ideal == 0.0 else ALLXY_SHOT_ERROR
    return 2.0 * (bias + Z_TOL * math.sqrt(p * (1.0 - p) / n_shots))


def _allxy_check(inp, res):
    failed = []
    z = np.asarray(res.sigma_z)
    ideal = np.asarray(experiments.IDEAL_SIGMA_Z)
    for k, (pair, v, i) in enumerate(zip(res.pairs, z, ideal)):
        if abs(v - i) > _sigma_z_tol(i, res.shots):
            failed.append(f"allxy: pair {k} {'*'.join(pair)} sigma_z={v:+.3f}, ideal {i:+.0f}")
    # The 5/12/4 pattern: the mean of each group against its level.
    for level in (-1.0, 0.0, 1.0):
        group = z[ideal == level]
        if abs(group.mean() - level) > _sigma_z_tol(level, res.shots * len(group)):
            failed.append(f"allxy: group {level:+.0f} mean {group.mean():+.3f}")
    return failed


# --- spectroscopy_shaped -------------------------------------------------------

SPEC_QUBIT = 2  # probed qubit; the sweep below spans f2 +- 1.3 J
SPEC_STEP = 0.25e6
SPEC_POINTS = 104
SPEC_SHOTS = 100_000


def _exchange_bench():
    return experiments.Bench(DeviceModel(), TxConfig(), exchange_on=True)


def _plain_bench():
    return experiments.Bench(DeviceModel(), TxConfig())


def _spec_inputs(seed):
    # The grid starts at a seed-dependent fraction of a step, so the lines
    # fall at a different place between grid points for every seed.
    model = DeviceModel()
    start = model.f2 - 1.3 * model.j_on + np.random.default_rng(seed).uniform(0.0, SPEC_STEP)
    return {"seed": seed, "freqs": start + SPEC_STEP * np.arange(SPEC_POINTS)}


def _spec_run(inp):
    bench = _exchange_bench()
    return [
        experiments.run_spectroscopy(
            bench, SPEC_QUBIT, inp["freqs"], shots=SPEC_SHOTS, seed=inp["seed"],
            shape="gaussian", prepare_other=prepare, engine="trace",
        )
        for prepare in (False, True)
    ]


def _spec_check(inp, sweeps):
    model = DeviceModel()
    f_low = model.f2 - model.j_on / 2
    failed = []
    # Spectator in |0>: the low conditional line; in |1>: J above it.
    for sweep, line in zip(sweeps, (f_low, f_low + model.j_on)):
        peak = experiments.locate_peaks(sweep, SPEC_QUBIT)[0]
        if abs(peak - line) > SPEC_STEP:
            failed.append(f"spectroscopy: peak {peak / 1e6:.3f} MHz, line {line / 1e6:.3f} MHz")
    return failed


# --- controller_pipeline -------------------------------------------------------

# Per qubit: every rotation gate in both shapes, and Clifford-angle virtual
# Z, in these counts.  The seed shuffles the order and picks the Z angles,
# so every seed compiles the same amount of work in a different layout.
PIPE_ROTATIONS_PER_GATE = {"rectangular": 24, "gaussian": 6}
PIPE_Z_PER_QUBIT = 50
TWO_TONE_LOG2_LEN = 17
TWO_TONE_BLOCK = 8192
TWO_TONE_AMP = 0.4
# Worst intermodulation product allowed, dBc re the weaker tone.  With the
# default 10-bit PAC and DAC the products sit near -66 dBc.
IMD_FLOOR_DBC = -55.0


def _pipeline_inputs(seed):
    rng = np.random.default_rng(seed)
    lines = []
    for q in (1, 2):
        for gate in ("x", "y", "x2", "y2", "mx", "my"):
            for shape, count in PIPE_ROTATIONS_PER_GATE.items():
                option = " shape=gaussian" if shape == "gaussian" else ""
                lines += [f"{gate} q{q}{option}"] * count
        angles = rng.choice(["pi/2", "pi", "-pi/2", "3pi/2"], size=PIPE_Z_PER_QUBIT)
        lines += [f"z q{q} angle={a}" for a in angles]
    lines = [lines[i] for i in rng.permutation(len(lines))]
    # Two tones on whole FFT bins of the analysis length, one per bank,
    # at least 20 MHz apart and inside +-200 MHz of the LO.
    n = 1 << TWO_TONE_LOG2_LEN
    words_per_bin = PHASE_WORDS // n
    cfg = TxConfig()
    max_bin = int(200e6 / cfg.f_clk * n)
    min_gap = int(20e6 / cfg.f_clk * n)
    while True:
        bins = rng.integers(-max_bin, max_bin, size=2)
        if abs(int(bins[0]) - int(bins[1])) >= min_gap and all(bins):
            break
    return {
        "text": "\n".join(lines) + "\n",
        "tone_bins": [int(b) for b in bins],
        "tone_ftws": [int(b) * words_per_bin % PHASE_WORDS for b in bins],
    }


def _two_tone_image():
    """Both banks play the same constant envelope block on NCO 0."""
    img = MemoryImage()
    img.envelope.write_values(np.full(TWO_TONE_BLOCK, TWO_TONE_AMP))
    for bank in (0, 1):
        img.add_instruction(bank, 0, Instruction(0, start_addr=0, stop_addr=TWO_TONE_BLOCK - 1))
    for _ in range((1 << TWO_TONE_LOG2_LEN) // TWO_TONE_BLOCK):
        for bank in (0, 1):
            img.schedule(bank, 0, 0)
    return img


def _pipeline_run(inp):
    bench = _plain_bench()
    cfg = bench.cfg
    prog = bench.compile(compiler.parse_program(inp["text"]))
    blobs = [image_io.dump_image(img) for img in prog.images]
    loaded = [image_io.load_image(b) for b in blobs]
    redumped = [image_io.dump_image(img) for img in loaded]
    wf = Transmitter(cfg, prog.ftws).execute_sequence(loaded)
    prog_spec = metrics.compute_spectrum(rf.upconvert(wf, cfg))

    tone_ftws = {(bank, 0): ftw for bank, ftw in enumerate(inp["tone_ftws"])}
    tone_rf = rf.upconvert(Transmitter(cfg, tone_ftws).execute(_two_tone_image()), cfg)
    f_a, f_b = (cfg.lo_freq + b * cfg.f_clk / len(tone_rf) for b in inp["tone_bins"])
    tone_spec = metrics.compute_spectrum(tone_rf)
    lobes = [(f - 2 * tone_spec.rbw, f + 2 * tone_spec.rbw) for f in (f_a, f_b, cfg.lo_freq)]
    return {
        "blobs": blobs,
        "redumped": redumped,
        "compiled": prog.images,
        "images": loaded,
        "samples": len(wf),
        "prog_tone_freq": prog_spec.tone_freq,
        "slot_freqs": [s.offset_hz + cfg.lo_freq for s in bench.plan.slots],
        "freqs": (f_a, f_b),
        "tone_spec": tone_spec,
        "two_tone": metrics.two_tone_report(tone_rf, f_a, f_b),
        "sfdr_db": metrics.sfdr(tone_spec, exclusions=lobes),
        "snr_db": metrics.snr(tone_spec),
    }


def _trigger_samples(image):
    """Samples one trigger plays: the longest bank's burst total."""
    per_bank = [0, 0]
    for ref in image.instruction_list:
        per_bank[ref.bank] += image.tables[ref.bank][ref.nco][ref.slot].n_samples
    return max(per_bank)


def _pipeline_check(inp, out):
    failed = []
    bad = sum(a != b for a, b in zip(out["blobs"], out["redumped"]))
    if bad:
        failed.append(f"pipeline: {bad} of {len(out['blobs'])} images change on dump(load(b))")
    bad = sum(a != b for a, b in zip(out["compiled"], out["images"]))
    if bad:
        failed.append(f"pipeline: {bad} of {len(out['images'])} images differ after load(dump(image))")
    planned = sum(_trigger_samples(img) for img in out["images"])
    if out["samples"] != planned:
        failed.append(f"pipeline: executed {out['samples']} samples, triggers plan {planned}")
    if min(abs(out["prog_tone_freq"] - f) for f in out["slot_freqs"]) > 2e6:
        failed.append(f"pipeline: program spectrum peak {out['prog_tone_freq'] / 1e6:.3f} MHz off plan")
    spec = out["tone_spec"]
    found = sorted(np.argsort(spec.power_dbc)[-2:].tolist())
    if found != sorted(spec.bin_of(f) for f in out["freqs"]):
        peaks = [float(spec.freqs[b]) for b in found]
        failed.append(f"pipeline: two-tone peaks at {peaks}, planned {sorted(out['freqs'])}")
    report = out["two_tone"]
    if report["imd_worst_dbc"] > IMD_FLOOR_DBC:
        failed.append(f"pipeline: IMD {report['imd_worst_dbc']:.1f} dBc above {IMD_FLOOR_DBC} dBc")
    if abs(report["tone_a_dbc"] - report["tone_b_dbc"]) > 0.5:
        failed.append("pipeline: equal-amplitude tones differ by more than 0.5 dB")
    if not (out["sfdr_db"] > -IMD_FLOOR_DBC and math.isfinite(out["snr_db"])):
        failed.append(f"pipeline: SFDR {out['sfdr_db']:.1f} dB, SNR {out['snr_db']:.1f} dB")
    return failed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rb_noisy", lambda seed: {"seed": seed}, _noisy_bench, _rb_run, _rb_check),
        Workload("allxy_noisy_dense", lambda seed: {"seed": seed}, _noisy_bench, _allxy_run, _allxy_check),
        Workload("spectroscopy_shaped", _spec_inputs, _exchange_bench, _spec_run, _spec_check),
        Workload("controller_pipeline", _pipeline_inputs, _plain_bench, _pipeline_run, _pipeline_check),
    )
}
