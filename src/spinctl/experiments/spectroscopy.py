"""Qubit spectroscopy: flip probability versus probe NCO frequency.

The probe image (an optional preparation plus a calibrated near-pi burst)
is compiled once; each point only rewrites the probe NCO's tuning word,
exactly how the modeled hardware scans a resonance, and the whole sweep is
one batch of programs sampled at once.
"""

from __future__ import annotations

import numpy as np

from ..compiler import CompiledProgram
from ..compiler.ir import SHAPES, GateOp
from ..controller.nco import offset_to_ftw
from ..physics import shot_rng
from .base import Bench, SweepResult, binomial_stderr, check_arguments


def run_spectroscopy(
    bench: Bench,
    qubit: int,
    frequencies,
    *,
    shots: int = 100,
    seed: int = 0,
    shape: str = "rectangular",
    prepare_other: bool = False,
    engine: str = "dense",
) -> SweepResult:
    """Sweep a probe tone across ``frequencies`` (absolute Hz); every point
    is one program of the batch ``Bench.sample`` evolves at once.

    ``prepare_other`` flips the spectator qubit first, selecting the other
    conditional branch when exchange is on.  An unknown ``shape``, or a
    frequency that is not finite or lies at or beyond Nyquist around the
    carrier, is rejected before anything is compiled.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    carrier, nyq = bench.cfg.carrier, bench.cfg.f_clk / 2
    problems = ([f"shape={shape!r}: choose one of {sorted(SHAPES)}"]
                if shape is not None and shape not in SHAPES else [])
    finite = np.isfinite(frequencies)
    if not finite.all():
        problems.append(f"frequencies {frequencies[~finite].tolist()} Hz: each must be finite")
    beyond = frequencies[finite & (np.abs(frequencies - carrier) >= nyq)]
    if len(beyond):
        problems.append(f"frequencies {beyond.tolist()} Hz: each under the Nyquist limit, "
                        f"{nyq / 1e6:g} MHz either side of the {carrier / 1e9:g} GHz carrier")
    check_arguments([("shots", shots, "take at least 1 shot per point")], qubit=qubit,
                    act="probe", engine=engine, problems=problems)

    other = 2 if qubit == 1 else 1
    probe_slot = bench.plan.for_qubit(qubit)[0]
    # Exchange-off plans name their one slot per qubit "main"; "both" selects it.
    branch = "both" if probe_slot.branch == "main" else probe_slot.branch
    ops = [GateOp("x2", other)] if prepare_other else []
    ops.append(GateOp("x2", qubit, shape=shape, branch=branch))
    prog = bench.compile(ops)
    # Each point rewrites only the probe NCO's tuning word.
    probe = (probe_slot.bank, probe_slot.nco)
    programs = (CompiledProgram(prog.images, {**prog.ftws, probe: offset_to_ftw(
        f - carrier, bench.cfg.f_clk)}, prog.report) for f in frequencies)

    result = SweepResult(x_name="frequency_hz", meta={"qubit": qubit, "shape": shape})
    bench.new_tally()
    rngs = [shot_rng(seed, k) for k in range(len(frequencies))]
    counts = bench.sample(programs, (1, 2), shots, rngs, engine=engine)
    for f, (p1, p2) in zip(frequencies, counts / shots):
        result.add(f, p1, p2, binomial_stderr(p1 if qubit == 1 else p2, shots))
    result.meta.update(bench.tallies())
    return result


def locate_peaks(result: SweepResult, qubit: int) -> list[float]:
    """Frequency of the strongest response, as a one-element list; of equal
    maxima, the one ``np.argsort`` puts last."""
    p = result.p1_q1 if qubit == 1 else result.p1_q2
    return [float(result.x[np.argsort(p)[-1]])]
