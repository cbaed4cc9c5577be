"""Qubit spectroscopy: flip probability versus probe NCO frequency.

The probe image (an optional preparation plus a calibrated near-pi burst)
is compiled once; the sweep only rewrites the probe NCO's tuning word,
exactly how the modeled hardware scans a resonance.
"""

from __future__ import annotations

import numpy as np

from ..compiler.ir import GateOp
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
    """Sweep a probe tone across ``frequencies`` (absolute Hz).

    ``prepare_other`` flips the spectator qubit first, selecting the other
    conditional branch when exchange is on.
    """
    check_arguments([("shots", shots, "take at least 1 shot per point")], qubit=qubit,
                    act="probe", engine=engine)
    frequencies = np.asarray(frequencies, dtype=float)
    nyq = bench.cfg.f_clk / 2
    if np.any(np.abs(frequencies - bench.cfg.carrier) >= nyq):
        raise ValueError("sweep extends beyond the Nyquist range around the carrier")

    other = 2 if qubit == 1 else 1
    probe_slot = bench.plan.for_qubit(qubit)[0]
    # Exchange-off plans name their one slot per qubit "main"; "both" selects it.
    branch = "both" if probe_slot.branch == "main" else probe_slot.branch
    ops = [GateOp("x2", other)] if prepare_other else []
    ops.append(GateOp("x2", qubit, shape=shape, branch=branch))
    prog = bench.compile(ops)

    result = SweepResult(x_name="frequency_hz", meta={"qubit": qubit, "shape": shape})
    bench.new_tally()
    for k, f in enumerate(frequencies):
        prog.ftws[(probe_slot.bank, probe_slot.nco)] = offset_to_ftw(
            f - bench.cfg.carrier, bench.cfg.f_clk
        )
        p1, p2 = bench.sample(prog, (1, 2), shots, shot_rng(seed, k), engine=engine) / shots
        result.add(f, p1, p2, binomial_stderr(p1 if qubit == 1 else p2, shots))
    result.meta.update(bench.tallies())
    return result


def locate_peaks(result: SweepResult, qubit: int) -> list[float]:
    """Frequency of the strongest response, as a one-element list; of equal
    maxima, the one ``np.argsort`` puts last."""
    p = result.p1_q1 if qubit == 1 else result.p1_q2
    return [float(result.x[np.argsort(p)[-1]])]
