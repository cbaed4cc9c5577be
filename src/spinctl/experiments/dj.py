"""Two-qubit Deutsch-Jozsa algorithm on the exchange-coupled pair.

Qubit 2 is the query register (measured at the end); qubit 1 holds the
phase-kickback eigenstate.  The one-bit oracles are implemented as
controlled rotations on qubit 1 (cnot = pi at its high conditional
frequency, z-cnot = pi at the low one) and as i / x2 for the balanced
pair.  Both cnot oracles leave the query qubit reading |1>, i and x2
leave it reading |0>.  Qubit 2's preparation gates address only its low
branch: qubit 1 is in |0> at those moments, so the high branch is dark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler.ir import GateOp
from ..physics import corrected_p_up, shot_rng
from ..physics.readout import correction_slope
from .base import Bench, binomial_stderr, check_arguments

ORACLES = ("cnot", "z_cnot", "identity", "x2")


def dj_program(oracle: str) -> list[GateOp]:
    if oracle not in ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}; choose from {ORACLES}")
    ops = [
        GateOp("my", 2, branch="low"),  # query superposition while q1 is |0>
        GateOp("y", 1),                 # kickback eigenstate |-x> on q1
    ]
    if oracle == "cnot":
        ops.append(GateOp("crot_high", 1))
    elif oracle == "z_cnot":
        ops.append(GateOp("crot_low", 1))
    elif oracle == "x2":
        ops.append(GateOp("x2", 1))
    # identity: no oracle pulse
    ops += [
        GateOp("my", 1),                # q1 back to |0>
        GateOp("y", 2, branch="low"),   # unprepare the query
    ]
    return ops


@dataclass
class DjResult:
    p_output_one: dict
    stderr: dict
    shots: int
    seed: int
    meta: dict = field(default_factory=dict)


def run_dj(bench: Bench, *, shots: int = 10_000, seed: int = 0,
           engine: str = "dense") -> DjResult:
    """Run all four oracles; the query qubit's P(read 1) is readout-corrected,
    and so is its stderr.

    Oracles whose corrected P(1) sits on the [0, 1] clip are listed in
    ``meta["clipped"]``: there the linear stderr understates the spread.
    """
    flat = [] if bench.exchange_on else ["Deutsch-Jozsa needs the exchange-on frequency plan "
                                         "of its controlled rotations; build the bench with "
                                         "Bench(..., exchange_on=True)"]
    check_arguments([("shots", shots, "take at least 1 shot per oracle")], engine=engine,
                    problems=flat)
    bench.new_tally()
    p_out, err = {}, {}
    slope = correction_slope(bench.model, 2)
    programs = (bench.compile(dj_program(oracle)) for oracle in ORACLES)
    rngs = [shot_rng(seed, k) for k in range(len(ORACLES))]
    counts = bench.sample(programs, (2,), shots, rngs, engine=engine)
    for oracle, (hits,) in zip(ORACLES, counts):
        p_out[oracle] = corrected_p_up(hits / shots, bench.model, 2)
        err[oracle] = slope * binomial_stderr(hits / shots, shots)
    clipped = [oracle for oracle in ORACLES if p_out[oracle] in (0.0, 1.0)]
    return DjResult(p_output_one=p_out, stderr=err, shots=shots, seed=seed,
                    meta={"clipped": clipped, **bench.tallies()})
