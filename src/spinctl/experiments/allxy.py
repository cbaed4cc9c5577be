"""AllXY calibration sequence: 21 gate pairs, <sigma_z> per pair.

Ideal outcomes split 5 / 12 / 4 over {-1, 0, +1}; amplitude, frequency, or
phase miscalibration bends characteristic regions of the pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler.ir import GateOp
from ..physics import corrected_p_up, shot_rng
from ..physics.evolve import rotation_for_phase, z_rotation
from .base import Bench, check_arguments
from .cliffords import PRIMITIVE_PARAMS

# Standard ordering: 5 ground pairs, 12 equator pairs, 4 excited pairs.
ALLXY_PAIRS = [
    ("i", "i"), ("x2", "x2"), ("y2", "y2"), ("x2", "y2"), ("y2", "x2"),
    ("x", "i"), ("y", "i"), ("x", "y"), ("y", "x"),
    ("x", "y2"), ("y", "x2"), ("x2", "y"), ("y2", "x"),
    ("x", "x2"), ("x2", "x"), ("y", "y2"), ("y2", "y"),
    ("x2", "i"), ("y2", "i"), ("x", "x"), ("y", "y"),
]

IDEAL_SIGMA_Z = [-1.0] * 5 + [0.0] * 12 + [1.0] * 4


@dataclass
class AllxyResult:
    pairs: list
    sigma_z: list
    ideal: list = field(default_factory=lambda: list(IDEAL_SIGMA_Z))
    shots: int = 0
    seed: int = 0
    meta: dict = field(default_factory=dict)


def run_allxy(bench: Bench, *, qubit: int = 2, shots: int = 10_000, seed: int = 0,
              engine: str = "dense") -> AllxyResult:
    """Run the 21 pairs; readout error is removed via the confusion inverse."""
    check_arguments([("shots", shots, "take at least 1 shot per pair")], qubit=qubit,
                    engine=engine)
    bench.new_tally()
    programs = (bench.compile([GateOp(g, qubit) for g in pair]) for pair in ALLXY_PAIRS)
    rngs = [shot_rng(seed, k) for k in range(len(ALLXY_PAIRS))]
    counts = bench.sample(programs, (qubit,), shots, rngs, engine=engine)
    values = [2.0 * corrected_p_up(hits / shots, bench.model, qubit) - 1.0 for (hits,) in counts]
    return AllxyResult(pairs=list(ALLXY_PAIRS), sigma_z=values, shots=shots, seed=seed,
                       meta=bench.tallies())


def allxy_oracle(amplitude_scale: float = 1.0, detuning_phase: float = 0.0) -> np.ndarray:
    """Unitary-composition reference for miscalibrated AllXY patterns.

    ``amplitude_scale`` multiplies every rotation angle; ``detuning_phase``
    adds a z-precession angle between the two gates (coarse single-step
    model of a frequency error).  Returns the 21 ideal <sigma_z> values.
    """

    def gate(name):
        phase, angle = PRIMITIVE_PARAMS[name]
        return rotation_for_phase(phase, angle * amplitude_scale)

    out = []
    for g1, g2 in ALLXY_PAIRS:
        psi = gate(g2) @ z_rotation(detuning_phase) @ gate(g1) @ np.array([1.0, 0.0], dtype=complex)
        out.append(2.0 * abs(psi[1]) ** 2 - 1.0)
    return np.array(out)
