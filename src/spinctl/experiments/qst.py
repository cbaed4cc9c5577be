"""Quantum state tomography of one qubit along a burst trajectory.

Projections are measured on the (-z, +x, -y, +z) axes: direct readout,
then readout preceded by y, x, or x2.  Linear inversion gives a Bloch
vector; eigenvalue truncation projects it to the closest physical state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler.ir import GateOp
from ..physics import corrected_p_up, shot_rng
from .base import Bench, check_arguments

# Pre-measurement rotation per axis; m = 2*P(read 1) - 1 after correction.
BASES = [("-z", None), ("+x", "y"), ("-y", "x"), ("+z", "x2")]

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass
class TomoPoint:
    time: float
    projections: dict
    bloch_raw: np.ndarray
    bloch_mle: np.ndarray
    physical_before_mle: bool

    @property
    def rho(self) -> np.ndarray:
        x, y, z = self.bloch_mle
        return 0.5 * (np.eye(2) + x * SX + y * SY + z * SZ)


@dataclass
class TomoResult:
    points: list[TomoPoint] = field(default_factory=list)
    shots_per_basis: int = 1000
    seed: int = 0
    meta: dict = field(default_factory=dict)


def project_physical(bloch: np.ndarray) -> tuple[np.ndarray, bool]:
    """Closest physical state (Frobenius norm): eigenvalue truncation.

    For one qubit this truncates the negative eigenvalue of the linear
    estimate and renormalizes, which shrinks the vector onto the Bloch
    sphere when it falls outside.
    """
    norm = float(np.linalg.norm(bloch))
    if norm <= 1.0:
        return bloch.copy(), True
    return bloch / norm, False


def measured_projection(bench: Bench, prefix_ops, basis_gate, qubit, shots, rng) -> float:
    ops = list(prefix_ops)
    if basis_gate is not None:
        ops.append(GateOp(basis_gate, qubit))
    (hits,) = bench.sample(bench.compile(ops), (qubit,), shots, rng)
    return 2.0 * corrected_p_up(hits / shots, bench.model, qubit) - 1.0


def run_qst_trajectory(bench: Bench, times, *, qubit: int = 2, shots: int = 1000,
                       seed: int = 0) -> TomoResult:
    """Tomography of the state after an x burst of each duration in ``times``."""
    check_arguments([("shots", shots, "take at least 1 shot per basis")], qubit=qubit)
    bench.new_tally()
    result = TomoResult(shots_per_basis=shots, seed=seed)
    for idx, t in enumerate(times):
        prefix = [] if t <= 0 else [GateOp("x2", qubit, duration=float(t))]
        m = {}
        for b, (axis, gate) in enumerate(BASES):
            rng = shot_rng(seed, idx, b)
            m[axis] = measured_projection(bench, prefix, gate, qubit, shots, rng)
        # m(-z) = +z-component read through nothing equals z; after x2 it flips.
        x = m["+x"]
        y = -m["-y"]
        z = 0.5 * (m["-z"] - m["+z"])
        raw = np.array([x, y, z])
        mle, physical = project_physical(raw)
        result.points.append(
            TomoPoint(
                time=float(t),
                projections=m,
                bloch_raw=raw,
                bloch_mle=mle,
                physical_before_mle=physical,
            )
        )
    result.meta.update(bench.tallies())
    return result
