"""Device parameters of the two-spin processor and its quasi-static noise offsets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class ReadoutFidelity:
    """Probabilities of reading a state correctly: F0 for |0>, F1 for |1>."""

    f0: float = 1.0
    f1: float = 1.0

    def __post_init__(self):
        for name, v in (("f0", self.f0), ("f1", self.f1)):
            if not 0.5 < v <= 1.0:
                raise ValueError(f"readout fidelity {name}={v} outside (0.5, 1]")


@dataclass
class DeviceModel:
    """Frequencies, couplings, noise spreads, and readout of the two qubits.

    ``drive_coupling`` is the Rabi rate in Hz at full DAC scale, per qubit.
    Noise sigmas are the spreads of quasi-static Gaussian offsets of each
    qubit frequency and of the exchange, constant over one run of a program
    and independent between runs; ``Bench.sample`` averages the readout over
    them.  Exchange is ``j_on`` or ``j_off`` depending on the barrier setting
    chosen by the experiment.
    """

    f1: float = 13.564e9
    f2: float = 13.45e9
    j_on: float = 10e6
    j_off: float = 0.0
    drive_coupling: tuple[float, float] = (2e6, 2e6)
    sigma_detune: float = 0.0
    sigma_j: float = 0.0
    readout_q1: ReadoutFidelity = field(default_factory=ReadoutFidelity)
    readout_q2: ReadoutFidelity = field(default_factory=ReadoutFidelity)
    crot_readout_fidelity: float = 1.0

    def __post_init__(self):
        problems = []
        if self.f1 == self.f2:
            problems.append("qubit frequencies f1 and f2 must differ")
        if self.j_on <= 0:
            problems.append("j_on must be positive")
        if self.j_off < 0:
            problems.append("j_off cannot be negative")
        if not 0.0 <= self.crot_readout_fidelity <= 1.0:
            problems.append("crot_readout_fidelity outside [0, 1]")
        if any(c <= 0 for c in self.drive_coupling):
            problems.append("drive couplings must be positive")
        if self.sigma_detune < 0 or self.sigma_j < 0:
            problems.append("noise sigmas cannot be negative")
        if problems:
            raise ConfigError(problems)

    def exchange(self, exchange_on: bool) -> float:
        return self.j_on if exchange_on else self.j_off


class NoiseSample(NamedTuple):
    """Quasi-static noise: detuning offsets per qubit and exchange offset, Hz.

    Fields are floats for one set of offsets or equal-length arrays for a
    batch (the rows of a quadrature rule, say).
    """

    delta_f1: float | np.ndarray = 0.0
    delta_f2: float | np.ndarray = 0.0
    delta_j: float | np.ndarray = 0.0


ZERO_NOISE = NoiseSample()


def shot_rng(seed: int, *path: int) -> np.random.Generator:
    """Counter-based substream contract.

    Point p of a sweep uses ``shot_rng(seed, p)`` for all of its shots.
    ``Bench.sample`` takes only the readout from it, one binomial per qubit
    read: quasi-static noise is averaged by quadrature, not drawn.  Runners
    with more structure add indices to the path (RB: ``(length, sequence)``,
    which draws the sequence's Cliffords before the readout; tomography:
    ``(point, basis)``).  Every consumer of randomness derives its generator
    this way, so results are reproducible and points parallelize without
    shared state.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, *path)))
