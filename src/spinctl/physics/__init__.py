from .device import (
    DeviceModel,
    NoiseSample,
    ReadoutFidelity,
    ZERO_NOISE,
    sample_noise_batch,
    shot_rng,
)
from .state import QuantumState
from .hamiltonian import detunings, generator, transition_frequencies
from .evolve import (
    FastPathUnavailable,
    dense_propagators,
    evolve,
    evolve_trace,
    rabi_probability,
    rotation_for_phase,
    trace_propagators,
    two_level_evolve,
)
from .readout import born_probabilities, measure, readout_probabilities

__all__ = [
    "DeviceModel",
    "NoiseSample",
    "ReadoutFidelity",
    "ZERO_NOISE",
    "sample_noise_batch",
    "shot_rng",
    "QuantumState",
    "detunings",
    "generator",
    "transition_frequencies",
    "FastPathUnavailable",
    "dense_propagators",
    "evolve",
    "evolve_trace",
    "rabi_probability",
    "rotation_for_phase",
    "trace_propagators",
    "two_level_evolve",
    "born_probabilities",
    "measure",
    "readout_probabilities",
]
