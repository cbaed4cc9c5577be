from .device import (
    DeviceModel,
    NoiseSample,
    ReadoutFidelity,
    ZERO_NOISE,
    sample_noise_batch,
    shot_rng,
)
from .hamiltonian import detunings, transition_frequencies
from .evolve import (
    dense_propagators,
    rabi_probability,
    rotation_for_phase,
    trace_propagators,
    two_level_evolve,
)
from .readout import born_probabilities, corrected_p_up, measure, readout_probabilities

__all__ = [
    "DeviceModel",
    "NoiseSample",
    "ReadoutFidelity",
    "ZERO_NOISE",
    "sample_noise_batch",
    "shot_rng",
    "detunings",
    "transition_frequencies",
    "dense_propagators",
    "rabi_probability",
    "rotation_for_phase",
    "trace_propagators",
    "two_level_evolve",
    "born_probabilities",
    "corrected_p_up",
    "measure",
    "readout_probabilities",
]
