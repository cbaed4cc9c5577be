from .device import (
    DeviceModel,
    NoiseSample,
    ReadoutFidelity,
    ZERO_NOISE,
    shot_rng,
)
from .hamiltonian import detunings, transition_frequencies
from .evolve import (
    PropagatorMemo,
    dense_propagators,
    evolve_trace,
    rabi_probability,
    rotation_for_phase,
    two_level_evolve,
)
from .readout import born_probabilities, corrected_p_up, readout_probabilities

__all__ = [
    "DeviceModel",
    "NoiseSample",
    "ReadoutFidelity",
    "ZERO_NOISE",
    "shot_rng",
    "detunings",
    "transition_frequencies",
    "PropagatorMemo",
    "dense_propagators",
    "evolve_trace",
    "rabi_probability",
    "rotation_for_phase",
    "two_level_evolve",
    "born_probabilities",
    "corrected_p_up",
    "readout_probabilities",
]
