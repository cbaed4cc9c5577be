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
    rotation_for_phase,
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
    "rotation_for_phase",
    "born_probabilities",
    "corrected_p_up",
    "readout_probabilities",
]
