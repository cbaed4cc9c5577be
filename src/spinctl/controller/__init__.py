from .nco import (
    PHASE_BITS,
    PHASE_WORDS,
    freq_to_ftw,
    ftw_to_freq,
    offset_to_ftw,
    ftw_to_offset,
)
from .memory import (
    ENVELOPE_CAPACITY,
    TABLE_CAPACITY,
    LIST_CAPACITY,
    N_BANKS,
    N_NCOS,
    EnvelopeMemory,
    Instruction,
    ListEntry,
    MemoryImage,
)
from .executor import Impairments, Transmitter, TxConfig, Waveform
from .rf import upconvert

__all__ = [
    "PHASE_BITS",
    "PHASE_WORDS",
    "freq_to_ftw",
    "ftw_to_freq",
    "offset_to_ftw",
    "ftw_to_offset",
    "ENVELOPE_CAPACITY",
    "TABLE_CAPACITY",
    "LIST_CAPACITY",
    "N_BANKS",
    "N_NCOS",
    "EnvelopeMemory",
    "Instruction",
    "ListEntry",
    "MemoryImage",
    "Impairments",
    "Transmitter",
    "TxConfig",
    "Waveform",
    "upconvert",
]
