"""Controller memories: envelope store, instruction tables, instruction list.

Capacities mirror the modeled hardware and are hard limits: writes past
them raise CapacityError instead of truncating.  Every write checks what
it writes (codes, instruction forms, bank/NCO/slot ranges); what only the
whole image can show, an empty slot or a burst past the envelope, is
checked by ``Transmitter.play`` as it plays the list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import CapacityError
from .nco import PHASE_BITS, PHASE_WORDS, quantize_unit

ENVELOPE_CAPACITY = 40960
TABLE_CAPACITY = 8
LIST_CAPACITY = 2048
N_BANKS = 2
N_NCOS = 16


def quantize_codes(amplitudes, amp_bits: int) -> np.ndarray:
    """Signed amplitude codes of float amplitudes in [-1, 1)."""
    scale = 1 << (amp_bits - 1)
    return (quantize_unit(amplitudes, amp_bits) * scale).astype(np.int64)


def _no_codes() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass(eq=False)
class EnvelopeMemory:
    """Ordered amplitude/phase points shared by all NCOs of a transmitter.

    Point k is the signed amplitude code ``amp_codes[k]`` and the unsigned
    phase code ``phase_mods[k]``.  Blocks are only ever appended whole or
    truncated away; the arrays are never changed in place.
    """

    amp_bits: int = 10
    phase_mod_bits: int = 10
    amp_codes: np.ndarray = field(default_factory=_no_codes)
    phase_mods: np.ndarray = field(default_factory=_no_codes)

    def __post_init__(self):
        if not 2 <= self.amp_bits <= 30:
            raise ValueError(f"amp_bits={self.amp_bits} outside supported range 2..30")
        if not 1 <= self.phase_mod_bits <= PHASE_BITS:
            raise ValueError(f"phase_mod_bits={self.phase_mod_bits} outside 1..{PHASE_BITS}")
        self.amp_codes, self.phase_mods = self._checked(self.amp_codes, self.phase_mods, 0)

    def _checked(self, amp, phase, used: int) -> tuple[np.ndarray, np.ndarray]:
        amp, phase = np.asarray(amp), np.asarray(phase)
        if amp.ndim != 1 or amp.shape != phase.shape:
            raise ValueError(
                f"amplitude and phase codes must be equal-length 1-D arrays, "
                f"got shapes {amp.shape} and {phase.shape}"
            )
        if used + len(amp) > ENVELOPE_CAPACITY:
            raise CapacityError("envelope memory", ENVELOPE_CAPACITY, used + len(amp))
        if len(amp) == 0:
            return _no_codes(), _no_codes()
        for name, codes in (("amplitude", amp), ("phase", phase)):
            if not np.issubdtype(codes.dtype, np.integer):
                raise ValueError(f"{name} codes must be integers, got {codes.dtype}")
        lim = 1 << (self.amp_bits - 1)
        bad = (amp < -lim) | (amp >= lim)
        if bad.any():
            raise ValueError(f"amplitude code {amp[bad][0]} outside {self.amp_bits}-bit grid")
        bad = (phase < 0) | (phase >= 1 << self.phase_mod_bits)
        if bad.any():
            raise ValueError(
                f"phase code {phase[bad][0]} outside {self.phase_mod_bits}-bit range"
            )
        return amp.astype(np.int64), phase.astype(np.int64)

    def __len__(self) -> int:
        return len(self.amp_codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnvelopeMemory):
            return NotImplemented
        return (
            (self.amp_bits, self.phase_mod_bits) == (other.amp_bits, other.phase_mod_bits)
            and np.array_equal(self.amp_codes, other.amp_codes)
            and np.array_equal(self.phase_mods, other.phase_mods)
        )

    def write_codes(self, amp_codes, phase_mods=None) -> tuple[int, int]:
        """Append a block of integer codes; returns its (start, stop) inclusive
        address range.  A block that does not fit or has a bad code is
        rejected whole: nothing is written."""
        amp = np.asarray(amp_codes)
        if amp.size == 0:
            raise ValueError("cannot store an empty envelope block")
        phase = np.zeros_like(amp) if phase_mods is None else phase_mods
        amp, phase = self._checked(amp, phase, len(self))
        start = len(self)
        self.amp_codes = np.concatenate([self.amp_codes, amp])
        self.phase_mods = np.concatenate([self.phase_mods, phase])
        return start, len(self) - 1

    def write_values(self, amplitudes, phase_mods=None) -> tuple[int, int]:
        """Quantize float amplitudes in [-1, 1) onto the grid and store them."""
        return self.write_codes(quantize_codes(amplitudes, self.amp_bits), phase_mods)

    def truncate(self, n: int) -> None:
        """Drop every point from address ``n`` on."""
        self.amp_codes = self.amp_codes[:n]
        self.phase_mods = self.phase_mods[:n]

    def amp_values(self, start: int, stop: int) -> np.ndarray:
        return self.amp_codes[start : stop + 1] / (1 << (self.amp_bits - 1))

    def phase_codes(self, start: int, stop: int) -> np.ndarray:
        return self.phase_mods[start : stop + 1].copy()


@dataclass
class Instruction:
    """One table entry: an envelope burst or a zero-duration phase update.

    Exactly one of the two forms is present: ``start_addr``/``stop_addr``
    select an envelope range to play, or ``phase_update`` adds to the NCO
    reference phase without consuming any clock samples.
    """

    nco_index: int
    start_addr: int | None = None
    stop_addr: int | None = None
    phase_update: int | None = None

    def __post_init__(self):
        if not 0 <= self.nco_index < N_NCOS:
            raise ValueError(f"nco_index {self.nco_index} outside 0..{N_NCOS - 1}")
        has_range = self.start_addr is not None or self.stop_addr is not None
        if has_range == (self.phase_update is not None):
            raise ValueError("instruction must carry either an envelope range or a phase update")
        if has_range:
            if self.start_addr is None or self.stop_addr is None:
                raise ValueError("envelope range needs both start and stop addresses")
            if not 0 <= self.start_addr <= self.stop_addr:
                raise ValueError(
                    f"envelope range [{self.start_addr}, {self.stop_addr}] is not ordered"
                )
        else:
            if not 0 <= self.phase_update < PHASE_WORDS:
                raise ValueError(f"phase_update {self.phase_update} not a phase word")

    @property
    def is_phase_update(self) -> bool:
        return self.phase_update is not None

    @property
    def n_samples(self) -> int:
        if self.is_phase_update:
            return 0
        return self.stop_addr - self.start_addr + 1


class ListEntry(NamedTuple):
    """Instruction-list reference: which table slot of which NCO to run."""

    bank: int
    nco: int
    slot: int


def list_entry(bank: int, nco: int, slot: int) -> ListEntry:
    """A reference to table slot ``slot`` of ``bank``/``nco``, checked
    against the ranges.  Whether the slot holds an instruction is checked
    when the image is played."""
    if not 0 <= bank < N_BANKS:
        raise ValueError(f"bank {bank} outside 0..{N_BANKS - 1}")
    if not 0 <= nco < N_NCOS:
        raise ValueError(f"nco {nco} outside 0..{N_NCOS - 1}")
    if not 0 <= slot < TABLE_CAPACITY:
        raise ValueError(f"slot {slot} outside 0..{TABLE_CAPACITY - 1}")
    return ListEntry(bank, nco, slot)


def _empty_tables():
    return [[[] for _ in range(N_NCOS)] for _ in range(N_BANKS)]


@dataclass
class MemoryImage:
    """Everything the sequencer consumes: envelopes, tables, and the list."""

    envelope: EnvelopeMemory = field(default_factory=EnvelopeMemory)
    tables: list = field(default_factory=_empty_tables)
    instruction_list: list[ListEntry] = field(default_factory=list)

    def add_instruction(self, bank: int, nco: int, instr: Instruction) -> int:
        """Store an instruction in the per-NCO table; returns its slot."""
        if not 0 <= bank < N_BANKS:
            raise ValueError(f"bank {bank} outside 0..{N_BANKS - 1}")
        if instr.nco_index != nco:
            raise ValueError("instruction nco_index does not match table row")
        table = self.tables[bank][nco]
        if len(table) + 1 > TABLE_CAPACITY:
            raise CapacityError(
                f"instruction table bank{bank}/nco{nco}", TABLE_CAPACITY, len(table) + 1
            )
        table.append(instr)
        return len(table) - 1

    def schedule(self, bank: int, nco: int, slot: int):
        """Append a reference to a table slot to the instruction list."""
        self.schedule_entry(list_entry(bank, nco, slot))

    def schedule_entry(self, entry: ListEntry):
        """Append a ``list_entry`` to the instruction list, within its capacity."""
        if len(self.instruction_list) + 1 > LIST_CAPACITY:
            raise CapacityError(
                "instruction list", LIST_CAPACITY, len(self.instruction_list) + 1
            )
        self.instruction_list.append(entry)

    def occupancy(self) -> dict:
        return {
            "envelope_used": len(self.envelope),
            "envelope_capacity": ENVELOPE_CAPACITY,
            "table_used": [
                [len(self.tables[b][n]) for n in range(N_NCOS)] for b in range(N_BANKS)
            ],
            "table_capacity": TABLE_CAPACITY,
            "list_used": len(self.instruction_list),
            "list_capacity": LIST_CAPACITY,
        }
