"""Lowering gate programs to controller memory images.

Scheduling model: gates execute strictly one after another on a global
timeline.  Each bank plays its instructions back to back, so when a gate
targets a bank that is behind the timeline the compiler first pads that
bank with a zero-amplitude burst.  Every burst takes one drive path: it
aligns the slot's NCO reference phase to (virtual-Z frame + axis offset)
with a zero-duration phase update, pads the bank, and plays the envelope.
Envelope codes depend only on (shape, samples, amplitude), so each distinct
envelope is synthesized and quantized once per compile and stored once per
image that plays it.  A drive burst needs at least two samples; a gate one
sample long is a ProgramError.  Virtual Z is pure frame bookkeeping
emitted as phase updates on every slot of the target.  A controlled
rotation is a pi burst along x on its branch slot followed by a virtual Z
on the control qubit that absorbs the burst's phase; when its duration
rounds to no samples it emits nothing, as a rotation does.

Each gate is atomic: if it overflows a memory, everything it wrote is
rolled back, the image is closed and the gate is lowered again into a
fresh image, the next trigger.  A gate that overflows an empty image
raises CapacityError.  NCO phase and the virtual-Z frame stay coherent
across the split because the transmitter keeps running between triggers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..controller.memory import (
    EnvelopeMemory,
    Instruction,
    MemoryImage,
    list_entry,
    quantize_codes,
)
from ..controller.nco import PHASE_WORDS
from ..errors import CapacityError, ProgramError
from .envelopes import synthesize_envelope
from .ir import AXIS_QUARTER_TURNS, PI_ROTATIONS, GateOp, ROTATION_GATES
from .plan import CalibrationSet, FrequencyPlan

QUARTER_TURN = PHASE_WORDS // 4


def angle_to_word(theta: float) -> int:
    """Phase word for a z-rotation angle: round(theta / 2pi * 2^22) mod 2^22."""
    return int(round(theta / (2.0 * math.pi) * PHASE_WORDS)) % PHASE_WORDS


@dataclass
class CompiledProgram:
    images: list[MemoryImage]
    ftws: dict
    report: dict

    @property
    def n_triggers(self) -> int:
        return len(self.images)


class _Compiler:
    """Lowers gates into the current image; one state, rolled back per gate."""

    def __init__(self, plan: FrequencyPlan, cal: CalibrationSet, *, amp_bits: int,
                 phase_mod_bits: int):
        self.plan = plan
        self.cal = cal
        self.amp_bits = amp_bits
        self.phase_mod_bits = phase_mod_bits
        self.frames = {1: 0, 2: 0}
        self.applied_ref = {(s.bank, s.nco): 0 for s in plan.slots}
        self.cursors = [0, 0]
        # Lookups remembered across the gates of one compile; only ones that
        # succeed are kept, so a failing one raises again at its next gate.
        self.slots = {}  # (qubit, branch) -> plan.for_qubit's slots
        self.cals = {}  # slot -> its calibration
        self.codes = {}  # (shape, n, amplitude) -> (quantized envelope codes, their bytes)
        self.images: list[MemoryImage] = []
        self._open_image()

    def _open_image(self):
        self.image = MemoryImage(EnvelopeMemory(self.amp_bits, self.phase_mod_bits))
        self.env_blocks = {}  # code bytes -> (start, stop)
        self.zero_block = None  # (start, length)
        self.table_slots = {}  # (bank, nco, start, stop, phase) -> its list entry

    def _finalize_image(self):
        self.images.append(self.image)
        self._open_image()
        # The next trigger starts both banks together, after the longer one.
        self.cursors = [max(self.cursors)] * 2

    def _snapshot(self) -> tuple:
        # The image is append-only, so lengths mark it; its indexes need no
        # copy, as ``_finalize_image`` follows every restore and replaces them.
        return (len(self.image.envelope), len(self.image.instruction_list), len(self.table_slots),
                dict(self.frames), dict(self.applied_ref), list(self.cursors))

    def _restore(self, snap: tuple):
        n_env, n_list, n_slots, self.frames, self.applied_ref, self.cursors = snap
        self.image.envelope.truncate(n_env)
        del self.image.instruction_list[n_list:]
        for bank, nco, *_ in list(self.table_slots)[n_slots:]:
            self.image.tables[bank][nco].pop()

    # -- primitive emissions ------------------------------------------------

    def _for_qubit(self, qubit: int, branch: str = "both") -> list:
        slots = self.slots.get((qubit, branch))
        if slots is None:
            slots = self.slots[qubit, branch] = self.plan.for_qubit(qubit, branch)
        return slots

    def _cal_for(self, slot):
        entry = self.cals.get(slot)
        if entry is None:
            entry = self.cals[slot] = self.cal.for_slot(slot)
        return entry

    def _schedule(self, bank: int, nco: int, start=None, stop=None, phase=None):
        """Play one table instruction, stored once per image and NCO; its
        list entry is checked when the slot is made."""
        key = (bank, nco, start, stop, phase)
        entry = self.table_slots.get(key)
        if entry is None:
            instr = Instruction(nco, start_addr=start, stop_addr=stop, phase_update=phase)
            slot = self.image.add_instruction(bank, nco, instr)
            entry = self.table_slots[key] = list_entry(bank, nco, slot)
        self.image.schedule_entry(entry)

    def _phase(self, slot, delta: int):
        delta %= PHASE_WORDS
        if delta == 0:
            return
        self._schedule(slot.bank, slot.nco, phase=delta)
        key = (slot.bank, slot.nco)
        self.applied_ref[key] = (self.applied_ref[key] + delta) % PHASE_WORDS

    def _virtual_z(self, qubit: int, word: int):
        self.frames[qubit] = (self.frames[qubit] + word) % PHASE_WORDS
        for slot in self._for_qubit(qubit):
            self._phase(slot, word)

    def _zeros(self, bank: int, nco: int, n: int):
        """Zero-amplitude burst of n samples; shares a prefix of the largest
        zero block in the image."""
        if self.zero_block is None or n > self.zero_block[1]:
            start, _ = self.image.envelope.write_codes(np.zeros(n, dtype=np.int64))
            self.zero_block = (start, n)
        start = self.zero_block[0]
        self._schedule(bank, nco, start, start + n - 1)
        self.cursors[bank] += n

    def _pad_to_timeline(self, bank: int):
        gap = max(self.cursors) - self.cursors[bank]
        if gap > 0:
            self._zeros(bank, self.plan.pad_nco(bank), gap)

    def _samples(self, op: GateOp, cal_entry, *, full_pi: bool) -> int:
        if op.duration is not None:
            return int(round(op.duration * self.plan.f_clk))
        return cal_entry.pi_samples if full_pi else cal_entry.half_pi_samples

    def _drive(self, slot, axis_word: int, op: GateOp, *, full_pi: bool) -> bool:
        """One burst on a slot along (frame + axis); False when the gate's
        duration rounds to no samples and nothing is emitted."""
        cal_entry = self._cal_for(slot)
        n = self._samples(op, cal_entry, full_pi=full_pi)
        if n <= 0:
            return False
        if n < 2:
            raise ProgramError(
                f"{op.name} q{op.target} lasts {n} sample; a drive burst needs at least "
                f"2 samples ({2e9 / self.plan.f_clk:g} ns at the "
                f"{self.plan.f_clk / 1e9:g} GHz clock)"
            )
        key = (slot.bank, slot.nco)
        self._phase(slot, self.frames[slot.qubit] + axis_word - self.applied_ref[key])
        self._pad_to_timeline(slot.bank)
        spec = (op.shape or "rectangular", n, cal_entry.amplitude)
        envelope = self.codes.get(spec)
        if envelope is None:
            codes = quantize_codes(synthesize_envelope(*spec), self.amp_bits)
            envelope = self.codes[spec] = (codes, codes.tobytes())
        codes, block = envelope
        if block not in self.env_blocks:
            self.env_blocks[block] = self.image.envelope.write_codes(codes)
        self._schedule(slot.bank, slot.nco, *self.env_blocks[block])
        self.cursors[slot.bank] += n
        return True

    # -- gate emission --------------------------------------------------------

    def emit(self, op: GateOp):
        if op.name == "z":
            self._virtual_z(op.target, angle_to_word(op.angle))
        elif op.name == "i":
            slot = self._for_qubit(op.target, op.branch)[0]
            n = self._samples(op, self._cal_for(slot), full_pi=True)
            if n > 0:
                self._pad_to_timeline(slot.bank)
                self._zeros(slot.bank, slot.nco, n)
        elif op.name in ROTATION_GATES:
            axis_word = AXIS_QUARTER_TURNS[op.name] * QUARTER_TURN
            for slot in self._for_qubit(op.target, op.branch):
                self._drive(slot, axis_word, op, full_pi=op.name in PI_ROTATIONS)
        elif op.name in ("crot_high", "crot_low"):
            slot = self._for_qubit(op.target, op.name.removeprefix("crot_"))[0]
            if self._drive(slot, 0, op, full_pi=True):
                control = 2 if op.target == 1 else 1
                self._virtual_z(control, angle_to_word(self.cal.crot_corrections[op.name]))
        else:
            raise ValueError(f"gate {op.name!r} not lowerable")

    def compile(self, ops: list[GateOp]) -> CompiledProgram:
        for op in ops:
            snap = self._snapshot()
            try:
                self.emit(op)
            except CapacityError:
                if snap[1] == 0:
                    raise  # the image held nothing before this gate
                self._restore(snap)
                self._finalize_image()
                self.emit(op)
        self._finalize_image()
        images = self.images
        report = {
            "n_gates": len(ops),
            "n_triggers": len(images),
            "n_instructions": sum(len(i.instruction_list) for i in images),
            "split": len(images) > 1,
            "duration_samples": max(self.cursors),
            "occupancy": [img.occupancy() for img in images],
            "frequency_plan": [
                {
                    "qubit": s.qubit,
                    "branch": s.branch,
                    "offset_hz": s.offset_hz,
                    "ftw": s.ftw,
                    "bank": s.bank,
                    "nco": s.nco,
                }
                for s in self.plan.slots
            ],
        }
        return CompiledProgram(images=images, ftws=self.plan.ftws(), report=report)


def compile_program(
    ops: list[GateOp],
    plan: FrequencyPlan,
    cal: CalibrationSet,
    *,
    amp_bits: int = 10,
    phase_mod_bits: int = 10,
) -> CompiledProgram:
    """Lower a gate sequence onto controller memories.

    Raises CapacityError when a single gate cannot fit even in a fresh
    image; longer programs split across triggers, reported in the result.
    """
    compiler = _Compiler(plan, cal, amp_bits=amp_bits, phase_mod_bits=phase_mod_bits)
    return compiler.compile(ops)
