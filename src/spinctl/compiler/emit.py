"""Lowering gate programs to controller memory images.

Scheduling model: gates execute strictly one after another on a global
timeline.  Each bank plays its instructions back to back, so when a gate
targets a bank that is behind the timeline the compiler first pads that
bank with a zero-amplitude burst.  Rotation axes are selected by aligning
the NCO reference phase to (virtual-Z frame + axis offset) with a
zero-duration phase update before the burst; virtual Z itself is pure
frame bookkeeping emitted as phase updates on every slot of the target.

Programs whose instruction list overflows are split across triggers into
several images; NCO phase and the virtual-Z frame stay coherent across
the split because the transmitter keeps running between triggers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..controller.memory import (
    LIST_CAPACITY,
    EnvelopeMemory,
    Instruction,
    MemoryImage,
    quantize_codes,
)
from ..controller.nco import PHASE_WORDS
from ..errors import CapacityError
from .envelopes import synthesize_envelope
from .ir import AXIS_QUARTER_TURNS, GateOp, ROTATION_GATES
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


class _ImageBuilder:
    """One memory image under construction, with dedup maps and rollback."""

    def __init__(self, amp_bits: int, phase_mod_bits: int):
        self.image = MemoryImage(EnvelopeMemory(amp_bits, phase_mod_bits))
        self.env_blocks = {}  # code bytes -> (start, stop)
        self.zero_block = None  # (start, length)
        self.slot_map = {}

    @property
    def scheduled(self) -> int:
        return len(self.image.instruction_list)

    def checkpoint(self):
        return (
            len(self.image.envelope),
            [[len(t) for t in bank] for bank in self.image.tables],
            len(self.image.instruction_list),
            dict(self.env_blocks),
            self.zero_block,
            dict(self.slot_map),
        )

    def restore(self, cp):
        n_env, table_lens, n_list, env_blocks, zero_block, slot_map = cp
        self.image.envelope.truncate(n_env)
        for bank, lens in zip(self.image.tables, table_lens):
            for table, n in zip(bank, lens):
                del table[n:]
        del self.image.instruction_list[n_list:]
        self.env_blocks = env_blocks
        self.zero_block = zero_block
        self.slot_map = slot_map

    def envelope_block(self, codes: np.ndarray) -> tuple[int, int]:
        """Address range of a block of amplitude codes, stored once per image."""
        key = codes.tobytes()
        if key not in self.env_blocks:
            self.env_blocks[key] = self.image.envelope.write_codes(codes)
        return self.env_blocks[key]

    def zero_range(self, n: int) -> tuple[int, int]:
        """A run of n zero entries; shares a prefix of the largest zero block."""
        if self.zero_block is not None and n <= self.zero_block[1]:
            start = self.zero_block[0]
            return start, start + n - 1
        block = self.image.envelope.write_codes(np.zeros(n, dtype=np.int64))
        self.zero_block = (block[0], n)
        return block

    def _slot_for(self, bank: int, nco: int, key) -> int:
        full_key = (bank, nco, key)
        if full_key in self.slot_map:
            return self.slot_map[full_key]
        if key[0] == "phase":
            instr = Instruction(nco, phase_update=key[1])
        else:
            instr = Instruction(nco, start_addr=key[1], stop_addr=key[2])
        slot = self.image.add_instruction(bank, nco, instr)
        self.slot_map[full_key] = slot
        return slot

    def schedule_phase(self, bank: int, nco: int, delta: int):
        self.image.schedule(bank, nco, self._slot_for(bank, nco, ("phase", delta)))

    def schedule_burst(self, bank: int, nco: int, start: int, stop: int):
        self.image.schedule(bank, nco, self._slot_for(bank, nco, ("burst", start, stop)))


class _Compiler:
    def __init__(self, plan: FrequencyPlan, cal: CalibrationSet, *, amp_bits: int,
                 phase_mod_bits: int):
        self.plan = plan
        self.cal = cal
        self.amp_bits = amp_bits
        self.phase_mod_bits = phase_mod_bits
        self.frames = {1: 0, 2: 0}
        self.applied_ref = {(s.bank, s.nco): 0 for s in plan.slots}
        self.cursors = [0, 0]
        self.images: list[MemoryImage] = []
        self.builder = self._new_builder()
        self.n_list_entries = 0

    def _new_builder(self) -> _ImageBuilder:
        return _ImageBuilder(self.amp_bits, self.phase_mod_bits)

    def _finalize_image(self):
        self.images.append(self.builder.image)
        self.n_list_entries += self.builder.scheduled
        self.builder = self._new_builder()
        # The next trigger starts both banks together, after the longer one.
        self.cursors = [max(self.cursors)] * 2

    # -- primitive emissions ------------------------------------------------

    def _phase(self, bank: int, nco: int, delta: int):
        delta %= PHASE_WORDS
        if delta == 0:
            return
        self.builder.schedule_phase(bank, nco, delta)
        self.applied_ref[(bank, nco)] = (self.applied_ref[(bank, nco)] + delta) % PHASE_WORDS

    def _align(self, slot, desired_word: int):
        key = (slot.bank, slot.nco)
        self._phase(slot.bank, slot.nco, (desired_word - self.applied_ref[key]) % PHASE_WORDS)

    def _pad_to_timeline(self, bank: int):
        target = max(self.cursors)
        gap = target - self.cursors[bank]
        if gap > 0:
            start, stop = self.builder.zero_range(gap)
            self.builder.schedule_burst(bank, self.plan.pad_nco(bank), start, stop)
            self.cursors[bank] = target

    def _zero_burst(self, bank: int, nco: int, n: int):
        start, stop = self.builder.zero_range(n)
        self.builder.schedule_burst(bank, nco, start, stop)
        self.cursors[bank] += n

    def _burst(self, slot, amplitudes: np.ndarray):
        codes = quantize_codes(amplitudes, self.amp_bits)
        start, stop = self.builder.envelope_block(codes)
        self.builder.schedule_burst(slot.bank, slot.nco, start, stop)
        self.cursors[slot.bank] += len(codes)

    # -- gate emission --------------------------------------------------------

    def _duration_samples(self, op: GateOp, cal_entry, *, full_pi: bool) -> int:
        if op.duration is not None:
            return int(round(op.duration * self.plan.f_clk))
        return cal_entry.pi_samples if full_pi else cal_entry.half_pi_samples

    def emit(self, op: GateOp):
        if op.name == "z":
            word = angle_to_word(op.angle)
            self.frames[op.target] = (self.frames[op.target] + word) % PHASE_WORDS
            for slot in self.plan.for_qubit(op.target):
                self._phase(slot.bank, slot.nco, word)
            return

        if op.name == "i":
            slots = self.plan.for_qubit(op.target, op.branch)
            n = self._duration_samples(op, self.cal.for_slot(slots[0]), full_pi=True)
            if n <= 0:
                return
            self._pad_to_timeline(slots[0].bank)
            self._zero_burst(slots[0].bank, slots[0].nco, n)
            return

        if op.name in ROTATION_GATES:
            axis_word = AXIS_QUARTER_TURNS[op.name] * QUARTER_TURN
            shape = op.shape or "rectangular"
            for slot in self.plan.for_qubit(op.target, op.branch):
                cal_entry = self.cal.for_slot(slot)
                n = self._duration_samples(op, cal_entry, full_pi=op.name in ("x2", "y2"))
                if n <= 0:
                    continue
                desired = (self.frames[op.target] + axis_word) % PHASE_WORDS
                self._align(slot, desired)
                self._pad_to_timeline(slot.bank)
                env = synthesize_envelope(shape, n, cal_entry.amplitude)
                self._burst(slot, env)
            return

        if op.name in ("crot_high", "crot_low"):
            branch = "high" if op.name == "crot_high" else "low"
            slot = self.plan.slot(op.target, branch)
            cal_entry = self.cal.for_slot(slot)
            n = self._duration_samples(op, cal_entry, full_pi=True)
            self._align(slot, self.frames[op.target])
            self._pad_to_timeline(slot.bank)
            env = synthesize_envelope(op.shape or "rectangular", n, cal_entry.amplitude)
            self._burst(slot, env)
            control = 2 if op.target == 1 else 1
            word = angle_to_word(self.cal.crot_corrections[op.name])
            self.frames[control] = (self.frames[control] + word) % PHASE_WORDS
            for cslot in self.plan.for_qubit(control):
                self._phase(cslot.bank, cslot.nco, word)
            return

        raise ValueError(f"gate {op.name!r} not lowerable")

    def compile(self, ops: list[GateOp]) -> CompiledProgram:
        for op in ops:
            cp_builder = self.builder.checkpoint()
            cp_state = (dict(self.frames), dict(self.applied_ref), list(self.cursors))
            try:
                self.emit(op)
            except CapacityError:
                if self.builder.scheduled == 0:
                    raise  # a fresh image cannot hold this gate
                self.builder.restore(cp_builder)
                self.frames, self.applied_ref, self.cursors = (
                    dict(cp_state[0]),
                    dict(cp_state[1]),
                    list(cp_state[2]),
                )
                self._finalize_image()
                self.emit(op)  # re-raise on genuine overflow
        self._finalize_image()
        images = [img for img in self.images if img.instruction_list]
        if not images:
            images = [self.images[-1]]
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
