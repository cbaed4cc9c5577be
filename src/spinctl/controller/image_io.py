"""Memory-image serialization: binary files and a text disassembly.

Binary layout (little-endian throughout):

    offset  size  field
    0       4     magic "SQMI"
    4       2     format version (currently 1)
    6       1     amp_bits
    7       1     phase_mod_bits
    8       4     envelope entry count
    12      4*n   envelope entries: int16 amp_code, uint16 phase_mod
    ...     per bank (2), per NCO (16):
              1     instruction count
              13*k  instructions: uint8 kind (0 burst, 1 phase update),
                    uint32 start, uint32 stop, uint32 phase_update
    ...     4     instruction list length
    ...     3*m   list entries: uint8 bank, uint8 nco, uint8 slot

The text disassembly is lossless: ``assemble(disassemble(image))`` gives
back a semantically identical image.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import ImageFormatError
from .memory import (
    ENVELOPE_CAPACITY,
    EnvelopeMemory,
    Instruction,
    MemoryImage,
    N_BANKS,
    N_NCOS,
)

MAGIC = b"SQMI"
VERSION = 1

# Record layouts of the three arrays in the file (packed, little-endian).
ENV_RECORD = np.dtype([("amp", "<i2"), ("pm", "<u2")])
INSTR_RECORD = np.dtype([("kind", "u1"), ("start", "<u4"), ("stop", "<u4"), ("phase", "<u4")])
LIST_RECORD = np.dtype([("bank", "u1"), ("nco", "u1"), ("slot", "u1")])


def dump_image(image: MemoryImage) -> bytes:
    env = image.envelope
    entries = np.empty(len(env), dtype=ENV_RECORD)
    entries["amp"] = env.amp_codes
    entries["pm"] = env.phase_mods
    if not (
        np.array_equal(entries["amp"], env.amp_codes)
        and np.array_equal(entries["pm"], env.phase_mods)
    ):
        raise ImageFormatError(
            "envelope codes do not fit the file's int16 amplitude / uint16 phase "
            f"fields (amp_bits={env.amp_bits}, phase_mod_bits={env.phase_mod_bits})"
        )
    parts = [MAGIC, struct.pack("<HBBI", VERSION, env.amp_bits, env.phase_mod_bits, len(env))]
    parts.append(entries.tobytes())
    for bank in range(N_BANKS):
        for nco in range(N_NCOS):
            table = image.tables[bank][nco]
            records = [
                (1, 0, 0, i.phase_update) if i.is_phase_update else (0, i.start_addr, i.stop_addr, 0)
                for i in table
            ]
            parts.append(struct.pack("<B", len(table)))
            parts.append(np.array(records, dtype=INSTR_RECORD).tobytes())
    refs = [(r.bank, r.nco, r.slot) for r in image.instruction_list]
    parts.append(struct.pack("<I", len(refs)))
    parts.append(np.array(refs, dtype=LIST_RECORD).tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _advance(self, size: int) -> int:
        if self.pos + size > len(self.data):
            raise ImageFormatError("truncated image file", offset=self.pos)
        start = self.pos
        self.pos += size
        return start

    def take(self, fmt: str):
        return struct.unpack_from(fmt, self.data, self._advance(struct.calcsize(fmt)))

    def records(self, dtype: np.dtype, count: int) -> np.ndarray:
        return np.frombuffer(self.data, dtype, count, self._advance(dtype.itemsize * count))


def load_image(data: bytes) -> MemoryImage:
    r = _Reader(data)
    (magic,) = r.take("<4s")
    if magic != MAGIC:
        raise ImageFormatError(f"bad magic {magic!r}", offset=0)
    version, amp_bits, phase_mod_bits = r.take("<HBB")
    if version != VERSION:
        raise ImageFormatError(f"unsupported format version {version}", offset=4)
    try:
        image = MemoryImage(EnvelopeMemory(amp_bits, phase_mod_bits))
    except ValueError as exc:
        raise ImageFormatError(str(exc), offset=6) from exc
    (n_env,) = r.take("<I")
    try:
        entries = r.records(ENV_RECORD, n_env)
        at = r.pos  # envelope errors: past its block; record errors: at the record
        if n_env:
            image.envelope.write_codes(entries["amp"], entries["pm"])
        for bank in range(N_BANKS):
            for nco in range(N_NCOS):
                (count,) = r.take("<B")
                base = r.pos
                records = r.records(INSTR_RECORD, count).tolist()
                for k, (kind, start, stop, pu) in enumerate(records):
                    at = base + k * INSTR_RECORD.itemsize
                    if kind == 1:
                        instr = Instruction(nco, phase_update=pu)
                    elif kind == 0:
                        instr = Instruction(nco, start_addr=start, stop_addr=stop)
                    else:
                        raise ImageFormatError(f"unknown instruction kind {kind}", offset=at)
                    image.add_instruction(bank, nco, instr)
        (n_list,) = r.take("<I")
        base = r.pos
        for k, (bank, nco, slot) in enumerate(r.records(LIST_RECORD, n_list).tolist()):
            at = base + k * LIST_RECORD.itemsize
            image.schedule(bank, nco, slot)
    except ImageFormatError:
        raise
    except Exception as exc:  # capacity/range errors land here, at the record that raised
        raise ImageFormatError(str(exc), offset=at) from exc
    if r.pos != len(data):
        raise ImageFormatError("trailing bytes after image", offset=r.pos)
    return image


def disassemble(image: MemoryImage) -> str:
    """Human-readable, lossless listing of a memory image."""
    env = image.envelope
    lines = [
        f"; memory image v{VERSION}",
        f"bits amp={env.amp_bits} phase_mod={env.phase_mod_bits}",
    ]
    # Run-length grouping of identical envelope entries.
    changes = np.flatnonzero((np.diff(env.amp_codes) != 0) | (np.diff(env.phase_mods) != 0)) + 1
    starts = [0, *changes.tolist()] if len(env) else []
    stops = [s - 1 for s in starts[1:]] + [len(env) - 1]
    amps, pms = env.amp_codes.tolist(), env.phase_mods.tolist()
    for i, j in zip(starts, stops):
        lines.append(f"env {i}..{j} amp={amps[i]} pm={pms[i]}")
    for bank in range(N_BANKS):
        for nco in range(N_NCOS):
            for slot, instr in enumerate(image.tables[bank][nco]):
                where = f"b{bank}.n{nco}.s{slot}"
                if instr.is_phase_update:
                    lines.append(f"instr {where} phase +{instr.phase_update}")
                else:
                    lines.append(
                        f"instr {where} burst {instr.start_addr}..{instr.stop_addr}"
                        f" ({instr.n_samples} samples)"
                    )
    for ref in image.instruction_list:
        lines.append(f"run b{ref.bank}.n{ref.nco}.s{ref.slot}")
    return "\n".join(lines) + "\n"


def assemble(text: str) -> MemoryImage:
    """Parse a disassembly listing back into a memory image."""
    image = MemoryImage()
    runs = []  # (start, stop, amp code, phase code) per "env" line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].strip()
        if not line:
            continue
        try:
            fields = line.split()
            if fields[0] == "bits":
                kv = dict(f.split("=") for f in fields[1:])
                image.envelope = EnvelopeMemory(int(kv["amp"]), int(kv["phase_mod"]))
            elif fields[0] == "env":
                start, stop = (int(x) for x in fields[1].split(".."))
                if not 0 <= start <= stop:
                    raise ValueError(f"envelope range {start}..{stop} is not ordered")
                kv = dict(f.split("=") for f in fields[2:])
                runs.append((start, stop, int(kv["amp"]), int(kv["pm"])))
            elif fields[0] == "instr":
                bank, nco, slot = (int(x[1:]) for x in fields[1].split("."))
                if fields[2] == "phase":
                    instr = Instruction(nco, phase_update=int(fields[3]))
                elif fields[2] == "burst":
                    start, stop = (int(x) for x in fields[3].split(".."))
                    instr = Instruction(nco, start_addr=start, stop_addr=stop)
                else:
                    raise ValueError(f"unknown instruction form {fields[2]!r}")
                got = image.add_instruction(bank, nco, instr)
                if got != slot:
                    raise ValueError(f"slot {slot} listed out of order")
            elif fields[0] == "run":
                bank, nco, slot = (int(x[1:]) for x in fields[1].split("."))
                image.schedule(bank, nco, slot)
            else:
                raise ValueError(f"unknown directive {fields[0]!r}")
        except ImageFormatError:
            raise
        except Exception as exc:
            raise ImageFormatError(f"line {lineno}: {exc}") from exc
    size = max((stop + 1 for _, stop, _, _ in runs), default=0)
    if size > ENVELOPE_CAPACITY:
        raise ImageFormatError(f"envelope address {size - 1} beyond capacity {ENVELOPE_CAPACITY}")
    codes = np.zeros((2, size), dtype=np.int64)
    listed = np.zeros(size, dtype=bool)
    try:
        for start, stop, amp, pm in runs:
            codes[:, start : stop + 1] = [[amp], [pm]]
            listed[start : stop + 1] = True
        missing = np.flatnonzero(~listed)
        if missing.size:
            raise ValueError(f"envelope addresses missing: {missing[:5].tolist()}...")
        if size:
            image.envelope.write_codes(codes[0], codes[1])
    except (ValueError, OverflowError) as exc:
        raise ImageFormatError(str(exc)) from exc
    return image
