"""Rabi oscillations, individual or frequency-multiplexed simultaneous.

A long rectangular envelope is stored once; the burst duration is swept
by rewriting the stop address of the single saved instruction, so every
sweep point reuses the same memories.  With exchange on, each qubit is
driven on its low branch (f - J/2), which is resonant while the neighbour
is in |0>, as it is at the start of every run.
"""

from __future__ import annotations

import numpy as np

from ..compiler import CompiledProgram
from ..controller.memory import EnvelopeMemory, Instruction, MemoryImage
from ..physics import shot_rng
from .base import Bench, SweepResult, binomial_stderr, check_arguments


def _rabi_image(bench: Bench, qubits, max_samples: int) -> tuple[MemoryImage, dict]:
    """One full-length burst per qubit; returns the image and each burst's
    (bank, nco) -> envelope start address."""
    img = MemoryImage(EnvelopeMemory(bench.cfg.amp_bits, bench.cfg.phase_mod_bits))
    branch = "low" if bench.plan.exchange_on else "main"
    slots = [bench.plan.slot(q, branch) for q in qubits]
    starts = {}
    for slot in slots:
        amp = bench.cal.for_slot(slot).amplitude
        start, stop = img.envelope.write_values(np.full(max_samples, amp))
        img.add_instruction(slot.bank, slot.nco, Instruction(slot.nco, start_addr=start, stop_addr=stop))
        img.schedule(slot.bank, slot.nco, len(img.tables[slot.bank][slot.nco]) - 1)
        starts[(slot.bank, slot.nco)] = start
    return img, starts


def run_rabi(
    bench: Bench,
    durations,
    *,
    qubit: int = 2,
    simultaneous: bool = False,
    shots: int = 200,
    seed: int = 0,
) -> SweepResult:
    """P(read 1) versus burst duration.

    ``simultaneous`` drives both qubits at once, one NCO per bank; the
    exchange setting of the bench then matters (residual coupling beats).
    """
    durations = np.asarray(durations, dtype=float)
    f_clk = bench.cfg.f_clk
    max_n = int(round(durations.max() * f_clk)) if durations.size else 0
    short = [] if max_n >= 2 else [f"the longest Rabi duration must cover at least 2 samples "
                                   f"({2e9 / f_clk:g} ns at the {f_clk / 1e9:g} GHz clock), "
                                   f"not {max_n}"]
    check_arguments([("shots", shots, "take at least 1 shot per point")], qubit=qubit,
                    act="drive", problems=short)
    qubits = (1, 2) if simultaneous else (qubit,)
    img, starts = _rabi_image(bench, qubits, max_n)
    prog = CompiledProgram(images=[img], ftws=bench.plan.ftws(), report={})
    idle = CompiledProgram(images=[], ftws=prog.ftws, report={})

    bench.new_tally()
    result = SweepResult(
        x_name="duration_s", meta={"qubit": qubit, "simultaneous": simultaneous}
    )
    for k, t in enumerate(durations):
        n = int(round(t * f_clk))
        # An instruction plays at least one sample; n <= 0 plays the idle program.
        for (bank, nco), start in starts.items():
            img.tables[bank][nco][0].stop_addr = start + max(n, 1) - 1
        counts = bench.sample(prog if n > 0 else idle, (1, 2), shots, shot_rng(seed, k))
        p1, p2 = counts / shots
        result.add(t, p1, p2, binomial_stderr(p1 if qubit == 1 else p2, shots))
    result.meta.update(bench.tallies())
    return result
