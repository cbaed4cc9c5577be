"""Rabi oscillations, individual or frequency-multiplexed simultaneous.

Each sweep point is its own memory image: one rectangular envelope of the
point's duration per driven qubit, played by one saved instruction, and
the whole sweep is one batch of programs sampled at once.  With exchange
on, each qubit is driven on its low branch (f - J/2), which is resonant
while the neighbour is in |0>, as it is at the start of every run.
"""

from __future__ import annotations

import numpy as np

from ..compiler import CompiledProgram
from ..controller.memory import EnvelopeMemory, Instruction, MemoryImage
from ..physics import shot_rng
from .base import Bench, SweepResult, binomial_stderr, check_arguments


def _rabi_image(bench: Bench, qubits, n: int) -> MemoryImage:
    """One burst of ``n`` samples per qubit, each on its qubit's NCO."""
    img = MemoryImage(EnvelopeMemory(bench.cfg.amp_bits, bench.cfg.phase_mod_bits))
    branch = "low" if bench.plan.exchange_on else "main"
    for slot in (bench.plan.slot(q, branch) for q in qubits):
        start, stop = img.envelope.write_values(np.full(n, bench.cal.for_slot(slot).amplitude))
        img.add_instruction(slot.bank, slot.nco, Instruction(slot.nco, start_addr=start, stop_addr=stop))
        img.schedule(slot.bank, slot.nco, len(img.tables[slot.bank][slot.nco]) - 1)
    return img


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
    Empty or non-finite ``durations``, or ones whose longest burst is
    shorter than 2 samples, are rejected before anything is played.
    """
    durations = np.asarray(durations, dtype=float)
    f_clk = bench.cfg.f_clk
    finite = np.isfinite(durations)
    problems = [] if durations.size else ["durations is empty: give at least one burst duration"]
    if not finite.all():
        problems.append(f"durations {durations[~finite].tolist()} s: each must be finite")
    if finite.any() and (max_n := int(round(durations[finite].max() * f_clk))) < 2:
        problems.append(f"the longest Rabi duration must cover at least 2 samples "
                        f"({2e9 / f_clk:g} ns at the {f_clk / 1e9:g} GHz clock), not {max_n}")
    check_arguments([("shots", shots, "take at least 1 shot per point")], qubit=qubit,
                    act="drive", problems=problems)
    qubits = (1, 2) if simultaneous else (qubit,)
    samples = np.round(durations * f_clk).astype(int)  # n <= 0 plays the idle program
    programs = (CompiledProgram([_rabi_image(bench, qubits, n)] if n > 0 else [],
                                bench.plan.ftws(), {}) for n in samples)

    bench.new_tally()
    result = SweepResult(x_name="duration_s", meta={"qubit": qubit, "simultaneous": simultaneous})
    rngs = [shot_rng(seed, k) for k in range(len(durations))]
    for t, (p1, p2) in zip(durations, bench.sample(programs, (1, 2), shots, rngs) / shots):
        result.add(t, p1, p2, binomial_stderr(p1 if qubit == 1 else p2, shots))
    result.meta.update(bench.tallies())
    return result
