"""Frequency planning and pulse calibration.

With exchange off each qubit gets one NCO (qubit 1 on bank 0, qubit 2 on
bank 1, so both can be driven at once).  With exchange on each qubit gets
two NCOs, one per conditional resonance f +/- J/2, on that qubit's bank.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field

from ..controller.nco import offset_to_ftw, quantize_unit
from ..errors import ConfigError


@dataclass(frozen=True)
class Slot:
    """One addressable tone: a qubit branch bound to a bank/NCO pair."""

    qubit: int
    branch: str  # "main" (exchange off), "high", or "low"
    offset_hz: float
    ftw: int
    bank: int
    nco: int

    @property
    def key(self) -> tuple:
        return (self.qubit, self.branch)


@dataclass
class FrequencyPlan:
    lo_freq: float
    f_clk: float
    exchange_on: bool
    slots: list[Slot] = field(default_factory=list)

    def for_qubit(self, qubit: int, branch: str = "both") -> list[Slot]:
        """Slots a gate on this qubit addresses, high branch first."""
        order = {"main": 0, "high": 0, "low": 1}
        found = [s for s in self.slots if s.qubit == qubit]
        found.sort(key=lambda s: order[s.branch])
        if branch != "both":
            found = [s for s in found if s.branch == branch]
        if not found:
            raise ValueError(f"no frequency slot assigned for qubit {qubit} branch {branch!r}")
        return found

    def slot(self, qubit: int, branch: str) -> Slot:
        return self.for_qubit(qubit, branch)[0]

    def pad_nco(self, bank: int) -> int:
        for s in self.slots:
            if s.bank == bank:
                return s.nco
        return 0

    def ftws(self) -> dict:
        return {(s.bank, s.nco): s.ftw for s in self.slots}


def allocate_frequencies(
    f_qubits: tuple[float, float],
    lo_freq: float,
    exchange_on: bool = False,
    j: float | None = None,
    f_clk: float = 1e9,
) -> FrequencyPlan:
    """Assign NCOs and tuning words for the qubit resonances.

    Exchange-on plans need ``j`` and produce four slots at f_i +/- J/2.
    Offsets beyond Nyquist raise an error naming the offending qubit.
    """
    if exchange_on and j is None:
        raise ValueError("exchange-on plans need the exchange coupling j")
    plan = FrequencyPlan(lo_freq=lo_freq, f_clk=f_clk, exchange_on=exchange_on)
    problems = []
    for qubit, f_q in zip((1, 2), f_qubits):
        bank = qubit - 1
        if exchange_on:
            wanted = [("high", f_q + j / 2), ("low", f_q - j / 2)]
        else:
            wanted = [("main", f_q)]
        for nco, (branch, f_abs) in enumerate(wanted):
            offset = f_abs - lo_freq
            if not -f_clk / 2 < offset < f_clk / 2:
                problems.append(
                    f"qubit {qubit} ({branch}) offset {offset / 1e6:+.3f} MHz "
                    f"exceeds the +/-{f_clk / 2e6:.0f} MHz Nyquist range"
                )
                continue
            plan.slots.append(
                Slot(
                    qubit=qubit,
                    branch=branch,
                    offset_hz=offset,
                    ftw=offset_to_ftw(offset, f_clk),
                    bank=bank,
                    nco=nco,
                )
            )
    if problems:
        raise ConfigError(problems)
    return plan


@dataclass(frozen=True)
class GateCal:
    """Per-slot pulse calibration: drive amplitude and rotation durations."""

    amplitude: float  # DAC fraction, on the amplitude grid
    pi_samples: int
    half_pi_samples: int

    def __post_init__(self):
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude outside [0, 1)")
        if self.pi_samples < 2 or self.half_pi_samples < 2:
            raise ValueError("rotation durations must be at least 2 clock samples")


@dataclass
class CalibrationSet:
    """Pulse calibrations per slot plus controlled-rotation phase fixups.

    ``crot_corrections`` are z-rotation angles (radians) applied to the
    control qubit after each controlled rotation; a resonant pi burst
    imprints a -pi/2 phase on the driven manifold that must be undone.
    """

    gates: dict = field(default_factory=dict)  # (qubit, branch) -> GateCal
    crot_corrections: dict = field(default_factory=lambda: {"crot_high": 0.0, "crot_low": 0.0})

    def for_slot(self, slot: Slot) -> GateCal:
        try:
            return self.gates[slot.key]
        except KeyError:
            raise ValueError(
                f"no calibration for qubit {slot.qubit} branch {slot.branch!r}"
            ) from None


# A resonant pi burst acts as -i * sigma_axis on the driven manifold.  To
# reduce it to a plain controlled flip, the control's frame must absorb that
# -i: a +pi/2 virtual z when the driven manifold is control=|1> (high
# branch), -pi/2 when it is control=|0> (low branch, where the -i sits on
# the |0> manifold and differs by a global phase from +i on |1>).
CROT_HIGH_CORRECTION = 3.141592653589793 / 2
CROT_LOW_CORRECTION = -3.141592653589793 / 2


def hold_factor(offset_hz: float, f_clk: float) -> float:
    """Fundamental amplitude of a zero-order-held tone: sinc(pi f / f_clk).

    The DAC holds each sample for a clock period, so an offset tone drives
    the spin slightly weaker than its sample amplitude suggests.
    """
    x = math.pi * offset_hz / f_clk
    return 1.0 if x == 0.0 else math.sin(x) / x


def default_calibration(
    model,
    plan: FrequencyPlan,
    *,
    amp_bits: int = 10,
    target_rabi: float = 1e6,
) -> CalibrationSet:
    """Amplitudes for a target Rabi rate and matching pi / pi/2 durations.

    The amplitude is snapped to the envelope grid first and the durations
    derived from the achieved Rabi rate after grid quantization and the
    zero-order-hold factor of the slot's offset, which is what an actual
    Rabi calibration of the synthesized drive would measure.
    """
    cal = CalibrationSet()
    for slot in plan.slots:
        coupling = model.drive_coupling[slot.qubit - 1]
        amp = float(quantize_unit(target_rabi / coupling, amp_bits))
        if amp <= 0.0:
            raise ValueError(
                f"target Rabi rate {target_rabi} Hz quantizes to zero amplitude "
                f"for qubit {slot.qubit}"
            )
        f_r = coupling * amp * hold_factor(slot.offset_hz, plan.f_clk)
        pi_samples = int(round(plan.f_clk / (2.0 * f_r)))
        half = int(round(plan.f_clk / (4.0 * f_r)))
        cal.gates[slot.key] = GateCal(amp, pi_samples, half)
    cal.crot_corrections = {
        "crot_high": CROT_HIGH_CORRECTION,
        "crot_low": CROT_LOW_CORRECTION,
    }
    return cal
