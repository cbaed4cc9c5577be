"""Memory-driven execution of one transmitter, in two steps.

Play: a transmitter owns two banks of 16 NCOs.  The instruction list is
dispatched in order; each bank plays its own instructions back to back,
starting at the trigger, so entries on different banks overlap in time
(that is how two tones are emitted at once) while entries on the same
bank are strictly sequential.  NCO phase accumulators advance on every
clock from the trigger onward whether or not their NCO is selected, so
bursts are phase-coherent across idle gaps, instructions, and triggers.
Playing images yields an ``ExecutionTrace``: every burst with its start
sample, tuning word, reference phase and envelope codes.

Synthesize: ``synthesize`` turns a trace into DAC samples (PAC lookup,
DAC quantization, bank sum, clipping).  ``Transmitter.execute`` is play
followed by synthesize; the structured physics engine reads the trace
and never needs the samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .memory import MemoryImage, N_BANKS, N_NCOS
from .nco import PHASE_BITS, PHASE_WORDS, max_grid_value, pac_convert


@dataclass
class Impairments:
    """Analog front-end nonidealities applied at upconversion.

    ``lo_leakage_dbc`` is the residual carrier level relative to a
    full-scale tone (None disables it); gain mismatch is the fractional
    amplitude error of the Q mixing path and the phase error its
    quadrature error in radians.
    """

    lo_leakage_dbc: float | None = None
    iq_gain_mismatch: float = 0.0
    iq_phase_error: float = 0.0


@dataclass
class TxConfig:
    """Static transmitter configuration: clocking, converters, RF front end."""

    f_clk: float = 1e9
    lo_freq: float = 13.54e9
    dac_bits: int = 10
    amp_bits: int = 10
    phase_mod_bits: int = 10
    pac_addr_bits: int = 10
    gain_db: float = 0.0
    impairments: Impairments = field(default_factory=Impairments)
    rf_high: bool = False

    def __post_init__(self):
        if not 0.0 <= self.gain_db <= 40.0:
            raise ValueError(f"gain_db {self.gain_db} outside [0, 40] dB")
        if not 2e9 <= self.lo_freq <= 20e9:
            raise ValueError(f"lo_freq {self.lo_freq} outside [2, 20] GHz band")
        for name in ("dac_bits", "amp_bits"):
            v = getattr(self, name)
            if not 2 <= v <= 30:
                raise ValueError(f"{name}={v} outside supported range 2..30")
        for name in ("phase_mod_bits", "pac_addr_bits"):
            v = getattr(self, name)
            if not 1 <= v <= PHASE_BITS:
                raise ValueError(f"{name}={v} outside 1..{PHASE_BITS}")

    @property
    def sample_period(self) -> float:
        return 1.0 / self.f_clk

    @property
    def dac_rails(self) -> tuple[float, float]:
        return -1.0, max_grid_value(self.dac_bits)


@dataclass
class BasebandWaveform:
    """DAC output of one execution: equal-length I/Q sample streams."""

    sample_rate: float
    i: np.ndarray
    q: np.ndarray
    start_time: float = 0.0

    def __post_init__(self):
        if len(self.i) != len(self.q):
            raise ValueError("i and q sample streams differ in length")

    def __len__(self) -> int:
        return len(self.i)

    @property
    def duration(self) -> float:
        return len(self.i) / self.sample_rate

    @property
    def envelope(self) -> np.ndarray:
        """Complex envelope relative to the LO: q + 1j*i."""
        return self.q + 1j * self.i


@dataclass(frozen=True)
class BurstSegment:
    """One envelope burst as played: enough to rebuild its samples."""

    bank: int
    nco: int
    t0: int  # global sample index of the first sample
    n: int
    ftw: int
    ref_word: int  # reference phase in effect during the burst
    amp_values: np.ndarray  # amplitude-grid values, length n
    phase_codes: np.ndarray  # envelope phase codes, length n

    @property
    def t_end(self) -> int:
        return self.t0 + self.n

    def phase_words(self, phase_mod_bits: int) -> np.ndarray:
        """Output phase word of each sample, envelope phase code included.

        The accumulator advances before the output, so sample k of the burst
        (k = 1..n) reads ftw * (t0 + k) + ref_word plus the phase code scaled
        up to full phase-word units.
        """
        k = np.arange(self.t0 + 1, self.t_end + 1, dtype=np.int64)
        mod = self.phase_codes << (PHASE_BITS - phase_mod_bits)
        return (self.ftw * k + self.ref_word + mod) % PHASE_WORDS


@dataclass
class ExecutionTrace:
    """Everything one play did: its bursts and its span of the global clock."""

    segments: list[BurstSegment]
    start: int  # global sample index where the span begins
    end: int  # global sample index one past the span
    phase_mod_bits: int
    sample_rate: float

    @property
    def n_samples(self) -> int:
        return self.end - self.start


def synthesize(trace: ExecutionTrace, cfg: TxConfig) -> BasebandWaveform:
    """DAC output of a played trace: PAC lookup and DAC quantization of each
    burst, the banks summed and clipped to the DAC rails."""
    banks = np.zeros((2, N_BANKS, trace.n_samples))  # (i/q, bank, sample)
    for seg in trace.segments:
        t = seg.t0 - trace.start
        banks[:, seg.bank, t : t + seg.n] = pac_convert(
            seg.phase_words(trace.phase_mod_bits),
            seg.amp_values,
            pac_addr_bits=cfg.pac_addr_bits,
            dac_bits=cfg.dac_bits,
        )
    i, q = np.clip(banks.sum(axis=1), *cfg.dac_rails)
    return BasebandWaveform(cfg.f_clk, i, q, start_time=trace.start * cfg.sample_period)


class Transmitter:
    """Stateful sequencer: plays memory images, keeps phase across triggers."""

    def __init__(self, cfg: TxConfig, ftws: dict | None = None):
        self.cfg = cfg
        self.ftws = np.zeros((N_BANKS, N_NCOS), dtype=np.int64)
        self.set_ftws(ftws or {})
        self.ref_phase = np.zeros((N_BANKS, N_NCOS), dtype=np.int64)
        self.sample_count = 0  # global clock since construction

    def set_ftws(self, ftws: dict) -> None:
        """Tuning words keyed by (bank, nco); NCOs not named keep theirs.
        Every entry is checked before any word is stored."""
        problems = [f"no NCO at (bank, nco) = {key}" for key in ftws
                    if not (0 <= key[0] < N_BANKS and 0 <= key[1] < N_NCOS)]
        problems += [f"ftw {ftw} at (bank, nco) = {key} not an unsigned {PHASE_BITS}-bit word"
                     for key, ftw in ftws.items() if not 0 <= ftw < PHASE_WORDS]
        if problems:
            raise ConfigError(problems)
        for (bank, nco), ftw in ftws.items():
            self.ftws[bank, nco] = ftw

    def play(self, images) -> ExecutionTrace:
        """Run triggers back to back and record every burst they play.

        Each image is validated before it changes any state; playing it
        applies its phase updates and advances the clock by its longest bank.
        """
        cfg = self.cfg
        start = self.sample_count
        segments = []
        for image in images:
            image.validate()
            env = image.envelope
            if env.amp_bits != cfg.amp_bits or env.phase_mod_bits != cfg.phase_mod_bits:
                raise ValueError(
                    "image envelope bit widths do not match the transmitter configuration"
                )
            cursors = [0] * N_BANKS  # each bank plays its bursts back to back
            for ref in image.instruction_list:
                instr = image.tables[ref.bank][ref.nco][ref.slot]
                if instr.is_phase_update:
                    self.ref_phase[ref.bank, ref.nco] = (
                        self.ref_phase[ref.bank, ref.nco] + instr.phase_update
                    ) % PHASE_WORDS
                    continue
                segments.append(
                    BurstSegment(
                        bank=ref.bank,
                        nco=ref.nco,
                        t0=self.sample_count + cursors[ref.bank],
                        n=instr.n_samples,
                        ftw=int(self.ftws[ref.bank, ref.nco]),
                        ref_word=int(self.ref_phase[ref.bank, ref.nco]),
                        amp_values=env.amp_values(instr.start_addr, instr.stop_addr),
                        phase_codes=env.phase_codes(instr.start_addr, instr.stop_addr),
                    )
                )
                cursors[ref.bank] += instr.n_samples
            self.sample_count += max(cursors)
        return ExecutionTrace(segments, start, self.sample_count, cfg.phase_mod_bits, cfg.f_clk)

    def execute(self, image: MemoryImage) -> BasebandWaveform:
        """Run one trigger and return the summed banks."""
        return synthesize(self.play([image]), self.cfg)

    def execute_sequence(self, images) -> BasebandWaveform:
        """Chain several triggers back to back into one waveform."""
        return synthesize(self.play(images), self.cfg)


def execute(image: MemoryImage, cfg: TxConfig, ftws: dict | None = None) -> BasebandWaveform:
    """One-shot execution on a fresh transmitter."""
    return Transmitter(cfg, ftws).execute(image)
