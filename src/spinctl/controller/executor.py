"""Memory-driven execution of one transmitter, in two steps.

Play: a transmitter owns two banks of 16 NCOs.  The instruction list is
dispatched in order; each bank plays its own instructions back to back,
starting at the trigger, so entries on different banks overlap in time
(that is how two tones are emitted at once) while entries on the same
bank are strictly sequential.  NCO phase accumulators advance on every
clock from the trigger onward whether or not their NCO is selected, so
bursts are phase-coherent across idle gaps, instructions, and triggers.
Playing images yields an ``ExecutionTrace``: every burst with its start
sample, tuning word, reference phase and envelope codes.  Play also checks
what only a whole image shows (list length, bit widths, empty slots,
bursts past the envelope) in the walk that plays it; memory writes check
the rest.

Synthesize: ``synthesize`` turns a trace into DAC samples (PAC table
lookup, DAC quantization, bank sum, clipping), a baseband ``Waveform``: the
one signal type, which ``rf.upconvert`` also returns and ``metrics`` reads.
It sends each bank's back-to-back bursts through the PAC in bounded
batches of up to ``SYNTH_BATCH`` samples, so its transients stay small
however long the trace.
``Transmitter.execute`` is play followed by synthesize; the structured
physics engine reads the trace and never needs the samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CapacityError, ConfigError
from .memory import LIST_CAPACITY, MemoryImage, N_BANKS, N_NCOS
from .nco import PHASE_BITS, PHASE_WORDS, max_grid_value, output_phase, pac_convert

# Most samples per ``pac_convert`` call in ``synthesize``: enough to share
# the PAC table and the per-call overhead among many short bursts, few
# enough that a call's transients stay far below the output array.
SYNTH_BATCH = 8192


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
    def carrier(self) -> float:
        """RF carrier the baseband is mixed onto: the LO, or its third
        harmonic with ``rf_high``.  Qubit offsets are taken from it."""
        return 3.0 * self.lo_freq if self.rf_high else self.lo_freq

    @property
    def sample_period(self) -> float:
        return 1.0 / self.f_clk

    @property
    def dac_rails(self) -> tuple[float, float]:
        return -1.0, max_grid_value(self.dac_bits)


@dataclass
class Waveform:
    """An I/Q signal: complex envelope q + 1j*i around ``carrier_freq`` (0 at
    baseband); ``gain_linear`` is the front-end gain, which the full-scale
    envelope leaves out."""

    envelope: np.ndarray
    sample_rate: float
    carrier_freq: float = 0.0
    gain_linear: float = 1.0
    start_time: float = 0.0

    def __len__(self) -> int:
        return len(self.envelope)

    @property
    def i(self) -> np.ndarray:
        return self.envelope.imag

    @property
    def q(self) -> np.ndarray:
        return self.envelope.real

    @property
    def duration(self) -> float:
        return len(self.envelope) / self.sample_rate


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
    # Every sample has the same amplitude and phase code.  ``Transmitter.play``
    # sets it; False is always safe and only sends the burst through the
    # general per-sample path of the physics engine.
    constant: bool = False

    @property
    def t_end(self) -> int:
        return self.t0 + self.n

    def phase_words(self, phase_mod_bits: int) -> np.ndarray:
        """Output phase word of each sample, envelope phase code included.

        The accumulator advances before the output, so sample k of the burst
        (k = 1..n) reads ``output_phase`` at clock sample t0 + k.
        """
        k = np.arange(self.t0 + 1, self.t_end + 1, dtype=np.int64)
        shift = PHASE_BITS - phase_mod_bits
        return output_phase(self.ftw, k, self.ref_word, self.phase_codes, shift)


def end_words(segments, phase_mod_bits: int) -> np.ndarray:
    """Output phase words of the first and the last sample of each burst,
    shape (2, len(segments)): the ends of ``BurstSegment.phase_words``
    without building them."""
    shift = PHASE_BITS - phase_mod_bits
    return np.array([
        [output_phase(s.ftw, s.t0 + 1, s.ref_word, int(s.phase_codes[0]), shift)
         for s in segments],
        [output_phase(s.ftw, s.t0 + s.n, s.ref_word, int(s.phase_codes[-1]), shift)
         for s in segments],
    ], dtype=np.int64)


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

    def retuned(self, ftws: np.ndarray) -> ExecutionTrace:
        """This play under the tuning words ``ftws`` (banks x NCOs, as
        ``Transmitter.ftws``): a burst's word is the only part of a play that
        depends on them, so the bursts keep their sample arrays."""
        words = ftws.tolist()
        segments = [BurstSegment(s.bank, s.nco, s.t0, s.n, words[s.bank][s.nco], s.ref_word,
                                 s.amp_values, s.phase_codes, s.constant) for s in self.segments]
        return ExecutionTrace(segments, self.start, self.end, self.phase_mod_bits,
                              self.sample_rate)


def synthesize(trace: ExecutionTrace, cfg: TxConfig) -> Waveform:
    """DAC output of a played trace: PAC lookup and DAC quantization of each
    burst, added into one envelope (the banks sum where they overlap) and
    clipped to the DAC rails.

    The bursts go through ``pac_convert`` in runs: consecutive bursts of one
    bank that play back to back, at most ``SYNTH_BATCH`` samples together (a
    longer burst is a run of its own).  Each burst's phase words are those of
    ``BurstSegment.phase_words``, from the same ``output_phase``.
    """
    z = np.zeros(trace.n_samples, dtype=complex)
    shift = PHASE_BITS - trace.phase_mod_bits
    for bank in range(N_BANKS):
        for run in _runs([s for s in trace.segments if s.bank == bank]):
            t0, ns = run[0].t0, [s.n for s in run]
            n = run[-1].t_end - t0
            phase = output_phase(np.repeat([s.ftw for s in run], ns),
                                 np.arange(t0 + 1, t0 + n + 1, dtype=np.int64),
                                 np.repeat([s.ref_word for s in run], ns),
                                 np.concatenate([s.phase_codes for s in run]), shift)
            i, q = pac_convert(phase, np.concatenate([s.amp_values for s in run]),
                               pac_addr_bits=cfg.pac_addr_bits, dac_bits=cfg.dac_bits)
            t = t0 - trace.start
            z.imag[t : t + n] += i
            z.real[t : t + n] += q
    for part in (z.real, z.imag):
        np.clip(part, *cfg.dac_rails, out=part)
    return Waveform(z, cfg.f_clk, start_time=trace.start * cfg.sample_period)


def _runs(segments):
    """Split one bank's bursts, in play order, into runs that play back to
    back and span at most ``SYNTH_BATCH`` samples unless one burst is longer."""
    run = []
    for seg in segments:
        if run and (seg.t0 != run[-1].t_end or seg.t_end - run[0].t0 > SYNTH_BATCH):
            yield run
            run = []
        run.append(seg)
    if run:
        yield run


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

        Playing an image applies its phase updates and advances the clock by
        its longest bank.  The same walk checks the image: list length, bit
        widths, empty slots and bursts past the envelope.  It plays on local
        copies of the clock and reference phases, stored once every image has
        played, so a bad image leaves the transmitter unchanged.  Bursts of
        one envelope block share its read-only sample arrays, which are
        checked, read and tested for constancy once per image.
        """
        cfg = self.cfg
        ftws, ref_phase = self.ftws.tolist(), self.ref_phase.tolist()
        start = clock = self.sample_count
        segments = []
        for image in images:
            env, tables, entries = image.envelope, image.tables, image.instruction_list
            if len(entries) > LIST_CAPACITY:
                raise CapacityError("instruction list", LIST_CAPACITY, len(entries))
            if env.amp_bits != cfg.amp_bits or env.phase_mod_bits != cfg.phase_mod_bits:
                raise ValueError(
                    "image envelope bit widths do not match the transmitter configuration"
                )
            cursors = [0] * N_BANKS  # each bank plays its bursts back to back
            blocks = {}  # (start, stop) -> (amp_values, phase_codes, constant)
            for pos, (bank, nco, slot) in enumerate(entries):
                if not (0 <= bank < N_BANKS and 0 <= nco < N_NCOS
                        and 0 <= slot < len(tables[bank][nco])):
                    raise ValueError(
                        f"list entry {pos} references empty slot bank{bank}/nco{nco}/slot{slot}"
                    )
                instr = tables[bank][nco][slot]
                if instr.is_phase_update:
                    ref_phase[bank][nco] = (ref_phase[bank][nco] + instr.phase_update) % PHASE_WORDS
                    continue
                block = (instr.start_addr, instr.stop_addr)
                if block not in blocks:
                    if instr.stop_addr >= len(env):
                        raise ValueError(
                            f"list entry {pos} envelope range [{instr.start_addr}, "
                            f"{instr.stop_addr}] exceeds envelope length {len(env)}"
                        )
                    amp, codes = env.amp_values(*block), env.phase_codes(*block)
                    amp.flags.writeable = codes.flags.writeable = False
                    constant = bool(np.all(amp == amp[0]) and np.all(codes == codes[0]))
                    blocks[block] = amp, codes, constant
                amp, codes, constant = blocks[block]
                segments.append(
                    BurstSegment(
                        bank=bank,
                        nco=nco,
                        t0=clock + cursors[bank],
                        n=instr.n_samples,
                        ftw=ftws[bank][nco],
                        ref_word=ref_phase[bank][nco],
                        amp_values=amp,
                        phase_codes=codes,
                        constant=constant,
                    )
                )
                cursors[bank] += instr.n_samples
            clock += max(cursors)
        self.ref_phase[:] = ref_phase
        self.sample_count = clock
        return ExecutionTrace(segments, start, clock, cfg.phase_mod_bits, cfg.f_clk)

    def execute(self, image: MemoryImage) -> Waveform:
        """Run one trigger and return the summed banks."""
        return synthesize(self.play([image]), self.cfg)

    def execute_sequence(self, images) -> Waveform:
        """Chain several triggers back to back into one waveform."""
        return synthesize(self.play(images), self.cfg)

