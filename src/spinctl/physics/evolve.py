"""Time evolution under a played burst trace.

Both engines start from the transmitter's ``ExecutionTrace``, share one
per-sample kernel, take a batch of programs and return one total unitary
per program and quasi-static noise draw, shape (P, r, 4, 4).  The caller
picks one; neither falls back to the other.  The kernel factors the phase
out: the drive changes the excitation number by exactly one, so with the
diagonal P(phi) = exp(-i phi NUMBER_OP), H(a e^{i phi}) = P(phi) H(a) P(phi)^dagger,
an identity, not an approximation.  Each distinct amplitude is exponentiated once
per noise draw; each sample's factor is that exponential conjugated by its phase.

One fold serves both engines: ``_fold`` gathers k x k factors, k = 2 per
spin or 4, from a (k, k, m, ...) structure-of-arrays table at most _ENTRIES
complex entries at a time, scales their columns by their frames and
reduces each chunk by one pairwise product (``_soa_product``): the kernel
over its samples, the trace engine over its clusters.  The frame
telescopes: with
P(phi) = exp(-i phi kvec), kvec = (0, 1) per spin or (0, 1, 1, 2), and
phi_0 = 0,

    prod_k P(phi_k) E_k P(phi_k)^dagger = P(phi_n) G_n ... G_1,
    G_k = E_k P(phi_{k-1} - phi_k),

one column scaling per factor and one row scaling at the end.  Operands
keep this layout inside an engine, memo entries included.

Each call reads the block structure from the energies it is given, by one
rule (``_separable``): when every row has E(11) = E(01) + E(10) exactly,
which is J = 0 for that row, the generator is H1 x I + I x H2 and
U = U1 x U2.  Each spin's exponentials are then 2x2 in closed form
(``su2_exp``), otherwise 4x4 through ``eigh``; that choice of exponential
is the only fork.  Everything after it runs in the chosen structure: the
kernel's products, the trace engine's powers, its table and its fold are
2x2 blocks with a column per spin and row, k = 2 and the frame's kvec
(0, 1) with energies 0 and E(10) or E(01) per spin (E(00) = 0), or 4x4
blocks, k = 4, kvec (0, 1, 1, 2) and the diagonal E.  Each engine joins
the spins once, at the end, as their Kronecker product (``_joined``), so
no caller knows which ran.  An exchange-off bench with no exchange noise
(j_off = 0, sigma_j = 0) runs as two spins on every call; a call with any
row where exchange shows in the energies runs 4x4: on an exchange-on
bench, with j_off > 0, or with a nonzero delta_j in any row
(sigma_j > 0).

``dense_propagators``
    Reference path, for a batch of waveforms, shape (P, r, 4, 4): the exact
    ordered product over the DAC samples synthesized from each trace.  One
    exponential set and one fold serve the batch, each waveform padded with
    the identity to the longest.

``evolve_trace``
    Structured path, for a batch of traces, shape (P, r, 4, 4): the
    idealized synthesis (no phase-table or DAC requantization) of each
    trace itself; no samples are synthesized.  A lone constant burst
    telescopes to one matrix power of the kernel's one-sample exponential,
    which is what makes randomized benchmarking tractable; any other
    cluster of bursts (a shaped burst, or bursts on both banks at once)
    goes through the kernel, as the dense engine's samples do.

``PropagatorMemo``
    The trace engine's store of reusable products, each keyed on the physics
    it was made under: a kernel exponential set on (block structure, its
    draw group's energy rows, drive operator, sample period, level bytes), a
    constant-burst matrix power on (energies, drive operator, sample period,
    amplitude, n, ftw).  A product made under other physics is never served,
    because its key differs.  A noiseless sweep that rewrites only tuning
    words (spectroscopy) therefore exponentiates its envelope once.  A noisy
    batch brings the same rows as the one before (the nodes of each rule of
    ``Bench.sample``'s quadrature), so its entries carry over too, draw
    group by draw group.  A lookup made for several traces of a batch
    counts as one per trace (``PropagatorMemo.get``'s ``uses``).  The memo
    holds at most ``PropagatorMemo.bound`` (8 _CHUNK) 4x4 matrices' worth
    of bytes, a spin-path level set counting half a matrix per level and
    row and a spin-path power half a matrix per row: a product that does
    not fit beside those held empties it first, so products of physics no
    longer in use cannot crowd out the current ones, and one larger than
    the bound is not kept.  ``Bench`` owns one; the dense engine uses none.

The result is the only representation of an evolved program: the final
state from basis state k is column k of a unitary, checked and rescaled by
the norm policy of ``state.renormalized``.  Of the closed-form two-level
functions at the end, ``su2_exp`` is the spin path's exponential;
``rotation_for_phase`` and ``z_rotation`` are the ideal gates the
experiments' oracles are built from.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..controller.executor import ExecutionTrace, Waveform, end_words
from ..controller.nco import PHASE_WORDS
from .device import DeviceModel, NoiseSample, ZERO_NOISE
from .hamiltonian import (
    NUMBER_OP,
    detunings,
    diagonal_energies,
    drive_operator,
    generator_batch,
)

_CHUNK = 2048  # distinct levels exponentiated at once, and the memo's unit
_ENTRIES = 4 * _CHUNK  # complex entries of gathered factors held at once
_KVEC = np.diag(NUMBER_OP).real  # (0, 1, 1, 2); its first two, (0, 1), per spin
_EYE = np.eye(4, dtype=complex)
_WORD = 2 * np.pi / PHASE_WORDS  # radians per phase word


def _expm_batch(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-2j pi dt H) for a stack of Hermitian matrices."""
    w, v = np.linalg.eigh(h)
    rotated = v * np.exp(-2j * np.pi * dt * w)[..., None, :]
    return rotated @ np.conj(v, out=v).swapaxes(-1, -2)


def _soa_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for k x k matrices held as (k, k, ...) structure-of-arrays."""
    out = a[:, :1] * b[None, 0]
    for j in range(1, len(b)):
        out += a[:, j : j + 1] * b[None, j]
    return out


def _soa_product(factors: np.ndarray) -> np.ndarray:
    """F[n-1] ... F[0] of (k, k, n, ...) structure-of-arrays factors by
    pairwise reduction along axis 2 (index 0 acts first), shape (k, k, ...)."""
    while factors.shape[2] > 1:
        m = factors.shape[2] // 2
        head = _soa_matmul(factors[:, :, 1 : 2 * m : 2], factors[:, :, 0 : 2 * m : 2])
        factors = (np.concatenate([head, factors[:, :, 2 * m :]], axis=2)
                   if factors.shape[2] % 2 else head)
    return factors[:, :, 0]


class PropagatorMemo:
    """Exponentials and constant-burst powers shared by trace-engine calls,
    each keyed on the physics it was made under.

    ``counts`` tallies hits and misses, separately for level sets and for
    powers, since the memo was made or ``Bench.new_tally`` last zeroed them;
    ``held`` is the memory kept now, at most ``bound``, in 4x4 complex
    matrices: a 4x4 stack counts its matrices, and a product of the spin
    path, two 2x2 per level and row or per row, half a matrix for each.
    """

    bound = 8 * _CHUNK  # 4x4 complex matrices' bytes held at most

    def __init__(self):
        self.counts = dict.fromkeys(("level_hits", "level_misses", "power_hits", "power_misses"), 0)
        self.held, self._tables = 0, {"level": {}, "power": {}}

    def get(self, kind: str, key, compute, uses: int = 1) -> np.ndarray:
        """The ``kind`` ("level" or "power") product stored under ``key``,
        made by ``compute()`` on a miss and kept if it fits the bound; one
        that does not fit beside what is held empties the memo first.

        The lookup counts as ``uses`` lookups, as if that many calls had
        made it in turn: after a miss the rest hit when the product was
        kept and miss too when it was not.
        """
        value = self._tables[kind].get(key)
        if value is not None:
            self.counts[kind + "_hits"] += uses
            return value
        value = compute()
        size = -(-value.nbytes // _EYE.nbytes)  # in 4x4 matrices, rounded up
        kept = size <= self.bound
        if kept:
            if self.held + size > self.bound:
                self._tables, self.held = {"level": {}, "power": {}}, 0
            value.flags.writeable = False  # shared by every later hit
            self._tables[kind][key] = value
            self.held += size
        self.counts[kind + "_misses"] += 1 if kept else uses
        self.counts[kind + "_hits"] += uses - 1 if kept else 0
        return value


def _matrix_exponentials(levels: np.ndarray, group: np.ndarray, drive: np.ndarray,
                         dt: float) -> np.ndarray:
    """E(level) under each row of ``group``, as structure-of-arrays 4x4
    matrices of shape (4, 4, levels, rows)."""
    u = _expm_batch(generator_batch(levels, group, drive), dt)
    return np.ascontiguousarray(np.moveaxis(u, (-2, -1), (0, 1)))


def _spin_exponentials(levels: np.ndarray, group: np.ndarray, drive: np.ndarray,
                       dt: float) -> np.ndarray:
    """Each spin's E(level) under each row of ``group``, in closed form, as
    structure-of-arrays 2x2 matrices of shape (2, 2, levels, 2 rows): column
    k < rows is spin 1 under row k, column rows + k spin 2 under it.

    With E(00) = 0, spin 1 sees E(10) and the drive's S1 coupling w1 =
    drive[2, 0], spin 2 sees E(01) and w2 = drive[1, 0] (``drive_operator``).
    """
    detuning = np.concatenate([group[:, 2], group[:, 1]])
    coupling = np.repeat([drive[2, 0], drive[1, 0]], len(group))  # <1|H|0> per unit level
    off = 0.5 * levels[:, None] * coupling
    return su2_exp(detuning / 2, off.real, off.imag, -detuning / 2, dt)


def _fold(table: np.ndarray, which: np.ndarray, scale) -> np.ndarray:
    """G[n-1] ... G[0], G_k = table[:, :, which[k]] D_k, of structure-of-arrays
    (k, k, m, *c) gathered by ``which`` of shape (n, *b), to (k, k, *b, *c),
    the identity for n = 0; the diagonal D_k of the slice ``part`` of
    ``which`` is ``scale(part)``, broadcastable to (k, len(part), *b, *c).
    A chunk gathers at most _ENTRIES complex entries (at least one factor),
    reduced by ``_soa_product``."""
    k, tail = table.shape[0], which.shape[1:] + table.shape[3:]
    if not len(which):
        eye = _EYE[:k, :k].reshape(k, k, *(1,) * len(tail))
        return np.broadcast_to(eye, (k, k, *tail)).copy()
    step = max(1, _ENTRIES // (k * k * math.prod(tail)))
    for start in range(0, len(which), step):
        part = slice(start, start + step)
        factors = np.take(table, which[part], axis=2)  # (k, k, n, *b, *c)
        factors *= scale(part)
        product = _soa_product(factors)
        total = _soa_matmul(product, total) if start else product
    return total


def _separable(energies: np.ndarray) -> bool:
    """Whether every row has E(11) = E(01) + E(10) exactly, which is J = 0
    for that row: the generator is then H1 x I + I x H2 and U = U1 x U2."""
    return np.array_equal(energies[:, 3], energies[:, 1] + energies[:, 2])


def _frame_energies(energies: np.ndarray, spins: bool) -> np.ndarray:
    """Energies of each block's basis states, shape (k, R), in the column
    layout of its products: the diagonal E under each row for 4x4 blocks;
    for 2x2 spin blocks 0 and E(10), spin 1 under each row, then 0 and
    E(01), spin 2 under each row (E(00) = 0)."""
    if not spins:
        return energies.T
    excited = np.concatenate([energies[:, 2], energies[:, 1]])
    return np.stack([np.zeros_like(excited), excited])


def _joined(u: np.ndarray) -> np.ndarray:
    """Structure-of-arrays unitaries (k, k, ..., R) in either block
    structure as 4x4 ones (4, 4, ..., r): 4x4 blocks as they are, 2x2 spin
    blocks (columns spin 1 under each row, then spin 2) as U1 x U2, whose
    frame is the 4x4 one."""
    if len(u) == 4:
        return u
    rows = u.shape[-1] // 2  # U1 x U2 as [i1, i2, j1, j2, ..., row]
    return (u[:, None, :, None, ..., :rows] * u[None, :, None, :, ..., rows:]).reshape(
        4, 4, *u.shape[2:-1], rows)


def _sampled_product(amp: np.ndarray, phi: np.ndarray, energies: np.ndarray, drive: np.ndarray,
                     dt: float, memo: PropagatorMemo | None = None, operator=None,
                     which: np.ndarray | None = None) -> np.ndarray:
    """Ordered product of the per-sample propagators of the envelope
    ``amp * exp(1j * phi)``, one per row of ``energies``, as
    structure-of-arrays blocks of shape (k, k, *g, R) for ``phi`` of shape
    (n, *g): one product per column of ``phi``.  ``amp`` holds one
    amplitude per sample, shared by every column; or, given ``which`` of
    ``phi``'s shape, the distinct levels that it indexes per sample and
    column, where the index len(amp) is the identity (a pad).

    Sample k contributes P(phi_k) E(amp_k) P(phi_k)^dagger, with E
    exponentiated once per distinct amplitude and draw; the product is
    P(phi_{n-1}) times the ``_fold`` of the exponentials, each sample's
    columns scaled by P(phi_{k-1} - phi_k), phi_{-1} = 0, which each chunk
    of the fold builds from its own slice of ``phi``.  When ``_separable``
    holds, each spin's exponentials are 2x2 (``_spin_exponentials``) and
    so are the products, k = 2 and R = 2r in that layout, which
    ``_joined`` turns into 4x4 ones; otherwise they are 4x4
    (``_matrix_exponentials``), k = 4 and R = r.  At most _CHUNK
    exponentials are held at once: the draws are taken in groups that fit
    beside the distinct amplitudes, and samples with more than _CHUNK
    of them are split in halves, each with the levels it uses.  Each group's
    exponentials come from ``memo``, keyed on the block structure, the
    group's rows, ``operator`` (the drive and dt key part) and the level
    bytes, and counted as one lookup per column.
    """
    if which is None:
        amp, which = np.unique(amp, return_inverse=True)
        which = which.reshape(-1, *(1,) * (phi.ndim - 1))
    if len(amp) > _CHUNK and len(phi) > 1:
        mid = (len(phi) + 1) // 2
        halves = []
        for part in (slice(mid, None), slice(mid)):  # the later half first
            used, local = np.unique(which[part], return_inverse=True)
            halves.append(_sampled_product(amp[used[used < len(amp)]], phi[part], energies, drive,
                                           dt, memo, operator, local.reshape(which[part].shape)))
        return _soa_matmul(*halves)
    columns = phi.shape[1:]
    spins = _separable(energies)
    exponentials = _spin_exponentials if spins else _matrix_exponentials
    padded = bool(np.any(which == len(amp)))
    which = np.broadcast_to(which, phi.shape)

    def turns(part):  # P(phi_{k-1} - phi_k) over the slice, (k, samples, *columns, 1)
        window = phi[max(part.start - 1, 0) : part.stop]
        steps = window[1:] - window[:-1]
        if not part.start:  # phi_{-1} = 0
            steps = np.concatenate((window[:1], steps))
        t = np.exp(1j * steps)[..., None]  # e^{i (phi_k - phi_{k-1})}, to the powers kvec
        return np.stack([np.ones_like(t), t] if spins else [np.ones_like(t), t, t, t * t])

    draws = max(_CHUNK // max(len(amp), 1), 1)
    out = []
    for i in range(0, len(energies), draws):
        group = energies[i : i + draws]
        compute = functools.partial(exponentials, amp, group, drive, dt)
        expm = (compute() if memo is None else
                memo.get("level", (spins, group.tobytes(), *operator, amp.tobytes()), compute,
                         uses=math.prod(columns)))
        if padded:  # the identity, after the levels
            eye = _EYE[: len(expm), : len(expm), None, None]
            expm = np.concatenate([expm, eye.repeat(expm.shape[3], axis=3)], axis=2)
        u = _fold(expm, which, turns)  # (k, k, *columns, blocks x group rows)
        out.append(u.reshape(*u.shape[:-1], -1, len(group)))
    total = np.concatenate(out, axis=-1) if len(out) > 1 else out[0]
    total = total.reshape(*total.shape[:-2], -1)  # blocks, then rows
    if len(phi):  # P(phi_{n-1})
        kvec = _KVEC[1 : len(total)]
        total[1:] *= np.exp(-1j * np.multiply.outer(kvec, phi[-1]))[:, None, ..., None]
    return total


def _energies(model: DeviceModel, lo_freq: float, exchange_on: bool, noise: NoiseSample) -> np.ndarray:
    """Diagonal energies per noise draw, shape (r, 4); r = 1 for scalar noise."""
    return np.atleast_2d(diagonal_energies(*detunings(model, lo_freq, exchange_on, noise)))


def dense_propagators(
    waveforms: list[Waveform],
    model: DeviceModel,
    lo_freq: float,
    *,
    exchange_on: bool = False,
    noise: NoiseSample = ZERO_NOISE,
) -> np.ndarray:
    """Total unitaries over every DAC sample of each waveform in
    ``waveforms``, one per noise draw, shape (len(waveforms), r, 4, 4).

    Idle samples (zero envelope) evolve under the drive-free generator.
    The batch's distinct |z| make one exponential set per draw group and
    one fold takes a column per (waveform, row); a shorter waveform is
    padded with the identity, its phase held so the pad's frame step is 0.
    """
    energies = _energies(model, lo_freq, exchange_on, noise)
    if not len(waveforms):
        return np.empty((0, len(energies), 4, 4), dtype=complex)
    rates = {wf.sample_rate for wf in waveforms}
    if len(rates) > 1:
        raise ValueError(f"one batch plays at one sample rate, not {sorted(rates)}")
    # Each waveform's levels first, so that no sort holds every sample at once.
    # numpy 2.4's np.unique imports numpy.ma (2 MB) unless asked for an inverse.
    own = [np.unique(np.abs(wf.envelope), return_inverse=True)[0] for wf in waveforms]
    levels = np.unique(np.concatenate(own), return_inverse=True)[0]
    which = np.full((max(len(wf.envelope) for wf in waveforms), len(waveforms)), len(levels))
    phi = np.zeros(which.shape)
    for p, wf in enumerate(waveforms):
        n = len(wf.envelope)
        which[:n, p] = np.searchsorted(levels, np.abs(wf.envelope))
        phi[:n, p] = np.angle(wf.envelope)
        phi[n:, p] = phi[n - 1, p] if n else 0.0
    u = _sampled_product(levels, phi, energies, drive_operator(model), 1.0 / rates.pop(),
                         which=which)
    return _joined(u).transpose(2, 3, 0, 1).copy()  # (4, 4, P, r) to (P, r, 4, 4)


def _clusters(trace: ExecutionTrace) -> list:
    """[t0, t_end, bursts] of each run of bursts that overlap in time, in
    time order.  Zero-amplitude bursts (idle pads) are inert: left out as
    gaps."""
    clusters = []
    active = (s for s in trace.segments
              if (s.amp_values[0] if s.constant else s.amp_values.any()))
    for seg in sorted(active, key=lambda s: s.t0):
        if clusters and seg.t0 < clusters[-1][1]:
            clusters[-1][1] = max(clusters[-1][1], seg.t_end)
            clusters[-1][2].append(seg)
        else:
            clusters.append([seg.t0, seg.t_end, [seg]])
    return clusters


def _kernel_samples(t0: int, t_end: int, group, bits: int):
    """Amplitudes of a cluster the kernel evolves, and a function that makes
    its phases: a lone burst's amplitude codes and phase-word angles as
    played, so its levels are exact, or |z| and arg z of overlapping bursts'
    idealized samples summed."""
    if len(group) == 1:
        seg = group[0]
        return seg.amp_values, lambda: seg.phase_words(bits) * _WORD
    z = np.zeros(t_end - t0, dtype=complex)
    for seg in group:
        phase = seg.phase_words(bits) * (2j * np.pi / PHASE_WORDS)
        z[seg.t0 - t0 : seg.t_end - t0] += seg.amp_values * np.exp(phase)
    return np.abs(z), functools.partial(np.angle, z)


def evolve_trace(
    traces: list[ExecutionTrace],
    model: DeviceModel,
    lo_freq: float,
    *,
    exchange_on: bool = False,
    noise: NoiseSample = ZERO_NOISE,
    memo: PropagatorMemo | None = None,
) -> np.ndarray:
    """Total unitaries of each burst trace in ``traces``, one per noise draw,
    shape (len(traces), r, 4, 4).

    Bursts that overlap in time form one cluster, whose idealized samples
    are summed as the DAC sums the banks.  Every cluster is one factor
    P(end) F P(start)^dagger G, where G is the idle gap before it.  For a
    lone constant burst (``BurstSegment.constant``, recorded at play time)
    F is its power (E P(ftw step))^(n - 1) E of the kernel's one-sample
    exponential E, and the diagonals P come from its end words (reference
    phase, start time and phase code, ``end_words``); for any other cluster
    F is the kernel product, already in the lab frame, and its end words
    are 0.  Kernel clusters with the same amplitude samples, as a sweep
    that rewrites only tuning words plays them, share one exponential set
    and one fold with a column per (cluster, row).

    One table serves the batch: each distinct (amplitude, n, ftw) power,
    each kernel product and the identity, as 2x2 spin blocks with a column
    per spin and row when ``_separable`` holds for the energies, as the
    kernel's products are, and as 4x4 blocks otherwise.  ``_fold`` gathers
    it in time order with a column per (trace, spin and row), scaling each
    factor's columns by P(start)^dagger G P(end before); a trace with fewer
    clusters than the longest is padded with the identity.  P(last end) and
    the idle tail scale the total's rows once, and ``_joined`` makes the
    4x4 unitaries of spin blocks.  The energies, the drive, the key bytes
    and the frames are made once per batch.

    ``memo`` keeps the powers and the kernel's exponentials under the
    physics they were made under (``PropagatorMemo``).  Its counts are those
    of one call per trace: each trace that plays a power adds one lookup and
    each later play of it within the trace one ``power_hits``, so hits plus
    misses count the lone constant bursts played; each kernel cluster adds
    the lookups of its exponential set.  Without ``memo`` the call makes a
    fresh one, so repeats within the batch are still shared.
    """
    energies = _energies(model, lo_freq, exchange_on, noise)  # (r, 4)
    if not len(traces):
        return np.empty((0, len(energies), 4, 4), dtype=complex)
    formats = {(trace.sample_rate, trace.phase_mod_bits) for trace in traces}
    if len(formats) > 1:
        raise ValueError(f"one batch plays at one sample rate and phase resolution, "
                         f"not {sorted(formats)}")
    ((rate, bits),) = formats
    drive = drive_operator(model)
    dt = 1.0 / rate
    memo = PropagatorMemo() if memo is None else memo
    frame = _frame_energies(energies, _separable(energies))  # (k, R), as the kernel's blocks
    k = len(frame)
    operator = (drive.tobytes(), dt)  # the physics every key holds beside its energy rows
    physics = (energies.tobytes(), *operator)  # the power keys' common part

    # Per trace and cluster: its table row (-1, the identity, for a kernel
    # cluster until its product is made), the gap before it and its frame
    # shift, P(start)^dagger P(end before), in phase words.  A lone constant
    # burst's start and end words come from ``end_words``; a kernel
    # factor's are 0.
    powers = {}  # (amplitude, n, ftw) -> [its row, traces playing it]
    kernels = {}  # amplitude bytes -> (amplitudes, [(cluster, trace)], [phase makers])
    columns, lone = [], 0  # per trace; lone constant bursts played
    for p, trace in enumerate(traces):
        found = _clusters(trace)
        rows, gaps, words = [-1] * len(found), [], np.zeros((2, len(found)), dtype=np.int64)
        end, played, heads = trace.start, set(), {}  # heads: cluster -> its lone burst
        for i, (t0, t_end, group) in enumerate(found):
            gaps.append(t0 - end)
            end = t_end
            if len(group) == 1 and group[0].constant:
                seg = heads[i] = group[0]
                key = (float(seg.amp_values[0]), seg.n, seg.ftw)
                row = powers.setdefault(key, [len(powers), 0])
                row[1] += key not in played
                played.add(key)
                rows[i] = row[0]
            else:
                amp, phases = _kernel_samples(t0, t_end, group, bits)
                entry = kernels.setdefault(amp.tobytes(), (amp, [], []))
                entry[1].append((i, p))
                entry[2].append(phases)
        if heads:
            words[:, list(heads)] = end_words(heads.values(), bits)
        lone += len(heads)
        starts, ends = words
        shift = starts - np.concatenate(([0], ends[:-1]))
        columns.append((rows, gaps, shift, ends[-1] if len(ends) else 0, trace.end - end))

    # The same, padded to the longest trace (at least one row, so a batch of
    # empty traces folds one pad): a pad is the identity, with no gap and no
    # shift.
    shape = (max(1, *(len(rows) for rows, *_ in columns)), len(traces))
    which, (gaps, shift) = np.full(shape, -1), np.zeros((2, *shape), dtype=np.int64)
    for p, (rows, gap, words, _, _) in enumerate(columns):
        which[: len(rows), p], gaps[: len(rows), p], shift[: len(rows), p] = rows, gap, words
    last, tails = np.array([column[3:] for column in columns], dtype=np.int64).T

    # Sample k of a lone constant burst is sample 0 conjugated by k phase
    # steps of the tuning word, so the burst telescopes to one matrix power
    # of the kernel's one-sample exponential E.
    def power(amplitude: float, n: int, ftw: int):  # at zero phase, (k, k, R)
        e = _sampled_product(np.array([amplitude]), np.zeros(1), energies, drive, dt)
        e = e.transpose(2, 0, 1)  # (R, k, k)
        undo_step = np.exp(2j * np.pi * ftw / PHASE_WORDS * _KVEC[:k])
        return np.ascontiguousarray(np.moveaxis(
            np.linalg.matrix_power(e * undo_step, n - 1) @ e, 0, -1))

    table = [memo.get("power", physics + key, functools.partial(power, *key), uses=traces_playing)
             for key, (_, traces_playing) in powers.items()]
    memo.counts["power_hits"] += lone - sum(uses for _, uses in powers.values())
    for amp, places, phases in kernels.values():
        phi = np.empty((len(amp), len(places)))  # a column per cluster
        for j, make in enumerate(phases):
            phi[:, j] = make()
        products = _sampled_product(amp, phi, energies, drive, dt, memo,
                                    operator)  # (k, k, clusters, R)
        which[tuple(zip(*places))] = np.arange(len(table), len(table) + len(places))
        table += list(np.moveaxis(products, 2, 0))
    table.append(_EYE[:k, :k, None].repeat(frame.shape[1], axis=2))
    table = np.stack(table, axis=2)  # (k, k, rows, R)

    # The frames telescope: P(start)^dagger G P(end before) scales a factor's
    # columns by exp(i shift WORD kvec + idle step E), which is 1 on column 0
    # (kvec and E(00) are 0 there), and P(last end) scales the total's rows;
    # E is the frame energy of each column's block.
    step = -2j * np.pi * dt  # G = exp(gap * step * energies)
    idle = gaps * step
    kvec = _KVEC[:k, None, None, None]  # over (k, clusters, traces, R)
    total = _fold(table, which, lambda part: np.exp(
        1j * _WORD * kvec * shift[part, :, None]
        + idle[part, :, None] * frame[:, None, None]))  # (k, k, traces, R)
    total *= np.exp(-1j * _WORD * kvec[:, 0] * last[:, None]
                    + (tails * step)[:, None] * frame[:, None])[:, None]
    return _joined(total).transpose(2, 3, 0, 1).copy()


# --- closed-form two-level functions ----------------------------------------


def su2_exp(c0, ax, ay, az, dt):
    """exp(-2j pi dt (c0 I + a . sigma)) elementwise over arrays, as
    structure-of-arrays 2x2 matrices of shape (2, 2, ...)."""
    c0, ax, ay, az = np.broadcast_arrays(c0, ax, ay, az)
    mag = np.sqrt(ax**2 + ay**2 + az**2)
    phi = 2.0 * np.pi * dt * mag
    sinc = np.where(mag > 0, np.sin(phi) / np.where(mag > 0, mag, 1.0), 2 * np.pi * dt)
    cosv = np.cos(phi)
    u = np.empty((2, 2) + np.shape(c0), dtype=complex)
    u[0, 0] = cosv - 1j * sinc * az
    u[1, 1] = cosv + 1j * sinc * az
    u[0, 1] = -1j * sinc * (ax - 1j * ay)
    u[1, 0] = -1j * sinc * (ax + 1j * ay)
    u *= np.exp(-2j * np.pi * dt * c0)
    return u


def rotation_for_phase(phi: float, angle: float) -> np.ndarray:
    """Resonant-burst unitary for drive phase ``phi`` and rotation ``angle``.

    exp(-i (angle/2) (cos phi sx - sin phi sy)); phase 0 is the +x gate,
    phase pi/2 the +y gate of the compiled gate set.
    """
    nx, ny = np.cos(phi), -np.sin(phi)
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array(
        [[c, -1j * s * (nx - 1j * ny)], [-1j * s * (nx + 1j * ny), c]], dtype=complex
    )


def z_rotation(theta: float) -> np.ndarray:
    """Operator equivalent of a virtual z: a reference-phase update of
    ``theta`` turns every later burst U(phi) into U(phi + theta), which is
    the same as inserting diag(1, e^{i theta}) once at the update point."""
    return np.diag([1.0, np.exp(1j * theta)]).astype(complex)
