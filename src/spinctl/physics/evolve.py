"""Time evolution under a played burst trace.

Both engines start from the transmitter's ``ExecutionTrace``, share one
per-sample kernel, and return one total unitary per quasi-static noise
draw, shape (r, 4, 4).  The caller picks one; neither falls back to the
other.  The kernel factors the phase out: the drive changes the excitation
number by exactly one, so with the diagonal P(phi) = exp(-i phi NUMBER_OP),
H(a e^{i phi}) = P(phi) H(a) P(phi)^dagger, an identity, not an
approximation.  Each distinct amplitude is exponentiated once per noise
draw; each sample's factor is that exponential conjugated by its phase.

One ordered product serves the kernel, the trace engine's fold and
``two_level_evolve``: a pairwise reduction (``_soa_product``) over k x k
matrices held as (k, k, n, ...) structure-of-arrays, k = 2 per spin or 4,
gathered at most _ENTRIES complex entries at a time.  The phase frame
telescopes: with P(phi) = exp(-i phi kvec), kvec = (0, 1) per spin or
(0, 1, 1, 2), and phi_0 = 0,

    prod_k P(phi_k) E_k P(phi_k)^dagger = P(phi_n) G_n ... G_1,
    G_k = E_k P(phi_{k-1} - phi_k),

one column scaling per factor and one row scaling at the end.  Operands
keep this layout inside an engine, memo entries included.

The kernel reads the block structure from the energies it is given, by one
rule: when every row has E(11) = E(01) + E(10) exactly, which is J = 0 for
that row, the generator is H1 x I + I x H2 and U = U1 x U2.  Each spin's
exponentials are then 2x2 in closed form (``su2_exp``), otherwise 4x4
through ``eigh``; that is the only fork, and the spins' products are
returned as their Kronecker product, so no caller knows which ran.  An
exchange-off bench with no exchange noise (j_off = 0, sigma_j = 0) takes
the spin exponentials on every call; a call with any row where exchange
shows in the energies takes the 4x4 ones: on an exchange-on bench, with
j_off > 0, or with a nonzero delta_j in any row (sigma_j > 0).  On the
trace engine this concerns the kernel clusters; lone constant bursts are
4x4 matrix powers on every bench.

``dense_propagators``
    Reference path: the exact ordered product over the DAC samples
    synthesized from the trace.

``trace_propagators``
    Structured path: the idealized synthesis (no phase-table or DAC
    requantization) of the trace itself; no samples are synthesized.  A lone
    constant burst telescopes to one matrix power, which is what makes
    randomized benchmarking tractable.  That power is computed once per
    distinct (amplitude, n, ftw) under each physics per memo, so a sequence
    that replays a few calibrated bursts exponentiates only those few.  Any
    other cluster (a shaped burst, or bursts on both banks at once) goes
    through the kernel.  A lone burst hands the kernel its amplitude-grid
    values and phase-word angles as they are, so its levels are exactly the
    envelope's distinct amplitude codes at any tuning word; a cluster of
    overlapping bursts takes |z| and arg z of its summed samples, as the
    dense engine does.  Every cluster, power or kernel product, is then
    one factor of the same telescoped fold.

``PropagatorMemo``
    The trace engine's store of reusable products, each keyed on the physics
    it was made under: a kernel exponential set on (block structure, its
    draw group's energy rows, drive operator, sample period, level bytes), a
    constant-burst matrix power on (energies, drive operator, sample period,
    amplitude, n, ftw).  A product made under other physics is never served,
    because its key differs.  A noiseless sweep that rewrites only tuning
    words (spectroscopy) therefore exponentiates its envelope once.  A noisy
    point brings the same rows as the one before (the nodes of each rule of
    ``Bench.sample``'s quadrature), so its entries carry over too, draw
    group by draw group.  The memo holds at most ``PropagatorMemo.bound``
    (8 _CHUNK) 4x4 matrices' worth of bytes, a spin-path level set counting
    half a matrix per level and row: a product that does not fit beside
    those held empties it first, so products of physics no longer in use
    cannot crowd out the current ones, and one larger than the bound is not
    kept.  Without a memo argument a call gets a fresh one, so repeats
    within the call are still shared.
    ``Bench`` owns one; the dense engine uses none.

The result is the only representation of an evolved program: the final
state from basis state k is column k of a unitary, checked and rescaled by
the norm policy of ``state.renormalized``.  Of the closed-form two-level
functions at the end, ``su2_exp`` is the spin path's exponential; the
others are independent references for tests.
"""

from __future__ import annotations

import functools

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
    matrices: a 4x4 stack counts its matrices, and a level set of the spin
    path, two 2x2 per level and row, half a matrix per level and row.
    """

    bound = 8 * _CHUNK  # 4x4 complex matrices' bytes held at most

    def __init__(self):
        self.counts = dict.fromkeys(("level_hits", "level_misses", "power_hits", "power_misses"), 0)
        self.held, self._tables = 0, {"level": {}, "power": {}}

    def get(self, kind: str, key, compute) -> np.ndarray:
        """The ``kind`` ("level" or "power") product stored under ``key``,
        made by ``compute()`` on a miss and kept if it fits the bound; one
        that does not fit beside what is held empties the memo first."""
        value = self._tables[kind].get(key)
        if value is not None:
            self.counts[kind + "_hits"] += 1
            return value
        self.counts[kind + "_misses"] += 1
        value = compute()
        size = -(-value.nbytes // _EYE.nbytes)  # in 4x4 matrices, rounded up
        if size <= self.bound:
            if self.held + size > self.bound:
                self._tables, self.held = {"level": {}, "power": {}}, 0
            value.flags.writeable = False  # shared by every later hit
            self._tables[kind][key] = value
            self.held += size
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


def _frame_product(expm: np.ndarray, which: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """G[n-1] ... G[0], G_k = E[which_k] P(phi_{k-1} - phi_k) with
    phi_{-1} = 0, of structure-of-arrays exponentials (k, k, levels, c): the
    kernel's product before its last P(phi_{n-1}), shape (k, k, c).  A chunk
    gathers at most _ENTRIES complex entries (at least one sample)."""
    k, columns = expm.shape[0], expm.shape[-1]
    kvec = _KVEC[1:k, None, None]  # column 0 is never scaled
    step = max(1, _ENTRIES // (k * k * columns))
    turns = np.exp(1j * (phi - np.concatenate(([0.0], phi[:-1]))))  # e^{i (phi_k - phi_{k-1})}
    total = _EYE[:k, :k, None].repeat(columns, axis=2)
    for start in range(0, len(which), step):
        factors = np.take(expm, which[start : start + step], axis=2)  # (k, k, n, c)
        scale = turns[start : start + step, None] ** kvec  # (k - 1, n, 1)
        for row in factors:
            row[1:] *= scale
        product = _soa_product(factors)
        total = _soa_matmul(product, total) if start else product
    return total


def _sampled_product(amp: np.ndarray, phi: np.ndarray, energies: np.ndarray, drive: np.ndarray,
                     dt: float, memo: PropagatorMemo | None = None, operator=None) -> np.ndarray:
    """Ordered product of the per-sample propagators of the envelope
    ``amp * exp(1j * phi)``, one per row of ``energies``, as
    structure-of-arrays unitaries of shape (4, 4, r).

    Sample k contributes P(phi_k) E(amp_k) P(phi_k)^dagger, with E
    exponentiated once per distinct amplitude and draw; the product is
    P(phi_{n-1}) times ``_frame_product``.  When every row has
    E(11) = E(01) + E(10) (no exchange), each spin's exponentials are 2x2
    (``_spin_exponentials``) and the spins' products are joined as a
    Kronecker product, whose frame is the 4x4 one; otherwise they are 4x4
    (``_matrix_exponentials``).  At most _CHUNK exponentials are held at
    once: the draws are taken in groups that fit beside the distinct
    amplitudes, and an envelope with more than _CHUNK of them is split in
    halves.  Each group's exponentials come from ``memo``, keyed on the
    block structure, the group's rows, ``operator`` (the drive and dt key
    part) and the level bytes.
    """
    levels, which = np.unique(amp, return_inverse=True)
    if len(levels) > _CHUNK:
        (amp0, amp1), (phi0, phi1) = np.array_split(amp, 2), np.array_split(phi, 2)
        return _soa_matmul(_sampled_product(amp1, phi1, energies, drive, dt, memo, operator),
                           _sampled_product(amp0, phi0, energies, drive, dt, memo, operator))
    spins = np.array_equal(energies[:, 3], energies[:, 1] + energies[:, 2])
    exponentials = _spin_exponentials if spins else _matrix_exponentials
    draws = _CHUNK // max(len(levels), 1)
    out = []
    for i in range(0, len(energies), draws):
        group = energies[i : i + draws]
        compute = functools.partial(exponentials, levels, group, drive, dt)
        expm = (compute() if memo is None else
                memo.get("level", (spins, group.tobytes(), *operator, levels.tobytes()), compute))
        u = _frame_product(expm, which, phi)
        if spins:  # U1 x U2 as [i1, i2, j1, j2, row]
            rows = len(group)
            u = (u[:, None, :, None, :rows] * u[None, :, None, :, rows:]).reshape(4, 4, rows)
        out.append(u)
    total = np.concatenate(out, axis=-1) if len(out) > 1 else out[0]
    if len(phi):
        total[1:] *= np.exp(-1j * phi[-1] * _KVEC[1:, None, None])  # P(phi_{n-1})
    return total


def _energies(model: DeviceModel, lo_freq: float, exchange_on: bool, noise: NoiseSample) -> np.ndarray:
    """Diagonal energies per noise draw, shape (r, 4); r = 1 for scalar noise."""
    return np.atleast_2d(diagonal_energies(*detunings(model, lo_freq, exchange_on, noise)))


def dense_propagators(
    waveform: Waveform,
    model: DeviceModel,
    lo_freq: float,
    *,
    exchange_on: bool = False,
    noise: NoiseSample = ZERO_NOISE,
) -> np.ndarray:
    """Total unitaries over every DAC sample of ``waveform``, one per noise
    draw, shape (r, 4, 4).

    Idle samples (zero envelope) evolve under the drive-free generator.
    """
    energies = _energies(model, lo_freq, exchange_on, noise)
    dt = 1.0 / waveform.sample_rate
    z = waveform.envelope
    u = _sampled_product(np.abs(z), np.angle(z), energies, drive_operator(model), dt)
    return u.transpose(2, 0, 1).copy()  # (4, 4, r) structure-of-arrays to (r, 4, 4)


def trace_propagators(
    trace: ExecutionTrace,
    model: DeviceModel,
    lo_freq: float,
    *,
    exchange_on: bool = False,
    noise: NoiseSample = ZERO_NOISE,
    memo: PropagatorMemo | None = None,
) -> np.ndarray:
    """Total unitaries of a burst trace, one per noise draw, shape (r, 4, 4).

    Bursts that overlap in time form one cluster, whose idealized samples
    are summed as the DAC sums the banks.  A lone constant burst's matrix
    power depends on the physics only through the energies (one row per
    noise draw), the drive operator and the sample period, and on the burst
    only through (amplitude, n, ftw): it is kept in ``memo`` under all six
    and looked up once per call, and every later play of it in the call
    adds one ``power_hits``, so hits plus misses count the lone constant
    bursts played.  Whether a burst is constant is read from
    ``BurstSegment.constant``, recorded at play time.

    Every cluster is one factor P(end) F P(start)^dagger G, where G is the
    idle gap before it.  For a lone constant burst F is its power and the
    diagonals P come from its end words (reference phase, start time and
    phase code, ``end_words``); for any other cluster F is the kernel
    product, already in the lab frame, and its end words are 0.  The frames
    telescope as in the kernel: a factor is F scaled on its columns by
    P(start)^dagger G P(end before), and P(last end) and the idle tail scale
    the total's rows once.  The factors are gathered _ENTRIES complex
    entries at a time (at least one cluster) and reduced by
    ``_soa_product``, so the result differs from a cluster-by-cluster
    product in the last bits only.

    The kernel keeps its exponentials in ``memo`` per draw group, under that
    group's energy rows, the drive operator, the sample period and the level
    bytes.  Any later call made under the same physics reuses both; an entry
    made under other physics is never served, because its key differs.
    Without ``memo`` the call makes a fresh one, so repeats within the call
    are still shared.
    """
    energies = _energies(model, lo_freq, exchange_on, noise)  # (r, 4)
    drive = drive_operator(model)
    dt = 1.0 / trace.sample_rate
    memo = PropagatorMemo() if memo is None else memo
    operator = (drive.tobytes(), dt)  # the physics every key holds beside its energy rows
    physics = (energies.tobytes(), *operator)  # the power keys' common part
    bits = trace.phase_mod_bits

    # Zero-amplitude bursts (idle pads) are inert: treat them as gaps.
    clusters = []  # [t0, t_end, segments]
    active = (s for s in trace.segments
              if (s.amp_values[0] if s.constant else s.amp_values.any()))
    for seg in sorted(active, key=lambda s: s.t0):
        if clusters and seg.t0 < clusters[-1][1]:
            clusters[-1][1] = max(clusters[-1][1], seg.t_end)
            clusters[-1][2].append(seg)
        else:
            clusters.append([seg.t0, seg.t_end, [seg]])

    # Sample k of a lone constant burst is sample 0 conjugated by k phase
    # steps of the tuning word, so the burst telescopes to one matrix power.
    def power(amplitude: float, n: int, ftw: int):  # at zero phase, (4, 4, r)
        u_bar = _expm_batch(generator_batch(np.array([amplitude]), energies, drive)[0], dt)
        undo_step = np.exp(2j * np.pi * ftw / PHASE_WORDS * _KVEC)
        return np.ascontiguousarray(np.moveaxis(
            np.linalg.matrix_power(u_bar * undo_step, n - 1) @ u_bar, 0, -1))

    def kernel_product(t0: int, t_end: int, group) -> np.ndarray:
        if len(group) == 1:
            # Exact levels: the amplitude codes and phase words as played.
            amp, phi = group[0].amp_values, group[0].phase_words(bits) * _WORD
        else:
            z = np.zeros(t_end - t0, dtype=complex)  # idealized samples, banks summed
            for seg in group:
                phase = seg.phase_words(bits) * (2j * np.pi / PHASE_WORDS)
                z[seg.t0 - t0 : seg.t_end - t0] += seg.amp_values * np.exp(phase)
            amp, phi = np.abs(z), np.angle(z)
        return _sampled_product(amp, phi, energies, drive, dt, memo, operator)

    heads = [group[0] for _, _, group in clusters]
    lone = [len(group) == 1 and group[0].constant for _, _, group in clusters]
    shaped = [i for i, is_lone in enumerate(lone) if not is_lone][::-1]  # kernel, last first
    rows = {}  # (amplitude, n, ftw) -> its index in `powers`
    which = np.array([rows.setdefault((float(s.amp_values[0]), s.n, s.ftw), len(rows))
                      if is_lone else -1 for s, is_lone in zip(heads, lone)])
    total = _EYE[:, :, None].repeat(len(energies), axis=2)
    # A kernel cluster's gathered factor is replaced, so any power serves it.
    powers = np.stack([memo.get("power", physics + key, functools.partial(power, *key))
                       for key in rows] or [total], axis=2)  # (4, 4, distinct, r)
    memo.counts["power_hits"] += len(heads) - len(shaped) - len(rows)  # repeats in the call
    # The frames telescope: P(start)^dagger G P(end before) scales a factor's
    # columns by exp(i (start - end before) WORD kvec + idle step E), and
    # P(last end) scales the total's rows.  A kernel factor's words are 0.
    starts, ends = end_words(heads, bits)
    starts[shaped] = ends[shaped] = 0
    shift = starts - np.concatenate([[0], ends[:-1]])
    ends_at = [trace.start] + [t_end for _, t_end, _ in clusters]
    step = -2j * np.pi * dt  # G = exp(gap * step * energies)
    idle = np.array([(t0 - t) * step for (t0, _, _), t in zip(clusters, ends_at)])
    chunk = max(1, _ENTRIES // 16 // len(energies))  # clusters folded at once

    for i in range(0, len(clusters), chunk):
        part = slice(i, i + chunk)
        factors = np.take(powers, which[part], axis=2)  # (4, 4, c, r)
        while shaped and shaped[-1] < i + chunk:
            j = shaped.pop()
            factors[:, :, j - i] = kernel_product(*clusters[j])
        factors *= np.exp(1j * _WORD * np.multiply.outer(_KVEC, shift[part])[..., None]
                          + idle[part, None] * energies.T[:, None])  # (4, c, r)
        product = _soa_product(factors)
        total = _soa_matmul(product, total) if i else product
    last = ends[-1] if len(ends) else 0
    tail = trace.end - ends_at[-1]
    total *= np.exp(-1j * _WORD * last * _KVEC[:, None] + tail * step * energies.T)[:, None]
    return total.transpose(2, 0, 1).copy()


# --- closed-form two-level references ---------------------------------------


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


def two_level_evolve(envelope: np.ndarray, detuning: float, coupling: float, dt: float) -> np.ndarray:
    """Exact 2x2 propagator of one driven spin over a sampled envelope.

    Independent reference for the factorized (J = 0) limit: same sampled
    physics, different code path from the 4x4 engine.
    """
    z = np.asarray(envelope, dtype=complex)
    c0 = np.full(len(z), detuning / 2.0)
    ax = 0.5 * coupling * np.real(z)
    ay = -0.5 * coupling * np.imag(z)
    az = np.full(len(z), -detuning / 2.0)
    return _soa_product(su2_exp(c0, ax, ay, az, dt))


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


def rabi_probability(t, f_rabi: float, detuning: float = 0.0):
    """Generalized Rabi formula: P(flip) for a resonant or detuned drive."""
    t = np.asarray(t, dtype=float)
    f_gen = np.hypot(f_rabi, detuning)
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(f_gen > 0, (f_rabi / np.where(f_gen > 0, f_gen, 1.0)) ** 2, 0.0)
    return weight * np.sin(np.pi * f_gen * t) ** 2
