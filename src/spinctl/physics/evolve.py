"""Time evolution under a played burst trace.

Both engines start from the transmitter's ``ExecutionTrace``, share one
per-sample kernel, and return one total unitary per quasi-static noise
draw, shape (r, 4, 4).  The caller picks one; neither falls back to the
other.  The kernel factors the phase out: the drive changes the excitation
number by exactly one, so with the diagonal P(phi) = exp(-i phi NUMBER_OP),
H(a e^{i phi}) = P(phi) H(a) P(phi)^dagger, an identity, not an
approximation.  Each distinct amplitude is exponentiated once per noise
draw; each sample's factor is that exponential conjugated by its phase.

The kernel reads the block structure from the energies it is given, by one
rule: when every row has E(11) = E(01) + E(10) exactly, which is J = 0 for
that row, the generator is H1 x I + I x H2 and U = U1 x U2.  It then
evolves each spin as a 2x2: closed-form exponentials (``su2_exp``, no
eigendecomposition), the phase frame as e^{+-i phi} on the off-diagonal
entries, and a pairwise product written out over structure-of-arrays
operands.  It returns the same (r, 4, 4) Kronecker products, so no caller
knows which path ran.  An exchange-off bench with no exchange noise
(j_off = 0, sigma_j = 0) takes the spin path on every call.  A call with
any row where exchange shows in the energies takes the 4x4 path: on an
exchange-on bench, with j_off > 0, or with a nonzero delta_j in any row
(sigma_j > 0).  On the trace engine this concerns the kernel clusters;
lone constant bursts are 4x4 matrix powers on every bench.

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
    dense engine does.  Every cluster then folds the same way: it becomes
    one factor, its power or its kernel product taken into its phase frame
    after the idle gap before it, and the factors are reduced pairwise, at
    most _CHUNK // 16 matrices at a time.

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

_CHUNK = 2048
_KVEC = np.diag(NUMBER_OP).real  # (0, 1, 1, 2)
_MINUS_I_KVEC = -1j * _KVEC  # -i NUMBER_OP per unit phase
_EYE = np.eye(4, dtype=complex)
# +i and -i phi NUMBER_OP for phi of one phase word, shape (2, 1, 1, 4)
_WORD_PHASE = 2j * np.pi / PHASE_WORDS * np.array([_KVEC, -_KVEC])[:, None, None]


def _expm_batch(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-2j pi dt H) for a stack of Hermitian matrices."""
    w, v = np.linalg.eigh(h)
    phases = np.exp(-2j * np.pi * dt * w)
    return (v * phases[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def _ordered_product(us: np.ndarray) -> np.ndarray:
    """U[n-1] @ ... @ U[0] by pairwise reduction (index 0 acts first)."""
    while us.shape[0] > 1:
        m = us.shape[0] // 2
        head = np.matmul(us[1 : 2 * m : 2], us[0 : 2 * m : 2])
        us = np.concatenate([head, us[2 * m :]], axis=0) if us.shape[0] % 2 else head
    return us[0]


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
    """E(level) under each row of ``group``, shape (levels, rows, 4, 4)."""
    return _expm_batch(generator_batch(levels, group, drive), dt)


def _matrix_product(expm: np.ndarray, which: np.ndarray, phi: np.ndarray,
                    rows: int) -> np.ndarray:
    """Ordered product of P(phi_k) E[which_k] P(phi_k)^dagger, shape (rows, 4, 4)."""
    step = _CHUNK // rows
    total = _EYE[None].repeat(rows, axis=0)
    for start in range(0, len(which), step):
        p = np.exp(phi[start : start + step, None, None] * _MINUS_I_KVEC)  # (n, 1, 4)
        # The gathered copy is scaled in place, in the operand order of
        # P E P^dagger, so no (n, rows, 4, 4) temporaries are made.
        factors = expm[which[start : start + step]]
        np.multiply(p[..., :, None], factors, out=factors)
        factors *= np.conj(p)[..., None, :]
        product = _ordered_product(factors)
        total = product @ total if start else product
    return total


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
    u = su2_exp(detuning / 2, off.real, off.imag, -detuning / 2, dt)  # (levels, 2 rows, 2, 2)
    return np.ascontiguousarray(np.moveaxis(u, (-2, -1), (0, 1)))


def _spin_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2x2 matrices held as (2, 2, ...) structure-of-arrays."""
    return a[:, :1] * b[None, 0] + a[:, 1:] * b[None, 1]


def _spin_product(expm: np.ndarray, which: np.ndarray, phi: np.ndarray,
                  rows: int) -> np.ndarray:
    """Ordered product of each spin's P(phi_k) E[which_k] P(phi_k)^dagger,
    returned as the two spins' Kronecker product, shape (rows, 4, 4).

    Per spin P(phi) = diag(1, e^{-i phi}), so the frame scales E's upper
    right entry by e^{i phi} and its lower left by e^{-i phi}.  The factors
    are reduced pairwise as in ``_ordered_product``, one whole-array
    ``_spin_matmul`` per level of the reduction.

    A chunk gathers half as many sample-draw pairs as the 4x4 path's
    (at least one sample).  On an AllXY pair (760 samples, 8 rows, one BLAS
    thread) full _CHUNK chunks took 1.7 ms a call, 0.84 ms at half: their
    256 kB gathers and first-level temporaries were handed back to the
    system after each chunk and paged in again, 379 minor faults a call.
    """
    step = max(1, _CHUNK // 2 // rows)
    total = _EYE[:2, :2, None].repeat(2 * rows, axis=2)
    for start in range(0, len(which), step):
        factors = np.take(expm, which[start : start + step], axis=2)  # (2, 2, n, 2 rows)
        phase = np.exp(1j * phi[start : start + step])[:, None]
        factors[0, 1] *= phase
        factors[1, 0] *= phase.conj()
        while factors.shape[2] > 1:
            m = factors.shape[2] // 2
            head = _spin_matmul(factors[:, :, 1 : 2 * m : 2], factors[:, :, 0 : 2 * m : 2])
            factors = (np.concatenate([head, factors[:, :, 2 * m :]], axis=2)
                       if factors.shape[2] % 2 else head)
        total = _spin_matmul(factors[:, :, 0], total) if start else factors[:, :, 0]
    u1, u2 = total[..., :rows], total[..., rows:]
    kron = u1[:, None, :, None] * u2[None, :, None, :]  # [i1, i2, j1, j2, row]
    return np.moveaxis(kron, -1, 0).reshape(rows, 4, 4)


def _sampled_product(amp: np.ndarray, phi: np.ndarray, energies: np.ndarray, drive: np.ndarray,
                     dt: float, memo: PropagatorMemo | None = None, operator=None) -> np.ndarray:
    """Ordered product of the per-sample propagators of the envelope
    ``amp * exp(1j * phi)``, one per row of ``energies``, shape (r, 4, 4).

    Sample k contributes P(phi_k) E(amp_k) P(phi_k)^dagger, with E
    exponentiated once per distinct amplitude and draw.  When every row has
    E(11) = E(01) + E(10) (no exchange), the generator is H1 x I + I x H2
    and each spin is evolved as a 2x2 (``_spin_exponentials``,
    ``_spin_product``); otherwise the 4x4 path runs.  At most _CHUNK
    exponentials and _CHUNK gathered sample-draw factors are held at once:
    the draws are taken in groups that fit beside the distinct amplitudes,
    and an envelope with more than _CHUNK of them is split in halves.  Each
    group's exponentials come from ``memo``, keyed on the block structure,
    the group's rows, ``operator`` (the drive and dt key part) and the
    level bytes.
    """
    levels, which = np.unique(amp, return_inverse=True)
    if len(levels) > _CHUNK:
        (amp0, amp1), (phi0, phi1) = np.array_split(amp, 2), np.array_split(phi, 2)
        return (_sampled_product(amp1, phi1, energies, drive, dt, memo, operator)
                @ _sampled_product(amp0, phi0, energies, drive, dt, memo, operator))
    spins = np.array_equal(energies[:, 3], energies[:, 1] + energies[:, 2])
    exponentials, product = ((_spin_exponentials, _spin_product) if spins
                             else (_matrix_exponentials, _matrix_product))
    draws = _CHUNK // max(len(levels), 1)
    out = []
    for i in range(0, len(energies), draws):
        group = energies[i : i + draws]
        compute = functools.partial(exponentials, levels, group, drive, dt)
        expm = (compute() if memo is None else
                memo.get("level", (spins, group.tobytes(), *operator, levels.tobytes()), compute))
        out.append(product(expm, which, phi, len(group)))
    return np.concatenate(out)


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
    return _sampled_product(np.abs(z), np.angle(z), energies, drive_operator(model), dt)


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
    product, already in the lab frame, and its end words are 0.  The factors
    are gathered a chunk at a time (at most _CHUNK // 16 matrices, and at
    least one cluster), scaled in place, and reduced by ``_ordered_product``;
    the idle tail after the last cluster is applied at the end.  The pairwise
    association makes the result differ from a cluster-by-cluster product in
    the last bits only.

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
    def power(amplitude: float, n: int, ftw: int):  # the burst's unitary at zero phase
        u_bar = _expm_batch(generator_batch(np.array([amplitude]), energies, drive)[0], dt)
        undo_step = np.exp(2j * np.pi * ftw / PHASE_WORDS * _KVEC)
        return np.linalg.matrix_power(u_bar * undo_step, n - 1) @ u_bar

    def kernel_product(t0: int, t_end: int, group) -> np.ndarray:
        if len(group) == 1:
            # Exact levels: the amplitude codes and phase words as played.
            amp, phi = group[0].amp_values, group[0].phase_words(bits) * (2 * np.pi / PHASE_WORDS)
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
    rows = {}  # (amplitude, n, ftw) -> its row of `powers`
    which = np.array([rows.setdefault((float(s.amp_values[0]), s.n, s.ftw), len(rows))
                      if is_lone else -1 for s, is_lone in zip(heads, lone)])
    total = _EYE[None].repeat(len(energies), axis=0)
    # A kernel cluster's gathered row is replaced, so any row serves it.
    powers = np.array([memo.get("power", physics + key, functools.partial(power, *key))
                       for key in rows] or [total])  # (distinct, r, 4, 4)
    memo.counts["power_hits"] += len(heads) - len(shaped) - len(rows)  # repeats in the call
    # +-i phi NUMBER_OP at each cluster's start and end word, (M, 1, 4) each:
    # P(end) = exp(minus_ends) scales a factor's rows, P(start)^dagger =
    # exp(starts) and G = exp(idle * energies) scale its columns.
    words = end_words(heads, bits)
    words[:, shaped] = 0
    starts, minus_ends = words[..., None, None] * _WORD_PHASE
    p_end = np.exp(minus_ends)[..., None]  # (M, 1, 4, 1)
    ends_at = [trace.start] + [t_end for _, t_end, _ in clusters]
    step = -2j * np.pi * dt  # G = exp(gap * step * energies)
    idle = np.array([(t0 - t) * step for (t0, _, _), t in zip(clusters, ends_at)])[:, None, None]
    chunk = max(1, _CHUNK // 16 // len(energies))  # clusters folded at once

    for i in range(0, len(clusters), chunk):
        part = slice(i, i + chunk)
        factors = powers[which[part]]  # (c, r, 4, 4)
        while shaped and shaped[-1] < i + chunk:
            j = shaped.pop()
            factors[j - i] = kernel_product(*clusters[j])
        factors *= p_end[part]
        factors *= np.exp(starts[part] + idle[part] * energies)[..., None, :]
        product = _ordered_product(factors)
        total = product @ total if i else product
    tail = trace.end - ends_at[-1]
    return np.exp(tail * step * energies)[:, :, None] * total if tail else total


# --- closed-form two-level references ---------------------------------------


def su2_exp(c0, ax, ay, az, dt):
    """exp(-2j pi dt (c0 I + a . sigma)) elementwise over arrays."""
    c0, ax, ay, az = np.broadcast_arrays(c0, ax, ay, az)
    mag = np.sqrt(ax**2 + ay**2 + az**2)
    phi = 2.0 * np.pi * dt * mag
    sinc = np.where(mag > 0, np.sin(phi) / np.where(mag > 0, mag, 1.0), 2 * np.pi * dt)
    cosv = np.cos(phi)
    u = np.empty(np.shape(c0) + (2, 2), dtype=complex)
    u[..., 0, 0] = cosv - 1j * sinc * az
    u[..., 1, 1] = cosv + 1j * sinc * az
    u[..., 0, 1] = -1j * sinc * (ax - 1j * ay)
    u[..., 1, 0] = -1j * sinc * (ax + 1j * ay)
    return np.exp(-2j * np.pi * dt * c0)[..., None, None] * u


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
    return _ordered_product(su2_exp(c0, ax, ay, az, dt))


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
