"""Single-qubit randomized benchmarking.

Random Clifford strings plus a recovery Clifford compile to one
instruction list per sequence (split across triggers when the list
overflows); survival is the fraction of shots returning to |0>.  The
survival-vs-length curve is fitted to A p^m + B and converted to an
average gate fidelity through the primitives-per-Clifford ratio.

An analytic depolarizing mode replaces the physics with exact state
mixing of strength eps per Clifford, for validating the whole sampling
and fitting chain against a known answer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from ..compiler.ir import GateOp
from ..physics import shot_rng
from .base import Bench
from .cliffords import AVG_PRIMITIVES, N_CLIFFORDS, recovery_index, sequence_primitives
from .correction import corrected_p_up


@dataclass
class RbResult:
    lengths: list
    survival: list  # mean over sequences and repetitions, per length
    per_sequence: list  # list of arrays, one survival per sampled sequence
    amplitude: float
    offset: float
    p: float
    p_stderr: float  # inf when p_at_bound: no covariance on the bound
    p_at_bound: bool = False  # the fit pinned p at 0 or 1 (e.g. noiseless physics)
    avg_primitives: float = AVG_PRIMITIVES
    n_sequences: int = 32
    repetitions: int = 200
    seed: int = 0
    split_lengths: list = field(default_factory=list)

    @property
    def fidelity_clifford(self) -> float:
        return 1.0 - (1.0 - self.p) / 2.0

    @property
    def fidelity_gate(self) -> float:
        return 1.0 - (1.0 - self.p) / 2.0 / self.avg_primitives

    @property
    def fidelity_gate_stderr(self) -> float:
        return self.p_stderr / 2.0 / self.avg_primitives


# The bounded fit stops this close to a bound of p in [0, 1] it pins on.
P_BOUND_ATOL = 1e-9


def _fit_decay(lengths, survivals):
    """Fit A p^m + B; returns (a, b, p), their stderrs, and whether p is
    pinned at a bound of [0, 1]."""
    def decay(m, a, b, p):
        return a * p**m + b

    with warnings.catch_warnings():
        # scipy warns that the covariance is undefined when p sits on a
        # bound; that case is reported as p_at_bound instead.
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, pcov = curve_fit(
            decay,
            np.asarray(lengths, dtype=float),
            np.asarray(survivals, dtype=float),
            p0=(0.5, 0.5, 0.995),
            bounds=([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
            maxfev=20_000,
        )
    perr = np.sqrt(np.diag(pcov))
    p = popt[2]
    return popt, perr, bool(min(p, 1.0 - p) < P_BOUND_ATOL)


def run_rb(
    bench: Bench,
    lengths,
    *,
    qubit: int = 2,
    n_sequences: int = 32,
    repetitions: int = 200,
    seed: int = 0,
    depolarizing_eps: float | None = None,
) -> RbResult:
    """Benchmark one qubit.  Physics mode samples each sequence on the
    structured engine (one quasi-static noise draw per repetition when the
    model is noisy); depolarizing mode applies the analytic channel instead."""
    lengths = list(lengths)
    per_sequence = []
    split_lengths = []
    fid = bench.model.readout_q1 if qubit == 1 else bench.model.readout_q2
    for li, m in enumerate(lengths):
        seq_surv = np.empty(n_sequences)
        for si in range(n_sequences):
            rng = shot_rng(seed, li, si)
            indices = rng.integers(0, N_CLIFFORDS, size=m).tolist()
            if depolarizing_eps is not None:
                # Exact mixing: survival = 1/2 + 1/2 (1-eps)^(m+1) incl. recovery.
                p_surv = 0.5 + 0.5 * (1.0 - depolarizing_eps) ** (m + 1)
                hits = rng.binomial(repetitions, p_surv)
                seq_surv[si] = hits / repetitions
                continue
            indices.append(recovery_index(indices))
            ops = [GateOp(g, qubit) for g in sequence_primitives(indices)]
            prog = bench.compile(ops)
            if prog.report["split"] and m not in split_lengths:
                split_lengths.append(m)
            (hits,) = bench.sample(prog, (qubit,), repetitions, rng, engine="trace")
            seq_surv[si] = (repetitions - hits) / repetitions  # shots reading 0
        per_sequence.append(seq_surv)
    survival = [float(np.mean(s)) for s in per_sequence]
    if fid.f0 + fid.f1 > 1.0 and (fid.f0 < 1.0 or fid.f1 < 1.0):
        survival = [1.0 - corrected_p_up(1.0 - s, fid)[0] for s in survival]
    (a, b, p), (ea, eb, ep), p_at_bound = _fit_decay(lengths, survival)
    return RbResult(
        lengths=lengths,
        survival=survival,
        per_sequence=per_sequence,
        amplitude=float(a),
        offset=float(b),
        p=float(p),
        p_stderr=float(ep),
        p_at_bound=p_at_bound,
        n_sequences=n_sequences,
        repetitions=repetitions,
        seed=seed,
        split_lengths=split_lengths,
    )
