"""Single-qubit randomized benchmarking.

Random Clifford strings plus a recovery Clifford compile to one
instruction list per sequence (split across triggers when the list
overflows), played and evolved on the trace engine like any program;
survival is the fraction of shots returning to |0>.  The curve is fitted
to A p^m + B and converted to an average gate fidelity through the
primitives-per-Clifford ratio.  ``tests/helpers.py`` holds the exact
expectation of survival and p for given Clifford unitaries (Magesan,
Gambetta and Emerson, PRL 106, 180504, 2011).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler.ir import GateOp
from ..physics import corrected_p_up, shot_rng
from .base import Bench, check_arguments, whole
from .cliffords import AVG_PRIMITIVES, N_CLIFFORDS, recovery_index, sequence_primitives


@dataclass
class RbResult:
    lengths: list
    survival: list  # mean over sequences and repetitions, per length
    per_sequence: list  # list of arrays, one survival per sampled sequence
    amplitude: float
    offset: float
    p: float
    # Pseudo-inverse stderr (see _fit_decay): inf with 3 or fewer lengths.
    # With more, a fit pinned at p = 1 still gets a finite value; there only
    # a + b is determined, the split is a = b, and p_stderr scales as 1 / a.
    p_stderr: float
    p_at_bound: bool = False  # the fit pinned p at 0 or 1 (e.g. noiseless physics)
    avg_primitives: float = AVG_PRIMITIVES
    n_sequences: int = 32
    repetitions: int = 200
    seed: int = 0
    split_lengths: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def fidelity_clifford(self) -> float:
        return 1.0 - (1.0 - self.p) / 2.0

    @property
    def fidelity_gate(self) -> float:
        return 1.0 - (1.0 - self.p) / 2.0 / self.avg_primitives

    @property
    def fidelity_gate_stderr(self) -> float:
        return self.p_stderr / 2.0 / self.avg_primitives


# p closer than this to 0 or 1 counts as pinned on that bound.
P_BOUND_ATOL = 1e-9
# Where the descent in p starts.  The fit returns the local solution that a
# joint bounded least-squares fit from (a, b, p) = (0.5, 0.5, 0.995) reaches,
# not the global one, which can be a decay that is over by the second length.
P_START = 0.995
# Points per walk or refinement step of the descent in p.
_WALK_POINTS = 257
_EPS = np.finfo(float).eps


def _amplitudes(m, y, p):
    """Best (a, b) in [0, 1]^2 of a p^m + b for each p in ``p``, with the
    residuals: (k,), (k,), (k, n).

    The box-bounded linear fit is solved exactly: its minimum is the free
    minimum when that lies in the box, else the best 1-D minimum along an
    edge.  Where a and b are not separable (p = 1, so p^m is constant) the
    free fit takes the minimum-norm split, a = b at p = 1.
    """
    e = p[:, None] ** m
    e_mean, y_mean = e.mean(axis=1), y.mean()
    ec, yc = e - e_mean[:, None], y - y_mean
    sxx = (ec * ec).sum(axis=1)
    see = (e * e).sum(axis=1)
    split = sxx == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        a_free = np.where(split, y_mean * e_mean / (e_mean**2 + 1.0), (ec @ yc) / sxx)
        a_b0 = np.where(see > 0.0, (e @ y) / see, 0.0)
        a_b1 = np.where(see > 0.0, (e @ (y - 1.0)) / see, 0.0)
    b_free = np.where(split, y_mean / (e_mean**2 + 1.0), y_mean - a_free * e_mean)
    zero, one = np.zeros_like(p), np.ones_like(p)
    # Candidates: free minimum, then the edges a = 0, a = 1, b = 0, b = 1.
    a = np.stack([a_free, zero, one, np.clip(a_b0, 0.0, 1.0), np.clip(a_b1, 0.0, 1.0)])
    b = np.stack([b_free, np.clip(y_mean + zero, 0.0, 1.0), np.clip(y_mean - e_mean, 0.0, 1.0),
                  zero, one])
    r = a[..., None] * e + b[..., None] - y
    ssr = (r * r).sum(axis=-1)
    inside = (a_free >= 0.0) & (a_free <= 1.0) & (b_free >= 0.0) & (b_free <= 1.0)
    ssr[0] = np.where(inside, ssr[0], np.inf)
    best, k = np.argmin(ssr, axis=0), np.arange(len(p))
    return a[best, k], b[best, k], r[best, k]


def _d_dp(m, p):
    """d(p^m)/dp, exact at m = 0."""
    return m * p ** np.maximum(m - 1.0, 0.0)


def _slope(m, y, p):
    """dg/dp of g(p) = min over (a, b) of the squared residual, for each p.

    The (a, b) bounds do not depend on p, so the derivative is that of the
    squared residual at the best (a, b) (Danskin's theorem)."""
    a, _, r = _amplitudes(m, y, p)
    return 2.0 * a * (r * _d_dp(m, p[:, None])).sum(axis=1)


def _descend(m, y):
    """The local minimum of g(p) reached by walking downhill from P_START.

    The walk goes toward p = 1 unless g rises that way; it also goes there
    when g is flat at the start (a = 0: no decay to fit), which is where the
    joint fit from a = b = 0.5 ends too.  Each step scans _WALK_POINTS
    points up to the first one where g rises again, then rescans the last
    interval, until it is a few ulp wide.  No global search: g often has a
    lower minimum at small p that fits only the first length.
    """
    end = 1.0 if _slope(m, y, np.array([P_START]))[0] <= 0.0 else 0.0
    lo, hi = P_START, end
    while abs(hi - lo) > 4.0 * _EPS:
        grid = np.linspace(lo, hi, _WALK_POINTS)
        rising = np.flatnonzero(_slope(m, y, grid) * np.sign(hi - lo) > 0.0)
        if len(rising) == 0:
            return hi
        lo, hi = grid[max(rising[0] - 1, 0)], grid[rising[0]]
    return lo


def _fit_decay(lengths, survivals):
    """Fit A p^m + B with A, B, p in [0, 1]; returns (a, b, p), their
    stderrs, and whether p is pinned at a bound of [0, 1].

    Variable projection: for fixed p the best (a, b) is an exact bounded
    linear fit, so only p is searched (``_descend``).  The covariance is the
    usual least-squares one: the Moore-Penrose pseudo-inverse of the
    Jacobian at the solution, dropping singular values at or below
    eps * max(shape) * s_0, scaled by SSR / (n - 3); all inf with 3 or fewer
    lengths or when it holds a NaN.
    """
    m = np.asarray(lengths, dtype=float)
    y = np.asarray(survivals, dtype=float)
    p = _descend(m, y)
    (a,), (b,), (r,) = _amplitudes(m, y, np.array([p]))
    jac = np.stack([p**m, np.ones_like(m), a * _d_dp(m, p)], axis=1)
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = s > _EPS * max(jac.shape) * s[0]
    cov = (vt[keep].T / s[keep] ** 2) @ vt[keep]
    if len(m) > 3 and not np.isnan(cov).any():
        cov = cov * (r @ r / (len(m) - 3))
    else:
        cov = np.full((3, 3), np.inf)
    return np.array([a, b, p]), np.sqrt(np.diag(cov)), bool(min(p, 1.0 - p) < P_BOUND_ATOL)


def run_rb(
    bench: Bench,
    lengths,
    *,
    qubit: int = 2,
    n_sequences: int = 32,
    repetitions: int = 200,
    seed: int = 0,
) -> RbResult:
    """Benchmark one qubit: every sequence is compiled, played and sampled
    on the trace engine (averaged over quasi-static noise when the model is
    noisy, see ``Bench.sample``), the sequences of one length as one batch.  An empty ``lengths``, a negative or
    non-integer length, a non-integer or < 1 ``n_sequences`` or
    ``repetitions``, or a qubit other than 1 or 2 is rejected before
    anything is compiled."""
    lengths = list(lengths)
    problems = ["lengths is empty: give at least one sequence length"] if not lengths else []
    bad = [m for m in lengths if not whole(m, 0)]
    if bad:
        problems.append(f"lengths {bad}: each must be a whole number of Cliffords, 0 or more")
    check_arguments([("n_sequences", n_sequences, "sample at least 1 sequence per length"),
                     ("repetitions", repetitions, "take at least 1 shot per sequence")],
                    qubit=qubit, act="benchmark", problems=problems)
    bench.new_tally()
    per_sequence = []
    split_lengths = []

    def programs(m, rngs):  # one compiled sequence at a time, as Bench.sample plays them
        for rng in rngs:
            indices = rng.integers(0, N_CLIFFORDS, size=m).tolist()
            indices.append(recovery_index(indices))
            prog = bench.compile([GateOp(g, qubit) for g in sequence_primitives(indices)])
            if prog.report["split"] and m not in split_lengths:
                split_lengths.append(m)
            yield prog

    for li, m in enumerate(lengths):
        # One generator per sequence draws its Cliffords, then its shots.
        rngs = [shot_rng(seed, li, si) for si in range(n_sequences)]
        (hits,) = bench.sample(programs(m, rngs), (qubit,), repetitions, rngs, engine="trace").T
        per_sequence.append((repetitions - hits) / repetitions)  # shots reading 0
    survival = [1.0 - corrected_p_up(1.0 - np.mean(s), bench.model, qubit) for s in per_sequence]
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
        meta=bench.tallies(),
    )
