"""Shared plumbing for experiment runners.

Every experiment goes compiler -> transmitter -> physics -> readout and
differs only in the programs it builds and the statistics it extracts.
``Bench.sample`` is that path, for a batch of programs: one play of each
compiled program into a burst trace, one propagator stack per batch and
quadrature step on the chosen engine, vectorized readout, counts per
program.  One program is a batch of one.  A runner passes every program it
has built at once: spectroscopy and Rabi their whole sweeps, RB the
sequences of one length, AllXY its 21 pairs, tomography every (time,
basis) program, Deutsch-Jozsa its oracles.  Either engine evolves a batch
in one call per quadrature step, so the physics is built once for it:
``evolve_trace`` takes the traces, ``dense_propagators`` the DAC samples
synthesized from them.  Every trace-engine call goes through the bench's
one ``PropagatorMemo``, keyed on the physics, so the points of a sweep that
only retunes an NCO share one exponential set, and each quadrature rule
reuses those of earlier batches; the dense engine uses none.

Quasi-static noise is averaged, not sampled.  Readout is affine in the
populations and ``sample`` returns per-qubit counts only, so each count is
Binomial(shots, E_noise[P(read 1)]).  That expectation is a Gaussian
integral over the noise offsets with spread, which a Gauss-Hermite rule
evaluates: one propagator row per node, whatever the shot count.  The rule
is refined along ``NODE_LADDER``, for the programs of a batch whose last
two rules still disagree, until they agree well inside the binomial
standard error of the shots.  Each runner zeroes ``Bench.quadrature`` and
the memo's counts (``Bench.new_tally``) and copies both into its result's
meta, so they describe that run alone; both count as if each program had
been sampled on its own.

Randomness follows the substream contract in ``spinctl.physics.device``:
point p of an experiment seeded with ``seed`` draws its readout from
``shot_rng(seed, p)``, one binomial per qubit read, whatever batch the
point is sampled in.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .. import compiler
from ..compiler import (
    CalibrationSet,
    CompiledProgram,
    FrequencyPlan,
    allocate_frequencies,
    default_calibration,
)
from ..controller.executor import ExecutionTrace, Transmitter, TxConfig, synthesize
from ..errors import ConfigError
from ..physics import (
    DeviceModel,
    NoiseSample,
    ZERO_NOISE,
    PropagatorMemo,
    dense_propagators,
    evolve_trace,
    readout_probabilities,
)
from ..physics.state import renormalized

# Both engines play every trace: "dense" the DAC samples synthesized from it,
# "trace" the bursts' idealized samples (overlapping banks summed).
ENGINES = ("dense", "trace")

# Gauss-Hermite nodes per noise dimension, coarse to fine.  A noisy call
# evaluates the first two rules in one batch, then one more rule at a time.
NODE_LADDER = (3, 5, 9, 17, 33, 65)
# Two successive rules agree when they differ by at most this fraction of
# the largest binomial standard error of the shots, 0.5 / sqrt(shots).
AGREEMENT = 0.1


@functools.cache
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w of the n-point Gauss-Hermite rule for a
    standard normal X: E f(X) ~ sum_k w_k f(x_k), exact for polynomials of
    degree below 2n.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    probabilists' Hermite polynomials (zero diagonal, sqrt(k) beside it),
    the weights the squared first components of its unit eigenvectors.
    """
    off = np.sqrt(np.arange(1.0, n)).astype(complex)
    # Complex, like the engines' eigh: the first real symmetric eigh in a
    # process pages in another 0.38 MB of LAPACK code.
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = np.abs(v[0]) ** 2
    x.flags.writeable = w.flags.writeable = False  # shared by every caller
    return x, w


def noise_axes(model: DeviceModel, exchange_on: bool) -> list:
    """The quadrature's dimensions: per dimension, the ``NoiseSample``
    fields it sets and their spread.  Offsets without spread get none.

    Without exchange or exchange noise every row has E(11) = E(01) + E(10),
    the one separability rule of ``physics.evolve``: the generator is
    H1 x I + I x H2, both engines' kernel evolves each spin as a 2x2, and
    each qubit's marginal depends on its own detuning offset alone.  One
    dimension then sets both offsets: row k serves qubit 1 at
    delta_1 = sigma x_k and qubit 2 at delta_2 = sigma x_k.  With exchange
    on, j_off > 0 or sigma_j > 0 the rows are not separable, each offset
    gets its own dimension, and the kernel takes its 4x4 path.
    """
    sigma, sigma_j = model.sigma_detune, model.sigma_j
    if sigma_j == 0 and model.exchange(exchange_on) == 0:
        return [((0, 1), sigma)] if sigma else []
    axes = [((0,), sigma), ((1,), sigma), ((2,), sigma_j)]
    return [(fields, s) for fields, s in axes if s]


def noise_rule(axes: list, n: int) -> tuple[NoiseSample, np.ndarray]:
    """Tensor-product rule with ``n`` nodes per axis: the noise rows and
    their weights, n ** len(axes) of each."""
    x, w = gauss_hermite(n)
    idx = np.indices((n,) * len(axes)).reshape(len(axes), -1)
    offsets = np.zeros((3, idx.shape[1]))
    for k, (fields, sigma) in enumerate(axes):
        offsets[list(fields)] = sigma * x[idx[k]]
    return NoiseSample(*offsets), np.prod(w[idx], axis=0)


def quadrature_tally() -> dict:
    """An empty tally of the noisy ``Bench.sample`` calls: how many, the
    rule's dimensions, the most nodes per dimension any call ended on, the
    propagator rows evaluated, the largest difference between a call's last
    two rules, and whether every call's last two rules agreed."""
    return {"calls": 0, "dims": 0, "nodes": 0, "rows": 0, "max_difference": 0.0,
            "converged": True}


@dataclass
class Bench:
    """One experiment setup: device, transmitter, plan, and calibration; the
    default calibration drives at 1 MHz Rabi, another rate is passed as
    ``cal=default_calibration(..., target_rabi=...)``."""

    model: DeviceModel
    cfg: TxConfig
    exchange_on: bool = False
    plan: FrequencyPlan = None
    cal: CalibrationSet = None
    # Trace-engine products reused across ``sample`` calls, each keyed on the
    # energies, drive operator and sample period it was made under.
    memo: PropagatorMemo = field(default_factory=PropagatorMemo, init=False, repr=False,
                                 compare=False)
    # Noisy ``sample`` calls add to this; each runner starts a fresh one with
    # ``new_tally`` and copies it into its result's meta["quadrature"].
    quadrature: dict = field(default_factory=quadrature_tally, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        if self.plan is None:
            self.plan = allocate_frequencies(
                (self.model.f1, self.model.f2),
                self.cfg.carrier,
                exchange_on=self.exchange_on,
                j=self.model.j_on if self.exchange_on else None,
                f_clk=self.cfg.f_clk,
            )
        if self.cal is None:
            self.cal = default_calibration(self.model, self.plan, amp_bits=self.cfg.amp_bits)

    def compile(self, ops) -> CompiledProgram:
        # Looked up on the package at call time, so the benchmark tracer's
        # wrapper of spinctl.compiler.compile_program (perfbench/tracing.py)
        # counts every compile.
        return compiler.compile_program(
            ops,
            self.plan,
            self.cal,
            amp_bits=self.cfg.amp_bits,
            phase_mod_bits=self.cfg.phase_mod_bits,
        )

    def run_program(self, prog: CompiledProgram) -> ExecutionTrace:
        """Play all triggers on a fresh transmitter; returns the burst trace."""
        return Transmitter(self.cfg, prog.ftws).play(prog.images)

    def new_tally(self) -> None:
        """Start a fresh ``quadrature`` tally and zero the memo's counts."""
        self.quadrature = quadrature_tally()
        self.memo.counts = dict.fromkeys(self.memo.counts, 0)

    def tallies(self) -> dict:
        """Copies of both tallies since ``new_tally``, for a result's meta."""
        return {"quadrature": dict(self.quadrature), "propagator_memo": dict(self.memo.counts)}

    def sample(self, programs, qubits, shots: int, rngs, *, engine: str = "dense") -> np.ndarray:
        """Counts of shots reading 1 per program in ``programs`` and qubit in
        ``qubits``, each program starting from |00>, shape (len(programs),
        len(qubits)): one binomial draw per qubit, in the order of
        ``qubits``, from the program's own generator in ``rngs``.

        ``programs`` is a list, or any iterable that makes them: each is
        played as it comes and only its trace is kept.  Each program plays
        on a fresh transmitter, except that one with the image list of the
        program before it retunes that program's trace, as a sweep that
        rewrites only tuning words allows.  Either engine plays any
        program, both banks at once included.  Either engine evolves the
        whole batch in one call per quadrature step: ``evolve_trace``, with
        the bench's memo, or ``dense_propagators``.  A noiseless model
        evolves once.  A noisy one averages P(read 1) over the quasi-static
        offsets with a Gauss-Hermite rule over ``noise_axes``: rules of 3
        and 5 nodes per axis in one propagator batch (one pass over the
        traces), then each next rule of ``NODE_LADDER``, for the programs
        still refining only, until a program's last two rules agree within
        AGREEMENT * 0.5 / sqrt(shots) on every qubit read, a rule's rows
        reach ``shots``, or the ladder ends.  The finer rule is kept and
        each program counts as one call in ``quadrature``.  An empty batch
        plays and evolves nothing.
        """
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
        if shots < 1:
            raise ValueError("shots must be at least 1")
        bad = [q for q in qubits if q not in (1, 2)]
        if bad or len(qubits) == 0:
            raise ValueError(f"read qubit 1, 2 or both, not {repr(bad[0]) if bad else 'none'}")
        # The trace engine keeps each program's trace, the dense engine only
        # the DAC samples synthesized from it.  A program with the image list
        # of the one before differs from it at most in tuning words, so it
        # retunes that trace instead of playing.
        played, n_samples, last = [], [], None  # last: the program before and its trace
        for prog in programs:
            if last is not None and prog.images is last[0].images:
                trace = last[1].retuned(Transmitter(self.cfg, prog.ftws).ftws)
            else:
                trace = self.run_program(prog)
            last = prog, trace
            played.append(trace if engine == "trace" else synthesize(trace, self.cfg))
            n_samples.append(trace.n_samples)
        if len(rngs) != len(played):
            raise ValueError(f"{len(played)} programs need as many generators, not {len(rngs)}")
        if not played:
            return np.zeros((0, len(qubits)), dtype=int)
        read = np.subtract(qubits, 1)
        n_samples = np.array(n_samples)

        def p_read1(batch, noise):  # (len(batch), len(qubits), rows)
            physics = dict(model=self.model, lo_freq=self.cfg.carrier,
                           exchange_on=self.exchange_on, noise=noise)
            some = [played[i] for i in batch]
            props = (evolve_trace(some, **physics, memo=self.memo) if engine == "trace"
                     else dense_propagators(some, **physics))
            amps = renormalized(props[..., 0], n_samples[batch, None])  # unitaries on |00>
            return np.stack(readout_probabilities(amps, self.model), axis=1)[:, read]

        everyone = np.arange(len(played))
        axes = noise_axes(self.model, self.exchange_on)
        if not axes:
            p = p_read1(everyone, ZERO_NOISE)[..., 0]
            return np.array([rng.binomial(shots, p_k) for rng, p_k in zip(rngs, p)])
        (coarse, w_coarse), (fine, w_fine) = (noise_rule(axes, n) for n in NODE_LADDER[:2])
        both = NoiseSample(*(np.concatenate(pair) for pair in zip(coarse, fine)))
        p = p_read1(everyone, both)
        previous, current = p[..., : len(w_coarse)] @ w_coarse, p[..., len(w_coarse) :] @ w_fine
        rows = np.full(len(played), p.shape[-1])
        difference = np.empty(len(played))
        refining, level = everyone, 1
        tol = AGREEMENT * 0.5 / shots**0.5
        while True:
            difference[refining] = np.max(np.abs(current[refining] - previous[refining]), axis=1)
            refining = refining[difference[refining] > tol]
            if not len(refining) or len(w_fine) >= shots or level == len(NODE_LADDER) - 1:
                break
            level += 1
            fine, w_fine = noise_rule(axes, NODE_LADDER[level])
            previous[refining], current[refining] = (current[refining],
                                                     p_read1(refining, fine) @ w_fine)
            rows[refining] += len(w_fine)
        tally = self.quadrature
        tally["calls"] += len(played)
        tally["dims"] = max(tally["dims"], len(axes))
        tally["nodes"] = max(tally["nodes"], NODE_LADDER[level])
        tally["rows"] += int(rows.sum())
        tally["max_difference"] = max(tally["max_difference"], float(difference.max()))
        tally["converged"] &= bool(np.all(difference <= tol))
        return np.array([rng.binomial(shots, np.clip(p_k, 0.0, 1.0))
                         for rng, p_k in zip(rngs, current)])


def whole(x, least: int) -> bool:
    """``x`` is a whole number (numpy integers included), ``least`` or more."""
    return isinstance(x, numbers.Integral) and x >= least


def check_arguments(counts=(), *, qubit=None, act="measure", engine=None, problems=()):
    """Raise one ``ConfigError`` listing every problem with a runner's
    arguments before it does any work: its own ``problems``, each (name,
    value, need) of ``counts`` that is not a whole number of at least 1, a
    ``qubit`` other than 1 or 2 (``act`` says what the runner does to it)
    and an ``engine`` not in ``ENGINES``."""
    found = list(problems)
    found += [f"{name}={value}: {need}, a whole number"
              for name, value, need in counts if not whole(value, 1)]
    if qubit is not None and qubit not in (1, 2):
        found.append(f"qubit={qubit}: {act} qubit 1 or 2")
    if engine is not None and engine not in ENGINES:
        found.append(f"engine={engine!r}: choose one of {ENGINES}")
    if found:
        raise ConfigError(found)


def binomial_stderr(p_hat: float, shots: int) -> float:
    return float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / shots))


@dataclass
class SweepResult:
    """Generic sweep output: one row per point, per-qubit P(read 1)."""

    x_name: str
    x: list = field(default_factory=list)
    p1_q1: list = field(default_factory=list)
    p1_q2: list = field(default_factory=list)
    stderr: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, x, p1, p2, err):
        self.x.append(float(x))
        self.p1_q1.append(float(p1))
        self.p1_q2.append(float(p2))
        self.stderr.append(float(err))
