"""Shared plumbing for experiment runners.

Every experiment goes compiler -> transmitter -> physics -> readout and
differs only in the programs it builds and the statistics it extracts.
``Bench.sample`` is that path: one play of a compiled program into a burst
trace, one batched propagator stack over the point's noise draws on the
chosen engine, vectorized readout.  DAC samples are synthesized only for
the dense engine.
Randomness follows the substream contract in ``spinctl.physics.device``:
point p of an experiment seeded with ``seed`` draws all of its shots from
``shot_rng(seed, p)``, noise batch first, then readout.
"""

from __future__ import annotations

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
from ..physics import (
    DeviceModel,
    ZERO_NOISE,
    dense_propagators,
    readout_probabilities,
    sample_noise_batch,
    trace_propagators,
)
from ..physics.state import renormalized

# Both engines play every trace: "dense" the DAC samples synthesized from it,
# "trace" the bursts' idealized samples (overlapping banks summed).
ENGINES = ("dense", "trace")


@dataclass
class Bench:
    """One experiment setup: device, transmitter, plan, and calibration."""

    model: DeviceModel
    cfg: TxConfig
    exchange_on: bool = False
    target_rabi: float = 1e6
    plan: FrequencyPlan = None
    cal: CalibrationSet = None

    def __post_init__(self):
        if self.plan is None:
            self.plan = allocate_frequencies(
                (self.model.f1, self.model.f2),
                self.cfg.lo_freq,
                exchange_on=self.exchange_on,
                j=self.model.j_on if self.exchange_on else None,
                f_clk=self.cfg.f_clk,
            )
        if self.cal is None:
            self.cal = default_calibration(
                self.model, self.plan, amp_bits=self.cfg.amp_bits, target_rabi=self.target_rabi
            )

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

    def sample(self, prog: CompiledProgram, qubits, shots: int, rng: np.random.Generator,
               *, engine: str = "dense") -> np.ndarray:
        """Counts of shots reading 1 per qubit in ``qubits``, starting from |00>.

        Either engine plays any program, both banks at once included.  A
        noisy model gets one quasi-static noise draw and one single-shot
        readout per shot; a noiseless one evolves once and draws one
        binomial per qubit, in the order of ``qubits``.
        """
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
        if shots < 1:
            raise ValueError("shots must be at least 1")
        model = self.model
        noisy = model.sigma_detune > 0 or model.sigma_j > 0
        noise = sample_noise_batch(model, rng, shots) if noisy else ZERO_NOISE
        trace = self.run_program(prog)
        physics = dict(model=model, lo_freq=self.cfg.lo_freq, exchange_on=self.exchange_on,
                       noise=noise)
        if engine == "trace":
            props = trace_propagators(trace, **physics)
        else:
            props = dense_propagators(synthesize(trace, self.cfg), **physics)
        amps = renormalized(props[:, :, 0], trace.n_samples)  # each unitary applied to |00>
        p_read1 = np.stack(readout_probabilities(amps, model))[np.subtract(qubits, 1)]
        if noisy:
            return np.count_nonzero(rng.random((shots, len(qubits))) < p_read1.T, axis=0)
        return rng.binomial(shots, p_read1[:, 0])


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
