"""The Gauss-Hermite average over quasi-static noise in ``Bench.sample``
against independent oracles: a fine deterministic grid over the offset
where the qubits factorize, a 10^5-draw Monte Carlo where they do not."""

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from spinctl.compiler import CompiledProgram
from spinctl.compiler.ir import GateOp
from spinctl.controller.executor import TxConfig, synthesize
from spinctl.controller.nco import offset_to_ftw
from spinctl.experiments import Bench, run_allxy
from spinctl.experiments.base import NODE_LADDER, gauss_hermite, noise_axes, noise_rule
from spinctl.experiments.dj import dj_program
from spinctl.experiments.qst import BASES
from spinctl.experiments.rabi import _rabi_image
from spinctl.physics import (
    DeviceModel,
    NoiseSample,
    readout_probabilities,
    shot_rng,
)
from spinctl.physics.state import renormalized

from helpers import evolve_one, rb_primitives, sample_noise_batch, two_level_evolve

# Shots that only set the quadrature's agreement target, 0.1 * 0.5 / sqrt(shots).
MANY_SHOTS = 10**6


class Expectation:
    """Stands in for a point's generator and keeps the probabilities that
    ``Bench.sample`` draws its binomials from."""

    def binomial(self, n, p):
        self.p = np.array(p)
        return np.zeros(len(self.p), dtype=int)


def averaged(bench, prog, qubits, engine, shots=MANY_SHOTS):
    rng = Expectation()
    bench.sample([prog], qubits, shots, [rng], engine=engine)
    return rng.p


def p_read1(bench, trace, noise):
    """P(read 1) of both qubits per noise row on the trace engine, (2, rows)."""
    props = evolve_one(trace, bench.model, bench.cfg.carrier,
                       exchange_on=bench.exchange_on, noise=noise)
    return np.stack(readout_probabilities(renormalized(props[:, :, 0], trace.n_samples),
                                          bench.model))


def grid(sigma, n=41, span=5.0):
    """Uniform offsets over +-span sigma and their normalized Gaussian
    weights: the trapezoid rule.  A program of duration T makes P(read 1)
    a sum of frequencies up to T in the offset, so the rule's aliasing
    error is of order exp(-2 pi^2 sigma^2 (1/step - T)^2); that and the
    tail beyond 5 sigma stay below 1e-6 for every program here."""
    d = sigma * np.linspace(-span, span, n)
    w = np.exp(-0.5 * (d / sigma) ** 2)
    return d, w / w.sum()


def grid_average(bench, prog, qubits, engine, n=41):
    """E over qubit q's own offset of its P(read 1), for each q in ``qubits``.

    Dense: the closed-form two-level evolution of qubit q alone under the
    synthesized envelope, an independent code path.  Trace: the trace
    engine at each offset of qubit q, the other offsets held at 0.
    """
    trace = bench.run_program(prog)
    d, w = grid(bench.model.sigma_detune, n)
    out = []
    for q in qubits:
        if engine == "dense":
            wf = synthesize(trace, bench.cfg)
            f_q = (bench.model.f1, bench.model.f2)[q - 1] - bench.cfg.carrier
            coupling = bench.model.drive_coupling[q - 1]
            p = [abs(two_level_evolve(wf.envelope, f_q + x, coupling, 1 / wf.sample_rate)[1, 0]) ** 2
                 for x in d]
        else:
            offsets = np.zeros((3, len(d)))
            offsets[q - 1] = d
            p = p_read1(bench, trace, NoiseSample(*offsets))[q - 1]
        out.append(np.dot(p, w))
    return np.array(out)


def plain_bench(sigma):
    return Bench(DeviceModel(sigma_detune=sigma), TxConfig())


def test_rules_match_hermegauss():
    for n in NODE_LADDER:
        x, w = gauss_hermite(n)
        x_ref, w_ref = hermegauss(n)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(w * np.sqrt(2 * np.pi), w_ref, rtol=0, atol=1e-13)
    assert not gauss_hermite(5)[0].flags.writeable


@pytest.mark.parametrize("exchange_on, sigma_j, axes", [
    (False, 0.0, [((0, 1), 50e3)]),
    (False, 2e3, [((0,), 50e3), ((1,), 50e3), ((2,), 2e3)]),
    (True, 0.0, [((0,), 50e3), ((1,), 50e3)]),
])
def test_one_axis_serves_both_qubits_only_while_they_factorize(exchange_on, sigma_j, axes):
    assert noise_axes(DeviceModel(sigma_detune=50e3, sigma_j=sigma_j), exchange_on) == axes
    assert noise_axes(DeviceModel(sigma_j=sigma_j), exchange_on) == [a for a in axes
                                                                     if a[0] == (2,)]


def separable_programs(bench):
    """(name, program, qubits read): AllXY pairs, a simultaneous Rabi burst
    and the QST projections after an x burst, on one exchange-off bench."""
    progs = [(f"allxy {a}*{b}", bench.compile([GateOp(a, 2), GateOp(b, 2)]), (2,))
             for a, b in (("x", "i"), ("x2", "y2"), ("y", "x2"))]
    img = _rabi_image(bench, (1, 2), 700)
    progs.append(("rabi", CompiledProgram(images=[img], ftws=bench.plan.ftws(), report={}),
                  (1, 2)))
    prefix = [GateOp("x2", 2, duration=0.3e-6)]
    progs += [(f"qst {axis}", bench.compile(prefix + ([GateOp(g, 2)] if g else [])), (2,))
              for axis, g in BASES]
    return progs


@pytest.mark.parametrize("engine", ["dense", "trace"])
def test_separable_quadrature_matches_a_fine_grid(engine):
    # 300 kHz over a microsecond: a few radians of phase spread.
    bench = plain_bench(300e3)
    for name, prog, qubits in separable_programs(bench):
        quad = averaged(bench, prog, qubits, engine)
        np.testing.assert_allclose(quad, grid_average(bench, prog, qubits, engine),
                                   rtol=0, atol=1e-4, err_msg=name)
    assert bench.quadrature["converged"]
    assert bench.quadrature["nodes"] > 5  # the ladder was climbed


# 100 Cliffords take 58 us.  At 50 kHz the rule climbs to 17 nodes.  The
# dense engine and its two-level reference take about 50 ms per row at this
# length, so that case runs at 20 kHz, where 5 nodes settle and 21 grid
# points (a step of 10 kHz) suffice.
@pytest.mark.parametrize("engine, sigma, nodes, points",
                         [("dense", 20e3, 5, 21), ("trace", 50e3, 17, 41)])
def test_rb_sequence_quadrature_matches_a_fine_grid(engine, sigma, nodes, points):
    bench = plain_bench(sigma)
    prog = bench.compile([GateOp(g, 2) for g in rb_primitives(100, 7)])
    quad = averaged(bench, prog, (2,), engine)
    reference = grid_average(bench, prog, (2,), engine, points)
    np.testing.assert_allclose(quad, reference, rtol=0, atol=1e-4)
    assert bench.quadrature["converged"] and bench.quadrature["nodes"] == nodes


def monte_carlo(bench, prog, qubits, draws=10**5, batch=10**4, seed=0):
    """Mean and standard error of P(read 1) over independent noise draws."""
    trace = bench.run_program(prog)
    rng = np.random.default_rng(seed)
    p = np.concatenate([p_read1(bench, trace, sample_noise_batch(bench.model, rng, batch))
                        for _ in range(draws // batch)], axis=1)[np.subtract(qubits, 1)]
    return p.mean(axis=1), p.std(axis=1) / np.sqrt(draws)


# The Monte Carlo costs about 1 s per 10^4 draws of a DJ program on the
# trace engine, so each coupled case is one program.
def test_coupled_dj_quadrature_matches_monte_carlo():
    bench = Bench(DeviceModel(sigma_detune=100e3, sigma_j=300e3), TxConfig(), exchange_on=True)
    prog = bench.compile(dj_program("cnot"))
    quad = averaged(bench, prog, (1, 2), "trace", shots=10**5)
    mean, err = monte_carlo(bench, prog, (1, 2))
    assert np.all(np.abs(quad - mean) <= 4 * err), (quad, mean, err)
    assert bench.quadrature["dims"] == 3


def test_coupled_spectroscopy_point_matches_monte_carlo():
    bench = Bench(DeviceModel(sigma_detune=200e3), TxConfig(), exchange_on=True)
    slot = bench.plan.slot(2, "low")
    prog = bench.compile([GateOp("x", 2, branch="low")])
    # A pi probe 0.3 MHz above the low line.
    prog.ftws[(slot.bank, slot.nco)] = offset_to_ftw(slot.offset_hz + 0.3e6, bench.cfg.f_clk)
    quad = averaged(bench, prog, (1, 2), "trace", shots=10**5)
    mean, err = monte_carlo(bench, prog, (1, 2), seed=1)
    assert np.all(np.abs(quad - mean) <= 4 * np.maximum(err, 1e-12)), (quad, mean, err)
    assert bench.quadrature["dims"] == 2


def test_a_rule_that_cannot_settle_is_reported_unconverged():
    # 300 kHz over a 100-Clifford sequence spreads the phase far beyond
    # what 65 nodes resolve.
    bench = plain_bench(300e3)
    prog = bench.compile([GateOp(g, 2) for g in rb_primitives(100, 7)])
    averaged(bench, prog, (2,), "trace")
    tally = bench.quadrature
    assert not tally["converged"] and tally["nodes"] == NODE_LADDER[-1]
    assert tally["rows"] == 3 + sum(NODE_LADDER[1:])
    assert tally["max_difference"] > 0.1 * 0.5 / np.sqrt(MANY_SHOTS)


def test_the_rule_stops_once_its_rows_reach_the_shots():
    # Ramsey with a 5 us wait: 9 rad of phase per sigma, which 3, 5 and 9
    # nodes resolve differently.
    bench = plain_bench(300e3)
    prog = bench.compile([GateOp("x2", 2), GateOp("i", 2, duration=5e-6), GateOp("x2", 2)])
    (p,) = averaged(bench, prog, (2,), "trace", shots=9)
    tally = bench.quadrature
    assert (tally["nodes"], tally["rows"], tally["converged"]) == (9, 3 + 5 + 9, False)
    # The finer of the last two rules is the one kept.
    rows, w = noise_rule(noise_axes(bench.model, False), 9)
    assert p == pytest.approx(p_read1(bench, bench.run_program(prog), rows)[1] @ w, abs=1e-12)


def test_noisy_dense_allxy_at_default_shots_needs_few_rows():
    res = run_allxy(plain_bench(50e3), shots=10_000, seed=0, engine="dense")
    q = res.meta["quadrature"]
    assert q["calls"] == 21 and q["converged"]
    assert q["nodes"] <= 9 and q["rows"] <= 21 * (3 + 5 + 9)


def test_noiseless_sampling_tallies_nothing():
    bench = Bench(DeviceModel(), TxConfig())
    prog = bench.compile([GateOp("x", 2)])
    bench.sample([prog], (1, 2), 100, [shot_rng(0, 0)])
    assert bench.quadrature == dict(calls=0, dims=0, nodes=0, rows=0, max_difference=0.0,
                                    converged=True)


def test_noise_zero_sigmas_give_zero_offsets():
    s = sample_noise_batch(DeviceModel(), shot_rng(0, 0), 1)
    assert (s.delta_f1[0], s.delta_f2[0], s.delta_j[0]) == (0.0, 0.0, 0.0)


def test_noise_stddev_matches_sigma():
    m = DeviceModel(sigma_detune=10e3, sigma_j=2e3)
    draws = sample_noise_batch(m, shot_rng(123, 0), 10_000)
    d1, dj = draws.delta_f1, draws.delta_j
    assert abs(d1.std() / 10e3 - 1) < 0.03
    assert abs(dj.std() / 2e3 - 1) < 0.05
    assert abs(d1.mean()) < 3 * 10e3 / np.sqrt(10_000)
