"""Shot sampling, confusion channels, and noise-draw statistics."""

import numpy as np
import pytest

from spinctl.physics import (
    DeviceModel,
    QuantumState,
    ReadoutFidelity,
    corrected_p_up,
    measure,
    readout_probabilities,
    sample_noise_batch,
    shot_rng,
)
from spinctl.errors import ConfigError
from spinctl.physics.readout import empirical_p_up


def model(**kw):
    kw.setdefault("f1", 13.564e9)
    kw.setdefault("f2", 13.45e9)
    return DeviceModel(**kw)


def plus_on_q2():
    return QuantumState(np.array([1, 1, 0, 0]) / np.sqrt(2))


def test_ground_state_perfect_readout_is_all_zero():
    records = measure(QuantumState.ground(), model(), 200, shot_rng(1, 0))
    assert not records.any()


def test_q2_up_read_through_f1():
    m = model(readout_q2=ReadoutFidelity(f0=1.0, f1=0.8))
    state = QuantumState.basis(0, 1)
    shots = 100_000
    records = measure(state, m, shots, shot_rng(7, 0))
    p = records[:, 1].mean()
    # Binomial oracle: mean 0.8, five sigma bound.
    sigma = np.sqrt(0.8 * 0.2 / shots)
    assert abs(p - 0.8) < 5 * sigma


def test_equal_superposition_born_sampling():
    shots = 100_000
    records = measure(plus_on_q2(), model(), shots, shot_rng(3, 0))
    sigma = np.sqrt(0.25 / shots)
    assert abs(records[:, 1].mean() - 0.5) < 5 * sigma
    assert records[:, 0].sum() == 0  # q1 stays down


def test_q1_read_through_mapping_depolarization():
    m = model(crot_readout_fidelity=0.9)
    state = QuantumState.basis(1, 0)
    shots = 100_000
    records = measure(state, m, shots, shot_rng(11, 0))
    expected = 0.9 * 1.0 + 0.05  # d*p + (1-d)/2
    sigma = np.sqrt(expected * (1 - expected) / shots)
    assert abs(records[:, 0].mean() - expected) < 5 * sigma


def test_analytic_probabilities_match_sampling():
    m = model(
        readout_q1=ReadoutFidelity(0.9, 0.85),
        readout_q2=ReadoutFidelity(0.95, 0.8),
        crot_readout_fidelity=0.95,
    )
    state = QuantumState(np.array([0.6, 0.2, 0.3, 0.2j]) / np.linalg.norm([0.6, 0.2, 0.3, 0.2]))
    p1, p2 = readout_probabilities(state, m)
    records = measure(state, m, 200_000, shot_rng(5, 0))
    e1, e2 = empirical_p_up(records)
    assert abs(e1 - p1) < 5 * np.sqrt(0.25 / 200_000)
    assert abs(e2 - p2) < 5 * np.sqrt(0.25 / 200_000)


def test_correction_inverts_readout_probabilities():
    m = model(
        readout_q1=ReadoutFidelity(0.9, 0.85),
        readout_q2=ReadoutFidelity(0.95, 0.8),
        crot_readout_fidelity=0.95,
    )
    state = QuantumState(np.array([0.6, 0.2, 0.3, 0.2j]) / np.linalg.norm([0.6, 0.2, 0.3, 0.2]))
    for qubit, p_read in zip((1, 2), readout_probabilities(state, m)):
        assert corrected_p_up(p_read, m, qubit) == pytest.approx(state.p_up(qubit), abs=1e-12)
    for p in (0.0, 0.1, 0.37, 1.0):  # perfect readout: the identity, exactly
        assert corrected_p_up(p, model(), 1) == p and corrected_p_up(p, model(), 2) == p
    with pytest.raises(ConfigError, match="crot_readout_fidelity"):
        corrected_p_up(0.5, model(crot_readout_fidelity=0.0), 1)


def test_measure_requires_shots():
    with pytest.raises(ValueError):
        measure(QuantumState.ground(), model(), 0, shot_rng(0))


def test_noise_zero_sigmas_give_zero_offsets():
    s = sample_noise_batch(model(), shot_rng(0, 0), 1)
    assert (s.delta_f1[0], s.delta_f2[0], s.delta_j[0]) == (0.0, 0.0, 0.0)


def test_noise_stddev_matches_sigma():
    m = model(sigma_detune=10e3, sigma_j=2e3)
    draws = sample_noise_batch(m, shot_rng(123, 0), 10_000)
    d1, dj = draws.delta_f1, draws.delta_j
    assert abs(d1.std() / 10e3 - 1) < 0.03
    assert abs(dj.std() / 2e3 - 1) < 0.05
    assert abs(d1.mean()) < 3 * 10e3 / np.sqrt(10_000)


def test_ramsey_decay_matches_gaussian_average():
    # Free evolution under quasi-static detuning: the shot-averaged coherence
    # follows exp(-(2 pi sigma t)^2 / 2), giving T2* = sqrt(2)/(2 pi sigma).
    sigma = 100e3
    m = model(sigma_detune=sigma)
    times = np.array([0.0, 1e-6, 2e-6, 3e-6])
    n_draws = 20_000
    rng = shot_rng(9)
    deltas = sigma * rng.standard_normal(n_draws)
    signal = np.array([np.mean(np.cos(2 * np.pi * deltas * t)) for t in times])
    oracle = np.exp(-0.5 * (2 * np.pi * sigma * times) ** 2)
    np.testing.assert_allclose(signal, oracle, atol=0.02)
    t2_star = np.sqrt(2) / (2 * np.pi * sigma)
    assert np.exp(-0.5 * (2 * np.pi * sigma * t2_star) ** 2) == pytest.approx(1 / np.e)


def test_shot_rng_reproducible_and_distinct():
    a = shot_rng(42, 3, 7).random(4)
    b = shot_rng(42, 3, 7).random(4)
    c = shot_rng(42, 3, 8).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_device_model_invariants():
    with pytest.raises(ValueError, match="must differ"):
        model(f1=13.5e9, f2=13.5e9)
    with pytest.raises(ValueError, match="j_on"):
        model(j_on=0.0)
    with pytest.raises(ValueError):
        ReadoutFidelity(f0=0.5)
