"""Clifford group tables against explicit 2x2 unitary products."""

import numpy as np

from spinctl.experiments.cliffords import (
    DECOMPOSITIONS,
    IDENTITY_INDEX,
    INVERSE_TABLE,
    MULT_TABLE,
    N_CLIFFORDS,
    UNITARIES,
    primitive_unitary,
    recovery_index,
)

EYE = np.eye(2, dtype=complex)


def equal_up_to_phase(a, b):
    """Entrywise equality after removing the phase of a's largest entry."""
    k = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    phase = b[k] / a[k]
    return abs(abs(phase) - 1.0) < 1e-9 and np.allclose(a * phase, b, rtol=0, atol=1e-9)


def test_elements_are_their_primitive_products_and_distinct():
    for k, names in enumerate(DECOMPOSITIONS):
        u = EYE
        for name in names:  # the first gate acts first
            u = primitive_unitary(name) @ u
        np.testing.assert_allclose(UNITARIES[k], u, atol=1e-12)
    for a in range(N_CLIFFORDS):
        for b in range(a + 1, N_CLIFFORDS):
            assert not equal_up_to_phase(UNITARIES[a], UNITARIES[b])


def test_every_product_and_inverse_matches_explicit_unitaries():
    assert equal_up_to_phase(UNITARIES[IDENTITY_INDEX], EYE)
    for a in range(N_CLIFFORDS):
        for b in range(N_CLIFFORDS):
            # a acts first, then b.
            assert equal_up_to_phase(UNITARIES[MULT_TABLE[a, b]], UNITARIES[b] @ UNITARIES[a])
        assert equal_up_to_phase(UNITARIES[INVERSE_TABLE[a]], UNITARIES[a].conj().T)


def test_recovery_returns_random_sequences_to_identity():
    rng = np.random.default_rng(0)
    for length in (1, 2, 7, 30):
        sequence = rng.integers(0, N_CLIFFORDS, size=length).tolist()
        u = EYE
        for k in sequence + [recovery_index(sequence)]:
            u = UNITARIES[k] @ u
        assert equal_up_to_phase(u, EYE)
