"""The 24-element single-qubit Clifford group over the native gate set.

Each Clifford is decomposed into primitives from {i, x, y, mx, my, x2, y2}
(pi/2 and pi rotations about +/-x and +/-y).  The table averages
45/24 = 1.875 primitives per Clifford.  Group structure (closure,
inverses, multiplication) is derived numerically from the primitive
unitaries and verified at import.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from ..physics.evolve import rotation_for_phase

# Drive-phase and rotation-angle parameterization of each primitive.
PRIMITIVE_PARAMS = {
    "i": (0.0, 0.0),
    "x": (0.0, np.pi / 2),
    "y": (np.pi / 2, np.pi / 2),
    "mx": (np.pi, np.pi / 2),
    "my": (3 * np.pi / 2, np.pi / 2),
    "x2": (0.0, np.pi),
    "y2": (np.pi / 2, np.pi),
}

# Time-ordered primitive decompositions (first gate acts first).
DECOMPOSITIONS = [
    ["i"],
    ["x2"],
    ["y2"],
    ["y2", "x2"],
    ["x"],
    ["mx"],
    ["y"],
    ["my"],
    ["mx", "y", "x"],
    ["mx", "my", "x"],
    ["x2", "y"],
    ["x2", "my"],
    ["y2", "x"],
    ["y2", "mx"],
    ["x", "y", "x"],
    ["mx", "y", "mx"],
    ["x", "y"],
    ["x", "my"],
    ["mx", "y"],
    ["mx", "my"],
    ["y", "x"],
    ["y", "mx"],
    ["my", "x"],
    ["my", "mx"],
]

N_CLIFFORDS = len(DECOMPOSITIONS)
AVG_PRIMITIVES = sum(len(d) for d in DECOMPOSITIONS) / N_CLIFFORDS


def primitive_unitary(name: str) -> np.ndarray:
    phase, angle = PRIMITIVE_PARAMS[name]
    return rotation_for_phase(phase, angle)


def _compose(names) -> np.ndarray:
    return reduce(lambda acc, g: primitive_unitary(g) @ acc, names, np.eye(2, dtype=complex))


UNITARIES = np.stack([_compose(d) for d in DECOMPOSITIONS])


def _same_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    return abs(abs(np.trace(a.conj().T @ b)) - 2.0) < 1e-9


def index_of(u: np.ndarray) -> int:
    for k in range(N_CLIFFORDS):
        if _same_up_to_phase(UNITARIES[k], u):
            return k
    raise ValueError("unitary is not a Clifford element of this table")


def _build_tables():
    mult = np.empty((N_CLIFFORDS, N_CLIFFORDS), dtype=np.int8)
    for a in range(N_CLIFFORDS):
        for b in range(N_CLIFFORDS):
            # a acts first, then b.
            mult[a, b] = index_of(UNITARIES[b] @ UNITARIES[a])
    inverse = np.empty(N_CLIFFORDS, dtype=np.int8)
    identity = index_of(np.eye(2, dtype=complex))
    for a in range(N_CLIFFORDS):
        inverse[a] = int(np.nonzero(mult[a] == identity)[0][0])
    return mult, inverse, identity


def _verify_distinct():
    for a in range(N_CLIFFORDS):
        for b in range(a + 1, N_CLIFFORDS):
            if _same_up_to_phase(UNITARIES[a], UNITARIES[b]):
                raise AssertionError(f"Clifford table rows {a} and {b} coincide")


_verify_distinct()
MULT_TABLE, INVERSE_TABLE, IDENTITY_INDEX = _build_tables()


def compose_indices(indices) -> int:
    """Group element of a time-ordered Clifford sequence."""
    out = IDENTITY_INDEX
    for k in indices:
        out = int(MULT_TABLE[out, k])
    return out


def recovery_index(indices) -> int:
    """Clifford that returns the composed sequence to the identity."""
    return int(INVERSE_TABLE[compose_indices(indices)])


def sequence_primitives(indices) -> list[str]:
    gates: list[str] = []
    for k in indices:
        gates.extend(DECOMPOSITIONS[k])
    return gates
