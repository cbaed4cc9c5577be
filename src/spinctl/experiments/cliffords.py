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

from ..compiler.ir import AXIS_QUARTER_TURNS, PI_ROTATIONS
from ..physics.evolve import rotation_for_phase

# Drive phase and rotation angle of each primitive, read from the compiler's
# gate set: the axis's quarter turns of phase, and pi or pi/2 of rotation.
PRIMITIVE_PARAMS = {
    "i": (0.0, 0.0),
    **{name: (turns * np.pi / 2, np.pi if name in PI_ROTATIONS else np.pi / 2)
       for name, turns in AXIS_QUARTER_TURNS.items()},
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


def _matches(v: np.ndarray) -> np.ndarray:
    """(..., 24) flags: which table rows equal each 2x2 unitary of ``v`` up
    to a global phase, i.e. have |tr(U_k^dagger v)| = 2."""
    overlap = np.abs(np.einsum("kji,...ji->...k", UNITARIES.conj(), v))
    return np.abs(overlap - 2.0) < 1e-9


def _build_tables():
    coincide = np.argwhere(np.triu(_matches(UNITARIES), 1))
    if len(coincide):
        a, b = coincide[0]
        raise AssertionError(f"Clifford table rows {a} and {b} coincide")
    # found[a, b] flags U_b U_a: a acts first, then b.
    found = _matches(np.einsum("bij,ajk->abik", UNITARIES, UNITARIES))
    if not np.all(found.sum(axis=-1) == 1):
        raise AssertionError("Clifford table is not closed under multiplication")
    mult = found.argmax(axis=-1).astype(np.int8)
    identity = int(_matches(np.eye(2)).argmax())
    inverse = (mult == identity).argmax(axis=1).astype(np.int8)
    return mult, inverse, identity


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
