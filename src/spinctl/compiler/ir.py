"""Gate-level program representation and the text program format.

One gate per line: ``<gate> q<n> [key=value ...]``.  Gates: i (idle for a
pi rotation's duration); x and y, pi/2 rotations about +x and +y; x2 and
y2, pi rotations about the same axes (x2 is "x twice", not "x/2"); mx and
my, -pi/2 rotations; z (virtual, needs ``angle=``); crot_high, crot_low
(conditional pi rotations).  Optional keys: ``dur`` (seconds), ``shape``
(rectangular | gaussian), ``angle`` (radians, pi-expressions allowed),
``branch`` (both | high | low) to restrict which conditional frequency a
single-qubit gate addresses when exchange is on.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from ..errors import ProgramError

ROTATION_GATES = {"x", "y", "x2", "y2", "mx", "my"}
PI_ROTATIONS = {"x2", "y2"}  # the rest of ROTATION_GATES turn by pi/2
GATES = ROTATION_GATES | {"i", "z", "crot_high", "crot_low"}
SHAPES = {"rectangular", "gaussian"}
BRANCHES = {"both", "high", "low"}

# Rotation-axis reference-phase offsets, in quarter turns of the phase word:
# phase 0 selects +x, a quarter turn selects +y.
AXIS_QUARTER_TURNS = {"x": 0, "x2": 0, "y": 1, "y2": 1, "mx": 2, "my": 3}

_NUMBER = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def parse_angle(text: str) -> float:
    """Radians from a decimal or a pi-expression like ``pi/2`` or ``-3pi/4``."""
    s = text.strip().lower().replace(" ", "")
    if _NUMBER.match(s):
        return float(s)
    m = re.match(r"^([-+]?)(\d*\.?\d*)\*?pi(?:/(\d+\.?\d*))?$", s)
    if not m:
        raise ValueError(f"cannot parse angle {text!r}")
    sign = -1.0 if m.group(1) == "-" else 1.0
    num = float(m.group(2)) if m.group(2) else 1.0
    den = float(m.group(3)) if m.group(3) else 1.0
    return sign * num * math.pi / den


@dataclass
class GateOp:
    """One gate: name, target qubit (1 or 2), and optional modifiers."""

    name: str
    target: int
    duration: float | None = None
    shape: str | None = None
    angle: float | None = None
    branch: str = "both"

    def __post_init__(self):
        if self.name not in GATES:
            raise ValueError(f"unknown gate {self.name!r}")
        if self.target not in (1, 2):
            raise ValueError(f"target qubit must be 1 or 2, got {self.target}")
        if self.duration is not None and not 0.0 <= self.duration < math.inf:
            raise ValueError(f"duration {self.duration} s is not a finite time >= 0")
        if self.name == "z" and self.angle is None:
            raise ValueError("z gate needs an angle")
        if self.shape is not None and self.shape not in SHAPES:
            raise ValueError(f"unknown envelope shape {self.shape!r}")
        if self.branch not in BRANCHES:
            raise ValueError(f"unknown branch {self.branch!r}")


def parse_program(text: str) -> list[GateOp]:
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        fields = line.split()
        name = fields[0].lower()
        if len(fields) < 2 or not re.match(r"^q[12]$", fields[1]):
            raise ProgramError(f"expected '<gate> q1|q2', got {line!r}", line=lineno)
        kwargs = {}
        for field in fields[2:]:
            if "=" not in field:
                raise ProgramError(f"expected key=value, got {field!r}", line=lineno)
            key, value = field.split("=", 1)
            if key == "dur":
                kwargs["duration"] = float(value)
            elif key == "shape":
                kwargs["shape"] = value
            elif key == "angle":
                kwargs["angle"] = parse_angle(value)
            elif key == "branch":
                kwargs["branch"] = value
            else:
                raise ProgramError(f"unknown option {key!r}", line=lineno)
        try:
            ops.append(GateOp(name, int(fields[1][1]), **kwargs))
        except ValueError as exc:
            raise ProgramError(str(exc), line=lineno) from exc
    return ops
