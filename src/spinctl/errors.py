"""Exception types shared across the package.

Every user-facing failure is a SpinctlError subclass, so callers can tell
configuration, capacity, program-text and image-file faults apart; new
error conditions should reuse one of the classes below rather than
raising bare ValueErrors from user-facing paths.
"""

from __future__ import annotations


class SpinctlError(Exception):
    """Base class for all package errors."""


class ConfigError(SpinctlError):
    """Invalid configuration. Collects every failure, not just the first."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class CapacityError(SpinctlError):
    """A hardware memory limit would be exceeded. Rejects, never truncates."""

    def __init__(self, resource: str, limit: int, requested: int):
        self.resource = resource
        self.limit = limit
        self.requested = requested
        super().__init__(
            f"{resource} capacity exceeded: requested {requested}, limit {limit}"
        )


class ProgramError(SpinctlError):
    """Malformed gate program text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ImageFormatError(SpinctlError):
    """Corrupt or truncated memory-image file."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
