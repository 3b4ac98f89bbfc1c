"""Exception types shared across the package.

Domain and range violations raise plain ``ValueError``; the classes here
mark conditions that callers (notably the CLI) must tell apart.
"""


class ScaleError(RuntimeError):
    """An exact computation was refused because it exceeds its size budget."""


class ContractViolation(ValueError):
    """An input breaks a documented precondition (e.g. a non-square-free
    entry of a square quadruple)."""

