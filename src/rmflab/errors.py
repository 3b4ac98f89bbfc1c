"""The exception type shared across the package.

Domain and range violations raise plain ``ValueError``; ScaleError marks a
refusal that callers (notably the CLI) must tell apart from them.
"""


class ScaleError(RuntimeError):
    """An exact computation was refused because it exceeds its size budget."""

