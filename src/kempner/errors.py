"""Shared exception types.

Bad input raises a ValueError subclass (or ValueError itself), and a range
violation the builtin OverflowError. `SearchBudgetError`, a scan or search
over its budget, is a RuntimeError instead, so `cli.run` catches all three.
"""


class ZeroInputError(ValueError):
    """Raised for n = 0: no prime factorization, eta is undefined there."""


class NotPrimeError(ValueError):
    """Raised when an argument that must be prime is not; `value` holds it."""

    def __init__(self, value: int, context: str = "p"):
        self.value = value
        super().__init__(f"{context} must be prime, got {value}")


class ExprSyntaxError(ValueError):
    """Malformed factored-integer expression; `position` is a 0-based index."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class SearchBudgetError(RuntimeError):
    """An exhaustive search or scan exceeded its configured budget."""
