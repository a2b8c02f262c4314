"""Shared exception types."""

__all__ = ["BudgetExceeded", "SpecError"]


class BudgetExceeded(RuntimeError):
    """A search hit its node-count ceiling before completing.

    Raised instead of returning a truncated result: a partial size set is
    indistinguishable from a wrong one.
    """


class SpecError(ValueError):
    """A group-spec document is malformed or uses an unknown construction."""
