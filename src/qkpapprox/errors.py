"""Shared exception types."""


class CapacityError(RuntimeError):
    """An exact solver was asked to exceed its configured size budget."""


class InvalidInstanceError(ValueError):
    """A QkpInstance's fields break a QKP condition (see QkpInstance)."""
