"""Shared exception types."""


class ConfigurationError(ValueError):
    """Raised for invalid simulation parameters.

    ``fields`` lists the names of the checked values as the message spells
    them (SimulationConfig or AgingCurve attribute names where the value is
    one), so a front end can put its own names for them.
    """

    def __init__(self, message: str, *fields: str) -> None:
        super().__init__(message)
        self.fields = fields


class DataError(ValueError):
    """Raised for simulation data that is inconsistent or too large for the engine's arrays."""
