"""Shared exception types, and where the package's warnings point."""

import os
import sys


class ConfigurationError(ValueError):
    """Raised for invalid simulation parameters.

    ``fields`` lists the names of the checked values as the message spells
    them (SimulationConfig field names where the value is one), so a front end
    can put its own names for them.
    """

    def __init__(self, message: str, *fields: str) -> None:
        super().__init__(message)
        self.fields = fields


class ConfigurationWarning(UserWarning):
    """Warned for a valid parameter that has no effect; ``fields`` as in
    ConfigurationError."""

    def __init__(self, message: str, *fields: str) -> None:
        super().__init__(message)
        self.fields = fields


class DataError(ValueError):
    """Raised for simulation data that is inconsistent or too large for the engine's arrays."""


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep
# Modules whose frames a warning skips besides those of the package's files:
# the package's own, for the dataclass-generated methods of its classes (they
# run in their class's module, from no file), and dataclasses', whose
# replace() calls a generated __init__.
_INSIDE = (__name__.partition(".")[0], "dataclasses")


def _outside_package() -> int:
    """The ``stacklevel`` that makes a warning issued by the caller report the
    nearest frame outside this package: the line that called into it, such as
    ``split_groups(...)`` or ``scenario_config(...)``, not a line in between."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and (
        frame.f_code.co_filename.startswith(_PACKAGE_DIR)
        or frame.f_globals.get("__name__", "").partition(".")[0] in _INSIDE
    ):
        level, frame = level + 1, frame.f_back
    return level
