"""Exception taxonomy shared across the package.

The CLI maps these onto exit statuses: config errors -> 2, input/format
errors -> 3, staleness -> 4. Contract and dimension errors indicate caller
bugs and are not expected to surface from a correct pipeline.
"""


class IisanError(Exception):
    """Base class for all package errors."""


class ConfigError(IisanError):
    """Invalid or infeasible configuration value."""


class InputError(IisanError):
    """Bad runtime input (tokens, files, datasets)."""


class ContractError(IisanError):
    """An internal API precondition was violated."""


class DimensionError(IisanError):
    """Operand shapes are incompatible; message names both shapes."""


class FormatError(InputError):
    """Malformed binary file. Carries the byte offset of the violation."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class VersionError(FormatError):
    """File declares a format version this code does not understand."""


class StalenessError(IisanError):
    """On-disk artifact does not match the encoder that should have produced it,
    or lacks an item of the data it should cover."""
