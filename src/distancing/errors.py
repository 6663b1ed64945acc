"""Exception types shared across the package."""


class DistancingError(Exception):
    """Base class for all package errors."""


class DomainError(DistancingError):
    """A model function was called outside its mathematical domain."""


class ClassificationError(DistancingError):
    """An occupation profile is missing data needed for classification."""


class IngestionError(DistancingError):
    """An input file or record is malformed or inconsistent."""


class CalibrationError(DistancingError):
    """Calibration inputs are degenerate or a calibration check failed."""


class ConfigError(DistancingError):
    """The run configuration is invalid: bad value or missing file."""
