"""Exception hierarchy shared across the pipeline stages."""


class CrowdSeriesError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CrowdSeriesError):
    """A record or value violates a field invariant."""

    def __init__(self, message, field=None, row=None):
        super().__init__(message)
        self.field = field
        self.row = row


class SchemaError(CrowdSeriesError):
    """CSV header does not match the expected column layout."""


class DegenerateMaskError(CrowdSeriesError):
    """Polygon mask rasterizes to an empty pixel set."""

    interval = None  # start of the interval holding the mask, once known


class AlignmentError(CrowdSeriesError):
    """Window boundaries are not aligned to the interval step."""


class InsufficientDataError(CrowdSeriesError):
    """Not enough data for the requested operation, including none at all."""


class ConfigurationError(CrowdSeriesError):
    """Mutually inconsistent configuration values."""

