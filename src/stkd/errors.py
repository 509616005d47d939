"""Exception types shared across the package."""


class StkdError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(StkdError, ValueError):
    """A caller-supplied argument violates a documented precondition."""


class DataQualityError(StkdError):
    """Input data is too corrupt to ingest (carries counts in the message)."""


class GeohashParseError(StkdError, ValueError):
    """A geohash string could not be decoded."""


class ConsistencyError(StkdError):
    """Cross-structure invariant violated (e.g. unregistered vocab id)."""


class InvalidSampleError(StkdError):
    """A sample cannot be scored (e.g. all positions are padding)."""


class VocabMismatchError(StkdError):
    """Checkpoint or cache was built against a different vocabulary."""


class ConfigError(StkdError):
    """A configuration is structurally invalid or infeasible."""
