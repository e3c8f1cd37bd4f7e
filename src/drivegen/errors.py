"""Exception types shared across the package."""


class DrivegenError(Exception):
    """Base class for all package errors."""


class ParseError(DrivegenError):
    """Input file is not syntactically valid (e.g. malformed JSON)."""


class SchemaError(DrivegenError):
    """Input parses but does not match the expected schema; names the field."""


class ValidationError(DrivegenError):
    """A domain invariant is violated; names the invariant."""


class ConfigError(DrivegenError):
    """A configuration value is out of its allowed range."""


class RolloutError(DrivegenError):
    """Rollout preconditions violated (dt mismatch, out-of-range window)."""


class FitError(DrivegenError):
    """Curve fit preconditions violated (rank deficiency, bad domain)."""
