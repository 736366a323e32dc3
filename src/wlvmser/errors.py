"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid model, source, or protocol configuration."""


class ProtocolError(RuntimeError):
    """A measurement procedure met a condition it cannot recover from."""


class DegenerateFitError(ValueError):
    """Regression input cannot determine a line (fewer than two distinct x)."""


class IngestError(ValueError):
    """Malformed measurement file; message carries the offending line."""
