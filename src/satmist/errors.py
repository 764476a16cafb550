"""Shared exception types."""


class ConfigurationError(ValueError):
    """Raised for invalid configuration values, files, or CLI inputs."""
