"""East model simulation and verification laboratory."""

__version__ = "0.1.0"
