"""Verified distribution oracles and tolerant property arguments."""

__version__ = "0.1.0"
