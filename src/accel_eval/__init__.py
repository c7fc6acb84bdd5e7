"""Accelerated rare-event evaluation of automated vehicles in cut-in scenarios.

Sample stochastic lane-change cut-ins from fitted naturalistic
statistics, drive a simulated ACC/AEB vehicle through them, and estimate
conflict, crash and injury rates by importance sampling with tilts found
through cross-entropy search.

The modules are the API; the package root exports only ``load_config``
and ``__version__``.
"""

__version__ = "0.1.0"

from .config import load_config

__all__ = ["__version__", "load_config"]
