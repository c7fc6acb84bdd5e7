"""Accelerated rare-event evaluation of automated vehicles in cut-in scenarios.

Sample stochastic lane-change cut-ins from fitted naturalistic
statistics, drive a simulated ACC/AEB vehicle through them, and estimate
conflict, crash and injury rates by importance sampling with tilts found
through cross-entropy search.

The modules are the API; the package root exports only ``load_config``
and ``__version__``.  Importing the root loads no submodule:
``load_config`` loads the config layer on first use (PEP 562).  No run
path loads numpy; only ``accel-eval fit`` (``ingest``) does.
"""

__version__ = "0.1.0"

__all__ = ["__version__", "load_config"]


def __getattr__(name):
    if name == "load_config":
        from .config import load_config

        globals()[name] = load_config
        return load_config
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
