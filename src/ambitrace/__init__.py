"""Ambiguity-aware interval and ordinal representations for emotion traces.

The public names below are imported on first use (PEP 562), so a plain
``import ambitrace`` loads no numpy and leaves the process as it found it.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "TraceSet": "traces",
    "central_difference": "traces",
    "shift_delay": "traces",
    "window_aggregate": "traces",
    "WindowFits": "representations",
    "fit_gaussian": "representations",
    "fit_beta": "representations",
    "interval_representation": "representations",
    "individual_ordinal": "representations",
    "group_ordinal": "representations",
    "ccc": "metrics",
    "sda": "metrics",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
