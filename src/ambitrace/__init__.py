"""Ambiguity-aware interval and ordinal representations for emotion traces.

The package defines no names of its own beyond ``__version__``: each one
is imported from the module that defines it (``ambitrace.metrics``,
``ambitrace.representations``, ...).  A plain ``import ambitrace`` loads
no numpy and leaves the process as it found it.
"""

__version__ = "0.1.0"
