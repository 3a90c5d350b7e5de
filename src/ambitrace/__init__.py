"""Ambiguity-aware interval and ordinal representations for emotion traces.

The package defines no names of its own beyond ``__version__``: each one
is imported from the module that defines it (``ambitrace.metrics``,
``ambitrace.representations``, ...).  A plain ``import ambitrace`` loads
no numpy and leaves the process as it found it.

Nor do ``ambitrace.cli``, ``ambitrace.data_io`` (settings and manifests)
and ``ambitrace.report`` load numpy: only ``synth``, ``represent`` and
``train-eval`` do, inside the command, through ``ambitrace.pipeline``.
Starting the CLI and reading a manifest takes about half the time it took
when every command loaded numpy (the README gives the figures).
"""

__version__ = "0.1.0"
