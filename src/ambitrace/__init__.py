"""Ambiguity-aware interval and ordinal representations for emotion traces."""

from .metrics import ccc, ccc_loss, sda
from .representations import (
    GroupOrdinal,
    WindowFits,
    fit_beta,
    fit_gaussian,
    group_ordinal,
    individual_ordinal,
    interval_representation,
)
from .traces import (
    AnnotationTrace,
    TraceSet,
    align,
    central_difference,
    shift_delay,
    window_aggregate,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotationTrace",
    "TraceSet",
    "align",
    "central_difference",
    "shift_delay",
    "window_aggregate",
    "WindowFits",
    "GroupOrdinal",
    "fit_gaussian",
    "fit_beta",
    "interval_representation",
    "individual_ordinal",
    "group_ordinal",
    "ccc",
    "ccc_loss",
    "sda",
    "__version__",
]
