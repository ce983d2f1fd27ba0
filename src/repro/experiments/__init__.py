"""Experiment drivers and per-figure reproduction entry points."""

from .cutoff import CutoffPoint, CutoffStudy, run_cutoff_study
from .memory import (
    logical_error_rate_curve,
    run_memory_experiment,
    run_stability_experiment,
)
from .slope import PatchSlopeRecord, SlopeStudy, estimate_slope, sample_defective_patches

__all__ = [
    "CutoffPoint",
    "CutoffStudy",
    "run_cutoff_study",
    "logical_error_rate_curve",
    "run_memory_experiment",
    "run_stability_experiment",
    "PatchSlopeRecord",
    "SlopeStudy",
    "estimate_slope",
    "sample_defective_patches",
]
