"""Stabilizer-circuit substrate: Pauli algebra, circuit IR, samplers, DEMs.

This subpackage is the in-repo replacement for the Stim simulator used by the
original paper (see the README's opening paragraph).
"""

from .circuit import Circuit, Instruction, MeasurementTracker
from .dem import DemError, DetectorErrorModel, build_detector_error_model
from .frame import DetectorSamples, FrameSimulator, sample_detectors
from .packed import (
    PackedDetectorSamples,
    PackedFrameSimulator,
    sample_detectors_packed,
)
from .pauli import PauliString, batch_commutes, commutes, pauli_product
from .tableau import TableauSimulator

__all__ = [
    "Circuit",
    "Instruction",
    "MeasurementTracker",
    "DemError",
    "DetectorErrorModel",
    "build_detector_error_model",
    "DetectorSamples",
    "FrameSimulator",
    "sample_detectors",
    "PackedDetectorSamples",
    "PackedFrameSimulator",
    "sample_detectors_packed",
    "PauliString",
    "pauli_product",
    "commutes",
    "batch_commutes",
    "TableauSimulator",
]
