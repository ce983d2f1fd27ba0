"""Stabilizer-circuit substrate: Pauli algebra, circuit IR, samplers, DEMs.

This subpackage is the in-repo replacement for the Stim simulator used by the
original paper (see the README's opening paragraph).
"""

from .circuit import Circuit, Instruction
from .dem import DemError, DetectorErrorModel, build_detector_error_model
from .packed import (
    PackedDetectorSamples,
    PackedFrameSimulator,
    noiseless_deterministic,
)
from .pauli import PauliString, batch_commutes, commutes, pauli_product

__all__ = [
    "Circuit",
    "Instruction",
    "DemError",
    "DetectorErrorModel",
    "build_detector_error_model",
    "PackedDetectorSamples",
    "PackedFrameSimulator",
    "noiseless_deterministic",
    "PauliString",
    "pauli_product",
    "commutes",
    "batch_commutes",
]
