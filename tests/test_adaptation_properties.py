"""Property tests for the physics chain: defect set → adapted patch →
memory circuit → detector error model.

Hypothesis draws seeded random defect sets for d = 3..9 under both defect
models.  Every adapted patch must either be marked invalid with a reason or
pass its invariants.  Every usable patch — one :func:`evaluate_patch` gives
a logical path in both bases, which is what the engine requires before it
builds a circuit — must yield a memory circuit whose detectors and
observables are deterministic without noise, and whose DEM is graph-like
(what the matching decoder requires).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import adapt_patch, evaluate_patch
from repro.noise import LINK_AND_QUBIT, LINK_ONLY, DefectModel
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.stabilizer import noiseless_deterministic
from repro.stabilizer.dem import build_detector_error_model
from repro.surface_code import RotatedSurfaceCodeLayout, build_memory_circuit

_NOISE = CircuitNoiseModel.standard(1e-3)

# The one invariant adapt_patch does not yet enforce: heavily defected
# patches can stay ``valid`` while encoding no logical qubit (pinned by
# test_patch_without_logical_qubit_is_marked_invalid below).
_NO_LOGICAL = "patch encodes no logical qubit at all"


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(distance=st.integers(3, 9),
       kind=st.sampled_from([LINK_ONLY, LINK_AND_QUBIT]),
       rate=st.sampled_from([0.005, 0.01, 0.02, 0.04]),
       seed=st.integers(0, 2**32 - 1))
def test_adapted_patches_are_sound_through_to_the_dem(distance, kind, rate, seed):
    layout = RotatedSurfaceCodeLayout(distance)
    patch = adapt_patch(layout, DefectModel(kind, rate).sample(layout, seed))
    if not patch.valid:
        assert patch.failure_reason
        return
    problems = patch.check_invariants()
    assert set(problems) <= {_NO_LOGICAL}, problems
    if problems or not evaluate_patch(patch).valid:
        return
    circuit = build_memory_circuit(patch, _NOISE)
    assert noiseless_deterministic(circuit)
    dem = build_detector_error_model(circuit)
    assert all(error.is_graphlike() for error in dem)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="adapt_patch keeps patches that encode no logical "
                          "qubit valid")
@pytest.mark.parametrize("distance,kind,seed", [
    (3, LINK_ONLY, 0),        # evaluate_patch reports distance_z = 0
    (5, LINK_AND_QUBIT, 12),  # evaluate_patch reports distance 3 and valid
])
def test_patch_without_logical_qubit_is_marked_invalid(distance, kind, seed):
    layout = RotatedSurfaceCodeLayout(distance)
    patch = adapt_patch(layout, DefectModel(kind, 0.03).sample(layout, seed))
    if patch.num_logical_qubits() != 0:
        raise RuntimeError("the pinned defect set now encodes a logical qubit")
    assert not patch.valid
