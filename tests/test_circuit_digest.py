"""Golden digest of what the syndrome-circuit builder's circuits mean.

The builder may change how it lays out instructions (how many, how they are
grouped), but never what a circuit does.  One sha256 pins, for a fixed set
of memory and stability circuits that include bad qubits and reset noise:

* the detector and observable lists and the qubit/measurement counts;
* the DEM with and without decomposition (every key and the ``float.hex``
  of every probability);
* exact-mode and bitgen-mode samples (packed bytes, fixed seeds);
* exact-mode samples through the stepwise trace path.
"""

import hashlib
from dataclasses import replace

from repro.core import adapt_patch
from repro.noise import LINK_AND_QUBIT, CircuitNoiseModel, DefectModel, DefectSet
from repro.stabilizer import PackedFrameSimulator, build_detector_error_model
from repro.surface_code import (
    RotatedSurfaceCodeLayout,
    StabilityLayout,
    build_memory_circuit,
    build_stability_circuit,
)

#: sha256 of :func:`_circuit_records` over :func:`_circuits`.
GOLDEN_CIRCUIT_DIGEST = "68177d26fa6fd29a321cec25df8fdda5d4ea7f1ae78eef18dfeed52860a69b08"

_SHOTS = 2048
_TRACED_SHOTS = 64


def _defective_patch(width: int):
    """The first seeded 1% LINK_AND_QUBIT sample with defects and a valid patch."""
    layout = RotatedSurfaceCodeLayout(width)
    model = DefectModel(LINK_AND_QUBIT, 0.01)
    for seed in range(1000):
        defects = model.sample(layout, seed)
        if not (defects.faulty_qubits or defects.faulty_links):
            continue
        patch = adapt_patch(layout, defects)
        if patch.valid:
            return patch
    raise AssertionError(f"no valid defective patch at width {width}")


def _with_bad_qubits(patch, noise: CircuitNoiseModel) -> CircuitNoiseModel:
    """One bad data qubit and one bad ancilla, plus reset noise."""
    noise = replace(noise, reset_factor=0.5)
    noise = noise.with_bad_qubit(sorted(patch.active_data)[len(patch.active_data) // 2], 0.05)
    return noise.with_bad_qubit(sorted(patch.active_ancillas)[1], 0.02)


def _circuits():
    clean4 = adapt_patch(RotatedSurfaceCodeLayout(4), DefectSet.of())
    clean5 = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of())
    adapted5 = _defective_patch(5)
    adapted7 = _defective_patch(7)
    yield build_memory_circuit(clean4, CircuitNoiseModel.standard(1e-3))
    yield build_memory_circuit(clean5, _with_bad_qubits(clean5, CircuitNoiseModel.standard(2e-3)))
    yield build_memory_circuit(adapted5, CircuitNoiseModel.standard(2e-3))
    yield build_memory_circuit(adapted7, _with_bad_qubits(adapted7, CircuitNoiseModel.standard(1e-3)))
    yield build_memory_circuit(clean4, CircuitNoiseModel.standard(2e-3), detector_basis="both")
    stab = adapt_patch(StabilityLayout(4), DefectSet.of())
    yield build_stability_circuit(stab, CircuitNoiseModel.standard(2e-3), 3)
    holed = adapt_patch(StabilityLayout(6), DefectSet.of(qubits=[(5, 5)]))
    yield build_stability_circuit(holed, _with_bad_qubits(holed, CircuitNoiseModel.standard(1e-3)), 4)


def _dem_record(circuit, decompose: bool) -> str:
    dem = build_detector_error_model(circuit, decompose)
    return repr((dem.num_detectors, dem.num_observables,
                 [(e.detectors, e.observables, e.probability.hex()) for e in dem]))


def _sample_bytes(circuit, shots: int, seed: int, rng_mode: str, traced: bool) -> bytes:
    sim = PackedFrameSimulator(circuit, seed=seed, rng_mode=rng_mode)
    trace = (lambda *_: None) if traced else None
    samples = sim.sample(shots, trace=trace)
    return samples.detectors_packed.tobytes() + samples.observables_packed.tobytes()


def _circuit_records(circuit):
    yield repr((circuit.num_qubits, circuit.num_measurements,
                circuit.detectors(), sorted(circuit.observables().items()))).encode()
    yield _dem_record(circuit, True).encode()
    yield _dem_record(circuit, False).encode()
    yield _sample_bytes(circuit, _SHOTS, 7, "exact", traced=False)
    yield _sample_bytes(circuit, _SHOTS, 7, "bitgen", traced=False)
    yield _sample_bytes(circuit, _TRACED_SHOTS, 11, "exact", traced=True)


def circuit_digest() -> str:
    h = hashlib.sha256()
    for circuit in _circuits():
        for record in _circuit_records(circuit):
            h.update(record)
    return h.hexdigest()


def test_circuit_golden_digest():
    assert circuit_digest() == GOLDEN_CIRCUIT_DIGEST
