"""Tests for detector-error-model extraction.

Besides the physics checks, two pins hold the builder to exact output:

* ``GOLDEN_DEM_DIGEST`` hashes the full DEM (every key and the ``float.hex``
  of every probability, in output order) over a seeded grid of adapted
  patches and noise models;
* ``TestOracleEquivalence`` compares the builder with ``_oracle_build``, a
  frozen copy of the per-component set-XOR loop it replaced, on random
  circuits that exercise every instruction the propagation handles.
"""

import hashlib
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import adapt_patch
from repro.noise import LINK_AND_QUBIT, CircuitNoiseModel, DefectModel, DefectSet
from repro.stabilizer import Circuit, PackedFrameSimulator, build_detector_error_model
from repro.stabilizer import packed
from repro.stabilizer.dem import DemError, _xor_combine
from repro.surface_code import RotatedSurfaceCodeLayout, build_memory_circuit


def _two_bit_repetition(p_data: float, p_meas: float) -> Circuit:
    """Two data qubits, one parity ancilla, two rounds."""
    c = Circuit(3)
    c.append("R", [0, 1, 2])
    for r in range(2):
        c.append("X_ERROR", [0, 1], p_data)
        c.append("CX", [0, 2, 1, 2])
        c.append("X_ERROR", [2], p_meas)
        c.append("MR", [2])
        if r == 0:
            c.append("DETECTOR", [0])
        else:
            c.append("DETECTOR", [0, 1])
    c.append("M", [0, 1])
    c.append("DETECTOR", [2, 3, 1])
    c.append("OBSERVABLE_INCLUDE", [2], 0)
    return c


class TestSmallCircuits:
    def test_no_noise_gives_empty_dem(self):
        dem = build_detector_error_model(_two_bit_repetition(0.0, 0.0))
        assert len(dem) == 0

    def test_measurement_error_creates_time_edge(self):
        dem = build_detector_error_model(_two_bit_repetition(0.0, 0.01))
        # A flip of the round-0 ancilla measurement flips detectors 0 and 1.
        assert any(e.detectors == (0, 1) and not e.observables for e in dem)

    def test_data_error_flips_observable(self):
        dem = build_detector_error_model(_two_bit_repetition(0.01, 0.0))
        assert any(e.observables == (0,) for e in dem)

    def test_probabilities_combine_with_xor_rule(self):
        c = Circuit(1)
        c.append("R", [0])
        c.append("X_ERROR", [0], 0.1)
        c.append("X_ERROR", [0], 0.2)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = build_detector_error_model(c)
        assert len(dem) == 1
        assert dem.errors[0].probability == pytest.approx(_xor_combine(0.1, 0.2))

    def test_xor_combine_values(self):
        assert _xor_combine(0.0, 0.3) == pytest.approx(0.3)
        assert _xor_combine(0.5, 0.5) == pytest.approx(0.5)

    def test_depolarize1_splits_into_basis_mechanisms(self):
        c = Circuit(1)
        c.append("R", [0])
        c.append("DEPOLARIZE1", [0], 0.03)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = build_detector_error_model(c)
        # Only the X and Y components are visible; they merge into one edge of
        # probability ~2p/3 (the XOR-combination rule differs from the exact
        # mutually-exclusive value only at second order in p).
        assert len(dem) == 1
        assert dem.errors[0].probability == pytest.approx(2 * 0.03 / 3, rel=2e-2)

    def test_error_with_zero_probability_dropped(self):
        c = Circuit(1)
        c.append("R", [0])
        c.append("X_ERROR", [0], 0.0)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        assert len(build_detector_error_model(c)) == 0

    def test_demerror_graphlike(self):
        assert DemError(0.1, (1, 2), ()).is_graphlike()
        assert not DemError(0.1, (1, 2, 3), ()).is_graphlike()


class TestSurfaceCodeDems:
    @pytest.fixture(scope="class")
    def defect_free_dem(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        circuit = build_memory_circuit(patch, CircuitNoiseModel.standard(1e-3))
        return build_detector_error_model(circuit)

    def test_all_errors_are_graphlike(self, defect_free_dem):
        assert all(e.is_graphlike() for e in defect_free_dem)

    def test_no_undetectable_logical_errors(self, defect_free_dem):
        """A distance-3 circuit must not contain weight-1 logical errors."""
        assert defect_free_dem.undetectable_logical_errors() == []

    def test_probabilities_in_range(self, defect_free_dem):
        assert all(0 < e.probability < 0.5 for e in defect_free_dem)

    def test_union_bound_reasonable(self, defect_free_dem):
        assert 0 < defect_free_dem.total_error_probability_bound() <= 1.0

    def test_detector_indices_in_range(self, defect_free_dem):
        for e in defect_free_dem:
            assert all(0 <= d < defect_free_dem.num_detectors for d in e.detectors)

    def test_superstabilizer_patch_dem_has_no_undetectable_logicals(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of(qubits=[(5, 5)]))
        circuit = build_memory_circuit(patch, CircuitNoiseModel.standard(1e-3))
        dem = build_detector_error_model(circuit)
        assert dem.undetectable_logical_errors() == []
        assert all(e.is_graphlike() for e in dem)

    def test_hyperedges_kept_when_not_decomposing(self):
        # With detectors of both bases a Y fault flips more than two of them.
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        circuit = build_memory_circuit(patch, CircuitNoiseModel.standard(1e-3),
                                       detector_basis="both")
        hyper = build_detector_error_model(circuit, decompose=False)
        assert any(len(e.detectors) > 2 for e in hyper)
        graphlike = build_detector_error_model(circuit)
        assert all(len(e.detectors) <= 2 for e in graphlike)


# ----------------------------------------------------------------------
# Golden digest
# ----------------------------------------------------------------------
#: sha256 of the grid below, computed with the per-component set-XOR loop.
GOLDEN_DEM_DIGEST = "e165eb738d7fd90eae512f706ba313f6ad1ceee135fb7265e58c54e57c7b3e31"


def _dem_record(dem) -> str:
    return repr((dem.num_detectors, dem.num_observables,
                 [(e.detectors, e.observables, e.probability.hex()) for e in dem]))


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


def _golden_grid():
    """(circuit, decompose) pairs covered by the golden digest."""
    for width in range(3, 8):
        clean = adapt_patch(RotatedSurfaceCodeLayout(width), DefectSet.of())
        for patch in (clean, _defective_patch(width)):
            for p in (1e-3, 2e-3):
                yield build_memory_circuit(patch, CircuitNoiseModel.standard(p)), True
    patch = _defective_patch(5)
    noisy = replace(CircuitNoiseModel.standard(1e-3), reset_factor=0.5)
    noisy = noisy.with_bad_qubit(patch.layout.data_qubits[7], 1e-2)
    circuit = build_memory_circuit(patch, noisy)
    yield circuit, True
    yield circuit, False
    # Detectors of both bases give hyperedges, so decomposition is exercised.
    for patch in (adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of()),
                  _defective_patch(4)):
        circuit = build_memory_circuit(patch, CircuitNoiseModel.standard(2e-3),
                                       detector_basis="both")
        yield circuit, True
        yield circuit, False


def dem_digest() -> str:
    h = hashlib.sha256()
    for circuit, decompose in _golden_grid():
        h.update(_dem_record(build_detector_error_model(circuit, decompose)).encode())
    return h.hexdigest()


def test_dem_golden_digest():
    assert dem_digest() == GOLDEN_DEM_DIGEST


# ----------------------------------------------------------------------
# Frozen oracle: the per-component set-XOR loop the array pipeline replaced
# ----------------------------------------------------------------------
_ORACLE_DEP2: List[Tuple[int, ...]] = []
for _code in range(1, 16):
    _pa, _pb = _code // 4, _code % 4
    members = []
    if _pa in (1, 2):
        members.append(0)
    if _pa in (2, 3):
        members.append(1)
    if _pb in (1, 2):
        members.append(2)
    if _pb in (2, 3):
        members.append(3)
    _ORACLE_DEP2.append(tuple(members))


def _oracle_enumerate(circuit: Circuit):
    basis_faults: List[Tuple[int, int, str]] = []
    components: List[Tuple[float, Tuple[int, ...]]] = []

    for idx, inst in enumerate(circuit.instructions):
        name = inst.name
        p = inst.arg
        if p == 0.0 and name in ("X_ERROR", "Z_ERROR", "Y_ERROR",
                                 "DEPOLARIZE1", "DEPOLARIZE2"):
            continue
        if name == "X_ERROR":
            for q in inst.targets:
                fid = len(basis_faults)
                basis_faults.append((idx, q, "X"))
                components.append((p, (fid,)))
        elif name == "Z_ERROR":
            for q in inst.targets:
                fid = len(basis_faults)
                basis_faults.append((idx, q, "Z"))
                components.append((p, (fid,)))
        elif name == "Y_ERROR":
            for q in inst.targets:
                fx = len(basis_faults)
                basis_faults.append((idx, q, "X"))
                fz = len(basis_faults)
                basis_faults.append((idx, q, "Z"))
                components.append((p, (fx, fz)))
        elif name == "DEPOLARIZE1":
            for q in inst.targets:
                fx = len(basis_faults)
                basis_faults.append((idx, q, "X"))
                fz = len(basis_faults)
                basis_faults.append((idx, q, "Z"))
                components.append((p / 3, (fx,)))        # X
                components.append((p / 3, (fx, fz)))     # Y
                components.append((p / 3, (fz,)))        # Z
        elif name == "DEPOLARIZE2":
            for a, b in inst.target_pairs():
                base = len(basis_faults)
                basis_faults.append((idx, a, "X"))
                basis_faults.append((idx, a, "Z"))
                basis_faults.append((idx, b, "X"))
                basis_faults.append((idx, b, "Z"))
                for comp in _ORACLE_DEP2:
                    components.append((p / 15, tuple(base + m for m in comp)))
    return basis_faults, components


def _oracle_propagate(circuit: Circuit, basis_faults: Sequence[Tuple[int, int, str]]):
    n = circuit.num_qubits
    f = len(basis_faults)
    x = np.zeros((n, f), dtype=bool)
    z = np.zeros((n, f), dtype=bool)
    meas = np.zeros((circuit.num_measurements, f), dtype=bool)
    det = np.zeros((circuit.num_detectors, f), dtype=bool)
    obs = np.zeros((max(circuit.num_observables, 1), f), dtype=bool)

    inject: Dict[int, List[Tuple[int, int, str]]] = {}
    for fid, (idx, q, pauli) in enumerate(basis_faults):
        inject.setdefault(idx, []).append((fid, q, pauli))

    m_idx = 0
    d_idx = 0
    for idx, inst in enumerate(circuit.instructions):
        name = inst.name
        if idx in inject:
            for fid, q, pauli in inject[idx]:
                if pauli == "X":
                    x[q, fid] = True
                else:
                    z[q, fid] = True
        if name == "CX":
            for c, t in inst.target_pairs():
                x[t] ^= x[c]
                z[c] ^= z[t]
        elif name == "H":
            for q in inst.targets:
                x[q], z[q] = z[q].copy(), x[q].copy()
        elif name == "CZ":
            for a, b in inst.target_pairs():
                z[a] ^= x[b]
                z[b] ^= x[a]
        elif name == "S":
            for q in inst.targets:
                z[q] ^= x[q]
        elif name in ("R", "RX"):
            for q in inst.targets:
                x[q] = False
                z[q] = False
        elif name == "M":
            for q in inst.targets:
                meas[m_idx] = x[q]
                m_idx += 1
        elif name == "MX":
            for q in inst.targets:
                meas[m_idx] = z[q]
                m_idx += 1
        elif name == "MR":
            for q in inst.targets:
                meas[m_idx] = x[q]
                x[q] = False
                z[q] = False
                m_idx += 1
        elif name == "DETECTOR":
            acc = np.zeros(f, dtype=bool)
            for mi in inst.targets:
                acc ^= meas[mi]
            det[d_idx] = acc
            d_idx += 1
        elif name == "OBSERVABLE_INCLUDE":
            o = int(inst.arg)
            for mi in inst.targets:
                obs[o] ^= meas[mi]
    return det, obs[: circuit.num_observables]


def _oracle_build(circuit: Circuit, decompose: bool = True):
    basis_faults, components = _oracle_enumerate(circuit)
    if not basis_faults:
        return circuit.num_detectors, circuit.num_observables, []
    det_sig, obs_sig = _oracle_propagate(circuit, basis_faults)

    basis_dets: List[Tuple[int, ...]] = []
    basis_obs: List[Tuple[int, ...]] = []
    for fid in range(len(basis_faults)):
        basis_dets.append(tuple(int(i) for i in np.flatnonzero(det_sig[:, fid])))
        basis_obs.append(tuple(int(i) for i in np.flatnonzero(obs_sig[:, fid])))

    accumulated: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], float] = {}

    def _add(dets, obs, p):
        if not dets and not obs:
            return
        key = (dets, obs)
        accumulated[key] = _xor_combine(accumulated.get(key, 0.0), p)

    for p, fault_ids in components:
        if p <= 0.0:
            continue
        det_acc: set[int] = set()
        obs_acc: set[int] = set()
        for fid in fault_ids:
            det_acc ^= set(basis_dets[fid])
            obs_acc ^= set(basis_obs[fid])
        dets = tuple(sorted(det_acc))
        obs = tuple(sorted(obs_acc))
        if len(dets) <= 2 or not decompose:
            _add(dets, obs, p)
        else:
            for fid in fault_ids:
                _add(basis_dets[fid], basis_obs[fid], p)

    errors = [(dets, obs, pv.hex()) for (dets, obs), pv in sorted(accumulated.items())
              if pv > 0.0]
    return circuit.num_detectors, circuit.num_observables, errors


def _exact(dem) -> tuple:
    return (dem.num_detectors, dem.num_observables,
            [(e.detectors, e.observables, e.probability.hex()) for e in dem])


# Channel probabilities: zero, the smallest subnormal (p / 3 and p / 15
# round to 0, so those components drop), values shared between channels (so
# keys repeat with equal p) and p = 1, whose repeats fold to 0 and drop.
_PROBS = st.sampled_from([0.0, 5e-324, 1e-300, 1e-3, 1e-3, 0.01, 0.1, 0.3, 0.5, 1.0])
_ONE_QUBIT = ("H", "S", "R", "RX", "M", "MX", "MR",
              "X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1")
_TWO_QUBIT = ("CX", "CZ", "DEPOLARIZE2")


@st.composite
def random_circuits(draw):
    """Small valid circuits over every instruction the propagation handles."""
    n = draw(st.integers(1, 5))
    c = Circuit(n)
    c.append("R", range(n))
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(("one", "one", "two", "det", "obs")))
        if kind == "two" and n < 2:
            kind = "one"
        if kind == "one":
            name = draw(st.sampled_from(_ONE_QUBIT))
            qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
            p = draw(_PROBS) if name.endswith(("ERROR", "DEPOLARIZE1")) else 0.0
            c.append(name, qubits, p)
        elif kind == "two":
            name = draw(st.sampled_from(_TWO_QUBIT))
            pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                  .filter(lambda ab: ab[0] != ab[1]), min_size=1, max_size=2))
            p = draw(_PROBS) if name == "DEPOLARIZE2" else 0.0
            c.append(name, [q for ab in pairs for q in ab], p)
        elif c.num_measurements:
            refs = draw(st.lists(st.integers(0, c.num_measurements - 1),
                                 min_size=1, max_size=4))
            if kind == "det":
                c.append("DETECTOR", refs)
            else:
                c.append("OBSERVABLE_INCLUDE", refs, draw(st.integers(0, 1)))
    c.append("M", range(n))
    for q in range(n):
        c.append("DETECTOR", [c.num_measurements - n + q])
    return c


class TestOracleEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(circuit=random_circuits(), decompose=st.booleans())
    def test_random_circuits_match_oracle(self, circuit, decompose):
        got = _exact(build_detector_error_model(circuit, decompose))
        assert got == _oracle_build(circuit, decompose)

    @pytest.mark.parametrize("decompose", [True, False])
    def test_adapted_patch_matches_oracle(self, decompose):
        circuit = build_memory_circuit(_defective_patch(4), CircuitNoiseModel.standard(2e-3),
                                       detector_basis="both")
        got = _exact(build_detector_error_model(circuit, decompose))
        assert got == _oracle_build(circuit, decompose)

    def test_repeated_key_folds_in_event_order(self):
        """The XOR fold is applied in event order, not summed or reordered."""
        c = Circuit(1)
        c.append("R", [0])
        for p in (0.1, 0.3, 0.2, 0.45):
            c.append("X_ERROR", [0], p)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        want = 0.0
        for p in (0.1, 0.3, 0.2, 0.45):
            want = _xor_combine(want, p)
        (err,) = build_detector_error_model(c).errors
        assert err.probability.hex() == want.hex()


class TestSharedProgram:
    """The DEM builder and the sampler run one memoised lowering of a circuit."""

    def test_dem_then_sampler_compiles_once(self, monkeypatch):
        calls = []
        compile_program = packed._compile_program

        def counting(circuit, fuse):
            calls.append(fuse)
            return compile_program(circuit, fuse)

        monkeypatch.setattr(packed, "_compile_program", counting)
        c = _two_bit_repetition(0.01, 0.02)
        build_detector_error_model(c)
        PackedFrameSimulator(c, seed=1).sample(100)
        PackedFrameSimulator(c, seed=2, rng_mode="bitgen").sample(100)
        assert calls == [True]

    @pytest.mark.parametrize("rng_mode", ["exact", "bitgen"])
    def test_append_after_compiling_invalidates_the_memo(self, rng_mode):
        c = Circuit(2)
        c.append("R", [0, 1])
        c.append("X_ERROR", [0], 1.0)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        sim = PackedFrameSimulator(c, seed=3, rng_mode=rng_mode)
        assert [(e.detectors, e.probability) for e in build_detector_error_model(c)] \
            == [((0,), 1.0)]
        assert sim.sample(70).detectors.all(axis=0).tolist() == [True]
        c.append("X_ERROR", [1], 1.0)
        c.append("M", [1])
        c.append("DETECTOR", [1])
        assert [(e.detectors, e.probability) for e in build_detector_error_model(c)] \
            == [((0,), 1.0), ((1,), 1.0)]
        assert sim.sample(70).detectors.all(axis=0).tolist() == [True, True]
