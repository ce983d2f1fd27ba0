"""Detector-error-model (DEM) extraction from noisy stabilizer circuits.

A DEM is the decoder-facing summary of a noisy circuit: a list of independent
error mechanisms, each with a probability, the set of detectors it flips and
the set of logical observables it flips.  It plays the role of
``stim.Circuit.detector_error_model(decompose_errors=True)``.

Extraction strategy
-------------------
Pauli-frame propagation is linear over GF(2): the detector signature of a
product of Pauli faults is the XOR of the signatures of its factors.  The
builder runs as whole-array numpy in seven steps:

1. **Enumerate from templates.**  The builder reads the circuit through its
   fused sampler program (:func:`~repro.stabilizer.packed._compile_program`,
   memoised on the circuit and shared with the sampler).  Every noise-channel
   op expands per row (per target, per pair for ``dep2``) into fixed *basis
   faults* - single-qubit X or Z faults at that point of the program - and
   Pauli *components*, each a probability and up to four member basis faults:
   ``xerr`` / ``zerr`` 1 fault and 1 component, ``yerr`` 2 and 1, ``dep1``
   2 and 3 (X, Y, Z at ``p / 3``), ``dep2`` 4 and the 15 of
   :data:`_DEP2_COMPONENTS` at ``p / 15``.  One ``np.repeat`` expansion over
   all rows yields the fault and component arrays in circuit order.
2. **Propagate** all basis faults forward by running the same program on the
   fault axis: one bit per fault packed into ``uint64`` words, every
   draw-free op applied by the sampler's own frame kernel
   (:func:`~repro.stabilizer.packed._apply_frame_op`), and each op's faults
   injected just before the next op that reads or moves the frame.  The DEM
   and the Monte-Carlo sampler therefore give the circuit one meaning.
3. **Pack one signature row per basis fault** (plus an all-zero row that pads
   short member lists): detector bits in the leading words, observable bits
   in the trailing ones.
4. **Component signatures** are the XOR of their member rows; the number of
   flipped detectors is a popcount of the detector words alone.
5. **Expand into an ordered event list.**  With ``decompose=True`` a
   component that flips more than two detectors is replaced by its member
   basis faults, in member order, each at the component probability (the
   standard independent-decomposition approximation of matching decoders),
   so every mechanism of the DEM maps onto a matching-graph edge.  Events
   with ``p <= 0`` or an empty key are dropped.
6. **Group and fold.**  A stable lexicographic sort groups equal keys while
   keeping event order inside each group.  Probabilities fold with the XOR
   rule ``p <- p1 (1-p2) + p2 (1-p1)`` (:func:`_xor_combine`), one level of
   rank-within-group at a time, across all groups at once.
7. **Sort the output** by the ``(detectors, observables)`` index tuples and
   drop mechanisms whose folded probability is 0.

The result is exact, not close: it equals a per-component set-XOR loop
(``_oracle_build`` in ``tests/test_dem.py``) down to ``float.hex``.  Each
component probability is one IEEE division of the channel argument (by 1, 3
or 15); the fold applies the same multiplies and adds to the same operands in
the same (event) order, starting from 0 as a first ``_xor_combine`` with 0
does; and the output is ordered by the same Python tuple comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .bitpack import WORD_BITS, num_words, pack_rows, popcount_rows, unpack_bits
from .circuit import Circuit
from .packed import _apply_frame_op, _circuit_program

__all__ = ["DemError", "DetectorErrorModel", "build_detector_error_model"]


@dataclass(frozen=True)
class DemError:
    """A single independent error mechanism.

    Attributes
    ----------
    probability:
        Probability that this mechanism fires in one shot.
    detectors:
        Sorted tuple of detector indices flipped.
    observables:
        Sorted tuple of logical-observable indices flipped.
    """

    probability: float
    detectors: Tuple[int, ...]
    observables: Tuple[int, ...]

    def is_graphlike(self) -> bool:
        return len(self.detectors) <= 2


@dataclass
class DetectorErrorModel:
    """A collection of independent error mechanisms plus counts."""

    num_detectors: int
    num_observables: int
    errors: List[DemError] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.errors)

    def __iter__(self):
        return iter(self.errors)

    def total_error_probability_bound(self) -> float:
        """Union bound on the probability that any mechanism fires."""
        return float(min(1.0, sum(e.probability for e in self.errors)))

    def undetectable_logical_errors(self) -> List[DemError]:
        """Mechanisms that flip an observable without flipping any detector.

        A correct surface-code circuit should have none of these; their
        presence indicates a distance-0 construction bug.
        """
        return [e for e in self.errors if not e.detectors and e.observables]


def _xor_combine(p1: float, p2: float) -> float:
    """Probability that an odd number of two independent events occurs."""
    return p1 * (1 - p2) + p2 * (1 - p1)


_DEP2_COMPONENTS: List[Tuple[int, ...]] = []
# Basis-fault membership of each of the 15 DEPOLARIZE2 components.
# Basis order per pair: (Xa, Za, Xb, Zb).  Component code c in 1..15 encodes
# (pa, pb) base 4 with 0=I, 1=X, 2=Y, 3=Z.
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
    _DEP2_COMPONENTS.append(tuple(members))


# Template of one target group (a qubit, or a pair for ``dep2``) per
# noise-channel op kind of the compiled program: (basis faults as (target
# slot, is Z), probability divisor, member fault slots of each component).
_CHANNELS = {
    "xerr": (((0, False),), 1, ((0,),)),
    "zerr": (((0, True),), 1, ((0,),)),
    "yerr": (((0, False), (0, True)), 1, ((0, 1),)),
    "dep1": (((0, False), (0, True)), 3, ((0,), (0, 1), (1,))),  # X, Y, Z
    "dep2": (((0, False), (0, True), (1, False), (1, True)), 15,
             tuple(_DEP2_COMPONENTS)),
}
# op kind -> template row; then per-row template tables.
_KIND = {kind: row for row, kind in enumerate(_CHANNELS)}
_NUM_FAULTS = np.array([len(c[0]) for c in _CHANNELS.values()])
_DIVISOR = np.array([float(c[1]) for c in _CHANNELS.values()])
_NUM_COMPONENTS = np.array([len(c[2]) for c in _CHANNELS.values()])
_SLOT_TARGET = np.zeros((len(_CHANNELS), 4), dtype=np.int64)
_SLOT_Z = np.zeros((len(_CHANNELS), 4), dtype=bool)
_MEMBERS = np.full((len(_CHANNELS), 15, 4), -1, dtype=np.int64)  # -1 pads
for _kind, (_faults, _, _components) in enumerate(_CHANNELS.values()):
    for _slot, (_target, _is_z) in enumerate(_faults):
        _SLOT_TARGET[_kind, _slot] = _target
        _SLOT_Z[_kind, _slot] = _is_z
    for _c, _members in enumerate(_components):
        _MEMBERS[_kind, _c, :len(_members)] = _members


def _enumerate_basis_faults(ops: List[Tuple[str, int, tuple]]) -> Tuple[np.ndarray, ...]:
    """Expand every noise-channel op into basis faults and Pauli components.

    Returns
    -------
    fault_step, fault_qubit, fault_is_z:
        Per basis fault (its position is its id): the index of its op, its
        qubit, and whether it is a Z (else an X) fault.  Ids follow program
        order, so ``fault_step`` is non-decreasing.
    comp_p:
        Probability of each Pauli component of every channel.
    comp_members:
        ``(4, components)`` basis-fault ids of each component, padded with
        the id one past the last fault.
    """
    kinds = [np.zeros(0, dtype=np.int64)]
    steps = [np.zeros(0, dtype=np.int64)]
    probs = [np.zeros(0)]
    pairs = [np.zeros((0, 2), dtype=np.intp)]
    for step, (kind, _first, data) in enumerate(ops):
        if kind in _KIND:
            # One row per target group: (qubit, qubit) or the dep2 pair.
            a, b, p = data if kind == "dep2" else (data[0], data[0], data[1])
            kinds.append(np.full(p.size, _KIND[kind]))
            steps.append(np.full(p.size, step))
            probs.append(p)
            pairs.append(np.column_stack((a, b)))
    g_p = np.concatenate(probs)
    live = g_p > 0.0
    g_p = g_p[live]
    g_kind = np.concatenate(kinds)[live]
    g_step = np.concatenate(steps)[live]
    g_pair = np.concatenate(pairs)[live]

    per_group = _NUM_FAULTS[g_kind]
    g_base = np.cumsum(per_group) - per_group
    f_group = np.repeat(np.arange(g_kind.size), per_group)
    f_kind = g_kind[f_group]
    f_slot = np.arange(f_group.size) - g_base[f_group]
    fault_qubit = g_pair[f_group, _SLOT_TARGET[f_kind, f_slot]]
    fault_is_z = _SLOT_Z[f_kind, f_slot]

    per_group = _NUM_COMPONENTS[g_kind]
    c_group = np.repeat(np.arange(g_kind.size), per_group)
    c_kind = g_kind[c_group]
    c_slot = np.arange(c_group.size) - (np.cumsum(per_group) - per_group)[c_group]
    comp_p = g_p[c_group] / _DIVISOR[c_kind]
    slots = _MEMBERS[c_kind, c_slot].T
    comp_members = np.where(slots < 0, f_group.size, g_base[c_group] + slots)
    return g_step[f_group], fault_qubit, fault_is_z, comp_p, comp_members


def _propagate_basis_faults(
    circuit: Circuit, ops: List[Tuple[str, int, tuple]], fault_step: np.ndarray,
    fault_qubit: np.ndarray, fault_is_z: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the compiled program on the fault axis, one bit per basis fault.

    Returns ``uint64`` word matrices ``det`` of shape ``(num_detectors, W)``
    and ``obs`` of shape ``(num_observables, W)``; bit ``f`` of a row (word
    ``f // 64``, little-endian) is set when basis fault ``f`` flips it.
    """
    n = circuit.num_qubits
    f = fault_step.size
    fw = num_words(f)
    # X frame rows then Z frame rows; one flat index per fault injects it.
    frame = np.zeros((2 * n, fw), dtype=np.uint64)
    x, z = frame[:n], frame[n:]
    flat = (fault_qubit + n * fault_is_z) * fw + np.arange(f) // WORD_BITS
    bit = np.left_shift(np.uint64(1), (np.arange(f) % WORD_BITS).astype(np.uint64))
    meas = np.zeros((circuit.num_measurements, fw), dtype=np.uint64)
    det = np.zeros((circuit.num_detectors, fw), dtype=np.uint64)
    obs = np.zeros((circuit.num_observables, fw), dtype=np.uint64)

    # Faults happen where their channel sits: inject every earlier op's
    # faults just before the next op that reads or moves the frame.
    due = np.searchsorted(fault_step, np.arange(len(ops)))
    injected = 0
    for step, (kind, _first, data) in enumerate(ops):
        if kind in _KIND or kind == "nop":
            continue
        upto = int(due[step])
        if upto > injected:
            np.bitwise_or.at(frame.reshape(-1), flat[injected:upto], bit[injected:upto])
            injected = upto
        _apply_frame_op(kind, data, x, z, meas, det, obs)
    return det, obs


def _index_tuples(bits: np.ndarray) -> List[Tuple[int, ...]]:
    """Sorted set-bit indices of each row of a boolean matrix."""
    cols = np.nonzero(bits)[1].tolist()
    out: List[Tuple[int, ...]] = []
    start = 0
    for end in np.cumsum(bits.sum(axis=1)).tolist():
        out.append(tuple(cols[start:end]))
        start = end
    return out


def build_detector_error_model(
    circuit: Circuit, decompose: bool = True
) -> DetectorErrorModel:
    """Extract the detector error model of a noisy circuit.

    Parameters
    ----------
    circuit:
        The noisy circuit (detectors and observables already annotated).
    decompose:
        When True (default), error components that flip more than two
        detectors are replaced by their constituent basis faults so that the
        result is graph-like.  When False they are kept as hyperedges.
    """
    circuit.validate()
    num_det, num_obs = circuit.num_detectors, circuit.num_observables
    ops, _ = _circuit_program(circuit, fuse=True)
    fault_step, fault_qubit, fault_is_z, comp_p, members = _enumerate_basis_faults(ops)
    f = fault_step.size
    if not f:
        return DetectorErrorModel(num_det, num_obs, [])
    det, obs = _propagate_basis_faults(circuit, ops, fault_step, fault_qubit, fault_is_z)

    # One signature row per basis fault plus the zero row that pads members.
    dw = num_words(num_det)
    sig = np.zeros((f + 1, dw + num_words(num_obs)), dtype=np.uint64)
    sig[:f, :dw] = pack_rows(unpack_bits(det, f).T)
    sig[:f, dw:] = pack_rows(unpack_bits(obs, f).T)

    live = comp_p > 0.0
    comp_p, members = comp_p[live], members[:, live]
    comp_sig = np.bitwise_xor.reduce(sig[members], axis=0)
    split = np.zeros(comp_p.size, dtype=bool)
    if decompose:
        split = popcount_rows(comp_sig[:, :dw]) > 2

    # Ordered events: a component, or in its place its member basis faults;
    # ``row`` indexes the basis rows followed by the component rows.
    per_comp = np.where(split, (members < f).sum(axis=0), 1)
    ev_comp = np.repeat(np.arange(comp_p.size), per_comp)
    ev_rank = np.arange(ev_comp.size) - (np.cumsum(per_comp) - per_comp)[ev_comp]
    row = np.where(split[ev_comp], members[ev_rank, ev_comp], f + 1 + ev_comp)
    ev_sig = np.concatenate((sig, comp_sig))[row]
    nonempty = ev_sig.any(axis=1)
    ev_sig, ev_p = ev_sig[nonempty], comp_p[ev_comp[nonempty]]
    if not ev_p.size:
        return DetectorErrorModel(num_det, num_obs, [])

    # Group equal keys (the sort is stable, so each group keeps event order)
    # and fold each group's probabilities level by level.
    order = np.lexsort(ev_sig.T[::-1])
    ev_sig, ev_p = ev_sig[order], ev_p[order]
    starts = np.flatnonzero(np.r_[True, (ev_sig[1:] != ev_sig[:-1]).any(axis=1)])
    sizes = np.diff(np.r_[starts, ev_p.size])
    deep = np.argsort(-sizes, kind="stable")
    starts, sizes = starts[deep], sizes[deep]
    acc = np.zeros(starts.size)
    for rank, width in enumerate(np.searchsorted(-sizes, -np.arange(sizes[0]), side="left")):
        acc[:width] = _xor_combine(acc[:width], ev_p[starts[:width] + rank])

    keep = acc > 0.0
    keys = ev_sig[starts[keep]]
    errors = sorted(zip(_index_tuples(unpack_bits(keys[:, :dw], num_det)),
                        _index_tuples(unpack_bits(keys[:, dw:], num_obs)),
                        acc[keep].tolist()))
    return DetectorErrorModel(num_det, num_obs,
                              [DemError(p, dets, obs) for dets, obs, p in errors])
