"""Bit-packed Pauli-frame sampler: the engine's Monte-Carlo detector sampler.

A *Pauli frame* tracks, for each shot, the Pauli difference between the
noisy run and the noiseless reference run.  Because all gates are Clifford
and all noise is Pauli, the frame propagates through the circuit by simple
bit operations, and the flip of each measurement result equals the
anticommutation of the frame with the measured observable on that qubit.
Detectors are defined (by construction of the circuits in this library) to
be deterministic in the absence of noise, so the XOR of measurement *flips*
referenced by a detector directly gives the detector outcome; the same holds
for logical observables.  :func:`noiseless_deterministic` checks that
premise for a circuit.

Frame update rules (per qubit ``q``; ``x`` is the X component of the frame,
``z`` the Z component), applied by one kernel, :func:`_apply_frame_op`:

==============  ==========================================================
Instruction     Effect on the frame
==============  ==========================================================
``H q``         swap ``x[q]`` and ``z[q]``
``S q``         ``z[q] ^= x[q]``
``X/Z q``       nothing (deterministic Paulis never change the frame)
``CX c t``      ``x[t] ^= x[c]``; ``z[c] ^= z[t]``
``CZ a b``      ``z[a] ^= x[b]``; ``z[b] ^= x[a]``
``R q``         clear ``x[q]`` and ``z[q]`` (reset destroys the error)
``RX q``        clear ``x[q]`` and ``z[q]``
``M q``         record flip ``x[q]``; randomise ``z[q]``
``MX q``        record flip ``z[q]``; randomise ``x[q]``
``MR q``        record flip ``x[q]``; clear both
noise           XOR sampled Paulis into the frame
==============  ==========================================================

The post-measurement randomisation mirrors Stim's frame simulator: after a
collapse the frame component that anticommutes with the collapsed stabilizer
is no longer physically meaningful, and randomising it keeps later
measurements statistically faithful.

One frame table drives both axes: the sampler packs *shots* into the columns
of the frame rows, and :mod:`~repro.stabilizer.dem` runs the same compiled
program with one column per *basis fault*.  Compiled programs are memoised on
the :class:`~repro.stabilizer.circuit.Circuit` per ``fuse`` value
(``Circuit.append`` clears them), so the DEM and every sampler of a circuit
share one lowering.

:class:`PackedFrameSimulator` stores the X/Z frame components, the
measurement-flip record and the detector/observable outputs as
little-endian ``uint64`` bit rows (:mod:`~repro.stabilizer.bitpack`): one
word carries 64 shots.

Instruction dispatch is **vectorised**: the circuit is compiled once
into a small program whose ops carry precomputed target index
arrays, per-row noise probabilities, flattened measurement maps and
read/write-hazard-free two-qubit groups, so each op executes as one (or a
few) whole-array numpy kernels instead of a per-target Python loop:

* noise channels draw their variates per *op* with
  ``rng.random((rows, shots))`` — C-order row fill reproduces the
  per-target sequential draw order exactly — into a reused scratch buffer,
  and turn them into packed flip rows by whole-matrix packing
  (:func:`~repro.stabilizer.bitpack.pack_rows`);
* the depolarizing channels flip through *hit lanes*: the packed hit mask
  is scanned at word granularity (64 lanes per compare), only the few hit
  words are expanded to lane indices, and :func:`_flip_lanes` computes the
  per-lane Pauli choice on those lanes alone before XOR-scattering single
  bits into the frame — at p = 1e-3 fewer than 0.1% of lanes flip, so
  full-lane Pauli arithmetic would be almost all wasted memory traffic
  (X/Y/Z_ERROR need no Pauli choice and XOR whole packed hit rows);
* draws are *row-blocked* (``_BLOCK_BYTES``): an op covering many targets
  draws consecutive row blocks instead of one giant matrix, which keeps
  the float64 scratch inside the cache sweet spot without touching draw
  order (block rows concatenate in exactly the C order of the full draw);
* gate updates are fancy-indexed XORs on target index arrays
  (``x[tgt] ^= x[ctrl]``), with CX/CZ pair lists split greedily into
  duplicate-free groups so chained pairs keep their sequential meaning;
* DETECTOR / OBSERVABLE_INCLUDE reduce with ``np.bitwise_xor.reduceat`` /
  ``np.bitwise_xor.reduce`` over measurement-index arrays resolved at
  compile time;
* runs of *consecutive same-channel instructions* fuse into a single op —
  RNG draw order is unchanged because the fused block draw fills rows in
  exactly the per-instruction order.  The surface-code builder already
  emits one instruction per gate layer, so on its circuits this merges the
  per-detector ``DETECTOR`` runs, the ``R``/``RX`` resets and the noise
  layers that a bad qubit's rate splits into runs.

Noise draws consume the **same** ``rng`` variates in the **same order** as
the frozen per-target loop in :mod:`repro.stabilizer.reference`, so a run
is bit-identical to that loop with the same seed; the test suite checks
this instruction by instruction via the ``trace`` hooks.  When a ``trace``
hook is given, the simulator switches to a stepwise program (one op per
instruction, still vectorised within the instruction) so the hook keeps
firing after every instruction with identical dense views.

**Fast RNG mode** (``rng_mode="bitgen"``): the default ``"exact"`` mode is
RNG-generation-bound at large shot counts — every noise row burns ``shots``
float64 variates just to compare them against p.  The opt-in bitgen mode
draws noise at the *bit level* instead:

* each noise row draws ``_BITGEN_K`` (12) raw ``uint64`` words per packed
  shot word off a fast ``SFC64`` stream and combines them by the binary
  expansion of ``m = ceil(p * 2**K)`` — starting from zero and folding the
  words least-significant-bit-first (``out = w | out`` where the bit of
  ``m`` is set, ``w & out`` where it is clear) realises a packed Bernoulli
  mask with ``P(bit) = m / 2**K >= p`` directly in packed form — ~5x fewer
  random bytes and no float scratch, compare or packing pass at all (rows
  sharing one ``p``, the overwhelmingly common fused-channel shape, fold
  with whole-array in-place ops);
* a **residual-correction pass** makes any ``p`` exact: every coarse
  candidate lane draws one double ``u`` from a separate thinning stream and
  survives iff ``u * p_hi < p`` (so ``P = p_hi * p/p_hi = p`` exactly); the
  surviving draw ``u * p_hi`` is uniform on ``[0, p)`` and goes through
  the same :func:`_flip_lanes` kernel as the exact-mode hit lanes;
* measurement randomisation is ``p = 1/2`` exactly — one raw word per 64
  lanes, no correction pass;
* the word stream and the thinning stream are two child streams of the
  sampler seed, so word consumption never depends on the (data-dependent)
  number of thinning draws: bitgen results are invariant to instruction
  fusion, ``trace`` hooks and row-block splits, and remain deterministic
  per seed across processes and hosts.

Bitgen mode consumes a **different** (still deterministic) RNG stream than
exact mode, so it is statistically equivalent but not bit-identical — which
is why the engine carries it as a task-spec field that flows into content
hashes and is never the default (see ``LerPointTask.rng_mode``).

The sampler returns :class:`PackedDetectorSamples`, which keeps the packed
rows and offers

* dense ``(shots, n)`` boolean views (``.detectors`` / ``.observables``),
  unpacked on demand for tests and reference comparisons, and
* *sparse syndrome extraction* (:meth:`PackedDetectorSamples.fired_detectors`
  / :meth:`PackedDetectorSamples.flipped_observables`): per-shot tuples of
  fired detector indices, which is what the deduplicating batch decoders
  consume.  At low physical error rates most rows are empty or nearly so,
  and the index lists are far smaller than dense rows.

**Heterogeneous task fusion**: :class:`FusedProgram` concatenates the
compiled programs of several simulators (one per sweep task) into one
invocation that samples every segment back to back against a shared
:class:`DrawScratch`, so a many-small-circuit sweep pays one dispatch and
one scratch allocation for N tasks instead of N of each.  Segment RNG
streams are untouched — fused output is bit-identical to running each
segment alone (see the class docstring for the contract).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .bitpack import WORD_BITS, num_words, pack_rows, unpack_bits
from .circuit import Circuit

__all__ = ["DrawScratch", "FusedProgram", "PackedDetectorSamples",
           "PackedFrameSimulator", "RNG_MODES",
           "noiseless_deterministic"]

#: Supported RNG modes: ``"exact"`` reproduces the paper-exact per-target
#: draw stream bit-for-bit; ``"bitgen"`` is the opt-in fast bit-level
#: Bernoulli stream (statistically equivalent, different variates).
RNG_MODES = ("exact", "bitgen")

# Trace hook signature shared with the frozen reference loop: called after
# every instruction with (instruction_index, instruction, x_bool, z_bool,
# meas_flips_bool) where the arrays are dense ``(rows, shots)`` booleans.
TraceHook = Callable[[int, object, np.ndarray, np.ndarray, np.ndarray], None]


@dataclass
class PackedDetectorSamples:
    """Detector/observable flip data in packed bit rows.

    ``detectors_packed`` has shape ``(num_detectors, num_words)`` and
    ``observables_packed`` shape ``(num_observables, num_words)``; bit
    ``s % 64`` of word ``s // 64`` is shot ``s``.
    """

    detectors_packed: np.ndarray
    observables_packed: np.ndarray
    num_shots: int

    @property
    def num_detectors(self) -> int:
        return int(self.detectors_packed.shape[0])

    @property
    def num_observables(self) -> int:
        return int(self.observables_packed.shape[0])

    # -- dense compatibility copies ------------------------------------
    @property
    def detectors(self) -> np.ndarray:
        """Dense ``(shots, num_detectors)`` boolean copy (unpacked on demand).

        A fresh array per access — mutating it never touches the packed
        rows, so cache it if you read it in a loop.
        """
        if self.num_detectors == 0:
            return np.zeros((self.num_shots, 0), dtype=bool)
        return unpack_bits(self.detectors_packed, self.num_shots).T.copy()

    @property
    def observables(self) -> np.ndarray:
        """Dense ``(shots, num_observables)`` boolean copy (unpacked on demand)."""
        if self.num_observables == 0:
            return np.zeros((self.num_shots, 0), dtype=bool)
        return unpack_bits(self.observables_packed, self.num_shots).T.copy()

    def detection_fraction(self) -> float:
        """Mean fraction of detectors that fired per shot (a health metric)."""
        if self.num_detectors == 0 or self.num_shots == 0:
            return 0.0
        from .bitpack import popcount

        return popcount(self.detectors_packed) / (self.num_detectors * self.num_shots)

    # -- sparse extraction ---------------------------------------------
    def _sparse_rows(self, packed: np.ndarray, start: int, stop: int) -> List[Tuple[int, ...]]:
        """Per-shot sorted index tuples for shots ``start..stop`` of a row set.

        Scans the words covering the range with :func:`_hit_lanes` and
        builds a tuple only for shots with a set bit; every other shot gets
        the shared ``()``.
        """
        start, stop = int(start), int(stop)
        if not 0 <= start <= stop <= self.num_shots:
            raise ValueError(f"shot range [{start}, {stop}) outside 0..{self.num_shots}")
        n = stop - start
        out: List[Tuple[int, ...]] = [()] * n
        if n == 0 or packed.shape[0] == 0:
            return out
        word_lo = start // WORD_BITS
        rows, shots = _hit_lanes(packed[:, word_lo:num_words(stop)])
        shots -= start - word_lo * WORD_BITS
        keep = (shots >= 0) & (shots < n)
        if not keep.any():
            return out
        rows, shots = rows[keep], shots[keep]
        # Shot-major with ascending rows per shot; the keys are distinct.
        order = np.argsort(shots * packed.shape[0] + rows)
        shots = shots[order]
        idx = rows[order].tolist()
        cuts = np.flatnonzero(np.diff(shots)) + 1
        bounds = [0, *cuts.tolist(), len(idx)]
        for shot, a, b in zip(shots[bounds[:-1]].tolist(), bounds, bounds[1:]):
            out[shot] = tuple(idx[a:b])
        return out

    def fired_detectors(self, start: int = 0, stop: Optional[int] = None) -> List[Tuple[int, ...]]:
        """Sparse syndromes: one sorted tuple of fired detectors per shot."""
        stop = self.num_shots if stop is None else stop
        return self._sparse_rows(self.detectors_packed, start, stop)

    def flipped_observables(self, start: int = 0, stop: Optional[int] = None) -> List[Tuple[int, ...]]:
        """One sorted tuple of flipped observable indices per shot."""
        stop = self.num_shots if stop is None else stop
        return self._sparse_rows(self.observables_packed, start, stop)


# ----------------------------------------------------------------------
# Compiled program
# ----------------------------------------------------------------------
# An op is (kind, first_instruction_index, data).  In the fused program one
# op may cover a run of consecutive same-channel instructions; the stepwise
# program (used when a trace hook is installed) has exactly one op per
# instruction so the hook contract is preserved.

# Instruction families whose consecutive runs may fuse into one op without
# changing RNG draw order or frame semantics (all are either draw-free and
# idempotent/parity-reducible, or pure XOR scatters of fresh variates).
_FUSABLE = frozenset({
    "RESET", "H", "S", "M", "MX", "MR", "DETECTOR",
    "X_ERROR", "Z_ERROR", "Y_ERROR", "DEPOLARIZE1", "DEPOLARIZE2",
})

# Cap on the float64 scratch of one noise-draw block.  Fused ops covering
# hundreds of targets at tens of thousands of shots would otherwise
# materialise ~100MB temporaries per op and lose to cache misses what they
# won in dispatch.
_BLOCK_BYTES = 8 << 20


def _row_blocks(rows: int, shots: int):
    """Split ``rows`` draw rows into blocks of bounded float64 footprint."""
    step = max(1, _BLOCK_BYTES // max(shots * 8, 1))
    return ((s, min(s + step, rows)) for s in range(0, rows, step))


def _fuse_key(name: str) -> str:
    # R and RX clear both frame components identically, so they fuse as one
    # family.
    return "RESET" if name in ("R", "RX") else name


def _idx(values: Sequence[int]) -> np.ndarray:
    return np.asarray(list(values), dtype=np.intp)


def _has_dup(arr: np.ndarray) -> bool:
    return arr.size != np.unique(arr).size


def _pair_groups(pairs: List[Tuple[int, int]]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split an ordered pair list into hazard-free fancy-index groups.

    Within a group every qubit appears at most once, so gathering all reads
    before scattering all writes reproduces the sequential per-pair update;
    a chained pair (reusing a qubit of an earlier pair) starts a new group.
    """
    groups: List[Tuple[np.ndarray, np.ndarray]] = []
    left: List[int] = []
    right: List[int] = []
    used: set = set()
    for a, b in pairs:
        if a in used or b in used:
            groups.append((_idx(left), _idx(right)))
            left, right, used = [], [], set()
        left.append(a)
        right.append(b)
        used.add(a)
        used.add(b)
    if left:
        groups.append((_idx(left), _idx(right)))
    return groups


def _odd_multiplicity(targets: List[int]) -> np.ndarray:
    """Targets appearing an odd number of times (even repeats cancel)."""
    arr = _idx(targets)
    qs, counts = np.unique(arr, return_counts=True)
    return qs[counts % 2 == 1]


# Noise-channel op kinds: each XORs fresh Pauli draws into the frame.  Every
# other kind runs through _apply_frame_op; M/MX also draw their randomisation.
_CHANNEL_KINDS = frozenset({"xerr", "zerr", "yerr", "dep1", "dep2"})

# Op kinds that consume RNG rows (used to size the shared draw scratch).
_DRAW_KINDS = _CHANNEL_KINDS | {"m", "mx"}

# Fixed-point precision of the bitgen coarse Bernoulli masks: a noise row
# always combines exactly this many raw uint64 words per packed shot word,
# regardless of p, so word-stream consumption is a pure function of the
# compiled rows and never of the drawn data.  16 bits keeps the coarse
# overshoot (and therefore the thinning-candidate surplus) below 2**-16 per
# lane while still drawing 4x fewer raw words than the exact float stream.
_BITGEN_K = 12


def _channel_probs(kind: str, data: tuple) -> np.ndarray:
    """Per-draw-row probabilities of a noise-channel op's compiled data."""
    return data[2] if kind == "dep2" else data[1]


def _compile_bitgen_channel(pflat: np.ndarray) -> tuple:
    """Per-row fixed-point data for a bitgen coarse-mask channel.

    Returns ``(mbits, full, p_hi, ubits)``: ``mbits[j, row]`` is bit ``j``
    of ``m_row = ceil(p_row * 2**K)`` (LSB first — the combine order),
    ``full`` flags rows whose coarse mask saturates to all-ones
    (``m >= 2**K``, i.e. p within 2**-K of 1), and ``p_hi = m / 2**K`` is
    the exact coarse probability the correction pass thins down from.
    ``p_hi >= p`` always holds: scaling by a power of two is exact in
    binary floating point, so ``ceil`` can never land below ``p * 2**K``.

    When every row shares one ``m`` (the usual fused-channel shape under a
    uniform noise model) ``ubits`` carries that single bit pattern so the
    fold can run whole-array in-place ops instead of per-row boolean
    selections; otherwise ``ubits`` is ``None``.
    """
    scale = 1 << _BITGEN_K
    m = np.ceil(pflat * scale).astype(np.int64)
    np.clip(m, 0, scale, out=m)
    full = m >= scale
    p_hi = m / float(scale)
    work = np.where(full, 0, m)
    shifts = np.arange(_BITGEN_K, dtype=np.int64)
    mbits = ((work[None, :] >> shifts[:, None]) & 1).astype(bool)
    ubits = None
    if m.size and bool(np.all(m == m[0])):
        ubits = tuple(bool(b) for b in mbits[:, 0])
    return mbits, (full if bool(full.any()) else None), p_hi, ubits


def _compile_bitgen_aux(ops: List[Tuple[str, int, tuple]]) -> dict:
    """Coarse-mask data for every channel op of a compiled program.

    One :func:`_compile_bitgen_channel` pass over the rows of all channel
    ops, split per op into what that function returns for the op's rows
    alone: an op's ``m`` is uniform exactly when its ``p_hi = m / 2**K`` is.
    """
    chan = [(idx, _channel_probs(kind, data)) for idx, (kind, _first, data)
            in enumerate(ops) if kind in _CHANNEL_KINDS]
    if not chan:
        return {}
    mbits, full, p_hi, _ = _compile_bitgen_channel(
        np.concatenate([probs for _, probs in chan]))
    starts = np.cumsum([0] + [probs.size for _, probs in chan[:-1]])
    uniform = (np.minimum.reduceat(p_hi, starts)
               == np.maximum.reduceat(p_hi, starts)).tolist()
    any_full = (np.logical_or.reduceat(full, starts).tolist() if full is not None
                else [False] * len(chan))
    aux = {}
    for (idx, probs), s, uni, has_full in zip(chan, starts.tolist(), uniform, any_full):
        e = s + probs.size
        aux[idx] = (mbits[:, s:e], full[s:e] if has_full else None, p_hi[s:e],
                    tuple(mbits[:, s].tolist()) if uni else None)
    return aux


def _tail_mask(shots: int) -> np.uint64:
    """Mask keeping only the first ``shots % 64`` lanes of the last word.

    Bitgen draws whole words, so without this the ghost lanes beyond
    ``shots`` would accumulate frame bits and corrupt word-granular
    consumers (popcounts, detection fractions).  Exact mode never needs it:
    per-shot draws simply stop at ``shots``.
    """
    rem = shots % WORD_BITS
    return np.uint64((1 << rem) - 1) if rem else np.uint64(0xFFFFFFFFFFFFFFFF)


def _bitgen_mask(words: np.random.SFC64, aux: tuple, i0: int, i1: int,
                 nw: int, tail: np.uint64) -> np.ndarray:
    """Packed coarse Bernoulli(p_hi) mask for draw rows ``[i0, i1)``.

    Folds the fresh words least-significant-bit first: after processing bit
    ``j`` the lane probability is ``(m >> j << j) / 2**K`` restricted to the
    bits seen so far, so the full pass realises exactly ``m / 2**K``.  Rows
    draw their words in C order (row-major), which is what makes block
    splits and stepwise programs consume the identical word stream.
    """
    mbits, full, _p_hi, ubits = aux
    rows = i1 - i0
    raw = words.random_raw(rows * _BITGEN_K * nw).reshape(rows, _BITGEN_K, nw)
    if ubits is not None and True in ubits:
        # Uniform-m fast path: one bit pattern for every row, so each fold
        # layer is a whole-array in-place op.  Layers below the lowest set
        # bit AND into an all-zero mask — skipping their *compute* changes
        # nothing, and their words were consumed by the block draw above,
        # so the stream stays put.
        j0 = ubits.index(True)
        out = raw[:, j0].copy()
        for j in range(j0 + 1, _BITGEN_K):
            if ubits[j]:
                np.bitwise_or(out, raw[:, j], out=out)
            else:
                np.bitwise_and(out, raw[:, j], out=out)
    else:
        out = np.zeros((rows, nw), dtype=np.uint64)
        for j in range(_BITGEN_K):
            b = mbits[j, i0:i1]
            out[b] |= raw[b, j]
            nb = ~b
            out[nb] &= raw[nb, j]
    if full is not None:
        out[full[i0:i1]] = np.uint64(0xFFFFFFFFFFFFFFFF)
    out[:, -1] &= tail
    return out


class DrawScratch:
    """Exact-mode draw/compare scratch, reusable across sampler calls.

    Every exact-mode :meth:`PackedFrameSimulator.sample` draws from one: its
    own fresh instance, or one the fused execution layer shares across the
    compiled programs it runs back to back, so they allocate (and fault in)
    the multi-MB buffers once.  A ``DrawScratch`` keeps one flat float64
    buffer and one flat bool buffer, growing them on demand, and hands out
    ``(rows, shots)`` views of their prefixes.  Reshaping the prefix of a
    flat C-contiguous array yields a C-contiguous view — the property
    ``rng.random(out=...)`` requires, checked once per view rather than on
    every op x row-block call — and row slices ``buf[:k]`` of it stay
    C-contiguous, so segments with *different* shot counts can share the
    same bytes.

    Sharing can never change a drawn variate: every view is fully
    overwritten by ``rng.random(out=...)`` / ``np.less(..., out=...)``
    before it is read, so bit-identity with per-call allocation is
    structural, not statistical.
    """

    __slots__ = ("_rflat", "_hflat")

    def __init__(self) -> None:
        self._rflat: Optional[np.ndarray] = None
        self._hflat: Optional[np.ndarray] = None

    def view(self, rows: int, shots: int) -> Tuple[np.ndarray, np.ndarray]:
        """C-contiguous ``(rows, shots)`` float64/bool views, grown on demand."""
        n = rows * shots
        if self._rflat is None or self._rflat.size < n:
            self._rflat = np.empty(n)
            self._hflat = np.empty(n, dtype=bool)
        rbuf = self._rflat[:n].reshape(rows, shots)
        hbuf = self._hflat[:n].reshape(rows, shots)
        if rbuf.dtype != np.float64 or not rbuf.flags.c_contiguous:
            raise AssertionError("draw scratch must be C-contiguous float64")
        if hbuf.dtype != np.bool_ or not hbuf.flags.c_contiguous:
            raise AssertionError("hit scratch must be C-contiguous bool")
        return rbuf, hbuf


def _compile_program(circuit: Circuit, fuse: bool) -> Tuple[List[Tuple[str, int, tuple]], int]:
    """Lower the circuit to vectorised ops (index arrays resolved once).

    Returns ``(ops, max_draw_rows)`` where ``max_draw_rows`` is the largest
    number of RNG rows any single op draws — the scratch-buffer bound.
    """
    insts = circuit.instructions
    ops: List[Tuple[str, int, tuple]] = []
    m_idx = 0
    d_idx = 0
    i = 0
    n = len(insts)
    while i < n:
        name = insts[i].name
        key = _fuse_key(name)
        j = i + 1
        if fuse and key in _FUSABLE:
            while j < n and _fuse_key(insts[j].name) == key:
                j += 1
        group = insts[i:j]
        targets = [q for inst in group for q in inst.targets]

        if key in ("CX", "CZ"):
            pairs = group[0].target_pairs()
            ops.append(("nop", i, ()) if not pairs
                       else (key.lower(), i, (_pair_groups(pairs),)))
        elif key == "H":
            odd = _odd_multiplicity(targets)
            ops.append(("h", i, (odd,)) if odd.size else ("nop", i, ()))
        elif key == "S":
            odd = _odd_multiplicity(targets)
            ops.append(("s", i, (odd,)) if odd.size else ("nop", i, ()))
        elif key == "RESET":
            ops.append(("reset", i, (np.unique(_idx(targets)),)) if targets
                       else ("nop", i, ()))
        elif key in ("M", "MX"):
            k = len(targets)
            if k:
                tgt = _idx(targets)
                ops.append((key.lower(), i, (tgt, m_idx, _has_dup(tgt))))
            else:
                ops.append(("nop", i, ()))
            m_idx += k
        elif key == "MR":
            k = len(targets)
            if not k:
                ops.append(("nop", i, ()))
            elif len(set(targets)) != k:
                # A repeated qubit must observe its own reset mid-run; keep
                # the sequential semantics for this (pathological) shape.
                ops.append(("mr_seq", i, (tuple(targets), m_idx)))
            else:
                ops.append(("mr", i, (_idx(targets), m_idx)))
            m_idx += k
        elif key in ("X_ERROR", "Z_ERROR", "Y_ERROR", "DEPOLARIZE1"):
            if targets:
                tgt = _idx(targets)
                pflat = np.array([inst.arg for inst in group
                                  for _ in inst.targets], dtype=np.float64)
                kind = {"X_ERROR": "xerr", "Z_ERROR": "zerr",
                        "Y_ERROR": "yerr", "DEPOLARIZE1": "dep1"}[key]
                # Depolarizing flips scatter per bit, so only the packed-row
                # XORs of the Bernoulli channels need the duplicate flag.
                ops.append((kind, i, (tgt, pflat) if kind == "dep1"
                            else (tgt, pflat, _has_dup(tgt))))
            else:
                ops.append(("nop", i, ()))
        elif key == "DEPOLARIZE2":
            if targets:
                a_arr = _idx(targets[0::2])
                b_arr = _idx(targets[1::2])
                pflat = np.array([inst.arg for inst in group
                                  for _ in inst.targets[1::2]], dtype=np.float64)
                ops.append(("dep2", i, (a_arr, b_arr, pflat)))
            else:
                ops.append(("nop", i, ()))
        elif key == "DETECTOR":
            rows: List[int] = []
            flat: List[int] = []
            offsets: List[int] = []
            for off, inst in enumerate(group):
                if inst.targets:  # empty detectors keep their all-zero row
                    rows.append(d_idx + off)
                    offsets.append(len(flat))
                    flat.extend(inst.targets)
            d_idx += len(group)
            ops.append(("det", i, (_idx(flat), _idx(offsets), _idx(rows)))
                       if rows else ("nop", i, ()))
        elif key == "OBSERVABLE_INCLUDE":
            inst = group[0]
            ops.append(("obs", i, (_idx(inst.targets), int(inst.arg)))
                       if inst.targets else ("nop", i, ()))
        elif key in ("X", "Z", "TICK"):
            # Deterministic Paulis / time markers: no-ops on the frame.
            ops.append(("nop", i, ()))
        else:  # pragma: no cover - circuit validation prevents this
            raise ValueError(f"unhandled instruction {name}")
        i = j

    max_draw_rows = max((op[2][0].size for op in ops if op[0] in _DRAW_KINDS),
                        default=0)
    return ops, max_draw_rows


def _circuit_program(circuit: Circuit, fuse: bool) -> Tuple[List[Tuple[str, int, tuple]], int]:
    """:func:`_compile_program`, memoised on the circuit (``append`` clears it)."""
    prog = circuit._programs.get(fuse)
    if prog is None:
        prog = circuit._programs[fuse] = _compile_program(circuit, fuse)
    return prog


def _apply_frame_op(kind: str, data: tuple, x: np.ndarray, z: np.ndarray,
                    meas: np.ndarray, detectors: np.ndarray,
                    observables: np.ndarray) -> None:
    """Apply one non-channel op of a compiled program to packed frame rows.

    The one implementation of the frame rules in the module table; columns
    are shots for the sampler and basis faults for the DEM builder.  ``m`` /
    ``mx`` only record the flip: the sampler draws the randomisation itself.
    """
    if kind == "det":
        flat, offsets, rows = data
        detectors[rows] = np.bitwise_xor.reduceat(meas[flat], offsets, axis=0)
    elif kind == "mr":
        tgt, m0 = data
        meas[m0:m0 + tgt.size] = x[tgt]
        x[tgt] = 0
        z[tgt] = 0
    elif kind in ("m", "mx"):
        tgt, m0, _dup = data
        meas[m0:m0 + tgt.size] = (x if kind == "m" else z)[tgt]
    elif kind == "cx":
        for c, t in data[0]:
            x[t] ^= x[c]
            z[c] ^= z[t]
    elif kind == "cz":
        for a, b in data[0]:
            z[a] ^= x[b]
            z[b] ^= x[a]
    elif kind == "h":
        tgt, = data
        tmp = x[tgt]  # fancy indexing gathers a copy
        x[tgt] = z[tgt]
        z[tgt] = tmp
    elif kind == "s":
        tgt, = data
        z[tgt] ^= x[tgt]
    elif kind == "reset":
        tgt, = data
        x[tgt] = 0
        z[tgt] = 0
    elif kind == "mr_seq":
        tgts, m0 = data
        for q in tgts:
            meas[m0] = x[q]
            x[q] = 0
            z[q] = 0
            m0 += 1
    elif kind == "obs":
        midx, obs = data
        observables[obs] ^= np.bitwise_xor.reduce(meas[midx], axis=0)


def _xor_scatter(dest: np.ndarray, idx: np.ndarray, rows: np.ndarray,
                 dup: bool) -> None:
    """``dest[idx] ^= rows``, falling back to the unbuffered ufunc when
    ``idx`` holds duplicates (buffered fancy XOR would drop all but one)."""
    if dup:
        np.bitwise_xor.at(dest, idx, rows)
    else:
        dest[idx] ^= rows


def _scatter_bits(dest: np.ndarray, qubits: np.ndarray, cols: np.ndarray) -> None:
    """Flip shot-bit ``cols[j]`` of packed row ``qubits[j]`` for every ``j``.

    The hit-lane scatter: unbuffered per-lane XOR, so repeated
    (qubit, shot) flips cancel exactly like sequential mask XORs.
    """
    words = cols >> 6
    bits = np.uint64(1) << (cols & 63).astype(np.uint64)
    np.bitwise_xor.at(dest, (qubits, words), bits)


def _hit_lanes(hit_words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(row, shot) indices of set bits in packed hit rows, C order.

    Scans at word granularity (64 lanes per element) and expands only the
    hit words to bit positions — the low-p fast path that replaces a
    ``nonzero`` pass over the full boolean mask.
    """
    wr, wc = np.nonzero(hit_words)
    if not wr.size:
        return wr, wc
    bits = np.unpackbits(hit_words[wr, wc].view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")
    sel, bitpos = np.nonzero(bits)
    return wr[sel], wc[sel] * WORD_BITS + bitpos


def _flip_lanes(kind: str, data: tuple, i0: int, rows: np.ndarray,
                cols: np.ndarray, w: np.ndarray, pv: np.ndarray,
                x: np.ndarray, z: np.ndarray) -> None:
    """XOR the Pauli flips of a noise op's hit lanes into the frame.

    Lane ``j`` is shot ``cols[j]`` of draw row ``i0 + rows[j]``; ``w[j]`` is
    its variate, uniform on ``[0, pv[j])`` where ``pv[j]`` is the row's
    probability.  The one flip kernel of both RNG modes: exact mode passes
    the hit float draws, bitgen the surviving thinning draws.
    """
    if kind == "dep2":
        a, b = data[0], data[1]
        # Uniform over the 15 non-identity two-qubit Paulis, encoded base 4
        # as (pa, pb) with 0=I,1=X,2=Y,3=Z.  The minimum mirrors the
        # reference's np.clip(k, -1, 14): a draw within 1 ulp below p can
        # round w/(p/15) to exactly 15.0.
        code = np.minimum((w / (pv / 15)).astype(np.int8), np.int8(14)) + 1
        pa = code // 4
        pb = code % 4
        for dest, q, sel in (
            (x, a, (pa == 1) | (pa == 2)),
            (z, a, (pa == 2) | (pa == 3)),
            (x, b, (pb == 1) | (pb == 2)),
            (z, b, (pb == 2) | (pb == 3)),
        ):
            _scatter_bits(dest, q[i0 + rows[sel]], cols[sel])
        return
    tgt = data[0]
    if kind == "dep1":
        # Equal chance p/3 for each of X, Y, Z: X below p/3, Y below 2p/3.
        xf = w < 2 * pv / 3  # X or Y
        zf = w >= pv / 3     # Y or Z, since w < pv
        _scatter_bits(x, tgt[i0 + rows[xf]], cols[xf])
        _scatter_bits(z, tgt[i0 + rows[zf]], cols[zf])
        return
    q = tgt[i0 + rows]  # X/Z/Y_ERROR: every lane flips
    if kind != "zerr":
        _scatter_bits(x, q, cols)
    if kind != "xerr":
        _scatter_bits(z, q, cols)


class PackedFrameSimulator:
    """Samples detector/observable flips on a bit-packed Pauli frame.

    ``rng_mode="exact"`` (the default) draws the paper-exact per-target
    variate stream; ``rng_mode="bitgen"`` selects the fast bit-level
    Bernoulli stream (see the module docstring) — same distribution,
    different variates, so the mode must be chosen per task, not flipped
    silently.
    """

    def __init__(self, circuit: Circuit, seed=None, *, rng_mode: str = "exact"):
        if rng_mode not in RNG_MODES:
            raise ValueError(f"unknown rng_mode {rng_mode!r}; "
                             f"valid modes: {', '.join(RNG_MODES)}")
        circuit.validate()
        self.circuit = circuit
        self.rng_mode = rng_mode
        # fuse(bool) -> (ops, bitgen coarse-mask data of those ops): the
        # programs themselves are memoised on the circuit.
        self._aux: dict = {}
        self._words: Optional[np.random.SFC64] = None
        self._trng: Optional[np.random.Generator] = None
        self.reseed(seed)

    def _program(self, fuse: bool) -> Tuple[List[Tuple[str, int, tuple]], int, Optional[dict]]:
        """``(ops, max_draw_rows, bitgen_aux)``: the fused program runs the
        no-trace hot path, the stepwise one keeps the per-instruction trace
        contract; ``bitgen_aux`` is None in exact mode."""
        ops, max_draw_rows = _circuit_program(self.circuit, fuse)
        if self.rng_mode != "bitgen":
            return ops, max_draw_rows, None
        held = self._aux.get(fuse)
        if held is None or held[0] is not ops:
            held = self._aux[fuse] = (ops, _compile_bitgen_aux(ops))
        return ops, max_draw_rows, held[1]

    def reseed(self, seed=None) -> "PackedFrameSimulator":
        """Replace the RNG stream, keeping the compiled program warm.

        ``sim.reseed(s).sample(n)`` is bit-identical to
        ``PackedFrameSimulator(circuit, seed=s, rng_mode=...).sample(n)``
        without paying validation + compilation again — what the decoding
        pipeline uses to run one warm simulator across shards and scheduler
        waves.

        Bitgen mode derives two child streams from the seed — one for raw
        words, one for thinning doubles — so the (data-dependent) number of
        correction draws can never shift word consumption.  Both ride
        ``SFC64``: raw-word generation is the bitgen hot path and SFC64
        emits full-width words ~1.6x faster than the default PCG64 (the
        exact-mode ``self.rng`` stays PCG64 — its stream is pinned by the
        paper-reproduction contract).
        """
        self.rng = np.random.default_rng(seed)
        if self.rng_mode == "bitgen":
            root = (seed if isinstance(seed, np.random.SeedSequence)
                    else np.random.SeedSequence(seed))
            key = tuple(root.spawn_key)
            self._words = np.random.SFC64(
                np.random.SeedSequence(entropy=root.entropy,
                                       spawn_key=key + (0,)))
            self._trng = np.random.Generator(np.random.SFC64(
                np.random.SeedSequence(entropy=root.entropy,
                                       spawn_key=key + (1,))))
        return self

    # ------------------------------------------------------------------
    def sample(self, shots: int, *, trace: Optional[TraceHook] = None,
               scratch: Optional[DrawScratch] = None) -> PackedDetectorSamples:
        """Run ``shots`` Monte-Carlo samples; in exact mode bit-identical to
        the frozen :mod:`repro.stabilizer.reference` loop for the same seed.

        ``shots=0`` returns an empty sample without consuming RNG state
        (engine shard math may legitimately produce zero-shot requests).
        ``scratch`` substitutes a caller-owned :class:`DrawScratch` for the
        per-call exact-mode draw buffers — the fused execution layer shares
        one across segments; the variate stream is identical either way.
        """
        if shots < 0:
            raise ValueError("shots must be non-negative")
        circuit = self.circuit
        nw = num_words(shots)
        num_obs = circuit.num_observables
        if shots == 0:
            return PackedDetectorSamples(
                detectors_packed=np.zeros((circuit.num_detectors, 0), dtype=np.uint64),
                observables_packed=np.zeros((num_obs, 0), dtype=np.uint64),
                num_shots=0,
            )
        rng = self.rng

        x = np.zeros((circuit.num_qubits, nw), dtype=np.uint64)
        z = np.zeros((circuit.num_qubits, nw), dtype=np.uint64)
        meas_flips = np.zeros((circuit.num_measurements, nw), dtype=np.uint64)
        detectors = np.zeros((circuit.num_detectors, nw), dtype=np.uint64)
        observables = np.zeros((max(num_obs, 1), nw), dtype=np.uint64)

        ops, max_draw_rows, bg_aux = self._program(fuse=trace is None)
        bitgen = self.rng_mode == "bitgen"
        # Shared draw/compare scratch, sized to one row block: reusing the
        # buffers keeps the hot loop free of multi-MB allocations.  Bitgen
        # never touches float scratch — its masks are born packed.
        rbuf = hbuf = None
        if max_draw_rows and not bitgen:
            buf_rows = min(max_draw_rows,
                           max(1, _BLOCK_BYTES // max(shots * 8, 1)))
            rbuf, hbuf = (scratch or DrawScratch()).view(buf_rows, shots)
        if bitgen:
            words, trng = self._words, self._trng
            tail = _tail_mask(shots)

        insts = circuit.instructions if trace is not None else None
        for op_index, (kind, first, data) in enumerate(ops):
            if kind not in _CHANNEL_KINDS:
                _apply_frame_op(kind, data, x, z, meas_flips, detectors, observables)
                if kind in ("m", "mx"):
                    # Randomise the collapsed component: Bernoulli(1/2) per
                    # lane, one fresh word per 64 lanes in bitgen mode.
                    tgt, _m0, dup = data
                    other = z if kind == "m" else x
                    for i0, i1 in _row_blocks(tgt.size, shots):
                        if bitgen:
                            flips = words.random_raw((i1 - i0) * nw).reshape(i1 - i0, nw)
                            flips[:, -1] &= tail
                        else:
                            r = rbuf[:i1 - i0]
                            rng.random(out=r)
                            flips = pack_rows(np.less(r, 0.5, out=hbuf[:i1 - i0]))
                        _xor_scatter(other, tgt[i0:i1], flips, dup)
            elif bitgen:
                self._run_bitgen_channel(kind, data, bg_aux[op_index],
                                         words, trng, x, z, nw, tail, shots)
            elif kind in ("dep1", "dep2"):
                pflat = _channel_probs(kind, data)
                for i0, i1 in _row_blocks(pflat.size, shots):
                    r = rbuf[:i1 - i0]
                    rng.random(out=r)
                    hit = np.less(r, pflat[i0:i1, None], out=hbuf[:i1 - i0])
                    rows_i, cols_i = _hit_lanes(pack_rows(hit))
                    _flip_lanes(kind, data, i0, rows_i, cols_i,
                                r[rows_i, cols_i], pflat[i0 + rows_i], x, z)
            else:
                # Packed-row XOR is cheap at any density, so Bernoulli
                # channels always take the dense compare->pack->XOR path.
                tgt, pflat, dup = data
                for i0, i1 in _row_blocks(tgt.size, shots):
                    r = rbuf[:i1 - i0]
                    rng.random(out=r)
                    hit = np.less(r, pflat[i0:i1, None], out=hbuf[:i1 - i0])
                    rows = pack_rows(hit)
                    if kind != "zerr":
                        _xor_scatter(x, tgt[i0:i1], rows, dup)
                    if kind != "xerr":
                        _xor_scatter(z, tgt[i0:i1], rows, dup)
            if trace is not None:
                trace(first, insts[first], unpack_bits(x, shots), unpack_bits(z, shots),
                      unpack_bits(meas_flips, shots) if meas_flips.size
                      else np.zeros((0, shots), dtype=bool))

        return PackedDetectorSamples(
            detectors_packed=detectors,
            observables_packed=observables[:num_obs] if num_obs
            else np.zeros((0, nw), dtype=np.uint64),
            num_shots=shots,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _run_bitgen_channel(kind: str, data: tuple, aux: tuple,
                            words: np.random.SFC64,
                            trng: np.random.Generator,
                            x: np.ndarray, z: np.ndarray,
                            nw: int, tail: np.uint64, shots: int) -> None:
        """One noise-channel op on the bit-level path.

        Coarse packed Bernoulli(p_hi) mask -> candidate lanes -> one
        thinning double per candidate (``u * p_hi < p`` keeps the lane, and
        the kept ``u * p_hi`` is uniform on ``[0, p)``) -> :func:`_flip_lanes`
        on the kept lanes.  Candidates enumerate in row-major C order and
        blocks partition rows contiguously, so the thinning stream — like
        the word stream — is consumed identically for any block split and
        for stepwise (trace) programs.
        """
        pflat = _channel_probs(kind, data)
        p_hi = aux[2]
        for i0, i1 in _row_blocks(pflat.size, shots):
            coarse = _bitgen_mask(words, aux, i0, i1, nw, tail)
            rows_i, cols_i = _hit_lanes(coarse)
            if not rows_i.size:
                continue
            u = trng.random(rows_i.size)
            pv = pflat[i0 + rows_i]
            w = u * p_hi[i0 + rows_i]
            keep = w < pv
            _flip_lanes(kind, data, i0, rows_i[keep], cols_i[keep],
                        w[keep], pv[keep], x, z)


# ----------------------------------------------------------------------
# Heterogeneous task fusion
# ----------------------------------------------------------------------
class FusedProgram:
    """Several compiled task programs executed as one worker invocation.

    The engine's sweeps are many-small-circuit workloads: a 7-task d=3/d=5
    grid dispatches dozens of sub-second shards, each paying its own
    submission round-trip and its own draw-scratch allocation.  A
    ``FusedProgram`` concatenates the *compiled* programs of several
    :class:`PackedFrameSimulator` segments — one per (task, seed, shots)
    request — so one call advances every segment back to back:

    * each segment keeps its **own** compiled op stream, detector/observable
      row maps and shot-block output (requests may carry different shot
      counts), forced through the fused (no-trace) program at construction
      so compilation never lands inside the timed run;
    * exact-mode segments share one :class:`DrawScratch` sized to the
      largest segment, replacing N multi-MB allocations with one;
    * each segment reseeds its simulator with the request's own seed before
      sampling, so segment ``k`` consumes **exactly** the RNG stream an
      unfused ``reseed(seed).sample(shots)`` call would — fusion shares
      dispatch and scratch, never variates, which is what makes fused
      results bit-identical to unfused execution for any grouping.

    Segments must share one ``rng_mode``: exact and bitgen draw different
    stream kinds (PCG64 floats vs SFC64 words) and a mixed group could not
    share scratch usefully, so the planner never builds one and the
    constructor rejects it loudly.
    """

    def __init__(self, sims: Sequence[PackedFrameSimulator]):
        if not sims:
            raise ValueError("FusedProgram needs at least one segment")
        modes = sorted({sim.rng_mode for sim in sims})
        if len(modes) > 1:
            raise ValueError("fused segments must share one rng_mode, got "
                             + ", ".join(modes))
        self.rng_mode = modes[0]
        self.sims: List[PackedFrameSimulator] = list(sims)
        for sim in self.sims:
            sim._program(fuse=True)  # compile (or reuse) outside the timed run
        self._scratch = DrawScratch() if self.rng_mode == "exact" else None
        #: Wall-clock seconds per segment of the last :meth:`run` call, in
        #: segment order — the per-task sample timings the pipeline stats
        #: carry forward.
        self.segment_seconds: List[float] = []

    @property
    def num_segments(self) -> int:
        return len(self.sims)

    def run(self, requests: Sequence[Tuple[int, object]]) -> List[PackedDetectorSamples]:
        """Sample every segment; ``requests[k]`` is segment ``k``'s
        ``(shots, seed)``.

        Returns one :class:`PackedDetectorSamples` per segment, in segment
        order, each bit-identical to
        ``sims[k].reseed(seed).sample(shots)`` run alone.
        """
        if len(requests) != len(self.sims):
            raise ValueError(
                f"got {len(requests)} requests for {len(self.sims)} segments")
        out: List[PackedDetectorSamples] = []
        seconds: List[float] = []
        for sim, (shots, seed) in zip(self.sims, requests):
            t0 = time.perf_counter()
            out.append(sim.reseed(seed).sample(shots, scratch=self._scratch))
            seconds.append(time.perf_counter() - t0)
        self.segment_seconds = seconds
        return out


# Noiseless shots behind noiseless_deterministic (four packed words).
_NOISELESS_CHECK_SHOTS = 256


def noiseless_deterministic(circuit: Circuit) -> bool:
    """True when no detector or observable fires with the noise removed.

    Samples ``_NOISELESS_CHECK_SHOTS`` noiseless shots: a detector that is
    random with probability 1/2 slips through with probability 2**-256.
    """
    samples = PackedFrameSimulator(circuit.without_noise(), seed=0).sample(
        _NOISELESS_CHECK_SHOTS)
    return not (samples.detectors_packed.any()
                or samples.observables_packed.any())
