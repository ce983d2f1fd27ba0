"""Frozen, hashable task specifications for the execution engine.

A :class:`TaskSpec` is a *complete, self-contained* description of a unit of
Monte-Carlo work, built only from primitive values (ints, floats, strings,
tuples) and the frozen :class:`~repro.noise.circuit_noise.CircuitNoiseModel`,
itself a record of such values.  That buys three things at once:

* tasks can be pickled to worker processes — local pool workers and remote
  ``repro.engine.worker`` hosts alike — without dragging circuit or decoder
  objects across the process (or machine) boundary;
* tasks have a **stable content hash** (canonical JSON + SHA-256), which keys
  the on-disk result cache and the per-worker circuit/decoder memo; cache
  keys add only what else determines the numbers (seed fingerprint, shot
  policy, shard size) and never where the work ran — execution backend,
  worker count and host list are all result-invariant;
* reconstruction is deterministic - ``adapt_patch`` and the circuit builders
  are pure functions of the spec fields, so every process rebuilds exactly
  the same computation.

Four task kinds cover the repo's Monte-Carlo workloads:

``LerPointTask``
    One logical-error-rate point: a (patch, noise, rounds) cell of a memory
    or stability experiment, sampled for some number of shots.
``CutoffCellTask``
    A ``LerPointTask`` subtype carrying the strategy metadata of the Sec. 6
    cutoff-fidelity sweep (keep vs disable, bad-qubit error rate).
``PatchSampleTask``
    A batch of defective-chiplet draws: sample fabrication defects, adapt the
    code, keep patches that stay valid above a minimum distance.
``YieldTask``
    A chiplet yield Monte-Carlo (Figs. 12-17): sample defective chiplets and
    measure the fraction accepted by a post-selection criterion, with the
    criterion and boundary standard held as primitive fields.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.adaptation import adapt_patch
from ..core.patch import AdaptedPatch
from ..noise.circuit_noise import CircuitNoiseModel
from ..noise.fabrication import DefectModel, DefectSet
from ..stabilizer.packed import RNG_MODES
from ..surface_code.circuits import build_memory_circuit, build_stability_circuit
from ..surface_code.layout import RotatedSurfaceCodeLayout, StabilityLayout, shared_layout

__all__ = [
    "ENGINE_SCHEMA_VERSION",
    "TaskSpec",
    "LerPointTask",
    "CutoffCellTask",
    "PatchSampleTask",
    "YieldTask",
    "TASK_KINDS",
    "task_from_payload",
    "canonical_json",
]

# Bump when the meaning of a task payload (or of the numbers it produces)
# changes; every cached result records the version it was produced under and
# stale entries are ignored.
ENGINE_SCHEMA_VERSION = 1

_EXPERIMENTS = ("memory", "stability")


def canonical_json(obj) -> str:
    """Deterministic JSON encoding used for content hashes and cache keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _coords(coords) -> Tuple[Tuple[int, int], ...]:
    return tuple(sorted((int(x), int(y)) for x, y in coords))


def _links(links) -> Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...]:
    return tuple(sorted(((int(a[0]), int(a[1])), (int(b[0]), int(b[1])))
                        for a, b in links))


def _noise_payload(noise: CircuitNoiseModel) -> dict:
    """JSON form of a noise model: the ``noise`` key of an LER payload."""
    return {
        "p": noise.p,
        "single_qubit_factor": noise.single_qubit_factor,
        "readout_factor": noise.readout_factor,
        "idle_data_factor": noise.idle_data_factor,
        "reset_factor": noise.reset_factor,
        "bad_qubits": [[[c[0], c[1]], r] for c, r in noise.bad_qubits],
    }


def _noise_from_payload(payload: dict) -> CircuitNoiseModel:
    """Inverse of :func:`_noise_payload`: plain floats, sorted bad qubits."""
    return CircuitNoiseModel(
        p=float(payload["p"]),
        single_qubit_factor=float(payload["single_qubit_factor"]),
        readout_factor=float(payload["readout_factor"]),
        idle_data_factor=float(payload["idle_data_factor"]),
        reset_factor=float(payload["reset_factor"]),
        bad_qubits=tuple(sorted(((int(c[0]), int(c[1])), float(r))
                                for c, r in payload["bad_qubits"])),
    )


# ----------------------------------------------------------------------
# Task specs
# ----------------------------------------------------------------------
class TaskSpec:
    """Common content-hash machinery; subclasses implement ``payload()``."""

    kind: str = "abstract"

    def payload(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def content_hash(self) -> str:
        body = {"schema": ENGINE_SCHEMA_VERSION, "kind": self.kind,
                "spec": self.payload()}
        return hashlib.sha256(canonical_json(body).encode()).hexdigest()


@dataclass(frozen=True)
class LerPointTask(TaskSpec):
    """One logical-error-rate measurement cell.

    The patch is described by (layout kind, size, defect set); the adaptation
    is recomputed deterministically wherever the task runs.

    ``rng_mode`` selects the sampler's variate stream: ``"exact"`` (the
    default) is the paper-exact per-target stream, ``"bitgen"`` the fast
    bit-level Bernoulli stream (see :mod:`repro.stabilizer.packed`).  The
    two streams produce statistically equivalent but not bit-identical
    numbers, so the field is part of the content hash — bitgen and exact
    results can never alias in the cache — and ``"exact"`` payloads omit it
    for backward-compatible hashes.
    """

    experiment: str                # "memory" or "stability"
    layout_kind: str               # "rotated" or "stability"
    size: int
    faulty_qubits: Tuple[Tuple[int, int], ...]
    faulty_links: Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...]
    physical_error_rate: float
    rounds: int
    noise: CircuitNoiseModel
    rng_mode: str = "exact"

    kind = "ler_point"
    decoder = "mwpm"  # the only decoder; kept in payloads for stable hashes

    def __post_init__(self) -> None:
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.rng_mode not in RNG_MODES:
            raise ValueError(f"unknown rng_mode {self.rng_mode!r}")
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        # The domain types check layout kind, width and rate.
        self.layout()
        CircuitNoiseModel.standard(self.physical_error_rate)

    # ------------------------------------------------------------------
    @classmethod
    def from_patch(
        cls,
        experiment: str,
        patch: AdaptedPatch,
        physical_error_rate: float,
        *,
        rounds: Optional[int] = None,
        noise: Optional[CircuitNoiseModel] = None,
        rng_mode: str = "exact",
    ) -> "LerPointTask":
        """Describe an experiment on an already-adapted patch."""
        if noise is None:
            noise = CircuitNoiseModel.standard(physical_error_rate)
        if rounds is None:
            rounds = patch.layout.size
        layout_kind = ("stability" if isinstance(patch.layout, StabilityLayout)
                       else "rotated")
        return cls(
            experiment=experiment,
            layout_kind=layout_kind,
            size=patch.layout.size,
            faulty_qubits=_coords(patch.defects.faulty_qubits),
            faulty_links=_links(patch.defects.faulty_links),
            physical_error_rate=float(physical_error_rate),
            rounds=int(rounds),
            # Plain floats and sorted bad qubits: equal models hash equally.
            noise=_noise_from_payload(_noise_payload(noise)),
            rng_mode=rng_mode,
        )

    # ------------------------------------------------------------------
    def layout(self) -> RotatedSurfaceCodeLayout:
        return shared_layout(self.layout_kind, self.size)

    def defects(self) -> DefectSet:
        return DefectSet.of(qubits=self.faulty_qubits, links=self.faulty_links)

    def patch(self) -> AdaptedPatch:
        return adapt_patch(self.layout(), self.defects())

    def build_circuit(self):
        patch = self.patch()
        if self.experiment == "stability":
            return build_stability_circuit(patch, self.noise, self.rounds)
        return build_memory_circuit(patch, self.noise, self.rounds)

    def payload(self) -> dict:
        out = {
            "experiment": self.experiment,
            "layout_kind": self.layout_kind,
            "size": self.size,
            "faulty_qubits": [list(c) for c in self.faulty_qubits],
            "faulty_links": [[list(a), list(b)] for a, b in self.faulty_links],
            "physical_error_rate": self.physical_error_rate,
            "rounds": self.rounds,
            "noise": _noise_payload(self.noise),
            "decoder": self.decoder,
        }
        if self.rng_mode != "exact":
            # Omitted for the default: every pre-existing payload (and
            # content hash, and cache record) stays byte-identical.
            out["rng_mode"] = self.rng_mode
        return out

    # ------------------------------------------------------------------
    @classmethod
    def from_payload(cls, payload: dict) -> "LerPointTask":
        """Inverse of :meth:`payload`: rebuild the frozen spec from JSON data.

        Round-trip safe: ``type(t).from_payload(t.payload())`` equals ``t``
        and shares its content hash, which is what lets a service job store
        persist task payloads and hand them to workers on other machines.
        Field validation reruns in ``__post_init__``, so a tampered payload
        fails loudly instead of building a nonsense task.
        """
        if payload["decoder"] != cls.decoder:
            raise ValueError(f"unknown decoder {payload['decoder']!r}")
        return cls(
            experiment=str(payload["experiment"]),
            layout_kind=str(payload["layout_kind"]),
            size=int(payload["size"]),
            faulty_qubits=_coords(payload["faulty_qubits"]),
            faulty_links=_links(payload["faulty_links"]),
            physical_error_rate=float(payload["physical_error_rate"]),
            rounds=int(payload["rounds"]),
            noise=_noise_from_payload(payload["noise"]),
            rng_mode=str(payload.get("rng_mode", "exact")),
            **cls._extra_fields_from_payload(payload),
        )

    @classmethod
    def _extra_fields_from_payload(cls, payload: dict) -> dict:
        """Subclass hook: extra constructor kwargs carried in the payload."""
        return {}


@dataclass(frozen=True)
class CutoffCellTask(LerPointTask):
    """One cell of the cutoff-fidelity sweep (Sec. 6 / Fig. 20).

    ``strategy`` is ``"keep"`` (bad qubit left in the code, elevated noise via
    ``noise.bad_qubits``) or ``"disable"`` (qubit excised, super-stabilizers
    formed).  The fields are part of the content hash so keep/disable cells
    never alias in the cache even when their circuits coincide.
    """

    strategy: str = "disable"
    bad_qubit_error_rate: Optional[float] = None

    kind = "cutoff_cell"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.strategy not in ("keep", "disable"):
            raise ValueError(f"unknown cutoff strategy {self.strategy!r}")

    def payload(self) -> dict:
        out = super().payload()
        out["strategy"] = self.strategy
        out["bad_qubit_error_rate"] = self.bad_qubit_error_rate
        return out

    @classmethod
    def _extra_fields_from_payload(cls, payload: dict) -> dict:
        rate = payload["bad_qubit_error_rate"]
        return {"strategy": str(payload["strategy"]),
                "bad_qubit_error_rate": None if rate is None else float(rate)}


@dataclass(frozen=True)
class PatchSampleTask(TaskSpec):
    """A batch of defective-chiplet draws with validity post-selection.

    Attempt ``i`` of the batch always consumes RNG child stream ``i`` of the
    run's root seed, so the accepted set is identical no matter how attempts
    are sharded across workers: the engine keeps the first ``num_patches``
    acceptances in attempt-index order.
    """

    size: int
    defect_model_kind: str
    defect_rate: float
    num_patches: int
    min_distance: int = 2
    require_valid: bool = True
    max_attempts_factor: int = 100

    kind = "patch_sample"

    def __post_init__(self) -> None:
        # The domain types check width, defect model kind and rate.
        self.layout()
        self.defect_model()
        if self.num_patches <= 0:
            raise ValueError("num_patches must be positive")
        if self.max_attempts_factor <= 0:
            raise ValueError("max_attempts_factor must be positive")

    def layout(self) -> RotatedSurfaceCodeLayout:
        return shared_layout("rotated", self.size)

    def defect_model(self) -> DefectModel:
        return DefectModel(self.defect_model_kind, self.defect_rate)

    @property
    def max_attempts(self) -> int:
        return self.max_attempts_factor * self.num_patches

    def payload(self) -> dict:
        return {
            "size": self.size,
            "defect_model_kind": self.defect_model_kind,
            "defect_rate": self.defect_rate,
            "num_patches": self.num_patches,
            "min_distance": self.min_distance,
            "require_valid": self.require_valid,
            "max_attempts_factor": self.max_attempts_factor,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PatchSampleTask":
        """Inverse of :meth:`payload` (see :meth:`LerPointTask.from_payload`)."""
        return cls(
            size=int(payload["size"]),
            defect_model_kind=str(payload["defect_model_kind"]),
            defect_rate=float(payload["defect_rate"]),
            num_patches=int(payload["num_patches"]),
            min_distance=int(payload["min_distance"]),
            require_valid=bool(payload["require_valid"]),
            max_attempts_factor=int(payload["max_attempts_factor"]),
        )


_CRITERIA = ("distance", "defect_free")


@dataclass(frozen=True)
class YieldTask(TaskSpec):
    """A chiplet yield Monte-Carlo with post-selection (Figs. 12-17).

    Every yield run is one of these, run by :meth:`Engine.run_yield
    <repro.engine.executor.Engine.run_yield>`, so yield sweeps shard over
    the backend and land in the content-addressed on-disk cache exactly like
    LER tasks.  Sample ``i`` of the batch always draws RNG child stream
    ``i`` of the run's root seed, so the counts are identical no matter how
    samples are blocked across workers.

    The criterion is a :class:`DistanceCriterion` (``target_distance``,
    ``use_operator_count``) or a :class:`DefectFreeCriterion`; a
    :class:`BoundaryStandard` ``std`` is ``dataclasses.astuple(std)``, whose
    field order is the ``boundary`` tuple order.
    """

    chiplet_size: int
    defect_model_kind: str
    defect_rate: float
    samples: int
    criterion_kind: str = "distance"
    target_distance: Optional[int] = None
    use_operator_count: bool = True
    allow_rotation: bool = False
    #: (name, require_no_deformation, all_edges, target_distance) or None
    boundary: Optional[Tuple[str, bool, bool, Optional[int]]] = None

    kind = "yield"

    def __post_init__(self) -> None:
        # The domain types check width, defect model kind and rate.
        self.layout()
        self.defect_model()
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if self.criterion_kind not in _CRITERIA:
            raise ValueError(f"unknown criterion kind {self.criterion_kind!r}")
        if self.criterion_kind == "distance" and self.target_distance is None:
            raise ValueError("distance criterion requires target_distance")

    # ------------------------------------------------------------------
    def layout(self) -> RotatedSurfaceCodeLayout:
        return shared_layout("rotated", self.chiplet_size)

    def defect_model(self) -> DefectModel:
        return DefectModel(self.defect_model_kind, self.defect_rate)

    def criterion(self):
        from ..core.postselection import DefectFreeCriterion, DistanceCriterion

        if self.criterion_kind == "defect_free":
            return DefectFreeCriterion()
        return DistanceCriterion(self.target_distance, self.use_operator_count)

    def boundary_standard(self):
        if self.boundary is None:
            return None
        from ..chiplet.boundary import BoundaryStandard

        name, no_deformation, all_edges, target = self.boundary
        return BoundaryStandard(name, no_deformation, all_edges, target)

    def payload(self) -> dict:
        return {
            "chiplet_size": self.chiplet_size,
            "defect_model_kind": self.defect_model_kind,
            "defect_rate": self.defect_rate,
            "samples": self.samples,
            "criterion": {
                "kind": self.criterion_kind,
                "target_distance": self.target_distance,
                "use_operator_count": self.use_operator_count,
            },
            "allow_rotation": self.allow_rotation,
            "boundary": None if self.boundary is None else list(self.boundary),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "YieldTask":
        """Inverse of :meth:`payload` (see :meth:`LerPointTask.from_payload`)."""
        crit = payload["criterion"]
        target = crit["target_distance"]
        boundary = payload["boundary"]
        if boundary is not None:
            name, no_deformation, all_edges, b_target = boundary
            boundary = (str(name), bool(no_deformation), bool(all_edges),
                        None if b_target is None else int(b_target))
        return cls(
            chiplet_size=int(payload["chiplet_size"]),
            defect_model_kind=str(payload["defect_model_kind"]),
            defect_rate=float(payload["defect_rate"]),
            samples=int(payload["samples"]),
            criterion_kind=str(crit["kind"]),
            target_distance=None if target is None else int(target),
            use_operator_count=bool(crit["use_operator_count"]),
            allow_rotation=bool(payload["allow_rotation"]),
            boundary=boundary,
        )


# ----------------------------------------------------------------------
# Payload round-trip dispatch
# ----------------------------------------------------------------------
#: Registered task kinds, keyed by ``TaskSpec.kind`` — the dispatch table for
#: rebuilding a frozen spec from its persisted ``payload()``.
TASK_KINDS = {
    LerPointTask.kind: LerPointTask,
    CutoffCellTask.kind: CutoffCellTask,
    PatchSampleTask.kind: PatchSampleTask,
    YieldTask.kind: YieldTask,
}


def task_from_payload(kind: str, payload: dict) -> TaskSpec:
    """Rebuild any registered task spec from ``(task.kind, task.payload())``.

    The round trip preserves the content hash, so a payload persisted by a
    service front end reconstructs to a task whose cache key — and RNG
    streams, and therefore bytes — match a direct in-process run exactly.
    """
    try:
        cls = TASK_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown task kind {kind!r}; "
            f"valid kinds: {', '.join(sorted(TASK_KINDS))}"
        ) from None
    if not isinstance(payload, dict):
        raise ValueError(f"{kind} task payload must be an object,"
                         f" got {payload!r}")
    try:
        return cls.from_payload(payload)
    except (KeyError, TypeError) as exc:
        # Mis-shaped payloads surface as ValueError so boundary validators
        # (e.g. the service API) can report them uniformly.
        raise ValueError(f"malformed {kind} task payload: {exc}") from exc
