"""Job specifications: the JSON contract between front end, store and workers.

A *job spec* is a plain-JSON dict that pins **everything that determines a
run's bytes** — the frozen task payload(s), the shot policy, the seed
fingerprint and the shard size — and nothing that doesn't (no backend, no
worker count, no host names).  It round-trips losslessly through the SQLite
store and the HTTP API: a worker on any machine rebuilds exactly the task
specs and RNG roots a direct in-process ``Engine`` call would use, so the
service's results are bit-identical (and its cache records byte-identical)
to library use.

Three job kinds cover the service's workloads:

``ler``
    One LER point: ``{"kind": "ler", "task_kind": ..., "task": <payload>,
    "policy": <payload>, "seed": <fingerprint|null>, "shard_size": n}``.
    Executed via :meth:`Engine.run_ler`.
``sweep``
    A bundle of LER points sharing one policy and one *root* seed —
    item ``i`` draws RNG child stream ``i``, mirroring
    :meth:`Engine.run_ler_many` exactly.
``yield``
    A chiplet yield Monte-Carlo: ``{"kind": "yield", "task": <payload>,
    "seed": <fingerprint|null>}``.  Executed via :meth:`Engine.run_yield`.

Task payloads carry every content-hash field, including ``rng_mode``: a
bitgen-mode LER job submitted over HTTP rebuilds a bitgen task on the
worker via ``task_from_payload`` (exact-mode payloads omit the field for
backward compatibility), and its cache records can never alias an
exact-mode run of the same parameters.

Seeds are stored as the engine's canonical *fingerprints*
(``[[entropy...], [spawn_key...]]``); the submission API additionally
accepts a bare integer and fingerprints it.  ``null`` means fresh OS
entropy: legal, but such jobs are neither cached nor coalesced (their
results are not reproducible, so they have no content identity).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..engine.executor import SweepItem, ler_cache_key, seeded_task_key
from ..engine.rng import as_seed_sequence, child_stream, from_fingerprint, seed_fingerprint
from ..engine.scheduler import DEFAULT_SHARD_SIZE, ShotPolicy
from ..engine.tasks import LerPointTask, YieldTask, task_from_payload

__all__ = [
    "JOB_KINDS",
    "DEFAULT_SHARD_SIZE",
    "YIELD_SAMPLE_COST",
    "normalize_spec",
    "policy_from_payload",
    "sweep_items",
    "yield_job",
    "spec_cache_keys",
    "spec_estimated_cost",
]

JOB_KINDS = ("ler", "sweep", "yield")

#: Scheduler cost of one yield sample, in shot-equivalents.  A yield sample
#: adapts a whole patch and evaluates its distance, which is orders of
#: magnitude heavier than one decoded shot; the exact weight only shapes
#: *ranking* between mixed job kinds, never results.
YIELD_SAMPLE_COST = 32.0

_POLICY_FIELDS = ("max_shots", "min_shots", "target_failures",
                  "target_rel_halfwidth", "z", "growth")
_LER_TASK_KINDS = ("ler_point", "cutoff_cell")


# ----------------------------------------------------------------------
# Seed handling
# ----------------------------------------------------------------------
def _normalize_seed(value) -> Optional[list]:
    """User-facing seed (int or fingerprint) to canonical fingerprint JSON."""
    if value is None:
        return None
    if isinstance(value, bool):
        raise ValueError("seed must be an integer or a fingerprint")
    if isinstance(value, int):
        fp = seed_fingerprint(value)
        return [list(fp[0]), list(fp[1])]
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(part, (list, tuple)) for part in value)):
        entropy, spawn = value
        if not entropy:
            raise ValueError("seed fingerprint has an empty entropy key")
        return [[int(e) for e in entropy], [int(k) for k in spawn]]
    raise ValueError(
        f"seed must be null, an integer or an [[entropy],[spawn_key]] "
        f"fingerprint, got {value!r}"
    )


def _seed_from_spec(spec: dict):
    """The spec's root seed as a ``SeedSequence`` (or ``None`` if unseeded)."""
    fp = spec.get("seed")
    if fp is None:
        return None
    return from_fingerprint((tuple(fp[0]), tuple(fp[1])))


# ----------------------------------------------------------------------
# Policy handling
# ----------------------------------------------------------------------
def policy_from_payload(payload) -> ShotPolicy:
    """A ``ShotPolicy`` from its canonical payload (or a ``{"shots": n}``
    convenience form); unknown keys are rejected loudly."""
    if not isinstance(payload, dict):
        raise ValueError(f"policy must be an object, got {payload!r}")
    if set(payload) == {"shots"}:
        return ShotPolicy.fixed(int(payload["shots"]))
    unknown = set(payload) - set(_POLICY_FIELDS)
    if unknown:
        raise ValueError(f"unknown policy fields: {', '.join(sorted(unknown))}")
    if "max_shots" not in payload:
        raise ValueError("policy needs max_shots (or the {'shots': n} form)")
    kwargs = {k: payload[k] for k in _POLICY_FIELDS if k in payload}
    return ShotPolicy(**kwargs)


def _policy_payload(body: dict) -> dict:
    """Extract and canonicalize the policy from a submission body."""
    if "policy" in body and "shots" in body:
        raise ValueError("give either policy or shots, not both")
    if "shots" in body:
        return ShotPolicy.fixed(int(body["shots"])).payload()
    if "policy" not in body:
        raise ValueError("LER jobs need a policy (or shots)")
    return policy_from_payload(body["policy"]).payload()


# ----------------------------------------------------------------------
# Normalization (the submission boundary)
# ----------------------------------------------------------------------
def normalize_spec(body: dict) -> dict:
    """Validate a submission body into the canonical stored spec.

    Every task payload is round-tripped through its frozen spec class, so a
    malformed payload fails here — at the API boundary, with a
    ``ValueError`` — rather than on a worker an hour later.
    """
    if not isinstance(body, dict):
        raise ValueError("job submission must be a JSON object")
    kind = body.get("kind")
    if kind not in JOB_KINDS:
        raise ValueError(
            f"unknown job kind {kind!r}; valid kinds: {', '.join(JOB_KINDS)}")
    seed = _normalize_seed(body.get("seed"))

    if kind == "yield":
        task = task_from_payload("yield", body.get("task"))
        return {"kind": "yield", "task": task.payload(), "seed": seed}

    shard_size = int(body.get("shard_size", DEFAULT_SHARD_SIZE))
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    policy = _policy_payload(body)

    if kind == "ler":
        task_kind = body.get("task_kind", "ler_point")
        if task_kind not in _LER_TASK_KINDS:
            raise ValueError(f"LER jobs take task_kind in {_LER_TASK_KINDS}, "
                             f"got {task_kind!r}")
        task = task_from_payload(task_kind, body.get("task"))
        return {"kind": "ler", "task_kind": task_kind, "task": task.payload(),
                "policy": policy, "seed": seed, "shard_size": shard_size}

    # sweep
    tasks = body.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ValueError("sweep jobs need a non-empty tasks list")
    kinds = body.get("task_kinds", "ler_point")
    if isinstance(kinds, str):
        kinds = [kinds] * len(tasks)
    if len(kinds) != len(tasks):
        raise ValueError("task_kinds must match tasks in length")
    for k in kinds:
        if k not in _LER_TASK_KINDS:
            raise ValueError(f"sweep task kinds must be in {_LER_TASK_KINDS}, "
                             f"got {k!r}")
    payloads = [task_from_payload(k, t).payload()
                for k, t in zip(kinds, tasks)]
    return {"kind": "sweep", "task_kinds": list(kinds), "tasks": payloads,
            "policy": policy, "seed": seed, "shard_size": shard_size}


# ----------------------------------------------------------------------
# Execution-side reconstruction
# ----------------------------------------------------------------------
def _ler_tasks(spec: dict) -> List[LerPointTask]:
    if spec["kind"] == "ler":
        return [task_from_payload(spec["task_kind"], spec["task"])]
    return [task_from_payload(k, t)
            for k, t in zip(spec["task_kinds"], spec["tasks"])]


def _item_seeds(spec: dict, count: int) -> List:
    """Per-item seeds: the root itself for ``ler``, child streams for
    ``sweep`` — exactly the :meth:`Engine.run_ler_many` derivation."""
    root = _seed_from_spec(spec)
    if spec["kind"] == "ler":
        return [root]
    if root is None:
        return [None] * count
    root = as_seed_sequence(root)
    return [child_stream(root, i) for i in range(count)]


def sweep_items(spec: dict) -> List[SweepItem]:
    """The spec's :class:`SweepItem` list (kinds ``ler`` and ``sweep``)."""
    if spec["kind"] not in ("ler", "sweep"):
        raise ValueError(f"not an LER job spec: {spec.get('kind')!r}")
    tasks = _ler_tasks(spec)
    policy = policy_from_payload(spec["policy"])
    seeds = _item_seeds(spec, len(tasks))
    return [SweepItem(task, policy, seed)
            for task, seed in zip(tasks, seeds)]


def yield_job(spec: dict) -> Tuple[YieldTask, object]:
    """The spec's ``(YieldTask, seed)`` pair (kind ``yield``)."""
    if spec["kind"] != "yield":
        raise ValueError(f"not a yield job spec: {spec.get('kind')!r}")
    task = task_from_payload("yield", spec["task"])
    return task, _seed_from_spec(spec)


# ----------------------------------------------------------------------
# Identity and cost (scheduler/coalescer inputs)
# ----------------------------------------------------------------------
def spec_cache_keys(spec: dict) -> List[Optional[str]]:
    """Per-unit engine cache keys — the keys an execution *will* write.

    Minted by the same module-level functions the engine uses
    (:func:`ler_cache_key` / :func:`seeded_task_key`), so probing the
    result cache with these keys is an exact cache-hit predictor, and
    hashing them gives a job its content identity.  Unseeded units map to
    ``None`` (no reproducible identity).
    """
    if spec["kind"] == "yield":
        task, seed = yield_job(spec)
        fp = seed_fingerprint(seed)
        return [None if fp is None else seeded_task_key(task, fp)]
    shard_size = spec["shard_size"]
    return [ler_cache_key(item.task, item.seed, item.policy, shard_size)
            for item in sweep_items(spec)]


def spec_estimated_cost(spec: dict) -> float:
    """Estimated execution cost in shot-equivalents (scheduler ranking).

    LER jobs price each item at its policy's shot budget
    (:meth:`ShotPolicy.estimated_cost`), weighted by the item's
    ``rng_mode`` so a bitgen task prices at ~1/3 of an exact one with
    the same policy; yield jobs price samples at :data:`YIELD_SAMPLE_COST`
    shot-equivalents each.  Purely a ranking heuristic — it never
    touches results.
    """
    if spec["kind"] == "yield":
        task, _ = yield_job(spec)
        return float(task.samples) * YIELD_SAMPLE_COST
    policy = policy_from_payload(spec["policy"])
    if spec["kind"] == "ler":
        payloads = [spec["task"]]
    else:
        payloads = spec["tasks"]
    # Task payloads omit rng_mode when it is the "exact" default.
    return float(sum(
        policy.estimated_cost(rng_mode=str(payload.get("rng_mode", "exact")))
        for payload in payloads))
