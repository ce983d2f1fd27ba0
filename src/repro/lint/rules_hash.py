"""R006 — content-hash completeness of every registered task spec.

The engine's cache, coalescer and memo stores all trust one invariant:
**two tasks with equal content hashes produce bit-identical results.**  A
dataclass field that changes the numbers but is omitted from ``payload()``
(and therefore from the hash) silently aliases distinct computations into
one cache record — the exact bug class ``rng_mode`` was carefully
engineered around in the fast-RNG work, and the kind no test suite catches
until the aliased record is served.

This rule is *semi-static*: instead of parsing ``payload()`` bodies, it
imports :mod:`repro.engine.tasks` (and :mod:`repro.service.specs`, which
must agree on the registry) and machine-checks the invariant directly.
For every class in :data:`~repro.engine.tasks.TASK_KINDS`:

1. build a canonical sample instance (non-default values wherever the
   validators allow, so omit-when-default fields are exercised);
2. for each ``dataclasses.fields`` entry — and, for a dataclass-valued
   field, for each of its own fields — construct a *perturbed* copy via
   ``dataclasses.replace`` — type-aware candidate values, first one the
   validators accept wins — and require the content hash to change;
3. require ``payload() -> from_payload`` to round-trip the perturbed
   instance to an equal hash, so a field that *is* hashed but dropped on
   reconstruction (a service worker would silently run the default) is
   equally an error.

A field for which no candidate perturbation passes validation is reported
too — an unverifiable field is a hole in the contract, not a pass.
Findings are anchored to the class's ``payload`` method line in
``tasks.py`` via the AST, so they are clickable like every other finding.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterator, List, Tuple

from .core import Finding, Rule, register_rule

RULE_ID = "R006"

#: Known enum-ish string values across the repo's task specs; string fields
#: are perturbed to the first *different* value the validators accept.
_STRING_POOL = (
    "memory", "stability", "rotated", "mwpm", "exact", "bitgen", "keep",
    "disable", "distance", "defect_free", "link_only", "link_and_qubit",
    "repro-lint-alt",
)


def _float_candidates(v: float) -> List[float]:
    return [v * 1.5 + 0.001953125, v + 0.25, v / 2 + 0.0078125]


def _candidates(value) -> List:
    """Perturbation candidates for one field value, most-plausible first."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value - 1, value * 2 + 1]
    if isinstance(value, float):
        return _float_candidates(value)
    if isinstance(value, str):
        return [s for s in _STRING_POOL if s != value]
    if value is None:
        return [1, 0.5, True, "repro-lint-alt"]
    if isinstance(value, tuple):
        out: List = []
        if value and all(isinstance(e, (int, float, bool, str, type(None)))
                         for e in value):
            # Structured primitive tuple: perturb the last element in place.
            for cand in _candidates(value[-1]):
                out.append(value[:-1] + (cand,))
        if value:
            out.append(value[:-1])          # drop last element
            out.append(value + (value[-1],))  # duplicate last element
        return out
    return []


def _perturbation_groups(value) -> List[Tuple[str, List]]:
    """Valid perturbed copies of a value, grouped by the field they change.

    A dataclass value (a task, or a field such as ``LerPointTask.noise``)
    gets one group per field, nested fields included, labelled ``.name`` /
    ``.name.inner``; any other value is one group of raw candidates
    labelled ``""``.  Copies the validators reject are left out.  Each group
    is checked on its own, so a payload that drops any one inner field is
    caught.
    """
    if not dataclasses.is_dataclass(value):
        return [("", _candidates(value))]
    groups: List[Tuple[str, List]] = []
    for field in dataclasses.fields(value):
        for label, cands in _perturbation_groups(getattr(value, field.name)):
            out = []
            for cand in cands:
                try:
                    out.append(dataclasses.replace(value, **{field.name: cand}))
                except (ValueError, TypeError):
                    continue
            groups.append((f".{field.name}{label}", out))
    return groups


def _sample_tasks():
    """One canonical instance per registered task kind.

    Field values are chosen away from their defaults wherever validation
    allows, so omit-when-default payload encodings (``rng_mode``) are
    exercised both ways by the perturbation step.
    """
    from ..engine.tasks import (
        CutoffCellTask,
        LerPointTask,
        PatchSampleTask,
        YieldTask,
    )
    from ..noise.circuit_noise import CircuitNoiseModel

    noise = CircuitNoiseModel(p=2e-3, bad_qubits=(((1, 1), 0.01),))
    ler = LerPointTask(
        experiment="memory", layout_kind="rotated", size=4,
        faulty_qubits=((1, 1),),
        faulty_links=(((0, 0), (0, 1)),),
        physical_error_rate=2e-3, rounds=3, noise=noise,
        rng_mode="exact",
    )
    cutoff = CutoffCellTask(
        experiment="memory", layout_kind="rotated", size=4,
        faulty_qubits=((1, 1),), faulty_links=(((0, 0), (0, 1)),),
        physical_error_rate=2e-3, rounds=3, noise=noise,
        rng_mode="exact",
        strategy="disable", bad_qubit_error_rate=0.02,
    )
    patch = PatchSampleTask(
        size=5, defect_model_kind="link_and_qubit", defect_rate=0.01,
        num_patches=3, min_distance=3, require_valid=True,
        max_attempts_factor=50,
    )
    yld = YieldTask(
        chiplet_size=7, defect_model_kind="link_and_qubit",
        defect_rate=0.01, samples=40, criterion_kind="distance",
        target_distance=5, use_operator_count=True, allow_rotation=True,
        boundary=("std", True, False, 5),
    )
    return [ler, cutoff, patch, yld]


def check_task_class(cls, sample, *, path: str = "",
                     line: int = 1) -> List[Finding]:
    """Machine-check hash completeness of one task class given a sample.

    Public so the rule's unit tests can aim it at synthetic task classes;
    the repo pass calls it for every registered kind.
    """
    findings: List[Finding] = []
    base_hash = sample.content_hash()
    for label, perturbations in _perturbation_groups(sample):
        name = label[1:]
        if not perturbations:
            findings.append(Finding(
                rule=RULE_ID, path=path, line=line, col=1,
                message=f"{cls.__name__}.{name}: no valid perturbation "
                        "found — hash coverage of this field is unverifiable",
                fixit="teach repro.lint.rules_hash._candidates a valid "
                      "alternate value for this field",
            ))
            continue
        perturbed = perturbations[0]
        if perturbed.content_hash() == base_hash:
            findings.append(Finding(
                rule=RULE_ID, path=path, line=line, col=1,
                message=f"{cls.__name__}.{name} changes the task but "
                        "not its content hash — distinct computations would "
                        "alias in the result cache",
                fixit=f"emit {name!r} from {cls.__name__}.payload() "
                      "(omit-when-default is fine; omit-always is not)",
            ))
            continue
        findings.extend(_check_roundtrip(cls, perturbed, path, line))
    return findings


def _check_roundtrip(cls, task, path: str, line: int) -> List[Finding]:
    from_payload = getattr(cls, "from_payload", None)
    if from_payload is None:
        return []
    try:
        rebuilt = from_payload(task.payload())
    except Exception as exc:  # noqa: BLE001 - any failure is the finding
        return [Finding(
            rule=RULE_ID, path=path, line=line, col=1,
            message=f"{cls.__name__}.from_payload(payload()) raised "
                    f"{type(exc).__name__}: {exc}",
            fixit="payload()/from_payload must round-trip every valid "
                  "instance (service job stores depend on it)",
        )]
    if rebuilt.content_hash() != task.content_hash():
        return [Finding(
            rule=RULE_ID, path=path, line=line, col=1,
            message=f"{cls.__name__} payload round-trip changed the content "
                    "hash — a field is hashed but dropped on reconstruction",
            fixit="carry every payload key through from_payload()",
        )]
    return []


def _class_lines(tasks_path: Path) -> dict:
    """``class name -> payload() def line`` via the AST (for anchoring)."""
    out = {}
    try:
        tree = ast.parse(tasks_path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return out
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            line = node.lineno
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "payload":
                    line = item.lineno
                    break
            out[node.name] = line
    return out


def _repo_check(repo_root: Path) -> Iterator[Finding]:
    try:
        from ..engine import tasks as tasks_mod
        from ..service import specs as specs_mod
    except Exception as exc:  # noqa: BLE001 - import failure is a finding
        yield Finding(
            rule=RULE_ID, path="src/repro/engine/tasks.py", line=1, col=1,
            message=f"could not import the task registry: {exc}",
        )
        return
    tasks_path = repo_root / "src" / "repro" / "engine" / "tasks.py"
    rel = "src/repro/engine/tasks.py"
    lines = _class_lines(tasks_path)
    samples = {type(s): s for s in _sample_tasks()}
    for kind, cls in sorted(tasks_mod.TASK_KINDS.items()):
        sample = samples.get(cls)
        if sample is None:
            yield Finding(
                rule=RULE_ID, path=rel, line=lines.get(cls.__name__, 1), col=1,
                message=f"registered task kind {kind!r} ({cls.__name__}) has "
                        "no sample in repro.lint.rules_hash — its hash "
                        "coverage is unchecked",
                fixit="add a canonical sample instance to "
                      "rules_hash._sample_tasks()",
            )
            continue
        yield from check_task_class(cls, sample, path=rel,
                                    line=lines.get(cls.__name__, 1))
    # The service layer must accept every registered LER-ish kind: a kind
    # the engine caches by hash but the service rejects (or vice versa)
    # means the two sides disagree about task identity.
    for kind in specs_mod._LER_TASK_KINDS:
        if kind not in tasks_mod.TASK_KINDS:
            yield Finding(
                rule=RULE_ID, path="src/repro/service/specs.py", line=1, col=1,
                message=f"service accepts task kind {kind!r} that the engine "
                        "registry does not define",
                fixit="keep specs._LER_TASK_KINDS a subset of "
                      "tasks.TASK_KINDS",
            )


register_rule(Rule(
    rule_id=RULE_ID,
    title="content-hash completeness of task specs",
    check=None,
    repo_check=_repo_check,
))
