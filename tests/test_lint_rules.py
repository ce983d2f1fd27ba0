"""Unit tests for the repro.lint rule modules.

Each rule gets paired good/bad fixtures run through
:func:`repro.lint.lint_source` — the same entry point the directory pass
uses, so pragma handling and path exemptions are exercised for real.  R006
(repo-level, semi-static) is tested against synthetic task classes via
:func:`repro.lint.rules_hash.check_task_class`.
"""

import dataclasses
import hashlib
import json
import textwrap

from repro.lint import lint_source
from repro.lint.rules_hash import check_task_class
from repro.noise.circuit_noise import CircuitNoiseModel


def findings(source, path="src/repro/example.py", rules=None):
    return lint_source(textwrap.dedent(source), path, rules=rules)


def rule_ids(source, path="src/repro/example.py", rules=None):
    return [f.rule for f in findings(source, path, rules=rules)]


# ----------------------------------------------------------------------
# R001 — no global-state RNG
# ----------------------------------------------------------------------
class TestR001Rng:
    def test_flags_numpy_global_samplers(self):
        assert rule_ids("""
            import numpy as np
            x = np.random.rand(3)
        """) == ["R001"]

    def test_flags_numpy_random_via_from_import(self):
        assert rule_ids("""
            from numpy import random
            y = random.normal(0.0, 1.0)
        """) == ["R001"]

    def test_flags_unseeded_default_rng(self):
        assert rule_ids("""
            import numpy as np
            rng = np.random.default_rng()
        """) == ["R001"]

    def test_seeded_default_rng_is_fine(self):
        assert rule_ids("""
            import numpy as np
            def run(seed):
                return np.random.default_rng(seed).random()
        """) == []

    def test_flags_stdlib_random(self):
        ids = rule_ids("""
            import random
            v = random.random()
        """)
        assert "R001" in ids

    def test_seedsequence_machinery_is_fine(self):
        assert rule_ids("""
            import numpy as np
            ss = np.random.SeedSequence(7)
            gen = np.random.Generator(np.random.PCG64(ss))
        """) == []

    def test_rng_module_is_exempt(self):
        assert rule_ids("""
            import numpy as np
            x = np.random.rand(3)
        """, path="src/repro/engine/rng.py") == []


# ----------------------------------------------------------------------
# R002 — no raw REPRO_* environment reads
# ----------------------------------------------------------------------
class TestR002Env:
    def test_flags_os_getenv(self):
        assert rule_ids("""
            import os
            cache = os.getenv("REPRO_CACHE")
        """) == ["R002"]

    def test_flags_environ_get(self):
        assert rule_ids("""
            import os
            cache = os.environ.get("REPRO_CACHE", ".cache")
        """) == ["R002"]

    def test_flags_environ_subscript_read(self):
        assert rule_ids("""
            import os
            workers = os.environ["REPRO_WORKERS"]
        """) == ["R002"]

    def test_flags_membership_probe(self):
        assert rule_ids("""
            import os
            if "REPRO_CACHE" in os.environ:
                pass
        """) == ["R002"]

    def test_non_repro_variables_are_fine(self):
        assert rule_ids("""
            import os
            home = os.environ.get("HOME")
            path = os.getenv("PATH")
        """) == []

    def test_validated_readers_are_fine(self):
        assert rule_ids("""
            from repro.env import env_int, env_str
            cache = env_str("REPRO_CACHE")
            workers = env_int("REPRO_WORKERS", 1, minimum=1)
        """) == []

    def test_env_module_is_exempt(self):
        assert rule_ids("""
            import os
            raw = os.environ.get("REPRO_CACHE")
        """, path="src/repro/env.py") == []

    def test_writes_are_fine(self):
        # Tests setting up an environment is not a *read* of a knob.
        assert rule_ids("""
            import os
            os.environ["REPRO_WORKERS"] = "4"
        """) == []


# ----------------------------------------------------------------------
# R003 — no wall-clock/nondeterminism in hash-ish contexts
# ----------------------------------------------------------------------
class TestR003Time:
    def test_flags_time_in_cache_key(self):
        assert rule_ids("""
            import time
            def cache_key(task):
                return f"{task}-{time.time()}"
        """) == ["R003"]

    def test_flags_uuid_in_payload(self):
        assert rule_ids("""
            import uuid
            def payload(self):
                return {"id": str(uuid.uuid4())}
        """) == ["R003"]

    def test_flags_builtin_hash_in_content_hash(self):
        assert rule_ids("""
            def content_hash(self):
                return hash(self.name)
        """) == ["R003"]

    def test_time_outside_hash_context_is_fine(self):
        # Timing a run is fine; only identity-bearing contexts are checked.
        assert rule_ids("""
            import time
            def run(shots):
                t0 = time.perf_counter()
                return time.perf_counter() - t0
        """) == []

    def test_hashlib_in_hash_context_is_fine(self):
        assert rule_ids("""
            import hashlib
            import json
            def content_hash(self):
                body = json.dumps(self.payload(), sort_keys=True)
                return hashlib.sha256(body.encode()).hexdigest()
        """) == []


# ----------------------------------------------------------------------
# R004 — no order-dependent iteration of unordered iterables
# ----------------------------------------------------------------------
class TestR004Order:
    def test_flags_for_over_set_call(self):
        assert rule_ids("""
            def emit(xs, out):
                for x in set(xs):
                    out.append(x)
        """) == ["R004"]

    def test_flags_list_of_set(self):
        assert rule_ids("""
            def collect(xs):
                return list(set(xs))
        """) == ["R004"]

    def test_flags_iterdir_loop(self):
        assert rule_ids("""
            def scan(root):
                return [p.name for p in root.iterdir()]
        """) == ["R004"]

    def test_flags_os_listdir(self):
        assert rule_ids("""
            import os
            def scan(root):
                return tuple(os.listdir(root))
        """) == ["R004"]

    def test_sorted_wrap_is_fine(self):
        assert rule_ids("""
            def collect(xs, root):
                a = sorted(set(xs))
                b = [p.name for p in sorted(root.iterdir())]
                return a, b
        """) == []

    def test_order_free_consumers_are_fine(self):
        assert rule_ids("""
            def stats(xs):
                return len(set(xs)), sum(set(xs)), max(set(xs))
        """) == []

    def test_set_comprehension_consumer_is_fine(self):
        # The consumer is itself a set: no order leaks out.
        assert rule_ids("""
            def dedupe(xs):
                return {x + 1 for x in set(xs)}
        """) == []

    def test_flags_pop_on_name_bound_to_set(self):
        assert rule_ids("""
            def seed_of(sites):
                remaining = set(sites)
                return remaining.pop()
        """) == ["R004"]

    def test_flags_pop_on_set_literal_comprehension_and_expression(self):
        assert rule_ids("""
            def picks(xs, a, b):
                lit = {1, 2, 3}
                comp = {x + 1 for x in xs}
                expr = a | {b}
                return lit.pop(), comp.pop(), expr.pop()
        """) == ["R004", "R004", "R004"]

    def test_flags_pop_on_set_call_directly(self):
        assert rule_ids("""
            def any_one(xs):
                return set(xs).pop()
        """) == ["R004"]

    def test_flags_pop_on_annotated_module_level_set(self):
        assert rule_ids("""
            from typing import Set
            PENDING: Set[int] = set()
            FIRST = PENDING.pop()
        """) == ["R004"]

    def test_list_dict_and_frontier_pops_are_fine(self):
        assert rule_ids("""
            def walk(seed, table, key):
                frontier = [seed]
                while frontier:
                    current = frontier.pop()
                table = {}
                stack = list(seed)
                return current, table.pop(key), stack.pop(), [1, 2].pop()
        """) == []

    def test_set_bound_in_another_function_is_not_tracked(self):
        assert rule_ids("""
            def make(xs):
                items = set(xs)
                return items

            def take(items):
                return items.pop()
        """) == []

    def test_justified_pragma_silences_set_pop(self):
        assert rule_ids("""
            def seed_of(sites):
                remaining = set(sites)
                return remaining.pop()  # repro-lint: ignore[R004] -- numbering is pinned
        """) == []


# ----------------------------------------------------------------------
# R005 — mutable defaults; unlocked module-state mutation under threads
# ----------------------------------------------------------------------
class TestR005State:
    def test_flags_mutable_default_list(self):
        assert rule_ids("""
            def accumulate(x, acc=[]):
                acc.append(x)
                return acc
        """) == ["R005"]

    def test_flags_mutable_default_dict_call(self):
        assert rule_ids("""
            def register(name, registry=dict()):
                registry[name] = True
        """) == ["R005"]

    def test_none_default_is_fine(self):
        assert rule_ids("""
            def accumulate(x, acc=None):
                acc = [] if acc is None else acc
                acc.append(x)
                return acc
        """) == []

    def test_flags_unlocked_registry_mutation_in_threaded_module(self):
        assert rule_ids("""
            import threading
            _REGISTRY = {}
            def put(key, value):
                _REGISTRY[key] = value
        """) == ["R005"]

    def test_locked_registry_mutation_is_fine(self):
        assert rule_ids("""
            import threading
            _REGISTRY = {}
            _REGISTRY_LOCK = threading.Lock()
            def put(key, value):
                with _REGISTRY_LOCK:
                    _REGISTRY[key] = value
        """) == []

    def test_unthreaded_module_is_not_checked_for_state(self):
        # No threading import: module-per-process assumption holds.
        assert rule_ids("""
            _REGISTRY = {}
            def put(key, value):
                _REGISTRY[key] = value
        """) == []

    def test_flags_mutating_method_without_lock(self):
        assert rule_ids("""
            import threading
            _JOBS = []
            def enqueue(job):
                _JOBS.append(job)
        """) == ["R005"]


# ----------------------------------------------------------------------
# Pragmas and the R000 meta-rule
# ----------------------------------------------------------------------
class TestPragmas:
    def test_line_pragma_suppresses_with_justification(self):
        assert rule_ids("""
            import numpy as np
            x = np.random.rand(3)  # repro-lint: ignore[R001] -- fixture data
        """) == []

    def test_pragma_without_justification_is_r000(self):
        ids = rule_ids("""
            import numpy as np
            x = np.random.rand(3)  # repro-lint: ignore[R001]
        """)
        # The unjustified pragma both fails (R000) and does not suppress.
        assert ids == ["R000", "R001"]

    def test_pragma_only_suppresses_named_rule(self):
        ids = rule_ids("""
            import os
            v = os.getenv("REPRO_X")  # repro-lint: ignore[R001] -- wrong rule
        """)
        assert ids == ["R002"]

    def test_file_ignore_pragma_covers_whole_file(self):
        assert rule_ids("""
            # repro-lint: file-ignore[R001] -- frozen reference fixture
            import numpy as np
            a = np.random.rand(3)
            b = np.random.rand(4)
        """) == []

    def test_malformed_pragma_is_r000(self):
        ids = rule_ids("""
            x = 1  # repro-lint: ignore -- missing rule list
        """)
        assert ids == ["R000"]

    def test_syntax_error_reports_r000(self):
        ids = rule_ids("def broken(:\n    pass\n")
        assert ids == ["R000"]


# ----------------------------------------------------------------------
# R006 — content-hash completeness (synthetic task classes)
# ----------------------------------------------------------------------
def _canon_hash(payload):
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class GoodTask:
    shots: int = 100
    decoder: str = "mwpm"

    def payload(self):
        return {"shots": self.shots, "decoder": self.decoder}

    def content_hash(self):
        return _canon_hash(self.payload())

    @classmethod
    def from_payload(cls, payload):
        return cls(shots=payload["shots"], decoder=payload["decoder"])


@dataclasses.dataclass(frozen=True)
class HashOmittedTask:
    """``decoder`` changes the computation but never reaches the hash."""

    shots: int = 100
    decoder: str = "mwpm"

    def payload(self):
        return {"shots": self.shots}  # decoder forgotten

    def content_hash(self):
        return _canon_hash(self.payload())

    @classmethod
    def from_payload(cls, payload):
        return cls(shots=payload["shots"])


@dataclasses.dataclass(frozen=True)
class DroppedOnRebuildTask:
    """``decoder`` is hashed but from_payload silently discards it."""

    shots: int = 100
    decoder: str = "mwpm"

    def payload(self):
        return {"shots": self.shots, "decoder": self.decoder}

    def content_hash(self):
        return _canon_hash(self.payload())

    @classmethod
    def from_payload(cls, payload):
        return cls(shots=payload["shots"])  # decoder dropped


def _noise_json(noise, *, keep_bad_qubits=True):
    out = {"p": noise.p, "single_qubit_factor": noise.single_qubit_factor,
           "readout_factor": noise.readout_factor,
           "idle_data_factor": noise.idle_data_factor,
           "reset_factor": noise.reset_factor}
    if keep_bad_qubits:
        out["bad_qubits"] = [[list(c), r] for c, r in noise.bad_qubits]
    return out


def _noise_from_json(payload):
    return CircuitNoiseModel(
        p=payload["p"], single_qubit_factor=payload["single_qubit_factor"],
        readout_factor=payload["readout_factor"],
        idle_data_factor=payload["idle_data_factor"],
        reset_factor=payload["reset_factor"],
        bad_qubits=tuple((tuple(c), r)
                         for c, r in payload.get("bad_qubits", ())))


_NOISE = CircuitNoiseModel(p=2e-3, bad_qubits=(((1, 1), 0.01),))


@dataclasses.dataclass(frozen=True)
class NoiseTask:
    """A dataclass-valued field hashed through every one of its fields."""

    shots: int = 100
    noise: CircuitNoiseModel = _NOISE

    def payload(self):
        return {"shots": self.shots, "noise": _noise_json(self.noise)}

    def content_hash(self):
        return _canon_hash(self.payload())

    @classmethod
    def from_payload(cls, payload):
        return cls(shots=payload["shots"],
                   noise=_noise_from_json(payload["noise"]))


@dataclasses.dataclass(frozen=True)
class BadQubitsOmittedTask(NoiseTask):
    """The noise payload drops ``bad_qubits``, the last noise field."""

    def payload(self):
        return {"shots": self.shots,
                "noise": _noise_json(self.noise, keep_bad_qubits=False)}


class TestR006HashCompleteness:
    def test_complete_class_is_clean(self):
        assert check_task_class(GoodTask, GoodTask()) == []

    def test_every_field_of_a_dataclass_field_is_checked(self):
        assert check_task_class(NoiseTask, NoiseTask()) == []

    def test_dropped_non_first_noise_field_is_flagged(self):
        found = check_task_class(BadQubitsOmittedTask, BadQubitsOmittedTask())
        assert len(found) == 1
        assert "noise.bad_qubits" in found[0].message
        assert "content hash" in found[0].message

    def test_hash_omitted_field_is_flagged(self):
        found = check_task_class(HashOmittedTask, HashOmittedTask())
        assert len(found) == 1
        assert found[0].rule == "R006"
        assert "decoder" in found[0].message
        assert "content hash" in found[0].message

    def test_field_dropped_on_rebuild_is_flagged(self):
        found = check_task_class(DroppedOnRebuildTask, DroppedOnRebuildTask())
        assert any("round-trip" in f.message for f in found)

    def test_real_registry_passes(self):
        # The shipped task registry must satisfy its own invariant.
        from repro.engine.tasks import TASK_KINDS  # noqa: F401
        from repro.lint.rules_hash import _sample_tasks

        for sample in _sample_tasks():
            assert check_task_class(type(sample), sample) == [], \
                f"{type(sample).__name__} failed hash-completeness"
