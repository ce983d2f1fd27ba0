"""Tests for the estimation service (repro.service).

Covers the subsystem's load-bearing guarantees:

* specs — the JSON contract round-trips losslessly and rejects malformed
  submissions at the boundary;
* store — crash-safe state transitions: claim is a CAS, expired leases
  re-dispatch, completion is ownership-guarded;
* coalescing — identical in-flight submissions share exactly one execution
  and all receive the result;
* scheduling — cheap/cache-warm jobs first, aging prevents starvation,
  malformed rows sink instead of wedging the queue;
* end-to-end determinism — a job submitted over HTTP and drained by a
  service worker produces bit-identical results (and byte-identical cache
  records) to calling the engine directly.
"""

import http.client
import multiprocessing
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import adapt_patch
from repro.engine import (
    Engine,
    EngineConfig,
    LerPointTask,
    ResultCache,
    ShotPolicy,
    YieldTask,
    child_stream,
)
from repro.noise import DefectSet, LINK_AND_QUBIT
from repro.service import (
    JobScheduler,
    JobStore,
    SchedulerConfig,
    ServiceWorker,
    content_key,
    normalize_spec,
    spec_cache_keys,
    spec_estimated_cost,
)
from repro.service.api import ServiceAPIServer, serve
from repro.service.cli import ServiceClient, main as cli_main
from repro.service.specs import YIELD_SAMPLE_COST, sweep_items
from repro.surface_code import RotatedSurfaceCodeLayout


def d3_task(p: float = 0.01) -> LerPointTask:
    patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
    return LerPointTask.from_patch("memory", patch, p)


def yield_task(samples: int = 40) -> YieldTask:
    return YieldTask(chiplet_size=7, defect_model_kind=LINK_AND_QUBIT,
                     defect_rate=0.01, samples=samples, target_distance=5)


def ler_body(p: float = 0.01, shots: int = 400, seed: int = 11,
             shard_size: int = 128) -> dict:
    return {"kind": "ler", "task": d3_task(p).payload(),
            "shots": shots, "seed": seed, "shard_size": shard_size}


def sweep_body(ps=(0.005, 0.01), shots: int = 400, seed: int = 11,
               shard_size: int = 128) -> dict:
    return {"kind": "sweep", "tasks": [d3_task(p).payload() for p in ps],
            "shots": shots, "seed": seed, "shard_size": shard_size}


def unionfind_bodies() -> list:
    """An LER and a sweep submission whose task asks for union-find."""
    ler = ler_body()
    ler["task"]["decoder"] = "unionfind"
    sweep = sweep_body()
    sweep["tasks"][1]["decoder"] = "unionfind"
    return [ler, sweep]


def out_of_range_bodies() -> list:
    """(submission, error) pairs whose task field is outside its domain."""
    def ler(noise=None, **fields):
        body = ler_body()
        body["task"].update(fields)
        body["task"]["noise"].update(noise or {})
        return body

    def sweep(noise):
        body = sweep_body()
        body["tasks"][1]["noise"].update(noise)
        return body

    def yld(**fields):
        return {"kind": "yield", "seed": 3,
                "task": {**yield_task().payload(), **fields}}

    return [
        (ler(noise={"p": 5.0}), r"p=5.0 outside \[0, 1\]"),
        (ler(noise={"readout_factor": -1}), "readout_factor must be non-neg"),
        (sweep({"p": 5.0}), r"p=5.0 outside \[0, 1\]"),
        (sweep({"readout_factor": -1}), "readout_factor must be non-neg"),
        (ler(size=0), "width must be at least 2"),
        (ler(size=-2), "width must be at least 2"),
        (ler(layout_kind="stability", size=3), "requires an even width"),
        (ler(physical_error_rate=7.0), r"p=7.0 outside \[0, 1\]"),
        (yld(chiplet_size=0), "width must be at least 2"),
        (yld(defect_rate=3.0), r"defect rate 3.0 outside \[0, 1\]"),
    ]


class Clock:
    """An injectable clock so lease tests never sleep."""

    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


# ----------------------------------------------------------------------
# Specs: the JSON contract
# ----------------------------------------------------------------------
class TestSpecs:
    def test_normalize_canonicalizes_seed_and_policy(self):
        spec = normalize_spec(ler_body(seed=42))
        entropy, spawn = spec["seed"]
        assert entropy and spawn == []
        assert spec["policy"]["max_shots"] == 400
        # Normalization is idempotent: a stored spec re-normalizes to itself.
        assert normalize_spec(spec) == spec

    def test_round_trip_preserves_task_hash(self):
        spec = normalize_spec(sweep_body())
        items = sweep_items(spec)
        assert [i.task.content_hash() for i in items] == \
            [d3_task(p).content_hash() for p in (0.005, 0.01)]

    def test_sweep_seeds_follow_run_ler_many_derivation(self):
        spec = normalize_spec(sweep_body(seed=77))
        items = sweep_items(spec)
        for i, item in enumerate(items):
            expect = child_stream(np.random.SeedSequence(77), i)
            assert np.array_equal(item.seed.generate_state(4),
                                  expect.generate_state(4))

    @pytest.mark.parametrize("body, match", [
        ({"kind": "bogus"}, "unknown job kind"),
        ({"kind": "ler", "task": None, "shots": 10}, "payload"),
        ({"kind": "ler", "task": {"nope": 1}, "shots": 10}, "malformed"),
        ({"kind": "ler", "task": {}, "shots": 10, "policy": {"shots": 10}},
         "not both"),
        ({"kind": "ler", "task": {}}, "policy"),
        ({"kind": "sweep", "tasks": [], "shots": 10}, "non-empty"),
        ({"kind": "ler", "task": {}, "shots": 10, "seed": True}, "seed"),
        ({"kind": "ler", "task": {}, "shots": 10, "seed": [[], []]},
         "entropy"),
        ({"kind": "ler", "task": {}, "shots": 10, "shard_size": 0},
         "shard_size"),
        ("not an object", "JSON object"),
        *[(body, "unknown decoder 'unionfind'") for body in unionfind_bodies()],
        *out_of_range_bodies(),
    ])
    def test_malformed_submissions_fail_at_the_boundary(self, body, match):
        with pytest.raises(ValueError, match=match):
            normalize_spec(body)

    def test_unknown_policy_fields_rejected(self):
        body = ler_body()
        del body["shots"]
        body["policy"] = {"max_shots": 100, "turbo": True}
        with pytest.raises(ValueError, match="turbo"):
            normalize_spec(body)

    def test_cache_keys_predict_engine_writes_exactly(self, tmp_path):
        spec = normalize_spec(sweep_body(seed=5))
        keys = spec_cache_keys(spec)
        engine = Engine(EngineConfig(shard_size=128,
                                     cache_dir=str(tmp_path)))
        engine.run_ler_many([d3_task(p) for p in (0.005, 0.01)],
                            shots=400, seed=5)
        cache = ResultCache(tmp_path)
        assert sorted(keys) == sorted(cache.keys())

    def test_yield_cache_key_predicts_engine_write(self, tmp_path):
        spec = normalize_spec({"kind": "yield", "task": yield_task().payload(),
                               "seed": 9})
        engine = Engine(EngineConfig(cache_dir=str(tmp_path)))
        engine.run_yield(yield_task(), seed=9)
        assert spec_cache_keys(spec) == list(ResultCache(tmp_path).keys())

    def test_unseeded_jobs_have_no_identity(self):
        spec = normalize_spec(ler_body())
        spec_unseeded = normalize_spec({**ler_body(), "seed": None})
        assert spec_cache_keys(spec_unseeded) == [None]
        assert content_key(spec_unseeded) is None
        assert content_key(spec) is not None

    def test_estimated_cost_counts_shots_and_samples(self):
        spec = normalize_spec(sweep_body(ps=(0.005, 0.01, 0.02),
                                         shots=400, shard_size=128))
        per_item = ShotPolicy.fixed(400).estimated_cost()
        assert spec_estimated_cost(spec) == 3 * per_item
        yspec = normalize_spec({"kind": "yield",
                                "task": yield_task(50).payload()})
        assert spec_estimated_cost(yspec) == 50 * YIELD_SAMPLE_COST


# ----------------------------------------------------------------------
# Store: crash-safe transitions
# ----------------------------------------------------------------------
class TestJobStore:
    def submit(self, store, body=None) -> str:
        spec = normalize_spec(body or ler_body())
        return store.submit(spec["kind"], spec, content_key(spec)).id

    def test_submit_round_trips_spec(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        spec = normalize_spec(ler_body())
        job = store.submit(spec["kind"], spec, content_key(spec))
        got = store.get(job.id)
        assert got.spec == spec
        assert got.state == "queued"
        assert got.content_key == content_key(spec)

    def test_claim_is_a_compare_and_swap(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        job_id = self.submit(store)
        assert store.try_claim(job_id, "w1", 60) is not None
        assert store.try_claim(job_id, "w2", 60) is None
        job = store.get(job_id)
        assert (job.state, job.worker_id, job.attempts) == ("running", "w1", 1)

    def test_expired_lease_redispatches(self, tmp_path):
        clock = Clock()
        store = JobStore(tmp_path / "jobs.db", now=clock)
        job_id = self.submit(store)
        store.try_claim(job_id, "w1", 60)
        assert store.runnable_jobs() == []
        clock.t += 61  # w1 is presumed dead
        assert [j.id for j in store.runnable_jobs()] == [job_id]
        job = store.try_claim(job_id, "w2", 60)
        assert (job.worker_id, job.attempts) == ("w2", 2)
        # ...and the late writes of the presumed-dead worker bounce off.
        assert store.record_progress(job_id, "w1", 60) == "lost"
        assert not store.finish(job_id, "w1", {"stale": True})
        assert store.get(job_id).state == "running"

    def test_progress_heartbeat_extends_lease(self, tmp_path):
        clock = Clock()
        store = JobStore(tmp_path / "jobs.db", now=clock)
        job_id = self.submit(store)
        store.try_claim(job_id, "w1", 60)
        clock.t += 50
        assert store.record_progress(
            job_id, "w1", 60, partial={"failures": 3, "shots": 100},
            event={"type": "wave", "wave": 0}) == "ok"
        job = store.get(job_id)
        assert job.lease_until == clock.t + 60
        assert job.partial == {"failures": 3, "shots": 100}
        clock.t += 50  # original lease would have expired; heartbeat saved it
        assert store.runnable_jobs() == []

    def test_finish_is_ownership_guarded(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        job_id = self.submit(store)
        store.try_claim(job_id, "w1", 60)
        assert not store.finish(job_id, "w2", {"bogus": 1})
        assert store.finish(job_id, "w1", {"ok": 1})
        job = store.get(job_id)
        assert (job.state, job.result) == ("done", {"ok": 1})
        # Terminal states are final: nothing overwrites a done job.
        assert not store.fail(job_id, "w1", "late failure")
        assert store.get(job_id).state == "done"

    def test_cancel_running_job_tells_the_worker(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        job_id = self.submit(store)
        store.try_claim(job_id, "w1", 60)
        assert store.cancel(job_id) == "cancelled"
        assert store.record_progress(job_id, "w1", 60) == "cancelled"
        assert store.cancel(job_id) == "cancelled"  # idempotent
        assert store.cancel("nope") is None

    def test_events_are_ordered_and_resumable(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        job_id = self.submit(store)
        store.try_claim(job_id, "w1", 60)
        for wave in range(3):
            store.record_progress(job_id, "w1", 60,
                                  event={"type": "wave", "wave": wave})
        events = store.events(job_id)
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert [e["wave"] for e in events] == [0, 1, 2]
        assert [e["seq"] for e in store.events(job_id, since=1)] == [2]

    def test_counts_by_state(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        self.submit(store, ler_body(seed=1))
        job_id = self.submit(store, ler_body(seed=2))
        store.try_claim(job_id, "w1", 60)
        counts = store.counts()
        assert counts["queued"] == 1 and counts["running"] == 1


    def test_failed_submit_leaves_no_row_and_no_transaction(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        with pytest.raises(TypeError):
            store.submit("ler", {"kind": "ler", "unencodable": {1, 2}}, None)
        assert sum(store.counts().values()) == 0
        assert not store._conn.in_transaction
        job_id = self.submit(store)
        assert store.get(job_id).state == "queued"

    def test_forked_child_opens_its_own_connection(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        first = self.submit(store, ler_body(seed=1))
        second = self.submit(store, ler_body(seed=2))
        ctx = multiprocessing.get_context("fork")
        claimed, parent_closed = ctx.Event(), ctx.Event()

        def child():
            fresh = store._conn is None
            ok = store.try_claim(first, "child", 60) is not None
            claimed.set()
            # The parent closes its connection meanwhile; a child without
            # real locks of its own would see its WAL deleted under it and
            # lose this second commit.
            parent_closed.wait(30)
            ok = ok and store.try_claim(second, "child", 60) is not None
            store.close()
            os._exit(0 if fresh and ok else 1)

        proc = ctx.Process(target=child)
        proc.start()
        assert claimed.wait(30)
        assert store.get(first).worker_id == "child"
        store.close()
        parent_closed.set()
        proc.join(30)
        assert proc.exitcode == 0
        assert store.get(second).worker_id == "child"
        third = self.submit(store, ler_body(seed=3))
        assert store.try_claim(third, "parent", 60) is not None

    def test_two_stores_on_one_file_see_each_others_commits(self, tmp_path):
        # Stand-ins for the API process and a worker process.
        api = JobStore(tmp_path / "jobs.db")
        worker = JobStore(tmp_path / "jobs.db")
        job_id = self.submit(api)
        assert [j.id for j in worker.runnable_jobs()] == [job_id]
        assert worker.try_claim(job_id, "w1", 60) is not None
        assert api.get(job_id).state == "running"
        assert worker.record_progress(
            job_id, "w1", 60, event={"type": "wave", "wave": 0}) == "ok"
        assert [e["type"] for e in api.events(job_id)] == ["wave"]
        assert worker.finish(job_id, "w1", {"ok": 1})
        assert api.get(job_id).result == {"ok": 1}
        assert api.cancel(job_id) == "done"
        assert worker.counts()["done"] == 1

    def test_racing_threads_claim_each_job_exactly_once(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        job_ids = [self.submit(store, ler_body(seed=s)) for s in range(20)]
        start = threading.Barrier(8)
        wins = {}

        def claim_all(worker_id):
            start.wait()
            for job_id in job_ids:
                if store.try_claim(job_id, worker_id, 60) is not None:
                    wins.setdefault(job_id, []).append(worker_id)

        threads = [threading.Thread(target=claim_all, args=(f"w{i}",))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert sorted(wins) == sorted(job_ids)
        for job_id, winners in wins.items():
            job = store.get(job_id)
            assert winners == [job.worker_id]
            assert (job.state, job.attempts) == ("running", 1)

    def test_close_checkpoints_and_is_idempotent(self, tmp_path):
        path = tmp_path / "jobs.db"
        store = JobStore(path)
        job_id = self.submit(store)
        wal = tmp_path / "jobs.db-wal"
        assert wal.exists() and wal.stat().st_size > 0
        store.close()
        assert not wal.exists() or wal.stat().st_size == 0
        store.close()
        assert store.get(job_id).state == "queued"  # reopened
        store.close()


# ----------------------------------------------------------------------
# Coalescing: one execution, every submitter served
# ----------------------------------------------------------------------
class TestCoalescing:
    def submit(self, store, body):
        spec = normalize_spec(body)
        return store.submit(spec["kind"], spec, content_key(spec))

    def test_identical_submission_becomes_follower(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        a = self.submit(store, ler_body(seed=3))
        b = self.submit(store, ler_body(seed=3))
        c = self.submit(store, ler_body(seed=4))  # different seed: no share
        assert a.coalesced_into is None
        assert b.coalesced_into == a.id
        assert c.coalesced_into is None
        # Followers are never claimed.
        assert sorted(j.id for j in store.runnable_jobs()) == \
            sorted([a.id, c.id])

    def test_unseeded_submissions_never_coalesce(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        a = self.submit(store, {**ler_body(), "seed": None})
        b = self.submit(store, {**ler_body(), "seed": None})
        assert a.content_key is None
        assert b.coalesced_into is None

    def test_primary_finish_completes_followers(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        a = self.submit(store, ler_body(seed=3))
        b = self.submit(store, ler_body(seed=3))
        store.try_claim(a.id, "w1", 60)
        store.record_progress(a.id, "w1", 60, event={"type": "wave"})
        store.finish(a.id, "w1", {"answer": 42})
        for job_id in (a.id, b.id):
            job = store.get(job_id)
            assert (job.state, job.result) == ("done", {"answer": 42})
        # The follower streams its primary's events.
        assert [e["type"] for e in store.events(b.id)] == ["wave", "done"]

    def test_terminal_primary_is_not_coalesced_onto(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        a = self.submit(store, ler_body(seed=3))
        store.try_claim(a.id, "w1", 60)
        store.finish(a.id, "w1", {"answer": 42})
        b = self.submit(store, ler_body(seed=3))
        assert b.coalesced_into is None  # fresh execution (or a cache hit)

    def test_cancelled_follower_keeps_its_cancellation(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        a = self.submit(store, ler_body(seed=3))
        b = self.submit(store, ler_body(seed=3))
        store.cancel(b.id)
        store.try_claim(a.id, "w1", 60)
        store.finish(a.id, "w1", {"answer": 42})
        assert store.get(a.id).state == "done"
        assert store.get(b.id).state == "cancelled"
        assert store.get(b.id).result is None

    def test_cancelling_primary_promotes_oldest_follower(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        a = self.submit(store, ler_body(seed=3))
        b = self.submit(store, ler_body(seed=3))
        c = self.submit(store, ler_body(seed=3))
        store.cancel(a.id)
        b, c = store.get(b.id), store.get(c.id)
        assert b.coalesced_into is None  # promoted
        assert c.coalesced_into == b.id  # re-pointed at the new primary
        assert [j.id for j in store.runnable_jobs()] == [b.id]


# ----------------------------------------------------------------------
# Scheduling: order only, never numbers
# ----------------------------------------------------------------------
class TestJobScheduler:
    def submit(self, store, body):
        spec = normalize_spec(body)
        return store.submit(spec["kind"], spec, content_key(spec))

    def test_cheap_jobs_first(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        big = self.submit(store, ler_body(shots=100000, seed=1))
        small = self.submit(store, ler_body(shots=200, seed=2))
        sched = JobScheduler(config=SchedulerConfig(aging_rate=0.0))
        ranked = sched.rank(store.runnable_jobs(), now=time.time())
        assert [j.id for j in ranked] == [small.id, big.id]

    def test_cache_warm_jobs_first(self, tmp_path):
        cache_dir = tmp_path / "cache"
        engine = Engine(EngineConfig(shard_size=128,
                                     cache_dir=str(cache_dir)))
        engine.run_ler(d3_task(), shots=400, seed=7)  # warm exactly seed 7
        store = JobStore(tmp_path / "jobs.db")
        cold = self.submit(store, ler_body(shots=400, seed=8))
        warm = self.submit(store, ler_body(shots=400, seed=7))
        sched = JobScheduler(ResultCache(cache_dir),
                             SchedulerConfig(aging_rate=0.0))
        assert sched.cache_hit_fraction(store.get(warm.id)) == 1.0
        assert sched.cache_hit_fraction(store.get(cold.id)) == 0.0
        ranked = sched.rank(store.runnable_jobs(), now=time.time())
        assert [j.id for j in ranked] == [warm.id, cold.id]

    def test_aging_prevents_starvation(self, tmp_path):
        clock = Clock()
        store = JobStore(tmp_path / "jobs.db", now=clock)
        old_big = self.submit(store, ler_body(shots=100000, seed=1))
        clock.t += 4 * 3600  # hours of fresh small jobs later...
        fresh_small = self.submit(store, ler_body(shots=200, seed=2))
        sched = JobScheduler(config=SchedulerConfig(aging_rate=0.05))
        ranked = sched.rank(store.runnable_jobs(), now=clock.t)
        assert ranked[0].id == old_big.id
        # Without aging the big job would still be starved.
        no_aging = JobScheduler(config=SchedulerConfig(aging_rate=0.0))
        assert no_aging.rank(store.runnable_jobs(), now=clock.t)[0].id \
            == fresh_small.id

    def test_malformed_spec_sinks_instead_of_wedging(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        # A row written by a newer schema the scheduler can't price.
        broken = store.submit("ler", {"kind": "ler", "v2_field": True}, None)
        ok = self.submit(store, ler_body(seed=2))
        sched = JobScheduler()
        ranked = sched.rank(store.runnable_jobs(), now=time.time())
        assert [j.id for j in ranked] == [ok.id, broken.id]
        assert sched.select(store.runnable_jobs(), time.time()).id == ok.id

    def test_select_on_empty(self):
        assert JobScheduler().select([], now=0.0) is None


# ----------------------------------------------------------------------
# Worker: claim → execute → finish
# ----------------------------------------------------------------------
class TestServiceWorker:
    def submit(self, store, body):
        spec = normalize_spec(body)
        return store.submit(spec["kind"], spec, content_key(spec))

    def test_drain_executes_bit_identically(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        job = self.submit(store, ler_body(shots=400, seed=11))
        yjob = self.submit(store, {"kind": "yield",
                                   "task": yield_task().payload(), "seed": 7})
        worker = ServiceWorker(store, lease_seconds=60,
                               cache_dir=str(tmp_path / "cache"))
        assert worker.drain() == 2

        direct = Engine(EngineConfig(shard_size=128)).run_ler(
            d3_task(), shots=400, seed=11)
        got = store.get(job.id)
        assert got.state == "done"
        [r] = got.result["results"]
        assert (r["failures"], r["shots"]) == (direct.failures, direct.shots)
        # The final partial equals the final totals (last wave seen).
        assert got.partial["failures"] == direct.failures
        event_types = [e["type"] for e in store.events(job.id)]
        assert event_types[0] == "claimed"
        assert "wave" in event_types and event_types[-1] == "done"

        ydirect = Engine(EngineConfig()).run_yield(yield_task(), seed=7)
        ygot = store.get(yjob.id)
        assert ygot.result["accepted"] == ydirect.accepted
        assert ygot.result["samples"] == ydirect.samples

    def test_execution_error_fails_the_job(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        # A spec that passes no validation because it never saw the API
        # boundary — the worker must fail it, not crash or loop.
        bad = store.submit("ler", {"kind": "ler", "task_kind": "ler_point",
                                   "task": {"nope": 1}, "policy": {"shots": 4},
                                   "seed": None, "shard_size": 64}, None)
        worker = ServiceWorker(store, lease_seconds=60)
        assert worker.drain() == 1
        job = store.get(bad.id)
        assert job.state == "failed"
        assert job.error  # carries the exception text

    def test_queued_unionfind_job_fails_cleanly(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        # Stands in for a job queued before union-find was removed: it
        # skipped today's normalize_spec, so the worker meets it first.
        spec = normalize_spec(ler_body(seed=11))
        spec["task"]["decoder"] = "unionfind"
        stale = store.submit("ler", spec, None)
        worker = ServiceWorker(store, lease_seconds=60)
        assert worker.drain() == 1
        job = store.get(stale.id)
        assert (job.state, job.attempts) == ("failed", 1)
        assert "unknown decoder 'unionfind'" in job.error

        # The same worker goes on to run the next valid job.
        ok = self.submit(store, ler_body(shots=400, seed=11))
        assert worker.drain() == 1
        got = store.get(ok.id)
        assert got.state == "done"
        direct = Engine(EngineConfig(shard_size=128)).run_ler(
            d3_task(), shots=400, seed=11)
        assert got.result["results"][0]["failures"] == direct.failures
        assert store.get(stale.id).attempts == 1

    def test_cancellation_before_start_discards_quietly(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        job = self.submit(store, ler_body(seed=11))
        worker = ServiceWorker(store, lease_seconds=60)
        claimed = worker.claim_next()
        store.cancel(job.id)
        worker._execute(claimed)  # first heartbeat sees the cancellation
        got = store.get(job.id)
        assert (got.state, got.result) == ("cancelled", None)

    def test_lease_expiry_redispatches_to_surviving_worker(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        job = self.submit(store, ler_body(shots=400, seed=11))
        # A worker claims with a tiny lease and dies without progressing.
        assert store.try_claim(job.id, "dead-worker", 0.05) is not None
        time.sleep(0.1)
        survivor = ServiceWorker(store, lease_seconds=60)
        assert survivor.drain() == 1
        got = store.get(job.id)
        assert (got.state, got.attempts) == ("done", 2)
        assert got.worker_id == survivor.worker_id
        direct = Engine(EngineConfig(shard_size=128)).run_ler(
            d3_task(), shots=400, seed=11)
        assert got.result["results"][0]["failures"] == direct.failures


# ----------------------------------------------------------------------
# End to end over HTTP: the service is a transparent front for the engine
# ----------------------------------------------------------------------
@pytest.fixture()
def http_service(tmp_path):
    """An in-thread API server + its store; yields (client, store, paths)."""
    store = JobStore(tmp_path / "jobs.db")
    server = serve(store, "127.0.0.1", 0, poll_seconds=0.02)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=30.0)
    try:
        yield client, store, tmp_path
    finally:
        # Closing the client ends the server's parked keep-alive handler.
        client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        store.close()


class TestHttpService:
    def test_submitted_sweep_is_bit_identical_to_direct(self, http_service):
        client, store, tmp_path = http_service
        ps = (0.005, 0.01, 0.02)
        response = client.submit(sweep_body(ps=ps, shots=400, seed=21))
        assert response["state"] == "queued"

        worker = ServiceWorker(store, lease_seconds=60,
                               cache_dir=str(tmp_path / "svc-cache"))
        events = []
        final = None

        def drain():
            worker.drain()

        t = threading.Thread(target=drain)
        t.start()
        final = client.watch(response["id"], wait=5.0, emit=events.append)
        t.join(timeout=60)

        assert final["state"] == "done"
        tasks = [d3_task(p) for p in ps]
        direct_cache = tmp_path / "direct-cache"
        direct = Engine(EngineConfig(shard_size=128,
                                     cache_dir=str(direct_cache)))
        expect = direct.run_ler_many(tasks, shots=400, seed=21)
        got = final["result"]["results"]
        assert [(r["failures"], r["shots"], r["num_shards"]) for r in got] \
            == [(e.failures, e.shots, e.num_shards) for e in expect]

        # Streamed waves reported true totals for each item as it merged.
        waves = [e for e in events if e["type"] == "wave"]
        assert {w["item"] for w in waves} == {0, 1, 2}
        by_item = {w["item"]: w for w in waves}
        for i, e in enumerate(expect):
            assert by_item[i]["failures"] == e.failures
            assert by_item[i]["ci_low"] <= e.failures / e.shots \
                <= by_item[i]["ci_high"]

        # Byte-identical cache records: same keys, same bytes.
        svc_cache = ResultCache(tmp_path / "svc-cache")
        ref_cache = ResultCache(direct_cache)
        keys = sorted(ref_cache.keys())
        assert sorted(svc_cache.keys()) == keys
        for key in keys:
            assert svc_cache.path_for(key).read_bytes() \
                == ref_cache.path_for(key).read_bytes()

    def test_two_identical_submissions_one_execution(self, http_service):
        client, store, tmp_path = http_service
        body = ler_body(shots=400, seed=31)
        first = client.submit(body)
        second = client.submit(body)
        assert second["coalesced_into"] == first["id"]

        ServiceWorker(store, lease_seconds=60).drain()
        a = client.status(first["id"])
        b = client.status(second["id"])
        assert a["state"] == b["state"] == "done"
        assert a["result"] == b["result"]
        # Exactly one execution: the follower was never attempted, and both
        # ids stream the same single claimed event.
        assert (a["attempts"], b["attempts"]) == (1, 0)
        ev_a = client.events(first["id"])["events"]
        ev_b = client.events(second["id"])["events"]
        assert ev_a == ev_b
        assert sum(1 for e in ev_a if e["type"] == "claimed") == 1

    def test_cancel_and_error_paths(self, http_service):
        client, store, tmp_path = http_service
        job = client.submit(ler_body(seed=41))
        assert client.cancel(job["id"])["state"] == "cancelled"
        assert client.status(job["id"])["state"] == "cancelled"
        with pytest.raises(SystemExit, match="404"):
            client.status("doesnotexist")
        with pytest.raises(SystemExit, match="400"):
            client.request("POST", "/jobs", {"kind": "bogus"})
        with pytest.raises(SystemExit, match="404"):
            client.request("GET", "/nope")
        for body in unionfind_bodies():
            with pytest.raises(SystemExit,
                               match=r"unknown decoder 'unionfind'.*\(400\)"):
                client.request("POST", "/jobs", body)
        for body, match in out_of_range_bodies():
            with pytest.raises(SystemExit, match=rf"{match}.*\(400\)"):
                client.request("POST", "/jobs", body)
        stats = client.request("GET", "/stats")
        assert stats["states"]["cancelled"] == 1

    def test_long_poll_waits_for_events(self, http_service):
        client, store, tmp_path = http_service
        job = client.submit(ler_body(shots=400, seed=51))
        worker = ServiceWorker(store, lease_seconds=60)

        def delayed_drain():
            time.sleep(0.15)
            worker.drain()

        t = threading.Thread(target=delayed_drain)
        start = time.monotonic()
        t.start()
        page = client.events(job["id"], since=-1, wait=10.0)
        elapsed = time.monotonic() - start
        t.join(timeout=30)
        # The poll parked until the worker produced events — it neither
        # returned empty immediately nor burned the whole wait budget.
        assert page["events"]
        assert 0.1 <= elapsed < 8.0
        final = client.watch(job["id"])
        assert final["state"] == "done"


# ----------------------------------------------------------------------
# Keep-alive: one connection per client, drained bodies, honest errors
# ----------------------------------------------------------------------
class CountingServer(ServiceAPIServer):
    """An API server that keeps every accepted connection."""

    def __init__(self, *args, **kwargs):
        self.accepted = []
        super().__init__(*args, **kwargs)

    def get_request(self):
        conn, addr = super().get_request()
        self.accepted.append(conn)
        return conn, addr

    def stop(self, thread) -> None:
        """Stop serving and drop every connection, as a dying process does."""
        for conn in self.accepted:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self.shutdown()
        self.server_close()
        thread.join(timeout=5)


def start_counting(store, port: int = 0):
    server = CountingServer(store, "127.0.0.1", port, poll_seconds=0.02)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


@pytest.fixture()
def counting_service(tmp_path):
    """A counting API server and a client of it; yields (client, server)."""
    store = JobStore(tmp_path / "jobs.db")
    server, thread = start_counting(store)
    host, port = server.server_address[:2]
    with ServiceClient(f"http://{host}:{port}", timeout=30.0) as client:
        yield client, server
    server.stop(thread)
    store.close()


class TestKeepAlive:
    def test_one_connection_for_many_requests(self, counting_service):
        client, server = counting_service
        job = client.submit(ler_body(seed=61))
        for _ in range(10):
            assert client.status(job["id"])["state"] == "queued"
            assert client.request("GET", "/stats")["states"]["queued"] == 1
        with pytest.raises(SystemExit, match="404"):
            client.request("GET", "/nope")
        assert client.cancel(job["id"])["state"] == "cancelled"
        assert len(server.accepted) == 1

    def test_error_text_is_unchanged(self, counting_service):
        client, server = counting_service
        cases = [
            (("GET", "/nope"), "error: no such route: GET /nope (404)"),
            (("GET", "/jobs/doesnotexist"),
             "error: no such job: doesnotexist (404)"),
            (("POST", "/jobs", {"kind": "bogus"}),
             "error: unknown job kind 'bogus'; valid kinds: ler, sweep,"
             " yield (400)"),
            (("POST", "/jobs"), "error: request body must be a JSON object"
             " (400)"),
        ]
        for args, text in cases:
            with pytest.raises(SystemExit) as info:
                client.request(*args)
            assert str(info.value) == text
        assert len(server.accepted) == 1
        # http.server's own HTML error page (not JSON), sent with
        # "Connection: close": the client reports the status line and
        # opens a fresh connection for the next request.
        with pytest.raises(SystemExit) as info:
            client.request("PUT", "/jobs")
        assert str(info.value) \
            == "error: HTTP Error 501: Unsupported method ('PUT') (501)"
        assert "states" in client.request("GET", "/stats")
        assert len(server.accepted) == 2

    def test_unread_request_body_is_drained(self, counting_service):
        client, server = counting_service
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            for method, path in (("POST", "/nope"), ("DELETE", "/jobs/xyz")):
                conn.request(method, path, body=b'{"a": 1}',
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                assert resp.status == 404
                resp.read()
                conn.request("GET", "/stats")
                resp = conn.getresponse()
                assert resp.status == 200, resp.read()
                resp.read()
        finally:
            conn.close()
        # A chunked body has no Content-Length to drain: refused, and the
        # connection is closed rather than left mid-request.
        with socket.create_connection((host, port), timeout=30.0) as raw:
            raw.sendall(b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                        b"Transfer-Encoding: chunked\r\n\r\n"
                        b'8\r\n{"a": 1}\r\n0\r\n\r\n')
            reply = b""
            while chunk := raw.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in reply and b"Content-Length" in reply
        assert len(server.accepted) == 2

    def test_reconnects_once_after_server_restart(self, tmp_path):
        store = JobStore(tmp_path / "jobs.db")
        server, thread = start_counting(store)
        host, port = server.server_address[:2]
        with ServiceClient(f"http://{host}:{port}", timeout=30.0) as client:
            assert "states" in client.request("GET", "/stats")
            server.stop(thread)
            # Same port, new process: the held connection is dead, and the
            # next request reconnects once and succeeds.
            server, thread = start_counting(store, port)
            assert "states" in client.request("GET", "/stats")
            assert len(server.accepted) == 1
            server.stop(thread)
            # Nothing listens now: the retry's fresh connect is refused.
            with pytest.raises(OSError):
                client.request("GET", "/stats")
            with pytest.raises(OSError):
                client.request("GET", "/stats")
        store.close()

    def test_round_trips_do_not_stall(self, counting_service):
        client, server = counting_service
        client.request("GET", "/stats")
        start = time.monotonic()
        for _ in range(50):
            client.request("GET", "/stats")
        # A Nagle stall against the client's delayed ACK costs about
        # 44 ms per round trip, over 2.2 s for 50.
        assert time.monotonic() - start < 1.5
        assert len(server.accepted) == 1

    def test_url_validation_and_prefix(self, counting_service):
        client, server = counting_service
        with pytest.raises(ValueError, match="http://"):
            ServiceClient("https://127.0.0.1:1")
        with pytest.raises(SystemExit) as info:  # usage error, no traceback
            cli_main(["--url", "https://127.0.0.1:1", "stats"])
        assert info.value.code == 2
        host, port = server.server_address[:2]
        # A base-URL path prefix is sent ahead of every route.
        with ServiceClient(f"http://{host}:{port}/api/") as prefixed:
            with pytest.raises(SystemExit,
                               match=r"no such route: GET /api/stats"):
                prefixed.request("GET", "/stats")
