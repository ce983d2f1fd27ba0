"""Tests for heterogeneous task fusion (fused shard-groups).

The load-bearing contract: **fusion is pure dispatch**.  Grouping
compatible shards of different sweep tasks into one worker invocation
(:class:`repro.stabilizer.packed.FusedProgram` +
:func:`repro.engine.executor._plan_fused_groups`) changes wall-clock and
the :class:`~repro.engine.FusionStats` counters — never the numbers.
Fused sweeps must be bit-identical to unfused execution for any grouping,
worker count and backend, with byte-identical cache records; rng modes
must never mix inside a group; and the fusion budgets must stay out of
every cache key.
"""

import contextlib
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.core import adapt_patch
from repro.engine import (
    Engine,
    EngineConfig,
    FusionStats,
    LerPointTask,
    ShotPolicy,
    SweepItem,
)
from repro.engine import executor as executor_mod
from repro.engine.executor import (
    _plan_fused_groups,
    _run_fused_shards,
    _run_ler_shard,
    _context_for,
)
from repro.engine.scheduler import rng_mode_shot_cost
from repro.noise import DefectSet
from repro.stabilizer import packed as packed_mod
from repro.stabilizer.packed import DrawScratch, FusedProgram
from repro.surface_code import RotatedSurfaceCodeLayout

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Localhost worker fleet (same launch recipe as test_backends)
# ----------------------------------------------------------------------
def _launch_worker():
    env = dict(os.environ)
    extra = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
    if env.get("PYTHONPATH"):
        extra.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(extra)
    env["REPRO_WIRE_ALLOW"] = "test_fusion"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.engine.worker", "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=env, cwd=REPO_ROOT)
    line = proc.stdout.readline().strip()
    parts = line.split()
    assert parts[:1] == ["REPRO_WORKER_LISTENING"], line
    return proc, (parts[1], int(parts[2]))


@pytest.fixture(scope="module")
def worker_hosts():
    """Two localhost repro.engine.worker processes, shared by the module."""
    procs, hosts = [], []
    try:
        for _ in range(2):
            proc, host = _launch_worker()
            procs.append(proc)
            hosts.append(host)
        yield tuple(hosts)
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=10)


def _engines(worker_hosts, **kwargs):
    """One engine per backend under test, workers 1/2/4 for the pool."""
    return {
        "serial": Engine(EngineConfig(backend="serial", **kwargs)),
        "process-2": Engine(EngineConfig(max_workers=2, **kwargs)),
        "process-4": Engine(EngineConfig(max_workers=4, **kwargs)),
        "socket-2": Engine(EngineConfig(backend="socket",
                                        hosts=worker_hosts, **kwargs)),
    }


@contextlib.contextmanager
def fusion_budgets(tasks=8, shots=8192):
    """Run the body under the given fusion budgets (``tasks=1`` disables
    fusion); the module constants are restored on exit."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(executor_mod, "_FUSE_TASKS", tasks)
        m.setattr(executor_mod, "_FUSE_SHOTS", shots)
        yield


def task(d=3, p=0.01, rng_mode="exact"):
    patch = adapt_patch(RotatedSurfaceCodeLayout(d), DefectSet.of())
    return LerPointTask.from_patch("memory", patch, p, rng_mode=rng_mode)


def ler_tuple(r):
    return (r.failures, r.shots, r.num_shards, r.num_detectors,
            r.num_dem_errors)


def fusion_items():
    """Mixed sweep: exact + bitgen, fixed + adaptive, d=3 and d=5."""
    return [
        SweepItem(task(3, 0.005),
                  ShotPolicy.adaptive(2048, min_shots=128,
                                      target_failures=15), 1),
        SweepItem(task(3, 0.01), ShotPolicy.fixed(640), 2),
        SweepItem(task(3, 0.02), ShotPolicy.fixed(64), 3),
        SweepItem(task(3, 0.015, rng_mode="bitgen"), ShotPolicy.fixed(640), 4),
        SweepItem(task(5, 0.01), ShotPolicy.fixed(512), 5),
        SweepItem(task(3, 0.008, rng_mode="bitgen"), ShotPolicy.fixed(256), 6),
    ]


# ----------------------------------------------------------------------
# FusedProgram / DrawScratch units
# ----------------------------------------------------------------------
class TestDrawScratch:
    def test_views_are_c_contiguous_across_shot_counts(self):
        scratch = DrawScratch()
        for rows, shots in [(4, 640), (7, 64), (3, 1024), (4, 640)]:
            rbuf, hbuf = scratch.view(rows, shots)
            assert rbuf.shape == (rows, shots) and hbuf.shape == (rows, shots)
            assert rbuf.flags.c_contiguous and hbuf.flags.c_contiguous
            assert rbuf.dtype == np.float64 and hbuf.dtype == np.bool_

    def test_buffer_grows_monotonically_and_is_reused(self):
        scratch = DrawScratch()
        scratch.view(2, 64)
        small = scratch._rflat
        scratch.view(8, 512)
        big = scratch._rflat
        assert big.size >= 8 * 512 > small.size
        scratch.view(1, 64)
        assert scratch._rflat is big  # shrink requests reuse the big buffer


class TestFusedProgram:
    def _sims(self, tasks):
        return [_context_for(t)[0].simulator for t in tasks]

    def test_segments_match_solo_samples_bit_for_bit(self):
        """Sharing one draw scratch across segments must not perturb any
        segment's stream: every fused segment equals its solo sample."""
        tasks = [task(3, 0.01), task(3, 0.02), task(5, 0.01)]
        program = FusedProgram(self._sims(tasks))
        requests = [(640, 11), (64, 12), (512, 13)]
        fused = program.run(requests)
        for t, (shots, seed), got in zip(tasks, requests, fused):
            solo = _context_for(t)[0].simulator.reseed(seed).sample(shots)
            np.testing.assert_array_equal(got.detectors_packed,
                                          solo.detectors_packed)
            np.testing.assert_array_equal(got.observables_packed,
                                          solo.observables_packed)
        assert len(program.segment_seconds) == 3

    def test_bitgen_segments_run_without_scratch(self):
        tasks = [task(3, 0.01, rng_mode="bitgen"),
                 task(3, 0.02, rng_mode="bitgen")]
        program = FusedProgram(self._sims(tasks))
        assert program._scratch is None  # bitgen draws bits, not floats
        fused = program.run([(256, 21), (128, 22)])
        for t, (shots, seed), got in zip(tasks, [(256, 21), (128, 22)], fused):
            solo = _context_for(t)[0].simulator.reseed(seed).sample(shots)
            np.testing.assert_array_equal(got.detectors_packed,
                                          solo.detectors_packed)

    def test_mixed_rng_modes_rejected(self):
        sims = self._sims([task(3, 0.01), task(3, 0.02, rng_mode="bitgen")])
        with pytest.raises(ValueError, match="rng_mode"):
            FusedProgram(sims)

    def test_empty_segment_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FusedProgram([])

    def test_request_count_mismatch_rejected(self):
        program = FusedProgram(self._sims([task(3, 0.01)]))
        with pytest.raises(ValueError, match="1 segment"):
            program.run([(64, 1), (64, 2)])


def test_run_fused_shards_matches_run_ler_shard():
    """The worker-side fused entry point returns exactly the per-job
    triples the unfused entry point computes."""
    jobs = ((task(3, 0.01), 5, 640), (task(3, 0.02), 6, 64),
            (task(3, 0.01), 7, 640))  # duplicate task: same pipeline reused
    assert _run_fused_shards(jobs) == [_run_ler_shard(*j) for j in jobs]


# ----------------------------------------------------------------------
# Planner units
# ----------------------------------------------------------------------
class TestPlanFusedGroups:
    def plan(self, shards, tasks=8, shots=8192, **kw):
        with fusion_budgets(tasks, shots):
            return _plan_fused_groups(shards, **kw)

    def test_modes_never_mix(self):
        shards = [("exact", 100, "a"), ("bitgen", 100, "b"),
                  ("exact", 100, "c"), ("bitgen", 100, "d")]
        groups = self.plan(shards)
        assert sorted(map(tuple, groups)) == [("a", "c"), ("b", "d")]

    def test_fuse_tasks_caps_group_size(self):
        shards = [("exact", 10, i) for i in range(5)]
        groups = self.plan(shards, tasks=2)
        assert [len(g) for g in groups] == [2, 2, 1]
        assert [e for g in groups for e in g] == list(range(5))

    def test_fuse_tasks_one_disables_fusion(self):
        shards = [("exact", 10, i) for i in range(4)]
        assert self.plan(shards, tasks=1) == [[0], [1], [2], [3]]

    def test_fuse_shots_budget_closes_groups(self):
        shards = [("exact", 300, "a"), ("exact", 300, "b"),
                  ("exact", 300, "c")]
        groups = self.plan(shards, shots=600)
        assert groups == [["a", "b"], ["c"]]

    def test_bitgen_shots_priced_at_a_third(self):
        # 300 bitgen shots cost 100 -> six of them fit a 600 budget.
        shards = [("bitgen", 300, i) for i in range(6)]
        assert self.plan(shards, shots=600) == [list(range(6))]
        # The same shots in exact mode split into pairs.
        shards = [("exact", 300, i) for i in range(6)]
        groups = self.plan(shards, shots=600)
        assert [len(g) for g in groups] == [2, 2, 2]

    def test_oversized_shard_dispatches_alone(self):
        shards = [("exact", 100, "a"), ("exact", 9000, "big"),
                  ("exact", 100, "b")]
        groups = self.plan(shards, shots=1000)
        assert ["big"] in groups
        assert sorted(e for g in groups for e in g) == ["a", "b", "big"]

    def test_largest_fusable_shard_fits_one_scratch_row(self):
        """The shot budget alone bounds fused segments: the largest exact
        shard it admits fits one packed draw-scratch block row, so a fused
        segment never grows the scratch every other segment inherits."""
        assert executor_mod._FUSE_SHOTS <= packed_mod._BLOCK_BYTES // 8

    def test_target_groups_splits_for_idle_slots(self):
        """Fusion must not serialise work idle workers could overlap:
        with 4 free slots, 8 eligible shards split into ceil(8/4)=2-size
        groups instead of one giant batch."""
        shards = [("exact", 10, i) for i in range(8)]
        groups = self.plan(shards, target_groups=4)
        assert [len(g) for g in groups] == [2, 2, 2, 2]

    def test_plan_order_preserved(self):
        shards = [("exact", 10, i) if i % 2 else ("bitgen", 10, i)
                  for i in range(7)]
        groups = self.plan(shards)
        assert sorted(e for g in groups for e in g) == list(range(7))
        for g in groups:
            assert g == sorted(g)  # within-group order is plan order


# ----------------------------------------------------------------------
# Engine integration: bit-identity, counters, cache parity
# ----------------------------------------------------------------------
class TestFusionBitIdentity:
    def test_fused_matches_unfused_across_all_backends(self, worker_hosts):
        """Mixed exact+bitgen sweep: serial / process 2 and 4 / socket,
        fused (default) and unfused (_FUSE_TASKS=1) — one set of numbers."""
        with fusion_budgets(tasks=1):
            reference = [ler_tuple(r) for r in
                         Engine(EngineConfig(shard_size=128))
                         .run_sweep(fusion_items())]
        for name, engine in _engines(worker_hosts, shard_size=128).items():
            got = [ler_tuple(r) for r in engine.run_sweep(fusion_items())]
            assert got == reference, f"{name} diverged under fusion"
            assert engine.last_fusion.fused_groups > 0, \
                f"{name} never fused (vacuous parity)"

    def test_grouping_budgets_are_invisible_in_numbers(self):
        reference = None
        for fuse_tasks, fuse_shots in [(1, 8192), (2, 8192), (8, 512),
                                       (8, 8192), (3, 1000)]:
            engine = Engine(EngineConfig(shard_size=128))
            with fusion_budgets(fuse_tasks, fuse_shots):
                got = [ler_tuple(r) for r in engine.run_sweep(fusion_items())]
            if reference is None:
                reference = got
            assert got == reference, (fuse_tasks, fuse_shots)

    def test_fusion_counters_serial(self):
        """Four single-shard fixed tasks on the serial backend fuse into
        one group of four (serial has one slot, no split pressure)."""
        items = [SweepItem(task(3, 0.01 + 0.001 * i),
                           ShotPolicy.fixed(128), 10 + i) for i in range(4)]
        engine = Engine(EngineConfig(shard_size=128))
        engine.run_sweep(items)
        fusion = engine.last_fusion
        assert fusion.dispatches == 1
        assert fusion.fused_groups == 1
        assert fusion.fused_shots == 4 * 128 == fusion.total_shots
        assert fusion.fused_shot_fraction == 1.0

    def test_unfused_engine_reports_zero_fusion(self):
        engine = Engine(EngineConfig(shard_size=128))
        with fusion_budgets(tasks=1):
            engine.run_sweep(fusion_items())
        assert isinstance(engine.last_fusion, FusionStats)
        assert engine.last_fusion.fused_groups == 0
        assert engine.last_fusion.fused_shot_fraction == 0.0
        assert engine.last_fusion.total_shots > 0

    def test_incompatible_rng_modes_never_fuse(self):
        """Every dispatch group observed via a submit spy holds one mode."""
        engine = Engine(EngineConfig(shard_size=128))
        backend = engine.backend
        seen_groups = []
        original = backend.submit

        def spy(fn, args):
            if fn is _run_fused_shards:
                seen_groups.append([t.rng_mode for t, _, _ in args[0]])
            return original(fn, args)

        backend.submit = spy
        try:
            engine.run_sweep(fusion_items())
        finally:
            backend.submit = original
        assert seen_groups, "sweep never dispatched a fused group"
        for modes in seen_groups:
            assert len(set(modes)) == 1, modes

    def test_cache_records_byte_identical_fused_vs_unfused(self, tmp_path):
        blobs = {}
        for name, fuse_tasks in [("fused", 8), ("unfused", 1)]:
            cache_dir = tmp_path / name
            engine = Engine(EngineConfig(shard_size=128,
                                         cache_dir=str(cache_dir)))
            with fusion_budgets(tasks=fuse_tasks):
                results = engine.run_sweep(fusion_items())
            assert not any(r.from_cache for r in results)
            blobs[name] = {
                p.relative_to(cache_dir): p.read_bytes()
                for p in sorted(cache_dir.rglob("*.json"))
            }
        assert blobs["fused"]  # the sweep really wrote records
        assert blobs["fused"] == blobs["unfused"]

    def test_fused_run_warms_unfused_engine_and_back(self, tmp_path):
        fused = Engine(EngineConfig(shard_size=128,
                                    cache_dir=str(tmp_path)))
        unfused = Engine(EngineConfig(shard_size=128,
                                      cache_dir=str(tmp_path)))
        cold = fused.run_sweep(fusion_items())
        with fusion_budgets(tasks=1):
            warm = unfused.run_sweep(fusion_items())
        assert all(r.from_cache for r in warm)
        assert [ler_tuple(r) for r in cold] == [ler_tuple(r) for r in warm]

    def test_partially_warm_fused_sweep(self, tmp_path):
        items = fusion_items()
        with fusion_budgets(tasks=1):
            Engine(EngineConfig(shard_size=128, cache_dir=str(tmp_path))
                   ).run_sweep([items[1], items[3]])
        engine = Engine(EngineConfig(shard_size=128,
                                     cache_dir=str(tmp_path)))
        results = engine.run_sweep(items)
        assert [r.from_cache for r in results] == [False, True, False, True,
                                                   False, False]
        with fusion_budgets(tasks=1):
            ref = Engine(EngineConfig(shard_size=128)).run_sweep(items)
        assert [ler_tuple(r) for r in results] == [ler_tuple(r) for r in ref]


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class TestFusionConfig:
    def test_engine_config_carries_no_fusion_budget(self):
        """The fusion budgets are module constants, not engine options."""
        assert [f.name for f in fields(EngineConfig)] == [
            "max_workers", "shard_size", "cache_dir", "backend", "hosts"]

    def test_fusion_stats_keeps_the_read_counters(self):
        assert [f.name for f in fields(FusionStats)] == [
            "dispatches", "fused_groups", "fused_shots", "total_shots"]
        assert FusionStats(fused_shots=3, total_shots=4) \
            .fused_shot_fraction == 0.75

    def test_fusion_knobs_stay_out_of_cache_keys(self):
        t = task(3, 0.01)
        policy = ShotPolicy.fixed(640)
        keys = set()
        for tasks, shots in [(1, 8192), (8, 8192), (8, 64), (3, 1000)]:
            with fusion_budgets(tasks, shots):
                keys.add(Engine(EngineConfig())._cache_key(t, 7, policy))
        assert len(keys) == 1

    def test_rng_mode_shot_cost(self):
        assert rng_mode_shot_cost("exact", 9000) == 9000
        assert rng_mode_shot_cost("bitgen", 9000) == 3000
        assert rng_mode_shot_cost("bitgen", 100) == 34  # ceiling, not floor
        assert rng_mode_shot_cost("bitgen", 0) == 0
        assert rng_mode_shot_cost("exact", -5) == 0
        with pytest.raises(ValueError, match="unknown rng_mode"):
            rng_mode_shot_cost("quantum", 100)

    def test_estimated_cost_rng_mode_aware(self):
        fixed = ShotPolicy.fixed(9000)
        assert fixed.estimated_cost() == 9000  # exact default unchanged
        assert fixed.estimated_cost(rng_mode="bitgen") == 3000
        adaptive = ShotPolicy.adaptive(8192, min_shots=512,
                                       target_failures=50)
        exact = adaptive.estimated_cost()
        assert adaptive.estimated_cost(rng_mode="bitgen") \
            == rng_mode_shot_cost("bitgen", exact)

    def test_spec_estimated_cost_prices_bitgen_items(self):
        from repro.service.specs import normalize_spec, spec_estimated_cost

        def sweep_spec(tasks):
            return normalize_spec({
                "kind": "sweep", "tasks": [t.payload() for t in tasks],
                "shots": 900, "seed": 1,
            })

        exact_spec = sweep_spec([task(3, 0.01), task(3, 0.02)])
        mixed_spec = sweep_spec([task(3, 0.01),
                                 task(3, 0.02, rng_mode="bitgen")])
        assert spec_estimated_cost(exact_spec) == 1800.0
        assert spec_estimated_cost(mixed_spec) == 1200.0  # 900 + 900/3
        ler_spec = normalize_spec({
            "kind": "ler",
            "task": task(3, 0.01, rng_mode="bitgen").payload(),
            "shots": 900, "seed": 1,
        })
        assert spec_estimated_cost(ler_spec) == 300.0
