"""Plan cache behaviour: hits/misses, LRU, pinning, teardown, isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Communicator, ConsistencyPolicy, FaultPlan
from repro.core.plan import PlanCache, PlanKey
from repro.core.registry import REGISTRY

from tests.helpers import rank_vector, spmd


class TestPlanCacheStats:
    def test_zero_dispatch_stats_are_safe(self):
        """Hit-rate reporting must not trip over the zero-dispatch case."""

        def worker(rt):
            comm = Communicator(rt)
            stats = comm.plan_cache_stats()  # before any collective
            snapshot = (
                stats.hits,
                stats.misses,
                stats.dispatches,
                stats.hit_rate,
                stats.describe(),
            )
            comm.close()
            return snapshot

        for hits, misses, dispatches, hit_rate, described in spmd(2, worker):
            assert (hits, misses, dispatches) == (0, 0, 0)
            assert hit_rate == 0.0  # no ZeroDivisionError
            assert "no plannable dispatches" in described

    def test_describe_after_dispatches(self):
        def worker(rt):
            comm = Communicator(rt)
            data = rank_vector(comm.rank, 256)
            for _ in range(3):
                comm.allreduce(data.copy())
            described = comm.plan_cache_stats().describe()
            comm.close()
            return described

        for described in spmd(2, worker):
            assert "2/3 hits" in described and "66.7%" in described

    def test_repeated_allreduce_hits_the_cache(self):
        def worker(rt):
            comm = Communicator(rt)
            x = rank_vector(rt.rank, 256)
            for _ in range(5):
                comm.allreduce(x, algorithm="ring")
            stats = comm.plan_cache_stats()
            comm.close()
            return stats

        for stats in spmd(4, worker):
            assert stats.misses == 1  # first call compiled the plan
            assert stats.hits == 4  # every repeat was served from cache
            assert stats.entries == 1
            assert stats.hit_rate == pytest.approx(0.8)

    def test_distinct_shapes_get_distinct_plans(self):
        def worker(rt):
            comm = Communicator(rt)
            comm.allreduce(rank_vector(rt.rank, 64), algorithm="ring")
            comm.allreduce(rank_vector(rt.rank, 128), algorithm="ring")  # new nbytes
            comm.allreduce(
                rank_vector(rt.rank, 64, np.float32), algorithm="ring"
            )  # new dtype
            comm.allreduce(rank_vector(rt.rank, 64), op="max", algorithm="ring")  # new op
            comm.allreduce(rank_vector(rt.rank, 64), algorithm="ring")  # hit
            stats = comm.plan_cache_stats()
            comm.close()
            return stats

        for stats in spmd(2, worker):
            assert stats.misses == 4
            assert stats.hits == 1
            assert stats.entries == 4

    def test_zero_capacity_disables_planning(self):
        def worker(rt):
            comm = Communicator(rt, plan_cache=0)
            x = rank_vector(rt.rank, 64)
            for _ in range(3):
                comm.allreduce(x, algorithm="ring")
            stats = comm.plan_cache_stats()
            comm.close()
            return stats

        for stats in spmd(2, worker):
            assert stats.hits == 0
            assert stats.misses == 0
            assert stats.entries == 0

    def test_loss_capable_fault_plan_disables_planning(self):
        def worker(rt):
            comm = Communicator(
                rt,
                faults=FaultPlan.single_crash(3, at_op=10_000),
                detect_timeout=0.2,
                policy=ConsistencyPolicy(threshold=0.5, mode="processes",
                                         on_failure="complete"),
            )
            x = rank_vector(rt.rank, 64)
            comm.allreduce(x)
            comm.allreduce(x)
            stats = comm.plan_cache_stats()
            comm.close()
            return stats

        for stats in spmd(4, worker):
            assert stats.entries == 0
            assert stats.hits == 0

    def test_slack_policies_stay_on_the_cold_path(self):
        def worker(rt):
            comm = Communicator(rt)
            x = rank_vector(rt.rank, 32)
            comm.allreduce(x, policy=ConsistencyPolicy.ssp(2), algorithm="hypercube")
            stats = comm.plan_cache_stats()
            comm.close()
            return stats

        for stats in spmd(4, worker):
            assert stats.entries == 0


class TestLruEviction:
    def test_eviction_frees_the_oldest_plan_segment(self):
        def worker(rt):
            comm = Communicator(rt, plan_cache=2)
            for elements in (16, 32, 64):  # three shapes, capacity two
                comm.allreduce(rank_vector(rt.rank, elements), algorithm="ring")
            stats = comm.plan_cache_stats()
            comm.close()
            return stats, len(rt.world._segments[rt.rank])

        for stats, open_segments in spmd(2, worker):
            assert stats.entries == 2
            assert stats.evictions == 1
            # close() freed the cached plans; the evicted one was freed
            # at eviction time — nothing may remain open.
            assert open_segments == 0

    def test_pinned_plans_survive_eviction(self):
        def worker(rt):
            comm = Communicator(rt, plan_cache=2)
            handle = comm.persistent("allreduce", np.empty(16), algorithm="ring")
            for elements in (32, 64, 128):
                comm.allreduce(rank_vector(rt.rank, elements), algorithm="ring")
            # The pinned 16-element plan must still be served from cache.
            before = comm.plan_cache_stats().hits
            result = handle(np.full(16, 1.0))
            after = comm.plan_cache_stats().hits
            handle.close()
            comm.close()
            return before, after, float(result.value[0])

        for before, after, value in spmd(2, worker):
            assert after == before + 1
            assert value == 2.0


class TestPersistentHandles:
    def test_persistent_allreduce_matches_implicit_calls(self):
        def worker(rt):
            comm = Communicator(rt)
            x = rank_vector(rt.rank, 512)
            expected = comm.allreduce(np.array(x), algorithm="ring")
            with comm.persistent("allreduce", np.empty(512), algorithm="ring") as h:
                got = h(np.array(x)).value
                calls = h.calls
            comm.close()
            return expected, got, calls

        for expected, got, calls in spmd(4, worker):
            np.testing.assert_array_equal(expected, got)
            assert calls >= 1

    def test_persistent_bcast_and_reduce(self):
        def worker(rt):
            comm = Communicator(rt)
            hb = comm.persistent("bcast", np.empty(64), root=1, algorithm="bst")
            buf = np.full(64, float(rt.rank))
            hb(buf)
            hr = comm.persistent("reduce", np.empty(64), root=0, op="max",
                                 algorithm="bst")
            out = np.zeros(64) if rt.rank == 0 else None
            hr(np.full(64, float(rt.rank)), recvbuf=out)
            hb.close()
            hr.close()
            comm.close()
            return buf[0], None if out is None else out[0]

        results = spmd(4, worker)
        for rank, (bval, rval) in enumerate(results):
            assert bval == 1.0  # broadcast from root 1
            if rank == 0:
                assert rval == 3.0  # max over ranks 0..3

    def test_mismatched_payload_is_rejected(self):
        def worker(rt):
            comm = Communicator(rt)
            h = comm.persistent("allreduce", np.empty(64), algorithm="ring")
            try:
                with pytest.raises(ValueError, match="does not match"):
                    h(np.empty(128))
            finally:
                # Recover collectively so every rank exits cleanly.
                h(np.full(64, 1.0))
                h.close()
                comm.close()
            return True

        assert all(spmd(2, worker))

    def test_unplannable_algorithm_is_rejected(self):
        def worker(rt):
            comm = Communicator(rt)
            with pytest.raises(ValueError, match="does not support compiled plans"):
                comm.persistent("allgather", np.empty(16))
            comm.close()
            return True

        assert all(spmd(2, worker))

    def test_pins_are_reference_counted_across_same_shape_handles(self):
        # Closing one of two handles over the same shape must not expose
        # the surviving handle's plan to LRU eviction.
        def worker(rt):
            comm = Communicator(rt, plan_cache=2)
            h1 = comm.persistent("allreduce", np.empty(64), algorithm="ring")
            h2 = comm.persistent("allreduce", np.empty(64), algorithm="ring")
            h1.close()
            for elements in (32, 128, 256):  # pressure the 2-entry cache
                comm.allreduce(rank_vector(rt.rank, elements), algorithm="ring")
            result = h2(np.full(64, 1.0))  # must still be served, not torn down
            h2.close()
            comm.close()
            return float(result.value[0])

        assert spmd(2, worker) == [2.0, 2.0]

    def test_closed_handle_refuses_calls(self):
        def worker(rt):
            comm = Communicator(rt)
            h = comm.persistent("allreduce", np.empty(16), algorithm="ring")
            h.close()
            with pytest.raises(ValueError, match="already closed"):
                h(np.empty(16))
            comm.close()
            return True

        assert all(spmd(2, worker))


class TestTeardown:
    def test_close_frees_each_pooled_segment_exactly_once(self):
        def worker(rt):
            comm = Communicator(rt)
            comm.allreduce(rank_vector(rt.rank, 64), algorithm="ring")
            comm.bcast(np.zeros(64), root=0, algorithm="bst")
            open_before = len(rt.world._segments[rt.rank])
            comm.close()
            open_after = len(rt.world._segments[rt.rank])
            comm.close()  # idempotent — must not raise or double-free
            return open_before, open_after

        for open_before, open_after in spmd(4, worker):
            assert open_before == 2  # the two pooled plan workspaces
            assert open_after == 0

    def test_close_survives_a_faulty_runtime_wrapper(self):
        # A benign (timing-only) fault plan keeps planning enabled; close()
        # must free the pooled segments through the FaultyRuntime wrapper.
        def worker(rt):
            comm = Communicator(rt, faults=FaultPlan(delay={0: 0.0}))
            comm.allreduce(rank_vector(rt.rank, 32), algorithm="ring")
            assert comm.plan_cache_stats().entries == 1
            comm.close()
            return len(rt.world._segments[rt.rank])

        assert spmd(2, worker) == [0, 0]


class TestSplitIsolation:
    def test_children_never_share_plans_or_pools_with_the_parent(self):
        def worker(rt):
            comm = Communicator(rt)
            comm.allreduce(rank_vector(rt.rank, 64), algorithm="ring")
            parent_key = next(iter(comm._plans._plans))
            child = comm.split(color=rt.rank % 2)
            child.allreduce(rank_vector(rt.rank, 64), algorithm="ring")
            child_key = next(iter(child._plans._plans))
            child_plan = child._plans._plans[child_key]
            parent_plan = comm._plans._plans[parent_key]
            # Disjoint caches, disjoint pooled segments.
            assert child._plans is not comm._plans
            assert child_plan.segment_id != parent_plan.segment_id
            assert parent_key not in child._plans
            # Parent's cache is untouched by the child's dispatches.
            parent_stats = comm.plan_cache_stats()
            child.close()
            # Closing the child must not free the parent's pooled segment:
            # the parent plan still serves calls.
            comm.allreduce(rank_vector(rt.rank, 64), algorithm="ring")
            comm.close()
            return parent_stats.entries, parent_stats.misses

        for entries, misses in spmd(4, worker):
            assert entries == 1
            assert misses == 1


class TestPlanKeyAndCacheUnits:
    def test_plan_key_ignores_payload_values(self):
        info = REGISTRY.get("gaspi_allreduce_ring")

        class FakeRuntime:
            size = 4

        from repro.core.policy import CollectiveRequest

        a = PlanKey.from_request(
            info, FakeRuntime(), CollectiveRequest("allreduce", sendbuf=np.zeros(8))
        )
        b = PlanKey.from_request(
            info, FakeRuntime(), CollectiveRequest("allreduce", sendbuf=np.ones(8))
        )
        assert a == b
        c = PlanKey.from_request(
            info, FakeRuntime(), CollectiveRequest("allreduce", sendbuf=np.zeros(9))
        )
        assert a != c

    def test_cache_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(-1)

    def test_barrier_keys_to_one_data_free_plan(self):
        info = REGISTRY.get("gaspi_barrier_dissemination")

        class FakeRuntime:
            size = 4

        from repro.core.policy import CollectiveRequest

        key = PlanKey.from_request(info, FakeRuntime(), CollectiveRequest("barrier"))
        assert key is not None
        assert key.nbytes == 0 and key.collective == "barrier"
        # Every barrier request on a communicator shares the one plan.
        assert key == PlanKey.from_request(
            info, FakeRuntime(), CollectiveRequest("barrier")
        )
        # Other data-free requests stay unplannable.
        ring = REGISTRY.get("gaspi_allreduce_ring")
        assert (
            PlanKey.from_request(ring, FakeRuntime(), CollectiveRequest("allreduce"))
            is None
        )
        alltoall = REGISTRY.get("gaspi_alltoall")
        assert (
            PlanKey.from_request(alltoall, FakeRuntime(), CollectiveRequest("alltoall"))
            is None
        )
