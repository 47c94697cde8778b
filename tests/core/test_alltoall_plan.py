"""Compiled plans for the alltoall and the dissemination barrier.

The alltoall plan reuses its receive slots across calls by call parity,
with no acks and no barriers; the barrier plan reuses one notification
barrier.  These tests pin the behaviour a plan-cached loop depends on:
back-to-back calls with fresh data deliver the exact block transpose on
both backends, results never alias the pooled workspace, the cyclic
shape mix of a small-message loop stays cached, and the cold path no
longer leaks shared-memory mappings.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import Communicator, ConsistencyPolicy, run_backend
from repro.core.plan import PlanKey
from repro.core.policy import CollectiveRequest
from repro.core.registry import REGISTRY

from tests.helpers import spmd


def _send_vector(rank: int, size: int, block: int, call: int) -> np.ndarray:
    """Integer-valued send vector, distinct per rank, call and element."""
    base = 1_000_000.0 * call + 10_000.0 * rank
    return base + np.arange(size * block, dtype=np.float64)


def _transpose(size: int, block: int, call: int, rank: int) -> np.ndarray:
    """What ``rank`` must receive: block ``rank`` of every sender."""
    sends = np.stack([_send_vector(src, size, block, call) for src in range(size)])
    return sends.reshape(size, size, block)[:, rank, :].reshape(-1)


@pytest.mark.parametrize("backend", ["threaded", "shm"])
def test_back_to_back_alltoalls_match_the_block_transpose(backend):
    calls, block = 5, 7

    def worker(rt):
        comm = Communicator(rt)
        outputs = [
            comm.alltoall(_send_vector(comm.rank, comm.size, block, call))
            for call in range(calls)
        ]
        # In place: the send vector doubles as the receive buffer.
        inplace = _send_vector(comm.rank, comm.size, block, calls)
        comm.alltoall(inplace, inplace)
        stats = comm.plan_cache_stats()
        comm.close()
        return outputs, inplace, (stats.hits, stats.misses)

    size = 4
    for rank, (outputs, inplace, counts) in enumerate(
        run_backend(size, worker, backend=backend, timeout=60.0)
    ):
        assert counts == (calls, 1)  # one compile, every later call cached
        # Each output is checked after all calls returned: an output that
        # aliased the pooled receive slots would hold a later call's data.
        for call, out in enumerate(outputs):
            assert np.array_equal(out, _transpose(size, block, call, rank))
        assert np.array_equal(inplace, _transpose(size, block, calls, rank))


def test_planned_alltoall_takes_no_runtime_barrier():
    def worker(rt):
        comm = Communicator(rt)
        send = np.arange(2.0 * rt.size)
        comm.alltoall(send)  # compiles: one barrier
        comm.barrier(algorithm="auto")  # compiles: one barrier
        calls = []
        original = rt.barrier

        def counting_barrier(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        rt.barrier = counting_barrier
        try:
            for _ in range(3):
                comm.alltoall(send)
                comm.barrier(algorithm="auto")
        finally:
            del rt.barrier
        comm.close()
        return len(calls)

    assert spmd(4, worker) == [0, 0, 0, 0]


def test_small_message_shape_cycle_stays_cached():
    """4 sizes x {bcast, reduce, allreduce, alltoall} + barrier = 17 shapes."""
    bcast = ConsistencyPolicy.data_threshold(0.25)
    reduce = ConsistencyPolicy.process_threshold(0.75)

    def cycle(comm):
        for n in (1, 16, 128, 2048):
            mine = np.full(n, float(comm.rank + 1))
            comm.bcast(mine.copy(), root=0, policy=bcast, algorithm="bst")
            comm.reduce(mine, np.empty(n), root=0, policy=reduce, algorithm="bst")
            comm.allreduce(mine, np.empty(n), algorithm="ring")
            per_pair = max(1, n // comm.size)
            comm.alltoall(np.ones(per_pair * comm.size))
            comm.barrier(algorithm="auto")

    def worker(rt):
        comm = Communicator(rt)
        cycle(comm)
        first = comm.plan_cache_stats()
        for _ in range(2):
            cycle(comm)
        last = comm.plan_cache_stats()
        comm.close()
        return first.misses, last.misses, last.evictions, last.entries

    for first_misses, last_misses, evictions, entries in spmd(2, worker):
        assert first_misses == 17 and entries == 17
        assert last_misses == first_misses  # zero misses after the first cycle
        assert evictions == 0


def test_alltoallv_after_alltoall_bypasses_the_cache():
    def counts(src: int, dst: int) -> int:
        # 3 or 1 per peer: every rank sends 2 elements per peer on average,
        # so the alltoallv payload has exactly the alltoall's bytes.
        return 3 if (src + dst) % 2 == 0 else 1

    def worker(rt):
        comm = Communicator(rt)
        size, rank = rt.size, rt.rank
        comm.alltoall(np.arange(2.0 * size))
        cached = comm.plan_cache_stats()
        send_counts = [counts(rank, dst) for dst in range(size)]
        recv_counts = [counts(src, rank) for src in range(size)]
        send = np.concatenate(
            [np.full(c, 10.0 * rank + dst) for dst, c in enumerate(send_counts)]
        )
        recv = comm.alltoallv(send, send_counts, recv_counts)
        after = comm.plan_cache_stats()
        expected = np.concatenate(
            [np.full(c, 10.0 * src + rank) for src, c in enumerate(recv_counts)]
        )
        comm.close()
        return (
            np.array_equal(recv, expected),
            send.nbytes == 2 * size * 8,
            (cached.misses, cached.hits),
            (after.misses, after.hits),
        )

    for correct, same_nbytes, cached, after in spmd(4, worker):
        assert correct and same_nbytes
        assert cached == after == (1, 0)  # neither a hit nor a compile


def test_cold_alltoalls_leave_no_stale_shm_mappings():
    size, calls = 4, 100

    def worker(rt):
        comm = Communicator(rt, plan_cache=0)
        send = np.full(16 * rt.size, float(rt.rank))
        for _ in range(calls):
            comm.alltoall(send)
        mappings = len(rt._remote)
        comm.close()
        return mappings

    mappings = run_backend(size, worker, backend="shm", timeout=120.0)
    assert max(mappings) <= size - 1


@pytest.mark.parametrize(
    "collective,algorithm",
    [("alltoall", "gaspi_alltoall"), ("barrier", "gaspi_barrier_dissemination")],
)
def test_planned_call_times_out_after_one_timeout(collective, algorithm):
    """A peer that never enters: the blocking call raises after one timeout."""
    timeout = 0.5
    info = REGISTRY.get(algorithm)

    def worker(rt):
        sendbuf = np.ones(4) if collective == "alltoall" else None
        request = CollectiveRequest(collective, sendbuf=sendbuf, timeout=timeout)
        key = PlanKey.from_request(info, rt, request)
        plan = info.plan(rt, key, 31, request.policy)
        elapsed = None
        if rt.rank == 0:
            started = time.perf_counter()
            with pytest.raises(TimeoutError):
                plan.execute(request)
            elapsed = time.perf_counter() - started
        rt.barrier()
        plan.close()
        return elapsed

    elapsed = spmd(2, worker)[0]
    assert 0.9 * timeout <= elapsed < 1.8 * timeout
