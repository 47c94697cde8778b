"""Consistent AlltoAll (paper Section IV-B, Figure 13).

The GASPI AlltoAll follows "a rather simple but well-performing pattern":
every rank writes its block for peer ``j`` directly into peer ``j``'s
segment with ``gaspi_write_notify`` (the notification id identifies the
producer), then waits for P-1 notifications, resetting each one
(``gaspi_notify_waitsome`` + ``gaspi_notify_reset``).  There is no
intermediate forwarding and no pairwise ordering.

:class:`AlltoallPlan` is the compiled form the
:class:`~repro.core.api.Communicator` caches: a repeated call runs on a
workspace registered once and takes no global barrier at all — its
double-buffered receive slots make back-to-back calls safe without one.
The cold :func:`alltoall` compiles the same plan, runs it once and closes
it, so it keeps two barriers per call: one after registering the
workspace, one before deleting it.

:func:`alltoallv` extends the scheme to variable block sizes, which the
paper mentions as the GASPI equivalent of ``MPI_AlltoAllV`` used by the
Quantum Espresso FFT mini-app.  It always runs on the cold path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..gaspi.constants import GASPI_BLOCK
from ..gaspi.runtime import GaspiRuntime
from ..utils.validation import require
from .pipeline import GeneratorPlan, PipelineGen, WaitSpec, _request_key
from .plan import PlanKey
from .schedule import CommunicationSchedule, Message, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .policy import CollectiveRequest, CollectiveResult

#: Default segment id used by the alltoall collectives.
ALLTOALL_SEGMENT_ID = 140


class AlltoallPlan(GeneratorPlan):
    """Compiled direct AlltoAll over a pooled, double-buffered workspace.

    Workspace layout, with ``B`` the block bytes and ``P`` the world
    size: two receive regions of ``P`` slots each (one per call parity),
    then a ``P``-block send staging region.  Call ``k`` of a plan uses
    parity ``k mod 2``: rank ``r``'s block lands in slot ``(k mod 2)·P + r``
    of the peer's workspace, announced by notification id
    ``(k mod 2)·P + r``.

    Slot reuse needs no acks and no barriers.  Rank ``r`` rewrites slot
    ``(k mod 2, r)`` of peer ``j`` in call ``k + 2`` only after it has
    completed call ``k + 1``, which needs ``j``'s call-``k+1`` block; ``j``
    sends that block only after it has read every call-``k`` slot.  Calls
    of different parity touch disjoint slots and ids, so a rank that
    enters call ``k + 1`` while a peer still reads call ``k`` is harmless.
    """

    def __init__(self, runtime, key: PlanKey, segment_id: int, policy=None) -> None:
        super().__init__(runtime, key, segment_id)
        size = runtime.size
        rank = runtime.rank
        itemsize = self.key_dtype.itemsize
        elements = key.nbytes // itemsize
        require(
            elements % size == 0,
            f"sendbuf length {elements} is not divisible by world size {size}",
        )
        self.block = elements // size
        require(self.block > 0, "alltoall blocks must contain at least one element")
        self.block_bytes = self.block * itemsize
        self.schedule_nbytes = self.block_bytes
        self.peers = [peer for peer in range(size) if peer != rank]
        self.send_region = 2 * size * self.block_bytes
        self._create_workspace(3 * size * self.block_bytes)
        self._staging = runtime.segment_view(
            segment_id, dtype=self.key_dtype, offset=self.send_region, count=elements
        )
        # Frozen receive-slot views, [parity][source].
        self._slots = [
            [
                runtime.segment_view(
                    segment_id,
                    dtype=self.key_dtype,
                    offset=(parity * size + src) * self.block_bytes,
                    count=self.block,
                )
                for src in range(size)
            ]
            for parity in (0, 1)
        ]

    # ------------------------------------------------------------------ #
    def _run(self, request: "CollectiveRequest", poll_timeout: float) -> PipelineGen:
        from .policy import CollectiveResult

        sendbuf = self._check_payload(request.sendbuf, "alltoall sendbuf")
        require(sendbuf.ndim == 1, "sendbuf must be a 1-D vector")
        recvbuf = request.recvbuf
        if recvbuf is None:
            recvbuf = np.empty_like(sendbuf)
        else:
            recvbuf = np.asarray(recvbuf)
            require(
                recvbuf.size == sendbuf.size and recvbuf.dtype == sendbuf.dtype,
                "recvbuf must match sendbuf in size and dtype",
            )
        rt = self.runtime
        rank = rt.rank
        sid = self.segment_id
        queue = request.queue
        block = self.block
        block_bytes = self.block_bytes
        parity = self.calls & 1
        first = parity * rt.size

        # Stage before writing the own block: sendbuf may be recvbuf.
        self._staging[:] = sendbuf
        recvbuf[rank * block : (rank + 1) * block] = sendbuf[
            rank * block : (rank + 1) * block
        ]
        slot_offset = (first + rank) * block_bytes
        for peer in self.peers:
            rt.write_notify(
                sid,
                self.send_region + peer * block_bytes,
                peer,
                sid,
                slot_offset,
                block_bytes,
                first + rank,
                queue=queue,
            )
        if self.peers:
            rt.wait(queue)

        slots = self._slots[parity]
        pending = len(self.peers)
        while pending:
            got = rt.notify_waitsome(sid, first, rt.size, timeout=poll_timeout)
            if got is None:
                yield WaitSpec(sid, first, rt.size)
                continue
            rt.notify_reset(sid, got)
            src = got - first
            recvbuf[src * block : (src + 1) * block] = slots[src]
            pending -= 1
        self.calls += 1
        return CollectiveResult(value=recvbuf)


def run_alltoall(runtime: GaspiRuntime, request: "CollectiveRequest") -> "CollectiveResult":
    """Cold path: compile an :class:`AlltoallPlan`, run it once, close it."""
    key = _request_key("alltoall", "gaspi_alltoall", runtime, request)
    plan = AlltoallPlan(runtime, key, request.segment_id, request.policy)
    return plan.run_once(request)


def alltoall(
    runtime: GaspiRuntime,
    sendbuf: np.ndarray,
    recvbuf: Optional[np.ndarray] = None,
    segment_id: int = ALLTOALL_SEGMENT_ID,
    queue: int = 0,
    timeout: float = GASPI_BLOCK,
) -> np.ndarray:
    """Exchange equal-sized blocks between every pair of ranks.

    Parameters
    ----------
    sendbuf:
        1-D array of ``P * block`` elements; ``sendbuf[j*block:(j+1)*block]``
        is destined for rank ``j``.
    recvbuf:
        Optional output of the same shape; ``recvbuf[i*block:(i+1)*block]``
        receives rank ``i``'s block.  Allocated when ``None``.

    Returns
    -------
    numpy.ndarray
        The receive buffer.
    """
    from .policy import CollectiveRequest

    request = CollectiveRequest(
        collective="alltoall",
        sendbuf=np.ascontiguousarray(sendbuf),
        recvbuf=recvbuf,
        segment_id=segment_id,
        queue=queue,
        timeout=timeout,
    )
    return run_alltoall(runtime, request).value


def alltoallv(
    runtime: GaspiRuntime,
    sendbuf: np.ndarray,
    send_counts: Sequence[int],
    recv_counts: Sequence[int],
    recvbuf: Optional[np.ndarray] = None,
    segment_id: int = ALLTOALL_SEGMENT_ID,
    queue: int = 0,
    timeout: float = GASPI_BLOCK,
    manage_segment: bool = True,
) -> np.ndarray:
    """Variable-size AlltoAll (``MPI_Alltoallv`` equivalent).

    ``send_counts[j]`` elements go to rank ``j``; ``recv_counts[i]`` elements
    are expected from rank ``i``.  Displacements are the prefix sums of the
    counts (dense packing), matching how the FFT mini-app lays out its
    pencil exchange buffers.

    Because GASPI writes are one-sided, a sender needs to know *where* in
    the receiver's segment its block belongs.  The collective therefore runs
    a cheap offset-exchange phase first: every rank pushes the byte offset
    at which it expects each peer's data into that peer's segment header,
    then the data phase proceeds with plain ``write_notify`` exactly like
    the fixed-size AlltoAll.

    Every rank must pass ``recv_counts`` consistent with the peers'
    ``send_counts``; this is the caller's responsibility exactly as with
    MPI.
    """
    sendbuf = np.ascontiguousarray(sendbuf)
    rank, size = runtime.rank, runtime.size
    send_counts = [int(c) for c in send_counts]
    recv_counts = [int(c) for c in recv_counts]
    require(len(send_counts) == size, "send_counts must have one entry per rank")
    require(len(recv_counts) == size, "recv_counts must have one entry per rank")
    require(all(c >= 0 for c in send_counts), "send_counts must be non-negative")
    require(all(c >= 0 for c in recv_counts), "recv_counts must be non-negative")
    require(sum(send_counts) == sendbuf.size, "send_counts must sum to len(sendbuf)")

    itemsize = sendbuf.itemsize
    send_displs = np.concatenate(([0], np.cumsum(send_counts)))[:-1].astype(int)
    recv_displs = np.concatenate(([0], np.cumsum(recv_counts)))[:-1].astype(int)
    total_recv = int(sum(recv_counts))

    if recvbuf is None:
        recvbuf = np.empty(total_recv, dtype=sendbuf.dtype)
    else:
        recvbuf = np.asarray(recvbuf)
        require(recvbuf.size >= total_recv, "recvbuf too small for recv_counts")

    # Segment layout: [header: size int64][recv region][send staging][offset staging]
    header_bytes = size * 8
    recv_bytes_total = max(total_recv * itemsize, itemsize)
    send_bytes_total = max(sendbuf.size * itemsize, itemsize)
    offset_staging_bytes = size * 8
    recv_region = header_bytes
    send_region = header_bytes + recv_bytes_total
    offset_region = send_region + send_bytes_total

    # Notification ids: [0, size) for data (id = producer), [size, 2*size) for
    # the offset-exchange header (id = size + producer).
    if manage_segment:
        runtime.segment_create(
            segment_id,
            header_bytes + recv_bytes_total + send_bytes_total + offset_staging_bytes,
        )
        runtime.barrier()
    try:
        if sendbuf.size:
            staging = runtime.segment_view(
                segment_id, dtype=sendbuf.dtype, offset=send_region, count=sendbuf.size
            )
            staging[:] = sendbuf
        offsets_out = runtime.segment_view(
            segment_id, dtype=np.int64, offset=offset_region, count=size
        )
        offsets_out[:] = [recv_region + int(d) * itemsize for d in recv_displs]

        # Phase 1: tell every peer where its data belongs in our recv region.
        for peer in range(size):
            if peer == rank:
                continue
            runtime.write_notify(
                segment_id_local=segment_id,
                offset_local=offset_region + peer * 8,
                target_rank=peer,
                segment_id_remote=segment_id,
                offset_remote=rank * 8,
                size=8,
                notification_id=size + rank,
                queue=queue,
            )
        if size > 1:
            runtime.wait(queue)

        # local block
        own = sendbuf[send_displs[rank] : send_displs[rank] + send_counts[rank]]
        recvbuf[recv_displs[rank] : recv_displs[rank] + recv_counts[rank]] = own

        # Phase 2: push data to the offsets the peers advertised.
        header_pending = {p for p in range(size) if p != rank}
        while header_pending:
            got = runtime.notify_waitsome(segment_id, size, size, timeout=timeout)
            if got is None:
                raise TimeoutError(
                    f"rank {rank}: alltoallv offset exchange incomplete, "
                    f"missing {sorted(header_pending)}"
                )
            runtime.notify_reset(segment_id, got)
            peer = got - size
            if peer not in header_pending:
                continue
            header_pending.discard(peer)
            remote_offset = int(
                runtime.segment_read(segment_id, dtype=np.int64, offset=peer * 8, count=1)[0]
            )
            nbytes = send_counts[peer] * itemsize
            if nbytes:
                runtime.write_notify(
                    segment_id_local=segment_id,
                    offset_local=send_region + int(send_displs[peer]) * itemsize,
                    target_rank=peer,
                    segment_id_remote=segment_id,
                    offset_remote=remote_offset,
                    size=nbytes,
                    notification_id=rank,
                    queue=queue,
                )
            else:
                runtime.notify(peer, segment_id, rank, queue=queue)
        if size > 1:
            runtime.wait(queue)

        pending = {p for p in range(size) if p != rank}
        while pending:
            got = runtime.notify_waitsome(segment_id, 0, size, timeout=timeout)
            if got is None:
                raise TimeoutError(
                    f"rank {rank}: alltoallv still waiting for {sorted(pending)}"
                )
            runtime.notify_reset(segment_id, got)
            if got in pending:
                pending.discard(got)
                count = recv_counts[got]
                if count:
                    incoming = runtime.segment_read(
                        segment_id,
                        dtype=sendbuf.dtype,
                        offset=recv_region + int(recv_displs[got]) * itemsize,
                        count=count,
                    )
                    recvbuf[recv_displs[got] : recv_displs[got] + count] = incoming
    finally:
        if manage_segment:
            runtime.barrier()
            runtime.segment_delete(segment_id)
    return recvbuf


# --------------------------------------------------------------------------- #
# schedule builder (Figure 13)
# --------------------------------------------------------------------------- #
def alltoall_schedule(
    num_ranks: int,
    block_nbytes: int,
    protocol: Protocol = Protocol.ONESIDED,
    name: str | None = None,
) -> CommunicationSchedule:
    """Schedule of the direct write_notify AlltoAll.

    A single round containing all P(P-1) messages: every rank injects its
    P-1 blocks back-to-back (the simulator serialises per-NIC injection, so
    the cost still scales with P).
    """
    require(num_ranks >= 1, "num_ranks must be >= 1")
    require(block_nbytes >= 0, "block_nbytes must be non-negative")
    sched = CommunicationSchedule(
        name=name or "gaspi_alltoall",
        num_ranks=num_ranks,
        metadata={"block_bytes": block_nbytes, "algorithm": "direct_write_notify"},
    )
    if num_ranks > 1:
        messages = [
            Message(
                src=src,
                dst=dst,
                nbytes=block_nbytes,
                protocol=protocol,
                tag="alltoall",
            )
            for src in range(num_ranks)
            for dst in range(num_ranks)
            if src != dst
        ]
        sched.add_round(messages, label="direct")
    sched.validate()
    return sched
