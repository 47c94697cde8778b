"""Dissemination barrier built on GASPI notifications.

The related-work section of the paper points to the Hensgen/Finkel/Manber
dissemination algorithm (used e.g. by MPICH barriers).  This module
implements it with pure notification traffic: in round ``k`` each rank
notifies ``(rank + 2**k) mod P`` and waits for the notification from
``(rank - 2**k) mod P``.  After ``⌈log2 P⌉`` rounds every rank has
(transitively) heard from every other rank.

:class:`BarrierPlan` is reusable: it owns a tiny segment whose
notification slots encode ``(generation, round)`` so back-to-back barriers
do not confuse each other.  The :class:`~repro.core.api.Communicator`
caches it as one data-free plan per communicator,
:class:`NotificationBarrier` is a standalone handle over one, and the cold
:func:`notification_barrier` compiles one, runs it once and closes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..gaspi.constants import GASPI_BLOCK
from ..gaspi.runtime import GaspiRuntime
from ..utils.validation import ceil_log2, require
from .pipeline import GeneratorPlan, PipelineGen, WaitSpec
from .plan import PlanKey
from .schedule import CommunicationSchedule, Message, Protocol
from .topology import dissemination_schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .policy import CollectiveRequest, CollectiveResult

#: Default segment id used by the notification barrier.
BARRIER_SEGMENT_ID = 150

#: Number of barrier generations tracked before notification ids wrap.
#: A rank can be at most one generation ahead of any other (finishing
#: generation ``g`` needs every rank to have entered it), so any value
#: of at least 2 keeps the ids of in-flight generations distinct.
_GENERATIONS = 4


class BarrierPlan(GeneratorPlan):
    """Compiled dissemination barrier: one data-free plan, reused forever.

    The plan registers an 8-byte workspace once (the segment only carries
    notifications).  Call ``g`` uses notification id
    ``(g mod _GENERATIONS)·rounds + round``, so back-to-back barriers never
    confuse each other and a planned call is exactly the ``⌈log2 P⌉``
    notify/wait/reset rounds.
    """

    def __init__(self, runtime, key: PlanKey, segment_id: int, policy=None) -> None:
        super().__init__(runtime, key, segment_id)
        require(key.nbytes == 0, "a barrier plan carries no data")
        self.rounds = ceil_log2(runtime.size) if runtime.size > 1 else 0
        self.steps = dissemination_schedule(runtime.size, runtime.rank)
        self._create_workspace(8)

    def _run(self, request: "CollectiveRequest", poll_timeout: float) -> PipelineGen:
        from .policy import CollectiveResult

        rt = self.runtime
        sid = self.segment_id
        queue = request.queue
        first = (self.calls % _GENERATIONS) * self.rounds
        for step in self.steps:
            notif = first + step.round_index
            rt.notify(step.send_to, sid, notif, queue=queue)
            rt.wait(queue)
            while rt.notify_waitsome(sid, notif, 1, timeout=poll_timeout) is None:
                yield WaitSpec(sid, notif, 1)
            rt.notify_reset(sid, notif)
        self.calls += 1
        return CollectiveResult(value=None)


def _barrier_key(runtime: GaspiRuntime, request: "CollectiveRequest") -> PlanKey:
    return PlanKey.data_free(
        "barrier", "gaspi_barrier_dissemination", runtime.size, request
    )


class NotificationBarrier:
    """Reusable dissemination barrier over all ranks.

    A standalone handle over one :class:`BarrierPlan` registered on
    ``segment_id``: construction and :meth:`close` are collective.
    """

    def __init__(
        self,
        runtime: GaspiRuntime,
        segment_id: int = BARRIER_SEGMENT_ID,
        queue: int = 0,
    ) -> None:
        from .policy import CollectiveRequest

        self.runtime = runtime
        self.queue = int(queue)
        request = CollectiveRequest(collective="barrier", segment_id=segment_id)
        self._plan = BarrierPlan(runtime, _barrier_key(runtime, request), segment_id)

    @property
    def segment_id(self) -> int:
        return self._plan.segment_id

    @property
    def generation(self) -> int:
        """Barriers completed so far."""
        return self._plan.calls

    def wait(self, timeout: float = GASPI_BLOCK) -> None:
        """Enter the barrier; returns when every rank has entered it."""
        from .policy import CollectiveRequest

        if self._plan.closed:
            raise RuntimeError("barrier already closed")
        self._plan.execute(
            CollectiveRequest(collective="barrier", queue=self.queue, timeout=timeout)
        )

    def close(self) -> None:
        """Release the barrier segment (collective)."""
        if self._plan.closed:
            return
        self.runtime.barrier()
        self._plan.close()

    def __enter__(self) -> "NotificationBarrier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_barrier(runtime: GaspiRuntime, request: "CollectiveRequest") -> "CollectiveResult":
    """Cold path: compile a :class:`BarrierPlan`, run it once, close it."""
    return BarrierPlan(
        runtime, _barrier_key(runtime, request), request.segment_id
    ).run_once(request)


def notification_barrier(
    runtime: GaspiRuntime,
    segment_id: int = BARRIER_SEGMENT_ID,
    timeout: float = GASPI_BLOCK,
) -> None:
    """One-shot dissemination barrier (compiles, runs and closes a plan)."""
    from .policy import CollectiveRequest

    run_barrier(
        runtime,
        CollectiveRequest(collective="barrier", segment_id=segment_id, timeout=timeout),
    )


def dissemination_barrier_schedule(
    num_ranks: int,
    protocol: Protocol = Protocol.ONESIDED,
    name: str | None = None,
) -> CommunicationSchedule:
    """Schedule of the dissemination barrier (zero-byte messages)."""
    require(num_ranks >= 1, "num_ranks must be >= 1")
    sched = CommunicationSchedule(
        name=name or "gaspi_barrier_dissemination",
        num_ranks=num_ranks,
        metadata={"algorithm": "dissemination"},
    )
    rounds = ceil_log2(num_ranks) if num_ranks > 1 else 0
    for k in range(rounds):
        dist = 1 << k
        sched.add_round(
            [
                Message(
                    src=rank,
                    dst=(rank + dist) % num_ranks,
                    nbytes=0,
                    protocol=protocol,
                    tag=f"barrier-round-{k}",
                )
                for rank in range(num_ranks)
            ],
            label=f"round-{k}",
        )
    sched.validate()
    return sched
