"""A forwarding GASPI runtime that records one span per primitive call.

:class:`SpanRuntime` sits between the benchmark's :class:`~repro.Communicator`
and the backend runtime.  Every primitive call becomes a span
``(step, kind, start, end, bytes)`` whose parent is the workload step the
rank was executing (``step`` is set by the step loop; ``-1`` outside a
step).  Spans are kept in flat in-memory lists and exported as arrays when
the world ends.  Only the traced run uses it: end-to-end metrics are
measured on bare runtimes.
"""

from __future__ import annotations

import time
from typing import Any, Dict

import numpy as np

from repro import GaspiRuntime
from repro.gaspi.constants import (
    DEFAULT_NOTIFICATION_COUNT,
    DEFAULT_NOTIFICATION_VALUE,
    GASPI_BLOCK,
)

CLOCK = time.perf_counter

#: Span kinds, in the order of their integer codes.
KINDS = (
    "write",  # write / write_notify: the one-sided data copy
    "notify",  # notification-only post
    "wait",  # blocking notify_waitsome
    "poll",  # zero-timeout notify_waitsome / notify_probe
    "reset",  # notify_reset / notify_drain
    "barrier",
    "flush",  # queue wait
    "segment",  # segment create / delete / read / bind
)
CODE = {name: code for code, name in enumerate(KINDS)}


class SpanRuntime(GaspiRuntime):
    """Forward every call to ``inner``, timing the primitives."""

    def __init__(self, inner: GaspiRuntime) -> None:
        self.inner = inner
        self.step = -1
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span."""
        self._step: list = []
        self._kind: list = []
        self._t0: list = []
        self._t1: list = []
        self._bytes: list = []

    def _span(self, kind: str, t0: float, nbytes: int = 0) -> None:
        t1 = CLOCK()
        if self.step >= 0:
            self._step.append(self.step)
            self._kind.append(CODE[kind])
            self._t0.append(t0)
            self._t1.append(t1)
            self._bytes.append(nbytes)

    def export(self) -> Dict[str, np.ndarray]:
        """The recorded spans as parallel arrays."""
        return {
            "step": np.asarray(self._step, dtype=np.int64),
            "kind": np.asarray(self._kind, dtype=np.int8),
            "t0": np.asarray(self._t0),
            "t1": np.asarray(self._t1),
            "bytes": np.asarray(self._bytes, dtype=np.int64),
        }

    # -- identity and untimed forwards --------------------------------- #
    @property
    def rank(self) -> int:
        return self.inner.rank

    @property
    def size(self) -> int:
        return self.inner.size

    @property
    def fault_injected(self) -> bool:
        return self.inner.fault_injected

    @property
    def supports_bind(self) -> bool:
        return self.inner.supports_bind

    @property
    def telemetry(self) -> Any:
        return self.inner.telemetry

    def segment_view(self, segment_id, dtype=np.float64, offset=0, count=None):
        return self.inner.segment_view(segment_id, dtype, offset, count)

    def segment_size(self, segment_id: int) -> int:
        return self.inner.segment_size(segment_id)

    def notify_peek(self, segment_id_local: int, notification_id: int) -> int:
        return self.inner.notify_peek(segment_id_local, notification_id)

    def atomic_fetch_add(self, segment_id, offset, target_rank, value) -> int:
        return self.inner.atomic_fetch_add(segment_id, offset, target_rank, value)

    # -- segments -------------------------------------------------------- #
    def segment_create(
        self, segment_id: int, size: int,
        num_notifications: int = DEFAULT_NOTIFICATION_COUNT,
    ) -> None:
        t0 = CLOCK()
        self.inner.segment_create(segment_id, size, num_notifications)
        self._span("segment", t0)

    def segment_delete(self, segment_id: int) -> None:
        t0 = CLOCK()
        self.inner.segment_delete(segment_id)
        self._span("segment", t0)

    def segment_read(self, segment_id, dtype=np.float64, offset=0, count=None):
        t0 = CLOCK()
        out = self.inner.segment_read(segment_id, dtype, offset, count)
        self._span("segment", t0)
        return out

    def segment_bind(self, segment_id: int, array: np.ndarray) -> None:
        t0 = CLOCK()
        self.inner.segment_bind(segment_id, array)
        self._span("segment", t0)

    # -- one-sided ------------------------------------------------------- #
    def write(
        self, segment_id_local, offset_local, target_rank, segment_id_remote,
        offset_remote, size, queue=0,
    ) -> None:
        t0 = CLOCK()
        self.inner.write(
            segment_id_local, offset_local, target_rank, segment_id_remote,
            offset_remote, size, queue,
        )
        self._span("write", t0, size)

    def write_notify(
        self, segment_id_local, offset_local, target_rank, segment_id_remote,
        offset_remote, size, notification_id,
        notification_value=DEFAULT_NOTIFICATION_VALUE, queue=0,
    ) -> None:
        t0 = CLOCK()
        self.inner.write_notify(
            segment_id_local, offset_local, target_rank, segment_id_remote,
            offset_remote, size, notification_id, notification_value, queue,
        )
        self._span("write", t0, size)

    def notify(
        self, target_rank, segment_id_remote, notification_id,
        notification_value=DEFAULT_NOTIFICATION_VALUE, queue=0,
    ) -> None:
        t0 = CLOCK()
        self.inner.notify(
            target_rank, segment_id_remote, notification_id, notification_value, queue
        )
        self._span("notify", t0)

    # -- weak synchronisation -------------------------------------------- #
    def notify_waitsome(
        self, segment_id_local, notification_begin=0, notification_count=None,
        timeout=GASPI_BLOCK,
    ):
        t0 = CLOCK()
        got = self.inner.notify_waitsome(
            segment_id_local, notification_begin, notification_count, timeout
        )
        self._span("poll" if timeout == 0.0 else "wait", t0)
        return got

    def notify_probe(
        self, segment_id_local, notification_begin=0, notification_count=None
    ) -> bool:
        t0 = CLOCK()
        got = self.inner.notify_probe(
            segment_id_local, notification_begin, notification_count
        )
        self._span("poll", t0)
        return got

    def notify_reset(self, segment_id_local: int, notification_id: int) -> int:
        t0 = CLOCK()
        value = self.inner.notify_reset(segment_id_local, notification_id)
        self._span("reset", t0)
        return value

    def notify_drain(
        self, segment_id_local, notification_begin=0, notification_count=None
    ) -> dict:
        t0 = CLOCK()
        drained = self.inner.notify_drain(
            segment_id_local, notification_begin, notification_count
        )
        self._span("reset", t0)
        return drained

    # -- queues and barriers --------------------------------------------- #
    def wait(self, queue: int = 0, timeout: float = GASPI_BLOCK) -> None:
        t0 = CLOCK()
        self.inner.wait(queue, timeout)
        self._span("flush", t0)

    def barrier(self, group=None, timeout: float = GASPI_BLOCK) -> None:
        t0 = CLOCK()
        self.inner.barrier(group, timeout)
        self._span("barrier", t0)

    def __getattr__(self, name: str) -> Any:
        # Backend-specific extras (e.g. the shm world handle) pass through.
        return getattr(self.inner, name)

