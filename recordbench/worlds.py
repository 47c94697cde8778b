"""Timed rank worlds: core pinning, the closed step loop and its timestamps.

One *world* is a fresh 2-rank launch of one backend.  Both ranks pin
themselves to one shared core (:func:`rank_cores`); each builds a
:class:`~repro.Communicator`, makes the first call of every shape (set-up),
then runs the workload's cycle of steps in a closed loop: a rank enters its
next step only after its previous one returned.  Rank 0 owns the clock;
before every cycle it broadcasts whether the world's time slice is spent,
so all ranks stop after the same cycle.

Every step is timed on the rank (entry and exit on the system-wide monotonic
clock, which forked rank processes share) and its output checked outside the
timed interval.  Before every cycle rank 0 times a fixed reference burst
(:func:`reference_burst`), which gauges how fast the host runs right then.
Ranks return plain arrays; the parent turns them into metrics
(:mod:`recordbench.metrics`).
"""

from __future__ import annotations

import os
import re
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import Communicator, run_backend

from .spans import SpanRuntime

#: Ranks per timed world.  Equal to the core count of the 2-core host the
#: benchmark was designed on; a timed world never has more ranks than cores.
WORLD_SIZE = 2

#: Timed worlds alternate between these backends.
BACKENDS = ("threaded", "shm")

#: Segment range of the control communicator that carries the stop
#: decision; disjoint from the measured communicator's default range.
_CONTROL_SEGMENT_BASE = 64
_CONTROL_SEGMENT_SPAN = 32

#: Upper bound on one world, so a wedged collective ends the run.
_WORLD_TIMEOUT_S = 60.0

CLOCK = time.perf_counter

#: Time of one reference burst on a host running at what the normalised
#: metrics call nominal speed (:mod:`recordbench.metrics`): about its median
#: on the 2-vCPU host the benchmark was designed on, in a quiet minute.
REFERENCE_NOMINAL_S = 600e-6

_REF_SMALL = np.arange(128.0)
_REF_SMALL_OUT = np.empty(128)
_REF_LARGE = np.arange(float(1 << 18))  # 2 MiB
_REF_LARGE_OUT = np.empty(1 << 18)


def _burst() -> None:
    a, out = _REF_SMALL, _REF_SMALL_OUT
    table: Dict[int, int] = {}
    for i in range(200):
        np.add(a, a, out=out)
        out[i & 127] = i
        table[i & 15] = table.get(i & 15, 0) + 1
    for _ in range(2):
        np.copyto(_REF_LARGE_OUT, _REF_LARGE)


def reference_burst() -> float:
    """Seconds of one fixed burst of work that gauges the host's speed now.

    The burst mixes what the workloads' steps do: interpreter work with
    small-array numpy calls (dispatch), and 2 MiB copies (large payloads).
    Its code is the benchmark's, so no change to the library moves it; only
    the host does.  It runs once untimed first, so its time does not depend
    on what the workload left in the caches.
    """
    _burst()
    t0 = CLOCK()
    _burst()
    return CLOCK() - t0


def cpu_ticks(cores: List[int]) -> Tuple[int, int]:
    """(stolen, total) clock ticks of ``cores`` so far, from ``/proc/stat``.

    Steal is time the hypervisor gave the core's vCPU to another guest while
    it had work; on a shared host it comes in bursts that slow every step.
    """
    stolen = total = 0
    try:
        with open("/proc/stat") as f:
            for line in f:
                name, *fields = line.split()
                core = name[3:]
                if name.startswith("cpu") and core.isdigit() and int(core) in cores:
                    ticks = [int(x) for x in fields[:8]]
                    stolen += ticks[7]
                    total += sum(ticks)
    except OSError:
        pass
    return stolen, total


def usable_cores() -> List[int]:
    """Cores this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def rank_cores(cores: List[int]) -> List[int]:
    """The one core the ranks of every timed world share: the last usable one.

    A rank that blocks lets its core go idle, and an idle vCPU of a virtual
    machine halts; waking it on the other rank's signal goes through the
    host's scheduler.  On a shared host that latency moved small-message
    step times by 30-50 % of their median from run to run.  With both ranks
    on one core a wake-up is a switch inside the guest, and the vCPU stays
    busy while either rank can run.  The first core keeps the launching
    process and device interrupts.
    """
    return cores[-1:]


def pin_rank(rank: int, cores: List[int]) -> int:
    """Pin the calling rank (thread or process) to ``cores[rank % len(cores)]``."""
    core = cores[rank % len(cores)]
    os.sched_setaffinity(threading.get_native_id(), {core})
    return core


@dataclass
class WorldSpec:
    """Everything a rank needs; shared by reference (threads) or fork (shm)."""

    workload: Any
    inputs: Any
    slice_s: float
    cores: List[int]
    traced: bool = False


@dataclass
class WorldResult:
    """What one world measured, gathered from its ranks."""

    backend: str
    traced: bool
    setup_s: float
    entries: np.ndarray  # (ranks, steps) step entry times
    exits: np.ndarray  # (ranks, steps) step exit times
    cycle_len: int
    attempted: int
    failed: int
    leaked_blocks: int
    steal_share: float  # share of the cores' time stolen by the hypervisor
    refs: np.ndarray  # (cycles + 1,) burst seconds before each cycle and at the stop
    rank_extras: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return int(self.entries.shape[1])


def _rank_main(runtime, spec: WorldSpec) -> Dict[str, Any]:
    rank = runtime.rank
    core = pin_rank(rank, spec.cores)
    tracer = SpanRuntime(runtime) if spec.traced else None
    comm = Communicator(tracer if tracer is not None else runtime)
    control = Communicator(
        runtime,
        segment_base=_CONTROL_SEGMENT_BASE,
        segment_span=_CONTROL_SEGMENT_SPAN,
    )
    flag = np.zeros(2)  # [run another cycle?, host slowdown]
    job = spec.workload.rank_job(comm, spec.inputs)
    cycle = spec.workload.cycle_len
    failed = 0
    # Set-up: the first call of every shape compiles its plan.
    first_calls = []
    for j in range(spec.workload.setup_steps):
        t0 = CLOCK()
        job.run(j, 0)
        first_calls.append(CLOCK() - t0)
        failed += not job.check(j, 0)
    control.barrier()
    t_ready = CLOCK()
    deadline = t_ready + spec.slice_s
    entries: List[float] = []
    exits: List[float] = []
    refs: List[float] = []
    step = 0
    parity = 1
    while True:
        # Before every cycle rank 0 gauges the host's speed, while the other
        # rank waits at the barrier and the shared core runs nothing else,
        # and tells every rank whether to run the cycle and how slow the
        # host is (the job may scale fixed delays by it).
        control.barrier()
        if rank == 0:
            refs.append(reference_burst())
            flag[0] = 1.0 if CLOCK() < deadline else 0.0
            flag[1] = refs[-1] / REFERENCE_NOMINAL_S
        control.bcast(flag, root=0)
        if flag[0] == 0.0:
            break
        job.host_slowdown = float(flag[1])
        for j in range(cycle):
            if tracer is not None:
                tracer.step = step
            t0 = CLOCK()
            job.run(j, parity)
            t1 = CLOCK()
            if tracer is not None:
                tracer.step = -1
            entries.append(t0)
            exits.append(t1)
            failed += not job.check(j, parity)
            step += 1
        parity ^= 1
    extra = job.finish()
    failed += extra.pop("failed", 0)
    stats = comm.plan_cache_stats()
    extra.update(
        core=core,
        first_calls=np.asarray(first_calls),
        plan_hits=stats.hits,
        plan_misses=stats.misses,
    )
    if tracer is not None:
        extra["spans"] = tracer.export()
    control.close()
    comm.close()
    return {
        "t_ready": t_ready,
        "entries": np.asarray(entries),
        "exits": np.asarray(exits),
        "refs": np.asarray(refs),
        "attempted": spec.workload.setup_steps + len(entries),
        "failed": failed,
        "extra": extra,
    }


_LEAK_RE = re.compile(r"swept (\d+) leaked shared-memory")


def run_world(backend: str, spec: WorldSpec) -> WorldResult:
    """Launch one fresh world of ``backend`` and gather its measurements.

    Set-up time runs from the launch call to the moment the slowest rank
    finished the first call of every shape.  A ``/dev/shm`` block the world
    leaked (swept by the launcher, which warns) counts as one failed step.
    """
    stolen0, total0 = cpu_ticks(spec.cores)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        t_launch = CLOCK()
        ranks = run_backend(
            WORLD_SIZE, _rank_main, spec, backend=backend, timeout=_WORLD_TIMEOUT_S
        )
    stolen1, total1 = cpu_ticks(spec.cores)
    leaked = 0
    for w in caught:
        match = _LEAK_RE.search(str(w.message))
        if match:
            leaked += int(match.group(1))
    steps = min(len(r["entries"]) for r in ranks)
    return WorldResult(
        backend=backend,
        traced=spec.traced,
        setup_s=max(r["t_ready"] for r in ranks) - t_launch,
        entries=np.stack([r["entries"][:steps] for r in ranks]),
        exits=np.stack([r["exits"][:steps] for r in ranks]),
        cycle_len=spec.workload.cycle_len,
        refs=ranks[0]["refs"],
        attempted=sum(r["attempted"] for r in ranks) + leaked,
        failed=sum(r["failed"] for r in ranks) + leaked,
        leaked_blocks=leaked,
        steal_share=(stolen1 - stolen0) / max(1, total1 - total0),
        rank_extras=[r["extra"] for r in ranks],
    )

