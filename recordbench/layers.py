"""The traced run: per-layer metrics from spans, isolated probes and counts.

``--trace 1`` runs, per backend, untraced and traced worlds of the workload
(alternating, fresh each time), then isolated probes, then one counts-only
8-rank threaded world.  Layer names follow the repository's modules:

* ``api`` — :class:`~repro.Communicator` dispatch: the memo-hit ``resolve``
  probe, and a step's self time (step time minus every runtime primitive
  span inside it, so it also holds plan step logic and folds);
* ``plan`` — plan-cache hit ratio and the compile time of first calls;
* ``gaspi.<backend>`` — runtime primitives, counted and timed by
  :class:`~recordbench.spans.SpanRuntime`, plus the write/wait/reset
  ``triple`` and 2-rank ``pingpong`` probes;
* ``kernels`` — the fold kernel at the pipeline chunk size;
* ``ssp.<backend>`` and ``ml.<backend>`` — SSP waiting and staleness, and
  the share of an SGD iteration spent computing (0 where the workload does
  not run them);
* ``tail.<backend>`` and ``trace.<backend>`` — p99 step time with its
  sample count, and the tracing overhead (traced minus untraced
  ``steps_per_s``);
* ``counts8.<collective>`` — primitives and bytes per call in an 8-rank
  world, summed over ranks.  Counts only: 8 ranks exceed the cores.

"Per step" figures divide a total over all ranks by the number of steps.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import Communicator, ConsistencyPolicy, run_backend
from repro.core import kernels
from repro.core.reduction_ops import get_op
from repro.core.tuning import select_chunk_bytes

from .metrics import cycle_rates, step_durations
from .spans import CODE, SpanRuntime
from .worlds import (
    BACKENDS,
    WORLD_SIZE,
    WorldResult,
    WorldSpec,
    pin_rank,
    run_world,
)

#: Rounds of (untraced, traced) worlds per backend.
ROUNDS = 2
#: Share of the run's seconds given to the worlds; probes take the rest.
WORLD_SHARE = 0.8

CLOCK = time.perf_counter


# --------------------------------------------------------------------------- #
# span-derived metrics
# --------------------------------------------------------------------------- #
def _n_steps(world: WorldResult, cross_rank: bool) -> int:
    return world.steps if cross_rank else world.steps * WORLD_SIZE


def _busy_s(world: WorldResult) -> float:
    """Summed over ranks: time inside steps."""
    return float((world.exits - world.entries).sum())


def _span_totals(worlds: List[WorldResult]) -> Dict[str, Tuple[int, float, int]]:
    """Per span kind: (calls, seconds, bytes) over all ranks of ``worlds``."""
    totals = {kind: [0, 0.0, 0] for kind in CODE}
    for w in worlds:
        for extra in w.rank_extras:
            sp = extra["spans"]
            for kind, code in CODE.items():
                sel = sp["kind"] == code
                totals[kind][0] += int(sel.sum())
                totals[kind][1] += float((sp["t1"][sel] - sp["t0"][sel]).sum())
                totals[kind][2] += int(sp["bytes"][sel].sum())
    return {k: tuple(v) for k, v in totals.items()}


def _gaspi_metrics(backend: str, traced: List[WorldResult], cross_rank: bool) -> Dict:
    steps = sum(_n_steps(w, cross_rank) for w in traced)
    busy = sum(_busy_s(w) for w in traced)
    t = _span_totals(traced)
    wait_s = t["wait"][1] + t["barrier"][1]
    p = f"gaspi.{backend}"
    return {
        f"{p}.waits_per_step": (t["wait"][0] / steps, "1/step"),
        f"{p}.writes_per_step": (t["write"][0] / steps, "1/step"),
        f"{p}.resets_per_step": (t["reset"][0] / steps, "1/step"),
        f"{p}.barriers_per_step": (t["barrier"][0] / steps, "1/step"),
        f"{p}.bytes_per_step": (t["write"][2] / steps, "B/step"),
        f"{p}.wait_us_per_step": (wait_s / steps * 1e6, "us"),
        f"{p}.wait_share": (wait_s / busy, "ratio"),
        f"{p}.write_us_per_step": (t["write"][1] / steps * 1e6, "us"),
    }


def _self_us_per_step(traced: List[WorldResult], cross_rank: bool) -> float:
    steps = sum(_n_steps(w, cross_rank) for w in traced)
    busy = sum(_busy_s(w) for w in traced)
    in_spans = sum(v[1] for v in _span_totals(traced).values())
    return (busy - in_spans) / steps * 1e6


def _median_rate(worlds: List[WorldResult], cross_rank: bool) -> float:
    return float(np.median(np.concatenate([cycle_rates(w, cross_rank) for w in worlds])))


def _compile_ms(worlds: List[WorldResult]) -> float:
    """Mean over ranks and worlds: first calls minus their steady medians."""
    per_rank = []
    for w in worlds:
        for r, extra in enumerate(w.rank_extras):
            own = w.exits[r] - w.entries[r]
            first = extra["first_calls"]
            steady = [np.median(own[j::w.cycle_len]) for j in range(len(first))]
            per_rank.append(float(np.sum(first - np.asarray(steady))))
    return float(np.mean(per_rank)) * 1e3


def _ssp_metrics(backend: str, worlds: List[WorldResult]) -> Dict:
    extras = [e for w in worlds for e in w.rank_extras]
    busy = sum(_busy_s(w) for w in worlds)
    stale = sum(e.get("stale_reuses", 0) for e in extras)
    fresh = sum(e.get("fresh_uses", 0) for e in extras)
    return {
        f"ssp.{backend}.wait_share": (sum(e.get("ssp_wait_s", 0.0) for e in extras) / busy, "ratio"),
        f"ssp.{backend}.stale_reuse_ratio": (stale / (stale + fresh) if stale + fresh else 0.0, "ratio"),
        f"ssp.{backend}.max_staleness": (max(e.get("max_staleness", 0) for e in extras), "iterations"),
        f"ml.{backend}.compute_share": (sum(e.get("compute_s", 0.0) for e in extras) / busy, "ratio"),
    }


# --------------------------------------------------------------------------- #
# isolated probes
# --------------------------------------------------------------------------- #
def _batched_us(fn, calls: int, batches: int = 7) -> float:
    """Median over batches of microseconds per call of ``fn``."""
    per_call = []
    for _ in range(batches):
        t0 = CLOCK()
        for _ in range(calls):
            fn()
        per_call.append((CLOCK() - t0) / calls * 1e6)
    return float(median(per_call))


def _resolve_probe(runtime, cores) -> float:
    pin_rank(0, cores)
    comm = Communicator(runtime)
    comm.resolve("allreduce", 1024, "ring")
    try:
        return _batched_us(lambda: comm.resolve("allreduce", 1024, "ring"), 5000)
    finally:
        comm.close()


def _triple_probe(runtime, cores) -> float:
    """One rank's write_notify to itself, blocking wait, reset."""
    pin_rank(0, cores)
    sid = 7
    runtime.segment_create(sid, 4096)

    def triple():
        runtime.write_notify(sid, 0, 0, sid, 2048, 1024, 0)
        runtime.notify_waitsome(sid, 0, 1)
        runtime.notify_reset(sid, 0)

    try:
        return _batched_us(triple, 2000)
    finally:
        runtime.segment_delete(sid)


def _pingpong_probe(runtime, cores) -> float:
    """Round trip of an 8-byte write_notify between the two pinned ranks."""
    pin_rank(runtime.rank, cores)
    sid = 7
    runtime.segment_create(sid, 64)
    runtime.barrier()
    peer = 1 - runtime.rank

    def leader():
        runtime.write_notify(sid, 0, peer, sid, 8, 8, 0)
        runtime.notify_waitsome(sid, 0, 1)
        runtime.notify_reset(sid, 0)

    def follower():
        runtime.notify_waitsome(sid, 0, 1)
        runtime.notify_reset(sid, 0)
        runtime.write_notify(sid, 0, peer, sid, 8, 8, 0)

    try:
        return _batched_us(leader if runtime.rank == 0 else follower, 500)
    finally:
        runtime.barrier()
        runtime.segment_delete(sid)


def _fold_probe() -> float:
    """Microseconds per MiB of the sum fold at the 16 MiB pipeline chunk."""
    chunk = select_chunk_bytes(16 << 20)
    n = chunk // 8
    rng = np.random.default_rng(0)
    a, b, out = rng.random(n), rng.random(n), np.empty(n)
    op = get_op("sum")
    return _batched_us(lambda: kernels.fold(op, a, b, out), 50) / (chunk / (1 << 20))


def probes(cores: List[int]) -> Dict:
    out = {
        "api.resolve_us": (run_backend(1, _resolve_probe, cores)[0], "us"),
        "kernels.fold_us_per_mib": (_fold_probe(), "us/MiB"),
    }
    for backend in BACKENDS:
        triple = run_backend(1, _triple_probe, cores, backend=backend)[0]
        pingpong = run_backend(WORLD_SIZE, _pingpong_probe, cores, backend=backend)[0]
        out[f"gaspi.{backend}.triple_us"] = (triple, "us")
        out[f"gaspi.{backend}.pingpong_us"] = (pingpong, "us")
    return out


# --------------------------------------------------------------------------- #
# 8-rank counts
# --------------------------------------------------------------------------- #
COUNT_RANKS = 8
#: Kinds reported per call, with their metric names; each repeats exactly
#: from run to run.  The SSP mailbox is overwritten by design, so how often
#: an SSP call waits, peeks and resets depends on arrival order: only its
#: writes and bytes are reported.
COUNT_KINDS = {
    "write": "writes", "notify": "notifies", "wait": "waits",
    "reset": "resets", "barrier": "barriers",
}
ORDER_DEPENDENT = {"allreduce_ssp_slack0": ("notify", "wait", "reset", "barrier")}


def _count_calls(comm: Communicator) -> List[Tuple[str, Callable[[], object]]]:
    rank = comm.rank
    small = np.full(128, float(rank + 1))
    big = np.full(1 << 17, float(rank + 1))
    out_small, out_big = np.empty_like(small), np.empty_like(big)
    a2a = np.full(16 * COUNT_RANKS, float(rank))
    return [
        ("bcast_bst_f0.25", lambda: comm.bcast(
            small.copy(), policy=ConsistencyPolicy.data_threshold(0.25), algorithm="bst")),
        ("reduce_bst_p0.5", lambda: comm.reduce(
            small, out_small, policy=ConsistencyPolicy.process_threshold(0.5), algorithm="bst")),
        ("allreduce_ring", lambda: comm.allreduce(small, out_small, algorithm="ring")),
        ("allreduce_ring_pipelined", lambda: comm.allreduce(
            big, out_big, algorithm="ring_pipelined")),
        ("alltoall", lambda: comm.alltoall(a2a, np.empty_like(a2a))),
        ("barrier", lambda: comm.barrier(algorithm="auto")),
        ("allreduce_ssp_slack0", lambda: comm.allreduce_ssp(small, slack=0)),
    ]


def _counts_rank(runtime) -> Dict[str, Dict[str, Tuple[int, int]]]:
    tracer = SpanRuntime(runtime)
    comm = Communicator(tracer)
    out = {}
    for name, call in _count_calls(comm):
        call()  # first call compiles its plan
        tracer.step = 0
        call()
        tracer.step = -1
        sp = tracer.export()
        tracer.clear()
        out[name] = {
            kind: (int((sp["kind"] == CODE[kind]).sum()),
                   int(sp["bytes"][sp["kind"] == CODE[kind]].sum()))
            for kind in COUNT_KINDS
        }
        runtime.barrier()
    comm.close_ssp()
    comm.close()
    return out


def counts8() -> Dict:
    ranks = run_backend(COUNT_RANKS, _counts_rank, backend="threaded", timeout=90.0)
    out = {}
    for name in ranks[0]:
        for kind, plural in COUNT_KINDS.items():
            if kind in ORDER_DEPENDENT.get(name, ()):
                continue
            total = sum(r[name][kind][0] for r in ranks)
            out[f"counts8.{name}.{plural}_per_call"] = (total, "count")
        out[f"counts8.{name}.bytes_per_call"] = (
            sum(r[name]["write"][1] for r in ranks), "B")
    return out


# --------------------------------------------------------------------------- #
# the traced run
# --------------------------------------------------------------------------- #
def traced_run(workload, inputs, seconds: float, cores: List[int]):
    slice_s = WORLD_SHARE * seconds / (2 * len(BACKENDS) * ROUNDS)
    worlds: List[WorldResult] = []
    for _ in range(ROUNDS):
        for traced in (False, True):
            for backend in BACKENDS:
                spec = WorldSpec(workload, inputs, slice_s, cores, traced=traced)
                worlds.append(run_world(backend, spec))
    cross = workload.cross_rank
    metrics: Dict[str, Tuple[float, str]] = {}
    hits = sum(e["plan_hits"] for w in worlds for e in w.rank_extras)
    misses = sum(e["plan_misses"] for w in worlds for e in w.rank_extras)
    bare_all = [w for w in worlds if not w.traced]
    traced_all = [w for w in worlds if w.traced]
    metrics["api.self_us_per_step"] = (_self_us_per_step(traced_all, cross), "us")
    metrics["plan.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["plan.compile_ms"] = (_compile_ms(bare_all), "ms")
    for backend in BACKENDS:
        bare = [w for w in bare_all if w.backend == backend]
        traced = [w for w in traced_all if w.backend == backend]
        metrics.update(_gaspi_metrics(backend, traced, cross))
        metrics.update(_ssp_metrics(backend, bare))
        steps = np.concatenate([step_durations(w, cross) for w in bare])
        metrics[f"tail.{backend}.step_p99_us"] = (float(np.percentile(steps, 99) * 1e6), "us")
        metrics[f"tail.{backend}.samples"] = (int(steps.size), "steps")
        metrics[f"trace.{backend}.overhead_steps_per_s"] = (
            _median_rate(traced, cross) - _median_rate(bare, cross), "1/s")
    metrics.update(probes(cores))
    metrics.update(counts8())
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return worlds, result
