"""End-to-end metrics from the timestamps of several worlds.

A *step* is one workload unit.  For a collective it lasts from the first
rank's entry to the last rank's exit.  In ``ssp_sgd`` ranks legitimately run
up to the slack apart, so a step is one rank's iteration, entry to exit.

The shared host the benchmark runs on changes speed by up to 2x within
minutes, more than any statistic over a 30 s run can hide.  So every gated
time is *normalised*: each step and cycle is scaled by how fast the host ran
at that moment, gauged by the reference burst timed before each cycle
(:func:`recordbench.worlds.reference_burst`).  A normalised time is the
measured time times ``REFERENCE_NOMINAL_S`` over the burst time of its
cycle: what the step would take on a host where one burst takes
``REFERENCE_NOMINAL_S``.  The burst is benchmark code, so a change to the
library moves the normalised figures exactly as it moves the measured ones.

* ``<backend>.norm_step_p50_us`` — for each position of the workload's
  cycle, the median normalised step time at that position over every world
  of that backend in the run, averaged over the positions.  A cycle mixes
  shapes whose times differ tenfold; the median of the pooled mixture jumps
  between shapes when one of them shifts a little, the mean of per-shape
  medians does not;
* ``<backend>.norm_steps_per_s`` — median over every cycle of every world
  of the cycle's steps divided by its normalised wall time (first entry to
  last exit; per rank in ``ssp_sgd``);
* ``setup_s`` — median over rounds of the summed set-up time of the round's
  threaded and shm worlds, each normalised by the median burst of its world.

The report line also gives the measured figures (``raw``) and the median
burst time, so the normalisation can be undone.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List

import numpy as np

from .worlds import BACKENDS, REFERENCE_NOMINAL_S, WorldResult


def step_durations(world: WorldResult, cross_rank: bool) -> np.ndarray:
    """Seconds per step (cross-rank span, or per-rank iteration)."""
    if cross_rank:
        return world.exits.max(axis=0) - world.entries.min(axis=0)
    return (world.exits - world.entries).ravel()


def cycle_rates(world: WorldResult, cross_rank: bool) -> np.ndarray:
    """Steps per second of every full cycle of one world.

    A cycle's wall time runs from its first entry to its last exit, across
    ranks for collective steps and per rank for per-rank steps.
    """
    n = world.cycle_len
    cycles = world.steps // n
    entries = world.entries[:, : cycles * n].reshape(-1, cycles, n)[:, :, 0]
    exits = world.exits[:, : cycles * n].reshape(-1, cycles, n)[:, :, -1]
    if cross_rank:
        return n / (exits.max(axis=0) - entries.min(axis=0))
    return (n / (exits - entries)).ravel()


def host_speed(world: WorldResult) -> np.ndarray:
    """Per cycle: nominal burst time over the burst time measured before it."""
    return REFERENCE_NOMINAL_S / world.refs[: world.steps // world.cycle_len]


def norm_step_durations(world: WorldResult, cross_rank: bool) -> np.ndarray:
    """:func:`step_durations`, each scaled by its cycle's host speed."""
    per_step = np.repeat(host_speed(world), world.cycle_len)
    if cross_rank:
        return step_durations(world, cross_rank) * per_step
    return ((world.exits - world.entries) * per_step).ravel()


def norm_cycle_rates(world: WorldResult, cross_rank: bool) -> np.ndarray:
    """:func:`cycle_rates`, each scaled by its cycle's host speed."""
    speed = host_speed(world)
    if cross_rank:
        return cycle_rates(world, cross_rank) / speed
    ranks = world.entries.shape[0]
    return (cycle_rates(world, cross_rank).reshape(ranks, -1) / speed).ravel()


def _position_p50(durations: List[np.ndarray], n: int) -> float:
    """Mean over cycle positions of the median step time at the position."""
    return float(np.mean([np.median(np.concatenate([d[j::n] for d in durations]))
                          for j in range(n)]))


def end_to_end(worlds: List[WorldResult], cross_rank: bool):
    """The five gated metrics of one run, and the measured figures behind them.

    Returns ``(metrics, raw)``: ``metrics`` maps each gated metric to its
    value and unit; ``raw`` holds the same figures without normalisation and
    the median reference burst, for the report.
    """
    out: Dict[str, Dict] = {}
    raw: Dict[str, float] = {}
    for backend in BACKENDS:
        mine = [w for w in worlds if w.backend == backend]
        n = mine[0].cycle_len
        norm = _position_p50([norm_step_durations(w, cross_rank) for w in mine], n)
        rates = np.concatenate([norm_cycle_rates(w, cross_rank) for w in mine])
        out[f"{backend}.norm_step_p50_us"] = {"value": norm * 1e6, "unit": "us"}
        out[f"{backend}.norm_steps_per_s"] = {"value": float(np.median(rates)), "unit": "1/s"}
        raw[f"{backend}.step_p50_us"] = 1e6 * _position_p50(
            [step_durations(w, cross_rank) for w in mine], n)
        raw[f"{backend}.steps_per_s"] = float(np.median(np.concatenate(
            [cycle_rates(w, cross_rank) for w in mine])))
        raw[f"{backend}.reference_us"] = 1e6 * float(np.median(np.concatenate(
            [w.refs for w in mine])))
    pairs = [worlds[i:i + len(BACKENDS)] for i in range(0, len(worlds), len(BACKENDS))]
    setups = [sum(w.setup_s for w in pair) for pair in pairs]
    norm_setups = [
        sum(w.setup_s * REFERENCE_NOMINAL_S / float(np.median(w.refs)) for w in pair)
        for pair in pairs
    ]
    out["setup_s"] = {"value": float(median(norm_setups)), "unit": "s"}
    raw["setup_s"] = float(median(setups))
    return out, raw
