"""The three workloads: seeded inputs, per-rank steps and output checks.

A workload is a fixed cycle of steps; the seed changes only the data (and,
for ``ssp_sgd``, which draws of the imbalance each rank sees), never the
mix of shapes, so runs with different seeds measure the same work.  Data
are integer-valued float64, so every sum is exact in any order and a
consistent result can be checked bit for bit.  Each step alternates between
two data variants from cycle to cycle, so a step that left a stale result
in place fails its check.

* ``small_msgs`` — 8 B to 16 KiB: data-threshold BST ``bcast``,
  process-threshold ``reduce``, ring ``allreduce``, ``alltoall`` and the
  dissemination ``barrier``.  Dispatch and wake-up dominate.
* ``large_msgs`` — 1 to 16 MiB pipelined ring ``allreduce``, ``bcast`` and
  ``reduce``, plus ``alltoall`` of the slab transpose of a 512² and a
  1024² complex FFT grid.  Folds and copies dominate.
* ``ssp_sgd`` — matrix-factorisation SGD through
  ``Communicator.allreduce_ssp`` with slack 2 and a seeded per-rank
  imbalance (a sleep scaled to the host's speed); one step is one SGD
  iteration on one rank.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import ConsistencyPolicy
from repro.core.reduce import ReduceMode
from repro.core.topology import BinomialTree
from repro.ml.datasets import synthetic_ratings
from repro.ml.matrix_factorization import MatrixFactorizationModel

from .worlds import WORLD_SIZE

#: Filler of the receive-buffer tail a data-threshold bcast must not touch.
SENTINEL = 1.0e9

BCAST_FRACTION = 0.25
#: With 2 ranks a 0.75 process threshold keeps both; a 0.5 threshold would
#: leave the root reducing its own vector alone.  The 8-rank counts world
#: also runs 0.5, where the tree drops ranks.
REDUCE_FRACTION = 0.75

SSP_SLACK = 2
#: Final training RMSE must fall to this share of the initial RMSE.
RMSE_BOUND_SHARE = 0.25
#: The imbalance: each iteration sleeps base * (1 + spread * u), u ~ U[0, 1)
#: drawn per rank from the seed, at nominal host speed (see SgdJob).  A
#: sleep, not extra compute: with both ranks on one core, compute would be
#: time-sliced with the other rank's, and iteration times split into two
#: modes (over five 30 s runs their median spread by 35-48 % of itself,
#: against 10 % with the sleep).
SSP_BASE_SLEEP_S = 0.001
SSP_SLEEP_SPREAD = 1.0
_SSP_DRAWS = 1 << 16


def _ints(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(-1000, 1000, size=n).astype(np.float64)


def _variants(rng: np.random.Generator, n: int) -> List[List[np.ndarray]]:
    """``[variant][rank]`` integer-valued vectors of ``n`` elements."""
    return [[_ints(rng, n) for _ in range(WORLD_SIZE)] for _ in range(2)]


def _sum(per_rank: List[np.ndarray], ranks=None) -> np.ndarray:
    ranks = range(len(per_rank)) if ranks is None else ranks
    out = np.zeros_like(per_rank[0])
    for r in ranks:
        out += per_rank[r]
    return out


def _covered_ranks(policy: ConsistencyPolicy) -> List[int]:
    """Ranks a strict or process-threshold reduce onto rank 0 folds in."""
    if policy.mode is ReduceMode.PROCESSES:
        return BinomialTree(WORLD_SIZE, 0).participating_ranks(policy.threshold)
    return list(range(WORLD_SIZE))


# --------------------------------------------------------------------------- #
# collective cycles (small_msgs, large_msgs)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Cell:
    """One step of a collective cycle."""

    collective: str  # bcast | reduce | allreduce | alltoall | barrier
    elements: int  # per rank, or per rank pair for alltoall
    algorithm: str = "auto"
    policy: ConsistencyPolicy = ConsistencyPolicy()

    @property
    def vector_len(self) -> int:
        """Elements of each rank's send vector."""
        if self.collective == "alltoall":
            return self.elements * WORLD_SIZE
        return self.elements


class CycleInputs:
    """Seeded ``[variant][rank]`` vectors per length, and their exact sums.

    Cells of one length share their vectors, so the largest inputs exist
    once; rank processes inherit them from the benchmark process.
    """

    def __init__(self, cells: Tuple[Cell, ...], rng: np.random.Generator) -> None:
        self.data: Dict[int, List[List[np.ndarray]]] = {}
        self.sums: Dict[tuple, np.ndarray] = {}
        for cell in cells:
            n = cell.vector_len
            if n and n not in self.data:
                self.data[n] = _variants(rng, n)
            if cell.collective in ("allreduce", "reduce"):
                ranks = tuple(_covered_ranks(cell.policy))
                for v in (0, 1):
                    if (n, ranks, v) not in self.sums:
                        self.sums[(n, ranks, v)] = _sum(self.data[n][v], ranks)

    def vectors(self, cell: Cell, parity: int) -> List[np.ndarray]:
        return self.data[cell.vector_len][parity]

    def expected_sum(self, cell: Cell, parity: int) -> np.ndarray:
        ranks = tuple(_covered_ranks(cell.policy))
        return self.sums[(cell.vector_len, ranks, parity)]


class CollectiveJob:
    """One rank's buffers, calls and checks for a cycle of cells."""

    def __init__(self, comm, cells: Tuple[Cell, ...], inputs: CycleInputs) -> None:
        self.comm = comm
        self.rank = comm.rank
        self.cells = cells
        self.inputs = inputs
        self.out = [np.full(cell.vector_len, SENTINEL) for cell in cells]
        self.result: List = [None] * len(cells)

    def run(self, j: int, parity: int) -> None:
        cell = self.cells[j]
        comm = self.comm
        if cell.collective == "barrier":
            comm.barrier(algorithm=cell.algorithm)
            return
        mine = self.inputs.vectors(cell, parity)[self.rank]
        out = self.out[j]
        if cell.collective == "bcast":
            buf = mine if self.rank == 0 else out
            self.result[j] = comm.bcast(
                buf, root=0, policy=cell.policy, algorithm=cell.algorithm
            )
        elif cell.collective == "reduce":
            self.result[j] = comm.reduce(
                mine, out, root=0, policy=cell.policy, algorithm=cell.algorithm
            )
        elif cell.collective == "allreduce":
            comm.allreduce(mine, out, policy=cell.policy, algorithm=cell.algorithm)
        else:
            comm.alltoall(mine, out, algorithm=cell.algorithm)

    def check(self, j: int, parity: int) -> bool:
        """Bit-exact check of step ``j``'s output against the seeded inputs."""
        cell = self.cells[j]
        if cell.collective == "barrier":
            return True
        vectors = self.inputs.vectors(cell, parity)
        out = self.out[j]
        if cell.collective == "bcast":
            # A data-threshold bcast delivers exactly the leading ceil(f*n)
            # elements and leaves the rest of the receive buffer untouched.
            if self.rank == 0:
                return True
            k = math.ceil(cell.policy.threshold * out.size)
            return bool(
                np.array_equal(out[:k], vectors[0][:k]) and (out[k:] == SENTINEL).all()
            )
        if cell.collective == "reduce":
            # No rank may be reported missing; the root's result covers at
            # least the threshold's share of ranks, exactly.
            result = self.result[j]
            if tuple(result.missing_ranks) != ():
                return False
            if self.rank != 0:
                return True
            covered = _covered_ranks(cell.policy)
            need = math.ceil(cell.policy.threshold * WORLD_SIZE)
            return bool(
                len(covered) >= need
                and result.detail.contributors == len(covered)
                and np.array_equal(out, self.inputs.expected_sum(cell, parity))
            )
        if cell.collective == "allreduce":
            return bool(np.array_equal(out, self.inputs.expected_sum(cell, parity)))
        m = cell.elements
        return all(
            np.array_equal(out[s * m:(s + 1) * m], src[self.rank * m:(self.rank + 1) * m])
            for s, src in enumerate(vectors)
        )

    def finish(self) -> Dict:
        return {}


class CollectiveWorkload:
    """A fixed cycle of collective calls."""

    cross_rank = True

    def __init__(self, cells: Tuple[Cell, ...]) -> None:
        self.cells = cells
        self.cycle_len = len(cells)
        self.setup_steps = len(cells)

    def make_inputs(self, seed: int) -> CycleInputs:
        return CycleInputs(self.cells, np.random.default_rng([seed, 1]))

    def rank_job(self, comm, inputs) -> CollectiveJob:
        return CollectiveJob(comm, self.cells, inputs)


def _small_cells() -> Tuple[Cell, ...]:
    cells = []
    bcast = ConsistencyPolicy.data_threshold(BCAST_FRACTION)
    reduce = ConsistencyPolicy.process_threshold(REDUCE_FRACTION)
    for n in (1, 16, 128, 2048):  # 8 B, 128 B, 1 KiB, 16 KiB
        cells += [
            Cell("bcast", n, "bst", bcast),
            Cell("reduce", n, "bst", reduce),
            Cell("allreduce", n, "ring"),
            Cell("alltoall", max(1, n // WORLD_SIZE)),
            Cell("barrier", 0, "auto"),
        ]
    return tuple(cells)


def _large_cells() -> Tuple[Cell, ...]:
    cells = []
    for mib in (1, 4, 16):
        n = mib << 17  # float64 elements in `mib` MiB
        cells += [
            Cell("allreduce", n, "ring_pipelined"),
            Cell("bcast", n, "gaspi_bcast_bst_pipelined"),
            Cell("reduce", n, "gaspi_reduce_bst_pipelined"),
        ]
    for grid in (512, 1024):
        # Slab transpose of a grid x grid complex128 FFT: each rank holds
        # grid/P rows (2 float64 per complex), one block per peer.
        per_pair = 2 * (grid // WORLD_SIZE) ** 2
        cells.append(Cell("alltoall", per_pair))
    return tuple(cells)


# --------------------------------------------------------------------------- #
# ssp_sgd
# --------------------------------------------------------------------------- #
@dataclass
class SgdInputs:
    dataset: object
    model_seed: int
    sleeps: np.ndarray  # (ranks, draws) seconds of imbalance per iteration


class SgdJob:
    """One rank's matrix-factorisation SGD loop over the SSP allreduce."""

    learning_rate = 10.0
    #: Host slowdown in the current cycle (reference burst time over its
    #: nominal time), set by the world loop.  The imbalance sleep stands in
    #: for work, so it scales with the host like the rest of the iteration,
    #: and the normalised metrics see the same workload on a slow host.
    host_slowdown = 1.0

    def __init__(self, comm, inputs: SgdInputs) -> None:
        self.comm = comm
        self.rank = comm.rank
        self.inputs = inputs
        ds = inputs.dataset
        self.shard = ds.shard(WORLD_SIZE, self.rank)
        self.model = MatrixFactorizationModel.initialize(
            ds.num_users, ds.num_items, num_factors=8, seed=inputs.model_seed
        )
        self.rmse0 = self.model.rmse(ds)
        self.iteration = 0
        self.compute_s = 0.0
        self.wait_s = 0.0
        self.stale = 0
        self.fresh = 0
        self.max_staleness = 0
        self.last = None

    def run(self, j: int, parity: int) -> None:
        t0 = time.perf_counter()
        grad = self.model.gradient_flat(self.shard)
        time.sleep(self.inputs.sleeps[self.rank, self.iteration % _SSP_DRAWS]
                   * self.host_slowdown)
        self.compute_s += time.perf_counter() - t0
        self.iteration += 1
        res = self.comm.allreduce_ssp(grad, slack=SSP_SLACK)
        self.model.apply_update(res.value / WORLD_SIZE, self.learning_rate)
        self.last = res

    def check(self, j: int, parity: int) -> bool:
        stats = self.last.stats
        self.wait_s += stats.wait_time
        self.stale += stats.stale_reuses
        self.fresh += stats.fresh_uses
        self.max_staleness = max(self.max_staleness, stats.staleness)
        return 0 <= stats.staleness <= SSP_SLACK

    def finish(self) -> Dict:
        rmse = self.model.rmse(self.inputs.dataset)
        converged = rmse <= RMSE_BOUND_SHARE * self.rmse0
        self.comm.close_ssp()
        return {
            "failed": 0 if converged else 1,
            "rmse": rmse,
            "rmse0": self.rmse0,
            "iterations": self.iteration,
            "compute_s": self.compute_s,
            "ssp_wait_s": self.wait_s,
            "stale_reuses": self.stale,
            "fresh_uses": self.fresh,
            "max_staleness": self.max_staleness,
        }


class SgdWorkload:
    """SGD iterations; each rank's iteration is one step."""

    cross_rank = False
    cycle_len = 50
    setup_steps = 1

    def make_inputs(self, seed: int) -> SgdInputs:
        rng = np.random.default_rng([seed, 2])
        dataset = synthetic_ratings(
            num_users=512, num_items=256, num_ratings=8000, seed=int(rng.integers(1 << 31))
        )
        u = rng.random((WORLD_SIZE, _SSP_DRAWS))
        sleeps = SSP_BASE_SLEEP_S * (1.0 + SSP_SLEEP_SPREAD * u)
        return SgdInputs(dataset, int(rng.integers(1 << 31)), sleeps)

    def rank_job(self, comm, inputs: SgdInputs) -> SgdJob:
        return SgdJob(comm, inputs)


#: Workload factories by name; why each was chosen is in README.md.
WORKLOADS: Dict[str, Callable[[], object]] = {
    "small_msgs": lambda: CollectiveWorkload(_small_cells()),
    "large_msgs": lambda: CollectiveWorkload(_large_cells()),
    "ssp_sgd": SgdWorkload,
}
