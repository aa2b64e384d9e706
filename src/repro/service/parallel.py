"""Parallel batch optimization over a (query x technique) grid.

The paper's protocol — every instance optimized by every technique — is
embarrassingly parallel: each cell is an independent, deterministic
search. :func:`optimize_many` fans the grid out over a **persistent**
``ProcessPoolExecutor`` (processes, not threads: the searches are pure
Python and CPU-bound, so the GIL would serialize threads) and returns the
results in **grid order**, one row per query, one
:class:`BatchItem` per technique — regardless of which worker finished
first.

Scheduling policy (the serial-vs-pool decision lives in
:func:`execution_plan`, one source of truth shared with the benchmarks):

* requested workers are **capped at the machine's CPU count** — the cells
  are CPU-bound, so oversubscribing processes only adds scheduler churn;
* the grid runs **serially in-process** when fewer than 2 effective
  workers remain (single-core boxes) or the grid has fewer than
  :data:`MIN_PARALLEL_CELLS` cells — pool dispatch (fork/spawn, context
  pickling, result IPC) costs milliseconds per worker, which a tiny grid
  cannot amortize;
* otherwise the cells are split into one **contiguous chunk per worker**
  and each chunk ships as a single task, so the batch context (queries,
  statistics, budget) is pickled once per worker instead of once per
  cell, and the pool itself is created once per process and reused across
  batches (:func:`shutdown_pool` tears it down explicitly).

Budget trips are part of the protocol (the paper's ``*`` cells), so they
are captured per cell — :attr:`BatchItem.error` — instead of aborting the
batch. A worker process that dies mid-batch (OOM kill, signal) breaks the
pool: the coordinator drops the broken pool, so the next batch starts a
fresh one, and runs the cells it has not collected yet in-process — the
grid still comes back complete. A cell that killed its worker through its
own memory use runs again in the caller and can kill the caller too; cap
such searches with the modeled-memory budget
(``SearchBudget.max_memory_bytes``). Any other exception propagates and
cancels the batch: a malformed query should fail loudly, not produce a
hole in a table.

Determinism: optimizers are seeded and statistics are fixed, so a cell's
outcome does not depend on which process computes it — serial and pool
modes produce identical grids. The one caveat is wall-clock *budgets*
(``SearchBudget.max_seconds``): elapsed time differs across processes and
machine load, so a search near its time limit can trip in one mode and
finish in the other. Memory and plans-costed budgets are modeled, hence
exactly reproducible.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

from repro.catalog.statistics import CatalogStatistics, analyze
from repro.core.base import OptimizerResult, SearchBudget
from repro.core.registry import make_optimizer
from repro.cost.model import CostModel
from repro.errors import OptimizationBudgetExceeded, ServiceError
from repro.obs.names import SPAN_SERVICE_BATCH, SPAN_SERVICE_CELL
from repro.obs.runtime import current_tracer
from repro.obs.trace import maybe_span
from repro.query.query import Query

__all__ = [
    "BatchItem",
    "optimize_many",
    "execution_plan",
    "shutdown_pool",
    "MIN_PARALLEL_CELLS",
]

#: Smallest grid worth dispatching to the process pool. Below this the
#: per-worker dispatch overhead (context pickling + IPC) dominates the
#: cells' own runtime and the serial path wins outright.
MIN_PARALLEL_CELLS = 4


@dataclass(frozen=True)
class BatchItem:
    """One optimized cell of the (query x technique) grid.

    Attributes:
        query_index: Row (query) index in the submitted batch.
        technique: Technique name that produced this cell.
        label: Label of the optimized query.
        result: The optimizer result, or None when the budget tripped.
        error: The :class:`~repro.errors.OptimizationBudgetExceeded` the
            cell raised, or None on success.
    """

    query_index: int
    technique: str
    label: str
    result: OptimizerResult | None
    error: OptimizationBudgetExceeded | None

    @property
    def feasible(self) -> bool:
        return self.result is not None


def execution_plan(
    workers: int | None, cells: int
) -> tuple[str, int, str | None]:
    """The serial-vs-pool decision and, when serial, why.

    Requested ``workers`` (None = CPU count) are capped at the CPU count;
    the pool only runs with at least 2 effective workers and at least
    :data:`MIN_PARALLEL_CELLS` cells, and never with more workers than
    cells. Exposed so benchmarks and tests can assert the decision rather
    than re-deriving it.

    Returns ``(mode, effective_workers, fallback_reason)`` where the
    reason is None for pool runs, ``"cpu_count"`` when the host cannot
    supply 2 workers, ``"grid_too_small"`` below
    :data:`MIN_PARALLEL_CELLS` cells, and ``"workers_requested"`` when
    the caller explicitly asked for fewer than 2 — so benchmark reports
    record *why* a host fell back instead of a bare ``"serial"``.
    """
    cpu = os.cpu_count() or 1
    requested = cpu if workers is None else workers
    effective = max(1, min(requested, cpu, cells))
    if cells < MIN_PARALLEL_CELLS:
        return "serial", 1, "grid_too_small"
    if effective < 2:
        if workers is not None and workers < 2:
            return "serial", 1, "workers_requested"
        return "serial", 1, "cpu_count"
    return "pool", effective, None


def _make_cell_optimizer(technique: str, budget, cost_model, robust: bool):
    if robust:
        # Imported lazily: repro.robust builds ladder rungs through the
        # optimizer registry, so a module-level import would be circular.
        from repro.robust.ladder import RobustOptimizer, ladder_from

        return RobustOptimizer(
            ladder=ladder_from(technique), budget=budget, cost_model=cost_model
        )
    return make_optimizer(technique, budget=budget, cost_model=cost_model)


def _run_cell(context, query_index: int, technique: str) -> BatchItem:
    """Optimize one grid cell of the batch ``context``.

    Observability state is process-local, so cell spans only appear when
    the cell runs in the coordinating process (serial mode, or a broken
    pool's leftover cells): worker processes start with observability
    disabled and stay no-op-cheap, keeping parallel results identical to
    serial ones.
    """
    queries, stats, budget, cost_model, robust = context
    query = queries[query_index]
    optimizer = _make_cell_optimizer(technique, budget, cost_model, robust)
    with maybe_span(
        current_tracer(), SPAN_SERVICE_CELL,
        query=query.label, technique=technique,
        query_index=query_index, worker_pid=os.getpid(),
    ) as span:
        try:
            result = optimizer.optimize(query, stats)
        except OptimizationBudgetExceeded as exc:
            span.set(feasible=False, resource=exc.resource)
            return BatchItem(query_index, technique, query.label, None, exc)
        span.set(feasible=True, cost=result.cost)
        return BatchItem(query_index, technique, query.label, result, None)


def _run_chunk(payload) -> list[BatchItem]:
    """Run a chunk of ``(query_index, technique)`` cells, in grid order.

    The one cell loop of both modes: called inline for serial batches and
    for a broken pool's leftover cells, and as the pool task otherwise.
    Self-contained on purpose — the persistent pool is reused across
    batches, so the context travels with the chunk (pickled once per
    worker per batch) instead of via a pool initializer bound to one
    batch's data.
    """
    context, cells = payload
    return [
        _run_cell(context, query_index, technique)
        for query_index, technique in cells
    ]


# -- persistent pool ----------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide executor, grown (never shrunk) to ``workers``."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS < workers:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (idempotent; re-created on demand)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def optimize_many(
    queries: Sequence[Query],
    techniques: Sequence[str],
    stats: CatalogStatistics | None = None,
    budget: SearchBudget | None = None,
    cost_model: CostModel | None = None,
    workers: int | None = 1,
    robust: bool = False,
) -> list[list[BatchItem]]:
    """Optimize every query with every technique, in parallel.

    Args:
        queries: Query instances (must share one schema/statistics world).
        techniques: Technique names (see
            :func:`repro.core.available_techniques`).
        stats: Shared statistics snapshot; collected from the first query's
            schema when omitted.
        budget: Per-cell search budget.
        cost_model: Cost-model override.
        workers: Requested process count; ``None`` means the CPU count.
            The effective mode comes from :func:`execution_plan` — capped
            at the CPU count, serial below 2 workers or
            :data:`MIN_PARALLEL_CELLS` cells.
        robust: Wrap each technique in its fallback ladder
            (:func:`repro.robust.ladder_from`), as the bench runner's
            robust mode does.

    Returns:
        ``grid[q][t]`` — a :class:`BatchItem` per (query, technique), in
        submission order independent of completion order.

    Raises:
        ServiceError: on an empty query or technique list.
    """
    queries = list(queries)
    techniques = list(techniques)
    if not queries:
        raise ServiceError("optimize_many() needs at least one query")
    if not techniques:
        raise ServiceError("optimize_many() needs at least one technique")
    if stats is None:
        stats = analyze(queries[0].schema)

    cells = [
        (query_index, technique)
        for query_index in range(len(queries))
        for technique in techniques
    ]
    mode, effective, _reason = execution_plan(workers, len(cells))
    context = (queries, stats, budget, cost_model, robust)

    with maybe_span(
        current_tracer(), SPAN_SERVICE_BATCH,
        queries=len(queries), techniques=len(techniques),
        cells=len(cells), workers=effective, mode=mode,
    ):
        if mode == "serial":
            items = _run_chunk((context, cells))
        else:
            # One contiguous chunk per worker: context pickled once per
            # worker, every worker busy for the whole batch, and chunk
            # concatenation preserves submission order.
            base, extra = divmod(len(cells), effective)
            chunks = []
            start = 0
            for worker_index in range(effective):
                size = base + (1 if worker_index < extra else 0)
                if size == 0:
                    break
                chunks.append(cells[start : start + size])
                start += size
            pool = _get_pool(effective)
            items = []
            try:
                futures = [
                    pool.submit(_run_chunk, (context, chunk)) for chunk in chunks
                ]
                for future in futures:
                    items.extend(future.result())
            except BrokenProcessPool:
                # A worker died: drop the broken pool so the next batch
                # gets a fresh one, and run the cells not collected yet
                # in-process. Cells are deterministic, so the grid is the
                # one the pool would have returned.
                shutdown_pool()
                items.extend(_run_chunk((context, cells[len(items) :])))

    width = len(techniques)
    return [items[row * width : (row + 1) * width] for row in range(len(queries))]
