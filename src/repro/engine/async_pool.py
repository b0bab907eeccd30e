"""Work-stealing asynchronous evaluation with a shared mode cache.

The barrier pool in :mod:`repro.engine.parallel` splits each generation
into static chunks and blocks until the whole batch returns: one slow
chunk idles every other worker, and each fork worker's
:class:`~repro.eval.cache.ModeResultCache` diverges copy-on-write the
moment it inserts an entry the others never see.  This module replaces
both behaviours while keeping the results bit-identical:

**Work stealing.**  Genomes are dispatched one at a time through
``imap_unordered(chunksize=1)`` — the pool's task queue *is* the shared
deque, and a worker that finishes early simply pulls the next genome
instead of waiting behind a barrier.  Results carry their batch index
and are assembled in deterministic genome order, so ``jobs=1`` vs
``jobs=N`` (and async vs barrier) stay bit-identical: evaluation is a
pure function of the genome, and dispatch order can only change *when*
a result arrives, never *what* it is.

**Cache coherence.**  Each worker journals its mode-cache insertions
(:meth:`~repro.eval.cache.ModeResultCache.start_journal`) and ships the
journal back with every result.  The parent — acting as the cache
server — folds the entries into its own master cache (so serial and
local-search evaluations benefit too) and broadcasts them to every
*other* worker over a per-worker unbounded queue; workers drain their
queue before each task with non-blocking gets.  Entries are Ψ- and
probability-independent values, applied insert-if-absent without
touching hit/miss meters, so coherence is purely a performance channel:
it can never change a result, only how fast one is produced.

**Speculation.**  :meth:`AsyncWorkStealingPool.submit_speculative`
dispatches *predicted* genomes through a separate ``imap_unordered``
call while the parent is still breeding the real next generation.
Speculative tasks are tagged in their payload, evaluated identically
(their mode-cache journals publish either way), and buffered by gene
tuple on arrival; the next :meth:`evaluate` serves matching genomes
from the buffer instead of re-dispatching them.  Because evaluation is
a pure function of the genome, a served speculation is bit-identical to
an on-demand evaluation — speculation, like coherence, is purely a
performance channel.  Unconfirmed buffer entries persist across batches
(deeper probes may land generations later) until
:meth:`cancel_speculation` counts them as discards.  The dispatch
window used for pool utilisation re-bases onto the earliest outstanding
speculative submission, so idle-filling work is honestly charged as
capacity.

Worker identity (which broadcast queue a worker drains) is claimed from
a shared counter in the pool initializer.  A worker respawned after a
crash re-claims a slot modulo the worker count, which at worst shares a
queue between two processes — lost broadcasts degrade hit rate, never
correctness.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.pool
import pickle
import queue
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.engine.profile import PROFILER, PhaseTotals
from repro.engine.records import EvalRecord, evaluate_genes
from repro.eval.cache import ModeResultCache, PublishedEntry, mode_cache_for
from repro.obs.metrics import REGISTRY, MetricsSnapshot
from repro.problem import Problem

# Worker-process state claimed in the pool initializer: this worker's
# broadcast slot and the queue it drains for cache updates published by
# its peers.
_worker_slot: int = -1
_worker_updates: Optional[Any] = None

#: Gene tuple of one genome — the identity speculation is keyed by.
GeneTuple = Tuple[str, ...]

#: One task payload: ``(batch index, genes, speculative)``.  Speculative
#: tasks carry index ``-1``; their identity is the gene tuple.
TaskPayload = Tuple[int, GeneTuple, bool]

#: One task result: ``(batch index, worker slot, record, profiler
#: delta, metrics delta, busy seconds, journalled cache insertions,
#: genes — echoed for speculative tasks, ``None`` otherwise)``.
TaskResult = Tuple[
    int,
    int,
    EvalRecord,
    PhaseTotals,
    MetricsSnapshot,
    float,
    List[PublishedEntry],
    Optional[GeneTuple],
]


def _init_async_worker(
    counter: Any,
    updates: Sequence[Any],
    payload: Optional[bytes],
) -> None:
    """Claim a worker slot and arm the cache journal.

    Delegates problem/config state to the :mod:`repro.engine.parallel`
    initializers (fork workers inherited it copy-on-write; spawn
    workers rebuild it from ``payload``), then claims the next free
    broadcast slot from the shared counter.
    """
    from repro.engine import parallel

    if payload is not None:
        parallel._init_worker(payload)
    else:
        parallel._init_forked_worker()
    global _worker_slot, _worker_updates
    with counter.get_lock():
        slot = counter.value
        counter.value += 1
    _worker_slot = slot % len(updates)
    _worker_updates = updates[_worker_slot]
    assert parallel._worker_problem is not None
    mode_cache_for(parallel._worker_problem).start_journal()


def _drain_updates(cache: ModeResultCache) -> None:
    """Apply every pending peer-published cache batch (non-blocking)."""
    if _worker_updates is None:
        return
    while True:
        try:
            entries = _worker_updates.get_nowait()
        except queue.Empty:
            return
        cache.apply_published(entries)


def _eval_one(payload: TaskPayload) -> TaskResult:
    """Evaluate one genome inside a pool worker (the stolen task body)."""
    from repro.engine import parallel

    # The busy window spans the whole task service — peer-update drain,
    # profiling bookkeeping and journal drain included — because that is
    # worker capacity spent on this task; only queue waits are idle.
    started = time.perf_counter()
    index, genes, speculative = payload
    problem = parallel._worker_problem
    config = parallel._worker_config
    assert problem is not None and config is not None
    cache = mode_cache_for(problem)
    _drain_updates(cache)
    base = PROFILER.snapshot()
    metrics_base = REGISTRY.snapshot()
    if speculative:
        # The same evaluation, additionally attributed to the
        # `speculate` phase; the inner per-mode phases still record
        # themselves, so a confirmed prediction's phase profile matches
        # an on-demand evaluation's exactly, plus the speculate bucket.
        with PROFILER.phase("speculate"):
            record = evaluate_genes(
                problem, genes, config, parallel._worker_context
            )
    else:
        record = evaluate_genes(
            problem, genes, config, parallel._worker_context
        )
    published = cache.drain_journal()
    busy = time.perf_counter() - started
    return (
        index,
        _worker_slot,
        record,
        PROFILER.delta_since(base),
        REGISTRY.delta_since(metrics_base),
        busy,
        published,
        genes if speculative else None,
    )


@dataclass
class AsyncBatchResult:
    """What one work-stealing batch produced, parent-side.

    ``records`` is in genome order regardless of completion order;
    ``steals`` counts non-speculative tasks taken beyond an even static
    split (``sum over workers of max(0, taken − ceil(total / workers))``)
    — the work the barrier pool would have left stranded behind its
    slowest chunk.  ``speculation_hits`` counts batch slots served from
    the speculation buffer; ``speculation_discards`` counts buffered
    predictions abandoned by :meth:`AsyncWorkStealingPool.
    cancel_speculation`.
    """

    records: List[EvalRecord]
    busy_seconds: float = 0.0
    dispatch_seconds: float = 0.0
    steals: int = 0
    tasks_per_worker: Dict[int, int] = field(default_factory=dict)
    published_entries: int = 0
    speculation_hits: int = 0
    speculation_discards: int = 0


class AsyncWorkStealingPool:
    """A process pool dispatching single genomes with cache publication.

    Construction creates the worker processes (raising on any platform
    failure — the caller owns fallback policy); :meth:`evaluate` runs
    one batch; :meth:`submit_speculative` dispatches predicted genomes
    ahead of their batch; :meth:`close` / :meth:`terminate` end
    service.  One instance serves one :class:`ParallelEvaluator` for
    its lifetime.
    """

    def __init__(
        self, problem: Problem, config: Any, jobs: int
    ) -> None:
        self.problem = problem
        self.config = config
        self.jobs = jobs
        self.speculation_issued = 0
        self.speculation_hits = 0
        self.speculation_discards = 0
        self._master_cache = mode_cache_for(problem)
        #: Results of completed speculative tasks, keyed by gene tuple,
        #: awaiting confirmation by a later batch.
        self._spec_buffer: Dict[GeneTuple, EvalRecord] = {}
        #: Gene tuples dispatched speculatively but not yet returned.
        self._spec_pending: Set[GeneTuple] = set()
        #: Live ``imap_unordered`` iterators of speculative submissions.
        self._spec_iters: List[Iterator[TaskResult]] = []
        #: Start of the current dispatch window: set by the earliest
        #: outstanding speculative submission so idle-filling work is
        #: charged as pool capacity; ``None`` between windows.
        self._window_started: Optional[float] = None
        counter = multiprocessing.Value("i", 0)
        # Unbounded queues with feeder threads: the parent's broadcast
        # put never blocks on a worker that is slow to drain, so the
        # result loop cannot deadlock against a full pipe.
        self._updates = [multiprocessing.Queue() for _ in range(jobs)]
        if multiprocessing.get_start_method() == "fork":
            from repro.engine import parallel

            parallel._worker_problem = problem
            parallel._worker_config = config
            parallel._worker_context = parallel.context_for(problem)
            payload: Optional[bytes] = None
        else:  # pragma: no cover - spawn platforms
            payload = pickle.dumps(
                (
                    problem.omsm,
                    problem.architecture,
                    problem.technology,
                    config,
                )
            )
        self._pool: Optional[multiprocessing.pool.Pool] = (
            multiprocessing.Pool(
                processes=jobs,
                initializer=_init_async_worker,
                initargs=(counter, self._updates, payload),
            )
        )

    # ------------------------------------------------------------------
    # Result absorption (shared by batch and speculative drains)
    # ------------------------------------------------------------------

    def _absorb(
        self,
        task: TaskResult,
        worker_phase_totals: Dict[Any, Tuple[float, int]],
        result: AsyncBatchResult,
    ) -> Tuple[int, EvalRecord, Optional[GeneTuple], int]:
        """Fold one task result into parent state.

        Merges the worker's profiler and metric deltas, applies and
        broadcasts published cache entries, and books busy time.
        Returns ``(index, record, speculative genes, worker slot)``.
        """
        (
            index,
            slot,
            record,
            phase_delta,
            metrics_delta,
            busy,
            published,
            spec_genes,
        ) = task
        result.busy_seconds += busy
        for name, (seconds, calls) in phase_delta.items():
            prev_seconds, prev_calls = worker_phase_totals.get(
                name, (0.0, 0)
            )
            worker_phase_totals[name] = (
                prev_seconds + seconds,
                prev_calls + calls,
            )
        REGISTRY.merge(metrics_delta)
        REGISTRY.observe("engine_task_seconds", busy)
        REGISTRY.inc("engine_pool_tasks_total", worker=str(slot))
        if published:
            result.published_entries += len(published)
            self._master_cache.apply_published(published)
            for peer, updates in enumerate(self._updates):
                if peer != slot:
                    updates.put(published)
        return index, record, spec_genes, slot

    def _drain_speculation(
        self,
        worker_phase_totals: Dict[Any, Tuple[float, int]],
        result: AsyncBatchResult,
    ) -> None:
        """Absorb every outstanding speculative result into the buffer.

        Blocks until the speculative iterators are exhausted — their
        tasks were queued ahead of any batch now being dispatched, so
        workers finish them first anyway; journal entries publish here
        even for predictions that turn out wrong.
        """
        for iterator in self._spec_iters:
            for task in iterator:
                _, record, spec_genes, _ = self._absorb(
                    task, worker_phase_totals, result
                )
                assert spec_genes is not None
                self._spec_buffer[spec_genes] = record
        self._spec_iters.clear()
        self._spec_pending.clear()

    def _update_hit_rate_gauge(self) -> None:
        if self.speculation_issued:
            REGISTRY.set_gauge(
                "engine_speculation_hit_rate",
                self.speculation_hits / self.speculation_issued,
            )

    # ------------------------------------------------------------------
    # Speculative dispatch
    # ------------------------------------------------------------------

    def speculation_covers_any(
        self, gene_tuples: Sequence[GeneTuple]
    ) -> bool:
        """Whether any of these genomes has a speculative result coming."""
        if not self._spec_pending and not self._spec_buffer:
            return False
        return any(
            genes in self._spec_pending or genes in self._spec_buffer
            for genes in gene_tuples
        )

    def submit_speculative(
        self, gene_tuples: Sequence[GeneTuple]
    ) -> int:
        """Dispatch predicted genomes ahead of their batch.

        Genomes already speculated (outstanding or buffered) are
        skipped; the rest enter the pool's shared task queue through a
        dedicated ``imap_unordered`` call that a later
        :meth:`evaluate` or :meth:`cancel_speculation` drains.  Returns
        the number of tasks actually issued.
        """
        assert self._pool is not None
        fresh: List[GeneTuple] = []
        for genes in gene_tuples:
            if (
                genes in self._spec_pending
                or genes in self._spec_buffer
                or genes in fresh
            ):
                continue
            fresh.append(genes)
        if not fresh:
            return 0
        if self._window_started is None:
            self._window_started = time.perf_counter()
        payloads: List[TaskPayload] = [
            (-1, genes, True) for genes in fresh
        ]
        self._spec_iters.append(
            self._pool.imap_unordered(_eval_one, payloads, chunksize=1)
        )
        self._spec_pending.update(fresh)
        self.speculation_issued += len(fresh)
        REGISTRY.inc(
            "engine_speculation_issued_total", amount=len(fresh)
        )
        return len(fresh)

    def cancel_speculation(
        self, worker_phase_totals: Dict[Any, Tuple[float, int]]
    ) -> AsyncBatchResult:
        """Retire all speculative state, counting leftovers as discards.

        Outstanding tasks cannot be revoked from the pool's queue, so
        they are drained (publishing their cache journals — a
        misprediction still warms every cache) and then dropped with
        the rest of the buffer.  Returns an empty-records batch result
        carrying the busy/dispatch seconds and discard count to fold
        into the evaluator's accounting.
        """
        result = AsyncBatchResult(records=[])
        if not self._spec_iters and not self._spec_buffer:
            return result
        window_started = self._window_started
        self._window_started = None
        self._drain_speculation(worker_phase_totals, result)
        discards = len(self._spec_buffer)
        self._spec_buffer.clear()
        if discards:
            self.speculation_discards += discards
            result.speculation_discards = discards
            REGISTRY.inc(
                "engine_speculation_discards_total", amount=discards
            )
        if window_started is not None:
            result.dispatch_seconds = (
                time.perf_counter() - window_started
            )
        self._update_hit_rate_gauge()
        return result

    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self,
        gene_tuples: Sequence[GeneTuple],
        worker_phase_totals: Dict[Any, Tuple[float, int]],
    ) -> AsyncBatchResult:
        """Run one batch through the shared task queue.

        Results merge as they land: records slot into their genome
        index, profiler deltas accumulate into ``worker_phase_totals``,
        metric deltas fold into the parent registry, and published
        cache entries are applied to the master cache then broadcast to
        every other worker.  Genomes covered by speculation are served
        from the buffer once the speculative iterators drain; only the
        uncovered remainder is dispatched.
        """
        assert self._pool is not None
        total = len(gene_tuples)
        records: List[Optional[EvalRecord]] = [None] * total
        result = AsyncBatchResult(records=[])
        window_started = self._window_started
        self._window_started = None
        if window_started is None:
            window_started = time.perf_counter()
        covered: List[Tuple[int, GeneTuple]] = []
        payloads: List[TaskPayload] = []
        for position, genes in enumerate(gene_tuples):
            if (
                genes in self._spec_buffer
                or genes in self._spec_pending
            ):
                covered.append((position, genes))
            else:
                payloads.append((position, genes, False))
        outstanding = len(payloads)
        REGISTRY.set_gauge("engine_pool_queue_depth", outstanding)
        iterator = (
            self._pool.imap_unordered(_eval_one, payloads, chunksize=1)
            if payloads
            else None
        )
        # Speculative tasks entered the queue first, so workers drain
        # them before batch tasks regardless; absorbing them first just
        # makes their records servable below.
        if self._spec_iters:
            self._drain_speculation(worker_phase_totals, result)
        if iterator is not None:
            for task in iterator:
                index, record, _, slot = self._absorb(
                    task, worker_phase_totals, result
                )
                records[index] = record
                result.tasks_per_worker[slot] = (
                    result.tasks_per_worker.get(slot, 0) + 1
                )
                outstanding -= 1
                REGISTRY.set_gauge(
                    "engine_pool_queue_depth", outstanding
                )
        served: Set[GeneTuple] = set()
        for position, genes in covered:
            records[position] = self._spec_buffer[genes]
            served.add(genes)
        for genes in served:
            del self._spec_buffer[genes]
        if served:
            result.speculation_hits = len(served)
            self.speculation_hits += len(served)
            REGISTRY.inc(
                "engine_speculation_hits_total", amount=len(served)
            )
            self._update_hit_rate_gauge()
        result.dispatch_seconds = time.perf_counter() - window_started
        # Steal accounting covers the batch's own tasks: an even static
        # split is only defined for work that existed at dispatch time.
        fair_share = math.ceil(max(1, len(payloads)) / self.jobs)
        result.steals = sum(
            max(0, taken - fair_share)
            for taken in result.tasks_per_worker.values()
        )
        if result.steals:
            REGISTRY.inc("engine_pool_steals_total", amount=result.steals)
        assert all(record is not None for record in records)
        result.records = records  # type: ignore[assignment]
        return result

    def _close_queues(self) -> None:
        for updates in self._updates:
            try:  # pragma: no cover - teardown robustness
                updates.cancel_join_thread()
                updates.close()
            except Exception:
                pass

    def close(self) -> None:
        """Graceful shutdown (idempotent)."""
        if self._pool is not None:
            try:
                self._pool.close()
                self._pool.join()
            except Exception:  # pragma: no cover - defensive
                self._pool.terminate()
            self._pool = None
        self._close_queues()

    def terminate(self) -> None:
        """Hard stop without draining queued tasks (abnormal exits)."""
        if self._pool is not None:
            try:  # pragma: no cover - teardown robustness
                self._pool.terminate()
                self._pool.join()
            except Exception:
                pass
            self._pool = None
        self._close_queues()
