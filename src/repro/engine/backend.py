"""The evaluation-backend protocol behind the generation loop.

The :class:`~repro.synthesis.driver.GenerationDriver` never touches a
pool directly: it submits genome batches to an
:class:`EvaluationBackend` and drains records back, and the backend
decides *where* they are computed — in-process
(:class:`SerialBackend`) or, under ``jobs > 1``, on whichever of the
barrier process pool and the parent process measures faster
(:class:`PooledBackend`).  Every backend is bit-identical for the same
genomes, because evaluation is a pure function of the genome; backends
differ only in wall-clock and accounting.

Measured dispatch.  At the paper's scale one evaluation costs about a
millisecond, about what shipping it to a worker and back costs, and
whether ``N`` busy processes deliver ``N`` times the throughput of one
depends on the host and on what else runs on it.  No fixed cost model
can know this, so :class:`PooledBackend` times both
routes on the run's own batches and commits to the faster one.  The
verdict is memoised on the :class:`~repro.problem.Problem` per worker
count (:func:`dispatch_verdicts`), so a campaign probes once per
instance, not once per job.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Sequence

from repro.engine.parallel import ParallelEvaluator, evaluate_inprocess
from repro.engine.profile import PerfStats
from repro.engine.records import EvalRecord
from repro.mapping.encoding import MappingString
from repro.obs.metrics import REGISTRY
from repro.problem import Problem
from repro.synthesis.config import SynthesisConfig

#: Routing verdicts (see :attr:`PerfStats.dispatch_verdict`).
POOL = "pool"
INPROCESS = "inprocess"
UNPROBED = "unprobed"

#: Genomes each route must have evaluated before the two are compared.
PROBE_GENOMES = 24

#: The pool wins only if its wall seconds per genome are below this
#: fraction of the in-process figure; anything closer is a tie, and a
#: tie stays in-process (no worker processes, no IPC, one cache).
POOL_WIN_RATIO = 0.8

#: The clock routes are timed with; tests replace it to force a verdict.
_clock = time.perf_counter


def dispatch_verdicts(problem: Problem) -> Dict[int, str]:
    """The problem's memoised routing verdicts, keyed by worker count.

    Follows the ``mode_cache_for`` pattern: the mapping rides on the
    :class:`Problem` object, and ``Problem.with_probabilities``
    descendants share it (the cost of an evaluation does not depend on
    Ψ).
    """
    verdicts = getattr(problem, "_dispatch_verdicts", None)
    if verdicts is None:
        verdicts = {}
        problem._dispatch_verdicts = verdicts  # type: ignore[attr-defined]
    return verdicts


class EvaluationBackend(ABC):
    """Where one synthesis run's genome batches get evaluated.

    Usage protocol, per batch: :meth:`submit` a deduplicated list of
    genomes, then :meth:`drain` their records in submission order.
    One batch may be outstanding at a time.  :meth:`finalize_perf`
    folds the backend's accounting into the run's :class:`PerfStats`;
    :meth:`close` / :meth:`terminate` end service.
    """

    #: Configured worker count (1 = in-process).
    jobs: int = 1

    @abstractmethod
    def submit(self, genomes: Sequence[MappingString]) -> None:
        """Accept one batch of genomes for evaluation."""

    @abstractmethod
    def drain(self) -> List[EvalRecord]:
        """Records of the submitted batch, in submission order."""

    def finalize_perf(self, perf: PerfStats) -> None:
        """Fold this backend's accounting into a run summary."""

    def close(self) -> None:
        """Graceful shutdown (idempotent)."""

    def terminate(self) -> None:
        """Hard stop for abnormal exits (idempotent)."""


class SerialBackend(EvaluationBackend):
    """In-process evaluation — the reference backend.

    Books its work through the shared
    :func:`~repro.engine.parallel.evaluate_inprocess` helper, so the
    ``inprocess_*`` figures mean the same thing they mean for the
    batches a :class:`PooledBackend` keeps in-process.
    """

    def __init__(self, problem: Problem, config: SynthesisConfig) -> None:
        self.problem = problem
        self.config = config
        self.jobs = 1
        self.inprocess_evaluations = 0
        self.inprocess_eval_seconds = 0.0
        self._pending: Optional[List[MappingString]] = None

    def submit(self, genomes: Sequence[MappingString]) -> None:
        assert self._pending is None, "one batch may be outstanding"
        self._pending = list(genomes)

    def _take(self) -> List[MappingString]:
        assert self._pending is not None, "nothing submitted"
        genomes, self._pending = self._pending, None
        return genomes

    def _evaluate_inprocess(
        self, genomes: Sequence[MappingString]
    ) -> List[EvalRecord]:
        records, elapsed = evaluate_inprocess(
            self.problem, self.config, genomes
        )
        self.inprocess_evaluations += len(records)
        self.inprocess_eval_seconds += elapsed
        return records

    def drain(self) -> List[EvalRecord]:
        return self._evaluate_inprocess(self._take())

    def finalize_perf(self, perf: PerfStats) -> None:
        perf.inprocess_evaluations += self.inprocess_evaluations
        perf.inprocess_eval_seconds += self.inprocess_eval_seconds


class PooledBackend(SerialBackend):
    """Routes each batch to the barrier pool or in-process, by measurement.

    The backend starts in-process and forks its
    :class:`ParallelEvaluator` only for the first batch it routes to
    the pool, so the workers inherit the parent's warmed mode cache
    copy-on-write.  Until a verdict exists, the cold first batch runs
    in-process untimed, and then batches of at least ``jobs`` genomes
    alternate between the pool and the parent, each timed in wall
    seconds per genome.  Once both routes have evaluated
    :data:`PROBE_GENOMES` genomes, the pool wins if it is clearly faster
    (:data:`POOL_WIN_RATIO`); otherwise the pool is closed at once and
    the rest of the run stays in-process.  The verdict is memoised per
    worker count on the problem.  Batches smaller than ``jobs`` always
    run in-process: they cannot keep the workers busy.

    A pool that dies follows ``pool_failure_mode``: ``"raise"``
    surfaces :class:`~repro.errors.WorkerPoolError`, ``"fallback"``
    finishes the run in-process.
    """

    def __init__(self, problem: Problem, config: SynthesisConfig) -> None:
        super().__init__(problem, config)
        self.jobs = config.jobs
        self.evaluator: Optional[ParallelEvaluator] = None
        self._verdicts = dispatch_verdicts(problem)
        self.verdict = self._verdicts.get(self.jobs, UNPROBED)
        #: Timed probe batches per route: [wall seconds, genomes].
        self.samples: Dict[str, List[Any]] = {
            POOL: [0.0, 0],
            INPROCESS: [0.0, 0],
        }
        self._cold = True
        self._next_probe = POOL

    def drain(self) -> List[EvalRecord]:
        genomes = self._take()
        cold, self._cold = self._cold, False
        if len(genomes) < self.jobs:
            return self._evaluate_inprocess(genomes)
        if self.verdict == POOL:
            return self._pool().evaluate_batch(genomes)
        if self.verdict == INPROCESS or cold:
            return self._evaluate_inprocess(genomes)
        route = self._next_probe
        self._next_probe = INPROCESS if route == POOL else POOL
        evaluate = (
            self._pool().evaluate_batch
            if route == POOL
            else self._evaluate_inprocess
        )
        started = _clock()
        records = evaluate(genomes)
        elapsed = _clock() - started
        if route == POOL and not self._pool().uses_pool:
            # The pool failed and fell back: nothing left to probe.
            self.verdict = INPROCESS
            return records
        sample = self.samples[route]
        sample[0] += elapsed
        sample[1] += len(genomes)
        self._decide()
        return records

    def _pool(self) -> ParallelEvaluator:
        if self.evaluator is None:
            self.evaluator = ParallelEvaluator(self.problem, self.config)
        return self.evaluator

    def _decide(self) -> None:
        pool_seconds, pool_genomes = self.samples[POOL]
        local_seconds, local_genomes = self.samples[INPROCESS]
        if min(pool_genomes, local_genomes) < PROBE_GENOMES:
            return
        pool_wins = pool_seconds / pool_genomes < (
            POOL_WIN_RATIO * local_seconds / local_genomes
        )
        self.verdict = POOL if pool_wins else INPROCESS
        self._verdicts[self.jobs] = self.verdict
        if not pool_wins:
            self.close()

    # The benchmark's span tracer (perfbench/tracer.py) wraps these two
    # by name and is their only caller; they go with its next change.
    def speculate(self, *args: Any) -> None:
        """No-op kept for the benchmark's span tracer."""

    def cancel_speculation(self) -> None:
        """No-op kept for the benchmark's span tracer."""

    def finalize_perf(self, perf: PerfStats) -> None:
        super().finalize_perf(perf)
        perf.dispatch_verdict = self.verdict
        REGISTRY.inc("engine_dispatch_verdicts_total", verdict=self.verdict)
        evaluator = self.evaluator
        if evaluator is None:
            return
        perf.merge_phase_totals(evaluator.worker_phase_totals)
        perf.batches = evaluator.batches
        perf.parallel_evaluations = evaluator.parallel_evaluations
        perf.pool_busy_seconds = evaluator.pool_busy_seconds
        perf.pool_workers = evaluator.pool_workers
        perf.pool_service_seconds = evaluator.pool_service_seconds
        perf.pool_dispatch_seconds = evaluator.pool_dispatch_seconds
        perf.pool_fallbacks = evaluator.pool_failures
        perf.inprocess_evaluations += evaluator.inprocess_evaluations
        perf.inprocess_eval_seconds += evaluator.inprocess_eval_seconds

    def close(self) -> None:
        if self.evaluator is not None:
            self.evaluator.close()

    def terminate(self) -> None:
        if self.evaluator is not None:
            self.evaluator.terminate()


def backend_for(
    problem: Problem, config: SynthesisConfig
) -> EvaluationBackend:
    """The backend a configuration asks for: serial or measured-pooled."""
    if config.jobs > 1:
        return PooledBackend(problem, config)
    return SerialBackend(problem, config)
