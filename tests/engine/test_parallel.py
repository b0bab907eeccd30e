"""ParallelEvaluator behaviour: serial fallback, pooling, resilience."""

import random

import pytest

from repro.engine.parallel import ParallelEvaluator
from repro.engine.records import EvalRecord, evaluate_genes
from repro.mapping.encoding import MappingString
from repro.synthesis.config import SynthesisConfig

from tests.conftest import make_two_mode_problem


@pytest.fixture
def problem():
    return make_two_mode_problem()


def _genomes(problem, count, seed=0):
    rng = random.Random(seed)
    return [MappingString.random(problem, rng) for _ in range(count)]


def _serial_records(problem, config, genomes):
    return [
        evaluate_genes(problem, genome.genes, config) for genome in genomes
    ]


class TestSerialPath:
    def test_jobs_one_creates_no_pool(self, problem):
        config = SynthesisConfig(jobs=1)
        with ParallelEvaluator(problem, config) as evaluator:
            assert not evaluator.uses_pool
            genomes = _genomes(problem, 6)
            records = evaluator.evaluate_batch(genomes)
        assert records == _serial_records(problem, config, genomes)
        assert all(isinstance(r, EvalRecord) for r in records)

    def test_empty_batch(self, problem):
        with ParallelEvaluator(problem, SynthesisConfig(jobs=1)) as ev:
            assert ev.evaluate_batch([]) == []

    def test_jobs_default_from_config(self, problem):
        evaluator = ParallelEvaluator(problem, SynthesisConfig(jobs=3))
        try:
            assert evaluator.jobs == 3
        finally:
            evaluator.close()


class TestPooledPath:
    def test_barrier_pool_matches_serial_records(self, problem):
        config = SynthesisConfig(jobs=2, async_pool=False)
        genomes = _genomes(problem, 10)
        with ParallelEvaluator(problem, config) as evaluator:
            if not evaluator.uses_pool:  # pragma: no cover - platform
                pytest.skip("process pool unavailable on this platform")
            records = evaluator.evaluate_batch(genomes)
            assert evaluator.batches == 1
            # The dispatching process evaluates the final chunk itself,
            # so worker-side counts cover all but that chunk.
            assert 0 < evaluator.parallel_evaluations < len(genomes)
            assert evaluator.pool_busy_seconds > 0.0
            assert evaluator.pool_dispatch_seconds > 0.0
            # Static chunking never steals.
            assert evaluator.pool_steals == 0
            assert evaluator.worker_phase_totals
        assert records == _serial_records(problem, config, genomes)

    def test_order_preserved_across_chunks(self, problem):
        config = SynthesisConfig(jobs=2, async_pool=False)
        genomes = _genomes(problem, 9, seed=4)
        with ParallelEvaluator(problem, config) as evaluator:
            if not evaluator.uses_pool:  # pragma: no cover - platform
                pytest.skip("process pool unavailable on this platform")
            records = evaluator.evaluate_batch(genomes)
        expected = _serial_records(problem, config, genomes)
        assert [r.fitness for r in records] == [
            r.fitness for r in expected
        ]

    def test_dead_pool_falls_back_to_serial(self, problem):
        config = SynthesisConfig(jobs=2, async_pool=False)
        genomes = _genomes(problem, 4)
        evaluator = ParallelEvaluator(problem, config)
        try:
            if not evaluator.uses_pool:  # pragma: no cover - platform
                pytest.skip("process pool unavailable on this platform")
            # Simulate a worker crash by tearing the pool down behind
            # the evaluator's back; the batch must still be answered,
            # and the degradation must be *surfaced* (warning + counter),
            # never silent.
            evaluator._pool.terminate()
            evaluator._pool.join()
            with pytest.warns(RuntimeWarning, match="in-process"):
                records = evaluator.evaluate_batch(genomes)
            assert not evaluator.uses_pool
            assert evaluator.pool_failures == 1
            assert evaluator.last_pool_error is not None
            assert records == _serial_records(problem, config, genomes)
            # Later batches stay on the serial path without error.
            again = evaluator.evaluate_batch(genomes)
            assert again == records
        finally:
            evaluator.close()

    def test_dead_pool_raises_in_raise_mode(self, problem):
        from repro.errors import WorkerPoolError

        config = SynthesisConfig(
            jobs=2, async_pool=False, pool_failure_mode="raise"
        )
        genomes = _genomes(problem, 4)
        evaluator = ParallelEvaluator(problem, config)
        try:
            if not evaluator.uses_pool:  # pragma: no cover - platform
                pytest.skip("process pool unavailable on this platform")
            assert evaluator.failure_mode == "raise"
            evaluator._pool.terminate()
            evaluator._pool.join()
            with pytest.raises(WorkerPoolError):
                evaluator.evaluate_batch(genomes)
            assert evaluator.pool_failures == 1
        finally:
            evaluator.close()

    def test_close_is_idempotent(self, problem):
        evaluator = ParallelEvaluator(problem, SynthesisConfig(jobs=2))
        evaluator.close()
        evaluator.close()
        assert not evaluator.uses_pool


class TestAsyncPool:
    """The work-stealing strategy behind ``async_pool=True`` (default)."""

    def test_async_is_the_default_strategy(self, problem):
        with ParallelEvaluator(problem, SynthesisConfig(jobs=2)) as ev:
            if not ev.uses_pool:  # pragma: no cover - platform
                pytest.skip("process pool unavailable on this platform")
            assert ev._async is not None
            assert ev._pool is None

    def test_async_matches_serial_records(self, problem):
        config = SynthesisConfig(jobs=2)
        genomes = _genomes(problem, 10, seed=7)
        with ParallelEvaluator(problem, config) as evaluator:
            if not evaluator.uses_pool:  # pragma: no cover - platform
                pytest.skip("process pool unavailable on this platform")
            records = evaluator.evaluate_batch(genomes)
            assert evaluator.batches == 1
            # Work stealing sends *every* genome through the queue;
            # there is no parent-local chunk.
            assert evaluator.parallel_evaluations == len(genomes)
            assert evaluator.pool_busy_seconds > 0.0
            assert evaluator.pool_dispatch_seconds > 0.0
            assert evaluator.worker_phase_totals
        serial_config = SynthesisConfig(jobs=1)
        assert records == _serial_records(problem, serial_config, genomes)

    def test_async_and_barrier_records_identical(self, problem):
        genomes = _genomes(problem, 11, seed=8)
        results = {}
        for flag in (True, False):
            config = SynthesisConfig(jobs=2, async_pool=flag)
            with ParallelEvaluator(problem, config) as evaluator:
                if not evaluator.uses_pool:  # pragma: no cover
                    pytest.skip("process pool unavailable")
                results[flag] = evaluator.evaluate_batch(genomes)
        assert results[True] == results[False]

    def test_async_publishes_cache_entries_to_parent(self, problem):
        from repro.eval.cache import mode_cache_for

        config = SynthesisConfig(jobs=2)
        cache = mode_cache_for(problem)
        assert len(cache) == 0
        genomes = _genomes(problem, 8, seed=9)
        with ParallelEvaluator(problem, config) as evaluator:
            if not evaluator.uses_pool:  # pragma: no cover - platform
                pytest.skip("process pool unavailable on this platform")
            evaluator.evaluate_batch(genomes)
        # Worker-computed entries were applied to the master cache
        # without being metered as local lookups.
        assert len(cache) > 0
        assert cache.hits == 0 and cache.misses == 0

    def test_dead_async_pool_falls_back_to_serial(self, problem):
        config = SynthesisConfig(jobs=2)
        genomes = _genomes(problem, 4)
        evaluator = ParallelEvaluator(problem, config)
        try:
            if not evaluator.uses_pool:  # pragma: no cover - platform
                pytest.skip("process pool unavailable on this platform")
            evaluator._async._pool.terminate()
            evaluator._async._pool.join()
            with pytest.warns(RuntimeWarning, match="in-process"):
                records = evaluator.evaluate_batch(genomes)
            assert not evaluator.uses_pool
            assert evaluator.pool_failures == 1
            serial_config = SynthesisConfig(jobs=1)
            assert records == _serial_records(
                problem, serial_config, genomes
            )
        finally:
            evaluator.close()


class TestInProcessAccounting:
    """In-process evals must never leak into the pool busy window."""

    def test_tiny_batch_books_inprocess_not_pool_busy(self, problem):
        # A batch smaller than the worker count takes the in-process
        # shortcut; its wall-clock belongs to the inprocess_* counters,
        # not to pool_busy_seconds (which would inflate utilisation for
        # cache-hot late generations).
        config = SynthesisConfig(jobs=4)
        genomes = _genomes(problem, 2, seed=5)
        with ParallelEvaluator(problem, config) as evaluator:
            records = evaluator.evaluate_batch(genomes)
            assert len(records) == 2
            assert evaluator.inprocess_evaluations == 2
            assert evaluator.inprocess_eval_seconds > 0.0
            assert evaluator.pool_busy_seconds == 0.0
            assert evaluator.pool_dispatch_seconds == 0.0
            assert evaluator.batches == 0

    def test_serial_evaluator_books_inprocess(self, problem):
        config = SynthesisConfig(jobs=1)
        genomes = _genomes(problem, 3, seed=6)
        with ParallelEvaluator(problem, config) as evaluator:
            evaluator.evaluate_batch(genomes)
            assert evaluator.inprocess_evaluations == 3
            assert evaluator.inprocess_eval_seconds > 0.0
            assert evaluator.pool_busy_seconds == 0.0
