"""End-to-end engine guarantees: parallel determinism and dedup.

The headline contract of the evaluation engine is that *nothing about
how* candidates are evaluated — in-process, cached, deduplicated or
dispatched to a pool — may change *what* the GA computes.  A synthesis
run is a pure function of (problem, config-minus-jobs, seed).
"""

import random


from repro.benchgen.suite import suite_problem
from repro.mapping.encoding import MappingString
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer, synthesize

from tests.conftest import make_two_mode_problem
from tests.oracles.evaluator import substituted


def _small_config(**overrides):
    base = dict(
        dvs=DvsMethod.GRADIENT,
        seed=9,
        population_size=14,
        max_generations=10,
        convergence_generations=5,
        local_search_budget_factor=0.5,
    )
    base.update(overrides)
    return SynthesisConfig(**base)


class TestParallelDeterminism:
    def test_serial_and_pooled_runs_identical(self):
        problem = suite_problem("mul1")
        serial = synthesize(problem, _small_config(jobs=1))
        pooled = synthesize(problem, _small_config(jobs=2))
        assert serial.history == pooled.history
        assert (
            serial.best.metrics.fitness == pooled.best.metrics.fitness
        )
        assert serial.best.mapping.genes == pooled.best.mapping.genes
        assert serial.evaluations == pooled.evaluations
        assert serial.generations == pooled.generations

    def test_decode_cache_off_still_identical(self):
        # The production evaluator against the seed's recompute-per-
        # candidate oracle, over a whole GA run.
        problem = make_two_mode_problem()
        fast = synthesize(problem, _small_config(jobs=1))
        with substituted():
            legacy = synthesize(problem, _small_config(jobs=1))
        assert fast.history == legacy.history
        assert fast.best.metrics.fitness == legacy.best.metrics.fitness

    def test_perf_stats_populated(self):
        problem = make_two_mode_problem()
        result = synthesize(problem, _small_config(jobs=1))
        perf = result.perf
        assert perf is not None
        assert perf.evaluations == result.evaluations
        assert perf.wall_time > 0.0
        assert perf.jobs == 1
        assert perf.evaluations_per_second > 0.0
        # Every evaluator phase must have been timed.
        for phase in ("mobility", "cores", "schedule", "dvs", "power"):
            assert perf.phase_seconds.get(phase, 0.0) > 0.0
            assert perf.phase_calls.get(phase, 0) > 0

    def test_pooled_perf_reports_pool_activity(self):
        problem = make_two_mode_problem()
        result = synthesize(problem, _small_config(jobs=2))
        perf = result.perf
        assert perf is not None
        assert perf.jobs == 2
        if perf.parallel_evaluations:
            assert perf.batches > 0
            assert perf.pool_busy_seconds > 0.0
            assert perf.pool_utilisation > 0.0


class TestDeduplication:
    def test_duplicate_slots_collapse_to_one_evaluation(self):
        problem = make_two_mode_problem()
        synthesizer = MultiModeSynthesizer(
            problem, SynthesisConfig(jobs=1)
        )
        rng = random.Random(2)
        unique = [MappingString.random(problem, rng) for _ in range(4)]
        population = unique + [unique[0], unique[2], unique[2]]

        records = synthesizer._evaluate_population(population, None)

        assert len(records) == len(population)
        assert synthesizer._evaluations == len(unique)
        assert synthesizer._dedup_hits == len(population) - len(unique)
        # Duplicate slots received the same cached record.
        assert records[4] == records[0]
        assert records[5] == records[2] == records[6]

    def test_cache_hits_across_generations(self):
        problem = make_two_mode_problem()
        synthesizer = MultiModeSynthesizer(
            problem, SynthesisConfig(jobs=1)
        )
        rng = random.Random(3)
        population = [
            MappingString.random(problem, rng) for _ in range(5)
        ]
        synthesizer._evaluate_population(population, None)
        evaluations_after_first = synthesizer._evaluations

        synthesizer._evaluate_population(population, None)
        assert synthesizer._evaluations == evaluations_after_first
        assert synthesizer._cache_hits >= len(population)
