"""Measured dispatch: the ``PooledBackend`` router under forced verdicts.

The router times the barrier pool against in-process evaluation and
commits to the faster.  On a given host only one verdict would ever
occur naturally, so these tests replace the backend's clock with a
fake one and charge each route a fixed cost per genome: the verdict is
then whatever the test asks for.
"""

import json
import random

import pytest

from repro.benchgen.suite import suite_problem
from repro.engine import backend as backend_module
from repro.engine.backend import (
    INPROCESS,
    POOL,
    PROBE_GENOMES,
    UNPROBED,
    PooledBackend,
    dispatch_verdicts,
)
from repro.engine.parallel import ParallelEvaluator
from repro.engine.records import evaluate_genes
from repro.mapping.encoding import MappingString
from repro.obs.metrics import REGISTRY
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer
from repro.synthesis.state import GAState

from tests.conftest import make_two_mode_problem

#: Seconds per genome charged to the winning and the losing route.
FAST = 0.001
SLOW = 0.01


@pytest.fixture
def force(monkeypatch):
    """``force(pool_cost, inprocess_cost)``: fake per-genome route costs."""

    def install(pool_cost, inprocess_cost):
        now = [0.0]
        monkeypatch.setattr(backend_module, "_clock", lambda: now[0])
        evaluate_batch = ParallelEvaluator.evaluate_batch
        evaluate_inprocess = backend_module.evaluate_inprocess

        def pooled(self, genomes):
            records = evaluate_batch(self, genomes)
            now[0] += pool_cost * len(genomes)
            return records

        def inprocess(problem, config, genomes):
            result = evaluate_inprocess(problem, config, genomes)
            now[0] += inprocess_cost * len(genomes)
            return result

        monkeypatch.setattr(ParallelEvaluator, "evaluate_batch", pooled)
        monkeypatch.setattr(backend_module, "evaluate_inprocess", inprocess)

    return install


def _batches(problem, count, size, seed=0):
    rng = random.Random(seed)
    return [
        [MappingString.random(problem, rng) for _ in range(size)]
        for _ in range(count)
    ]


def _drain(backend, genomes):
    backend.submit(genomes)
    return backend.drain()


def _expected(problem, config, genomes):
    return [evaluate_genes(problem, g.genes, config) for g in genomes]


def _probe_until_decided(backend, batches):
    """Drain batches until the router commits; returns the rest."""
    for index, genomes in enumerate(batches):
        _drain(backend, genomes)
        if backend.verdict != UNPROBED:
            return batches[index + 1:]
    raise AssertionError("router never reached a verdict")


def test_pool_loses_rest_of_run_in_process_and_pool_closed(force):
    force(pool_cost=SLOW, inprocess_cost=FAST)
    problem = make_two_mode_problem()
    config = SynthesisConfig(jobs=2)
    backend = PooledBackend(problem, config)
    try:
        assert backend.evaluator is None  # nothing forked up front
        rest = _probe_until_decided(backend, _batches(problem, 12, 12))
        assert backend.verdict == INPROCESS
        assert dispatch_verdicts(problem) == {2: INPROCESS}
        # The pool ran its probe batches and was closed at once.
        evaluator = backend.evaluator
        assert evaluator is not None and not evaluator.uses_pool
        pooled = evaluator.parallel_evaluations
        assert pooled > 0
        inprocess = backend.inprocess_evaluations
        for genomes in rest:
            assert _drain(backend, genomes) == _expected(
                problem, config, genomes
            )
        assert evaluator.parallel_evaluations == pooled
        assert evaluator.pool_failures == 0
        assert backend.inprocess_evaluations == inprocess + sum(
            len(genomes) for genomes in rest
        )
    finally:
        backend.close()


def test_pool_wins_later_batches_stay_pooled(force):
    force(pool_cost=FAST, inprocess_cost=SLOW)
    problem = make_two_mode_problem()
    config = SynthesisConfig(jobs=2)
    backend = PooledBackend(problem, config)
    try:
        rest = _probe_until_decided(backend, _batches(problem, 12, 12))
        assert backend.verdict == POOL
        assert dispatch_verdicts(problem) == {2: POOL}
        evaluator = backend.evaluator
        assert evaluator.uses_pool
        batches = evaluator.batches
        inprocess = backend.inprocess_evaluations
        assert rest
        for genomes in rest:
            assert _drain(backend, genomes) == _expected(
                problem, config, genomes
            )
        assert evaluator.batches == batches + len(rest)
        assert backend.inprocess_evaluations == inprocess
    finally:
        backend.close()


def test_probe_needs_enough_genomes_on_both_routes(force):
    force(pool_cost=FAST, inprocess_cost=SLOW)
    problem = make_two_mode_problem()
    backend = PooledBackend(problem, SynthesisConfig(jobs=2))
    try:
        batches = _batches(problem, 12, 12)
        # The cold first batch is untimed and stays in-process.
        _drain(backend, batches[0])
        assert backend.evaluator is None
        assert backend.inprocess_evaluations == 12
        assert backend.samples[POOL][1] == 0
        # Batches below the worker count never take part.
        _drain(backend, batches[1][:1])
        assert backend.samples == {POOL: [0.0, 0], INPROCESS: [0.0, 0]}
        for genomes in batches[2:]:
            _drain(backend, genomes)
            timed = min(count for _, count in backend.samples.values())
            if backend.verdict != UNPROBED:
                break
            assert timed < PROBE_GENOMES
        assert backend.verdict == POOL
        assert min(
            count for _, count in backend.samples.values()
        ) >= PROBE_GENOMES
    finally:
        backend.close()


def test_tie_goes_in_process(force):
    force(pool_cost=SLOW, inprocess_cost=SLOW)
    problem = make_two_mode_problem()
    backend = PooledBackend(problem, SynthesisConfig(jobs=2))
    try:
        _probe_until_decided(backend, _batches(problem, 12, 12))
        assert backend.verdict == INPROCESS
    finally:
        backend.close()


@pytest.mark.parametrize("verdict", [POOL, INPROCESS])
def test_verdict_memoised_and_inherited(force, verdict):
    costs = (FAST, SLOW) if verdict == POOL else (SLOW, FAST)
    force(*costs)
    problem = make_two_mode_problem()
    config = SynthesisConfig(jobs=2)
    backend = PooledBackend(problem, config)
    try:
        _probe_until_decided(backend, _batches(problem, 12, 12))
    finally:
        backend.close()
    assert dispatch_verdicts(problem) == {2: verdict}

    # A Ψ re-target shares the verdicts; a later run does not re-probe.
    probabilities = {
        mode.name: 1.0 / len(problem.omsm.modes)
        for mode in problem.omsm.modes
    }
    retargeted = problem.with_probabilities(probabilities)
    assert dispatch_verdicts(retargeted) is dispatch_verdicts(problem)
    again = PooledBackend(retargeted, config)
    try:
        assert again.verdict == verdict
        genomes = _batches(retargeted, 1, 12, seed=3)[0]
        assert _drain(again, genomes) == _expected(
            retargeted, config, genomes
        )
        if verdict == POOL:
            # Even the first batch goes to the pool.
            assert again.evaluator.batches == 1
        else:
            assert again.evaluator is None
        assert again.samples == {POOL: [0.0, 0], INPROCESS: [0.0, 0]}
    finally:
        again.close()
    # Another worker count has no verdict yet.
    other = PooledBackend(retargeted, config.with_updates(jobs=3))
    assert other.verdict == UNPROBED


def test_dead_pool_during_probe_falls_back_unmemoised(force):
    force(pool_cost=FAST, inprocess_cost=SLOW)
    problem = make_two_mode_problem()
    config = SynthesisConfig(jobs=2)
    backend = PooledBackend(problem, config)
    batches = _batches(problem, 4, 12)
    try:
        _drain(backend, batches[0])  # cold, in-process
        evaluator = backend._pool()
        evaluator._pool.terminate()
        evaluator._pool.join()
        with pytest.warns(RuntimeWarning, match="in-process"):
            records = _drain(backend, batches[1])
        assert records == _expected(problem, config, batches[1])
        assert backend.verdict == INPROCESS
        assert dispatch_verdicts(problem) == {}
        assert _drain(backend, batches[2]) == _expected(
            problem, config, batches[2]
        )
    finally:
        backend.close()


def test_run_reports_verdict(force):
    force(pool_cost=SLOW, inprocess_cost=FAST)
    config = SynthesisConfig(
        population_size=16,
        max_generations=10,
        convergence_generations=10,
        local_search_budget_factor=0.0,
        seed=2,
        jobs=2,
    )
    before = REGISTRY.counter_value(
        "engine_dispatch_verdicts_total", verdict=INPROCESS
    )
    result = MultiModeSynthesizer(suite_problem("mul3"), config).run()
    perf = result.perf
    assert perf.dispatch_verdict == INPROCESS
    assert perf.to_dict()["dispatch_verdict"] == INPROCESS
    assert perf.parallel_evaluations > 0
    assert perf.inprocess_evaluations > perf.parallel_evaluations
    assert REGISTRY.counter_value(
        "engine_dispatch_verdicts_total", verdict=INPROCESS
    ) == before + 1
    serial = MultiModeSynthesizer(
        suite_problem("mul3"), config.with_updates(jobs=1)
    ).run()
    assert serial.perf.dispatch_verdict == INPROCESS
    assert serial.history == result.history
    assert serial.best.mapping.genes == result.best.mapping.genes


def test_short_run_stays_unprobed():
    config = SynthesisConfig(
        population_size=6,
        max_generations=2,
        convergence_generations=2,
        local_search_budget_factor=0.0,
        seed=1,
        jobs=2,
    )
    problem = make_two_mode_problem()
    result = MultiModeSynthesizer(problem, config).run()
    assert result.perf.dispatch_verdict == UNPROBED
    assert dispatch_verdicts(problem) == {}


@pytest.mark.parametrize("verdict", [POOL, INPROCESS])
def test_kill_resume_bit_identical_with_jobs_two(force, verdict):
    force(*((FAST, SLOW) if verdict == POOL else (SLOW, FAST)))
    config = SynthesisConfig(
        population_size=12,
        max_generations=8,
        convergence_generations=10,
        local_search_budget_factor=0.0,
        seed=31,
        jobs=2,
    )
    snapshots = []
    reference = MultiModeSynthesizer(suite_problem("mul1"), config).run(
        on_generation=snapshots.append
    )
    assert reference.perf.dispatch_verdict == verdict
    # Serialise through JSON exactly like the checkpoint store: this is
    # the state a killed campaign job restarts from, in a fresh process
    # that has no verdict yet.
    state = GAState.from_dict(
        json.loads(json.dumps(snapshots[len(snapshots) // 2].to_dict()))
    )
    resumed = MultiModeSynthesizer(suite_problem("mul1"), config).run(
        resume=state
    )
    assert resumed.history == reference.history
    assert resumed.best.mapping.genes == reference.best.mapping.genes
    assert resumed.average_power == reference.average_power
    assert resumed.generations == reference.generations
