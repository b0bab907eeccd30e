"""Differential fuzz: the barrier pool vs serial evaluation.

Randomised GA chains on suite, smartphone and stress instances must
produce *exactly* equal results with ``jobs=1`` and with ``jobs=2`` —
fitness, history, best genome, evaluation counts, the Pareto sweep, and
the per-mode phase-bucket invariant (buckets sum to the aggregates) —
and a checkpointed run must resume bit-identically.

The pooled arm has its dispatch verdict forced to ``pool``, so every
batch of at least two genomes goes through the barrier pool even on
hosts where the measuring router would keep them in-process.

The configs are drawn once per instance from a seeded RNG and shared
verbatim across the arms (only ``jobs`` differs), so any divergence is
the pool's fault, never the sampler's.
"""

import json
import random

import pytest

from repro.benchgen.multimode import MultiModeSpec, generate_problem
from repro.benchgen.smartphone import smartphone_problem
from repro.benchgen.suite import suite_problem
from repro.engine import backend as backend_module
from repro.engine.backend import POOL, dispatch_verdicts
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer
from repro.synthesis.pareto import area_power_tradeoff
from repro.synthesis.state import GAState


def _stress_mini():
    """A denser-than-suite instance for the stress tier of the fuzz.

    Scaled down from the registry's ``stress1`` (whose 200+-task modes
    are sized for per-call kernel benches, not whole GA runs) to fit
    the differential budget while still out-sizing mul1–mul8.
    """
    return generate_problem(
        MultiModeSpec(
            name="stress-mini",
            seed=777,
            mode_tasks=(18, 22, 16),
            pe_count=4,
            cl_count=2,
        )
    )


#: (instance loader, DVS method) fuzz corpus.  GRADIENT exercises the
#: full inner loop on the small suite instances; the larger graphs run
#: NONE to keep the differential affordable.
CORPUS = [
    ("mul1", lambda: suite_problem("mul1"), DvsMethod.GRADIENT),
    ("mul3", lambda: suite_problem("mul3"), DvsMethod.GRADIENT),
    ("smartphone", smartphone_problem, DvsMethod.NONE),
    ("stress-mini", _stress_mini, DvsMethod.NONE),
]


def _draw_config(name: str, dvs: DvsMethod) -> SynthesisConfig:
    rng = random.Random(f"pool-fuzz:{name}")
    return SynthesisConfig(
        dvs=dvs,
        seed=rng.randrange(10_000),
        population_size=rng.choice([10, 12, 14]),
        max_generations=rng.choice([3, 4]),
        convergence_generations=10,
        local_search_budget_factor=rng.choice([0.0, 0.5]),
        group_mutation_rate=rng.choice([0.1, 0.3]),
        shutdown_mutation_rate=rng.choice([0.0, 0.02]),
    )


def _forced_pool(problem, jobs=2):
    """``problem`` with its dispatch verdict for ``jobs`` set to pool."""
    dispatch_verdicts(problem)[jobs] = POOL
    return problem


def _assert_bucket_invariant(perf) -> None:
    assert perf is not None
    assert set(perf.mode_phase_seconds) == set(perf.phase_seconds)
    for phase, total in perf.phase_seconds.items():
        assert sum(
            perf.mode_phase_seconds[phase].values()
        ) == pytest.approx(total)
        assert sum(
            perf.mode_phase_calls[phase].values()
        ) == perf.phase_calls[phase]


@pytest.mark.parametrize(
    "name,loader,dvs", CORPUS, ids=[entry[0] for entry in CORPUS]
)
def test_forced_pool_and_serial_chains_identical(name, loader, dvs):
    base = _draw_config(name, dvs)
    # A fresh problem per arm: no shared decode context or warm mode
    # cache can paper over a divergence between the two.
    serial = MultiModeSynthesizer(loader(), base.with_updates(jobs=1)).run()
    pooled = MultiModeSynthesizer(
        _forced_pool(loader()), base.with_updates(jobs=2)
    ).run()
    assert pooled.perf.dispatch_verdict == POOL
    assert pooled.perf.parallel_evaluations > 0
    assert pooled.history == serial.history
    assert pooled.best.metrics.fitness == serial.best.metrics.fitness
    assert pooled.best.mapping.genes == serial.best.mapping.genes
    assert pooled.evaluations == serial.evaluations
    assert pooled.generations == serial.generations
    assert pooled.average_power == serial.average_power
    _assert_bucket_invariant(serial.perf)
    _assert_bucket_invariant(pooled.perf)


def test_forced_pool_pareto_sets_identical(monkeypatch):
    # The sweep builds its own scaled problems, so the verdict is forced
    # where the router looks it up.
    monkeypatch.setattr(
        backend_module, "dispatch_verdicts", lambda problem: {2: POOL}
    )
    config = SynthesisConfig(
        population_size=10,
        max_generations=3,
        convergence_generations=10,
        local_search_budget_factor=0.0,
        seed=13,
    )
    points = {
        jobs: area_power_tradeoff(
            suite_problem("mul1"),
            scales=(0.75, 1.25),
            config=config.with_updates(jobs=jobs),
            runs=1,
            base_seed=3,
        )
        for jobs in (1, 2)
    }
    assert points[1] == points[2]


def test_kill_resume_bit_identical_with_forced_pool():
    config = SynthesisConfig(
        population_size=10,
        max_generations=6,
        convergence_generations=8,
        local_search_budget_factor=0.0,
        seed=31,
        jobs=2,
    )
    snapshots = []
    reference = MultiModeSynthesizer(
        _forced_pool(suite_problem("mul1")), config
    ).run(on_generation=snapshots.append)
    assert reference.perf.parallel_evaluations > 0
    assert snapshots, "run emitted no generation snapshots"
    # Serialise through JSON exactly like the checkpoint store: this is
    # the state a killed campaign job restarts from.
    state = GAState.from_dict(
        json.loads(json.dumps(snapshots[len(snapshots) // 2].to_dict()))
    )
    resumed = MultiModeSynthesizer(
        _forced_pool(suite_problem("mul1")), config
    ).run(resume=state)
    assert resumed.perf.parallel_evaluations > 0
    assert resumed.history == reference.history
    assert resumed.best.mapping.genes == reference.best.mapping.genes
    assert resumed.average_power == reference.average_power
    assert resumed.generations == reference.generations
