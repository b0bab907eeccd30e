"""Acceptance: per-mode phase timings sum exactly to the aggregates.

The ISSUE criterion verified here: for a real synthesis run the
per-mode breakdown of every phase (``perf.mode_phase_seconds``) sums,
within float tolerance, to that phase's aggregate ``phase_seconds`` —
with serial evaluation and with a worker pool, whose per-mode buckets
travel back to the parent as profiler deltas.  With the incremental
pipeline a warm mode-result cache may skip per-mode stages entirely
(they then record *nothing*, keeping the invariant trivially) and
serves hits in a dedicated per-mode ``cache_hit`` phase.
"""

import pytest

from repro.engine.profile import SHARED_MODE
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer

from tests.conftest import make_two_mode_problem
from tests.oracles.evaluator import substituted

#: Phases always timed per mode (whichever of them actually run).
#: ``dvs_vector`` nests inside ``dvs`` when the array kernels run.
PER_MODE_PHASES = {"mobility", "schedule", "dvs", "dvs_vector", "cache_hit"}
#: Phases timed once per candidate (or per prediction pass, for
#: ``speculate`` — which wraps whole evaluations on the worker side and
#: the replay on the parent side), landing in the shared bucket.
SHARED_PHASES = {"cores", "power", "speculate"}


@pytest.fixture(scope="module")
def problem():
    return make_two_mode_problem()


def _run(problem, jobs, **overrides):
    config = SynthesisConfig(
        population_size=10,
        max_generations=4,
        convergence_generations=10,
        dvs=DvsMethod.GRADIENT,
        jobs=jobs,
        seed=5,
        **overrides,
    )
    return MultiModeSynthesizer(problem, config).run()


@pytest.mark.parametrize("jobs", [1, 4])
def test_mode_buckets_sum_to_phase_aggregates(problem, jobs):
    perf = _run(problem, jobs).perf
    assert perf is not None
    assert perf.phase_seconds, "no phases were profiled"
    assert set(perf.mode_phase_seconds) == set(perf.phase_seconds)
    for phase, total in perf.phase_seconds.items():
        buckets = perf.mode_phase_seconds[phase]
        assert sum(buckets.values()) == pytest.approx(total)
        assert sum(
            perf.mode_phase_calls[phase].values()
        ) == perf.phase_calls[phase]


@pytest.mark.parametrize("jobs", [1, 4])
def test_mode_attribution_matches_phase_kind(problem, jobs):
    perf = _run(problem, jobs).perf
    mode_names = {mode.name for mode in problem.omsm.modes}
    assert set(perf.mode_phase_seconds) <= PER_MODE_PHASES | SHARED_PHASES
    # Per-mode phases are attributed to real modes (a warm cache may
    # have skipped a stage for some — or all — modes)...
    for phase in PER_MODE_PHASES & set(perf.mode_phase_seconds):
        buckets = set(perf.mode_phase_seconds[phase])
        assert buckets and buckets <= mode_names
    # ...while whole-mapping phases land in the shared bucket.
    for phase in SHARED_PHASES & set(perf.mode_phase_seconds):
        assert set(perf.mode_phase_seconds[phase]) == {SHARED_MODE}


@pytest.mark.parametrize("jobs", [1, 4])
def test_cache_hits_profiled_per_mode(jobs):
    # A fresh problem, evaluated twice with the same seed: the second
    # run replays identical genomes against the warm per-mode cache, so
    # hits must show up — in the dedicated per-mode cache_hit phase, in
    # the PerfStats counters, and still summing to the aggregates.
    problem = make_two_mode_problem()
    cold = _run(problem, jobs).perf
    assert cold.mode_cache_misses > 0
    warm = _run(problem, jobs).perf
    assert warm.mode_cache_hits > 0
    assert 0.0 < warm.mode_cache_hit_rate <= 1.0
    mode_names = {mode.name for mode in problem.omsm.modes}
    buckets = warm.mode_phase_seconds["cache_hit"]
    assert set(buckets) <= mode_names
    assert sum(buckets.values()) == pytest.approx(
        warm.phase_seconds["cache_hit"]
    )


@pytest.mark.parametrize("jobs", [1, 4])
def test_dvs_vector_phase_per_mode(jobs):
    # The array kernels time themselves in a dedicated ``dvs_vector``
    # phase nested inside ``dvs``: per-mode buckets must sum exactly to
    # the aggregate and never exceed the enclosing dvs time.
    problem = make_two_mode_problem()
    perf = _run(problem, jobs).perf
    assert "dvs_vector" in perf.phase_seconds
    mode_names = {mode.name for mode in problem.omsm.modes}
    buckets = perf.mode_phase_seconds["dvs_vector"]
    assert buckets and set(buckets) <= mode_names
    assert sum(buckets.values()) == pytest.approx(
        perf.phase_seconds["dvs_vector"]
    )
    assert perf.phase_seconds["dvs_vector"] <= perf.phase_seconds["dvs"]


def test_legacy_dvs_records_no_vector_phase():
    # A run with the oracle evaluator substituted (the bench harness's
    # legacy arm) must never reach the production DVS kernels.
    problem = make_two_mode_problem()
    with substituted():
        perf = _run(problem, 1).perf
    assert "dvs" in perf.phase_seconds
    assert "dvs_vector" not in perf.phase_seconds


def test_mode_cache_disabled_records_no_cache_activity():
    # ... nor touch the production mode-result cache.
    problem = make_two_mode_problem()
    with substituted():
        perf = _run(problem, 1).perf
    assert perf.mode_cache_hits == 0
    assert perf.mode_cache_misses == 0
    assert perf.mode_cache_hit_rate == 0.0
    assert "cache_hit" not in perf.phase_seconds
