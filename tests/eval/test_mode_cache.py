"""Unit tests of the per-mode result cache and its observability.

Covers the bounded-LRU mechanics (hits refresh recency, capacity
evicts oldest, byte accounting follows), the metrics emitted on the
process-global registry, per-problem memoisation incl. sharing across
``with_probabilities`` re-targets, the config fingerprint, and the
dirty-mode contract: after a single-mode edit, the clean modes' prep
lookups are cache hits.
"""

import random

import pytest

from repro.benchgen.suite import suite_problem
from repro.eval.cache import (
    MODE_CACHE_CAPACITY,
    ModeOutcome,
    ModePrep,
    ModeResultCache,
    config_fingerprint,
    mode_cache_for,
)
from repro.mapping.encoding import MappingString, mode_bounds
from repro.obs.metrics import REGISTRY
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.evaluator import evaluate_mapping

from tests.conftest import make_two_mode_problem

FP = ("none", True, 0)


def _prep(n: int = 1) -> ModePrep:
    return ModePrep(
        mode_mapping={f"t{i}": "PE0" for i in range(n)},
        mobilities={},
        demand={},
    )


def _outcome() -> ModeOutcome:
    return ModeOutcome(schedule=None, timing={}, dynamic=0.0, static=0.0)


class TestLruMechanics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ModeResultCache(0)

    def test_get_miss_then_hit(self):
        cache = ModeResultCache(4)
        key = ("m0", ("PE0",), FP)
        assert cache.get_prep(key) is None
        value = _prep()
        cache.put_prep(key, value)
        assert cache.get_prep(key) is value
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_eviction_drops_least_recently_used(self):
        cache = ModeResultCache(2)
        keys = [("m0", (f"PE{i}",), FP) for i in range(3)]
        cache.put_prep(keys[0], _prep())
        cache.put_prep(keys[1], _prep())
        # Touch keys[0] so keys[1] becomes the eviction victim.
        assert cache.get_prep(keys[0]) is not None
        cache.put_prep(keys[2], _prep())
        assert cache.evictions == 1
        assert cache.get_prep(keys[0]) is not None
        assert cache.get_prep(keys[1]) is None
        assert cache.get_prep(keys[2]) is not None

    def test_segments_are_bounded_independently(self):
        cache = ModeResultCache(1)
        cache.put_prep(("m0", ("PE0",), FP), _prep())
        cache.put_sched(("m0", ("PE0",), (), FP), _outcome())
        assert len(cache) == 2
        assert cache.evictions == 0
        cache.put_prep(("m0", ("PE1",), FP), _prep())
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_byte_accounting_tracks_eviction_and_clear(self):
        cache = ModeResultCache(1)
        big, small = _prep(10), _prep(1)
        cache.put_prep(("m0", ("PE0",), FP), big)
        assert cache.bytes_resident == big.approx_bytes
        cache.put_prep(("m0", ("PE1",), FP), small)
        assert cache.bytes_resident == small.approx_bytes
        cache.clear()
        assert cache.bytes_resident == 0
        assert len(cache) == 0

    def test_stats_summary(self):
        cache = ModeResultCache(8)
        cache.get_prep(("m0", ("PE0",), FP))
        cache.put_prep(("m0", ("PE0",), FP), _prep())
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["capacity"] == 8
        assert stats["bytes_resident"] > 0


class TestMetrics:
    def test_hits_misses_and_evictions_are_metered_per_mode(self):
        base = REGISTRY.snapshot()
        cache = ModeResultCache(1)
        cache.get_prep(("modeA", ("PE0",), FP))
        cache.put_prep(("modeA", ("PE0",), FP), _prep())
        cache.get_prep(("modeA", ("PE0",), FP))
        cache.put_prep(("modeB", ("PE1",), FP), _prep())  # evicts modeA
        delta = REGISTRY.delta_since(base)["counters"]

        def count(name, **labels):
            from repro.obs.metrics import metric_key

            return delta.get(metric_key(name, labels), 0.0)

        assert count(
            "eval_mode_cache_misses_total", mode="modeA", stage="prep"
        ) == 1
        assert count(
            "eval_mode_cache_hits_total", mode="modeA", stage="prep"
        ) == 1
        assert count(
            "eval_mode_cache_evictions_total", mode="modeA", stage="prep"
        ) == 1

    def test_gauges_published(self):
        cache = ModeResultCache(4)
        cache.put_prep(("m0", ("PE0",), FP), _prep())
        cache.get_prep(("m0", ("PE0",), FP))
        assert REGISTRY.gauge_value("eval_mode_cache_bytes_resident") > 0
        assert REGISTRY.gauge_value("eval_mode_cache_entries") >= 1
        assert 0.0 < REGISTRY.gauge_value("eval_mode_cache_hit_rate") <= 1.0

    def test_clear_resets_meters_and_gauges(self):
        # Regression: clear() used to leave the hit-rate gauge (and the
        # hit/miss/eviction meters) at their pre-clear values until the
        # next lookup, so --status reported stale cache stats after a
        # with_probabilities retarget.
        cache = ModeResultCache(4)
        key = ("m0", ("PE0",), FP)
        cache.get_prep(key)
        cache.put_prep(key, _prep())
        cache.get_prep(key)
        assert REGISTRY.gauge_value("eval_mode_cache_hit_rate") == 0.5
        cache.clear()
        assert cache.hits == 0
        assert cache.misses == 0
        assert cache.evictions == 0
        assert cache.hit_rate == 0.0
        assert REGISTRY.gauge_value("eval_mode_cache_hit_rate") == 0.0
        assert REGISTRY.gauge_value("eval_mode_cache_bytes_resident") == 0
        assert REGISTRY.gauge_value("eval_mode_cache_entries") == 0


class TestJournalPublication:
    """The cross-worker publication channel of the async pool."""

    def test_insertions_journal_only_while_armed(self):
        cache = ModeResultCache(8)
        cache.put_prep(("m0", ("PE0",), FP), _prep())
        cache.start_journal()
        assert cache.drain_journal() == []
        value = _prep()
        cache.put_prep(("m0", ("PE1",), FP), value)
        outcome = _outcome()
        cache.put_sched(("m0", ("PE1",), (), FP), outcome)
        drained = cache.drain_journal()
        assert drained == [
            ("prep", ("m0", ("PE1",), FP), value),
            ("sched", ("m0", ("PE1",), (), FP), outcome),
        ]
        # Drain empties the journal but keeps it armed.
        assert cache.drain_journal() == []
        cache.put_prep(("m0", ("PE2",), FP), _prep())
        assert len(cache.drain_journal()) == 1

    def test_apply_published_inserts_if_absent(self):
        source = ModeResultCache(8)
        source.start_journal()
        source.put_prep(("m0", ("PE0",), FP), _prep())
        source.put_sched(("m0", ("PE0",), (), FP), _outcome())
        entries = source.drain_journal()

        target = ModeResultCache(8)
        local = _prep()
        target.put_prep(("m0", ("PE0",), FP), local)
        applied = target.apply_published(entries)
        # The prep key was already resident: the local value wins.
        assert applied == 1
        assert target.get_prep(("m0", ("PE0",), FP)) is local
        assert target.get_sched(("m0", ("PE0",), (), FP)) is not None

    def test_apply_published_meters_no_hits_or_misses(self):
        source = ModeResultCache(8)
        source.start_journal()
        source.put_prep(("m0", ("PE0",), FP), _prep())
        target = ModeResultCache(8)
        target.apply_published(source.drain_journal())
        assert target.hits == 0
        assert target.misses == 0
        assert target.bytes_resident > 0
        assert len(target) == 1

    def test_apply_published_does_not_echo_into_journal(self):
        source = ModeResultCache(8)
        source.start_journal()
        source.put_prep(("m0", ("PE0",), FP), _prep())
        entries = source.drain_journal()
        target = ModeResultCache(8)
        target.start_journal()
        target.apply_published(entries)
        # A broadcast applied while journalling must not be re-published.
        assert target.drain_journal() == []

    def test_apply_published_respects_capacity(self):
        source = ModeResultCache(8)
        source.start_journal()
        for i in range(3):
            source.put_prep(("m0", (f"PE{i}",), FP), _prep())
        target = ModeResultCache(2)
        target.apply_published(source.drain_journal())
        assert len(target) == 2
        assert target.evictions == 1


class TestConfigFingerprint:
    def test_captures_result_affecting_facets(self):
        base = SynthesisConfig()
        assert config_fingerprint(base) == config_fingerprint(
            base.with_updates(area_weight=1.0, population_size=10, seed=9)
        )
        for changed in (
            base.with_updates(dvs=DvsMethod.GRADIENT),
            base.with_updates(dvs_shared_rail=False),
            base.with_updates(inner_loop_iterations=2),
        ):
            assert config_fingerprint(changed) != config_fingerprint(base)


class TestModeCacheFor:
    def test_memoised_per_problem(self):
        problem = make_two_mode_problem()
        cache = mode_cache_for(problem)
        assert mode_cache_for(problem) is cache
        assert cache.capacity == MODE_CACHE_CAPACITY

    def test_shared_across_probability_retargets(self):
        problem = make_two_mode_problem()
        cache = mode_cache_for(problem)
        names = problem.omsm.mode_names
        weights = {
            name: (0.9 if i == 0 else 0.1 / max(1, len(names) - 1))
            for i, name in enumerate(names)
        }
        retargeted = problem.with_probabilities(weights)
        assert mode_cache_for(retargeted) is cache


class TestDirtyModeConsistency:
    """After a single-mode edit, the clean modes must hit in cache."""

    def test_clean_modes_hit_after_single_mode_edit(self):
        problem = suite_problem("mul1")
        config = SynthesisConfig()
        cache = ModeResultCache(256)
        rng = random.Random(11)
        genome = MappingString.random(problem, rng)
        evaluate_mapping(problem, genome, config, cache=cache)

        bounds = mode_bounds(problem)
        dirty_name, start, _end = bounds[0]
        index = start
        candidates = genome.candidates_at(index)
        replacement = next(
            (pe for pe in candidates if pe != genome.genes[index]), None
        )
        if replacement is None:
            pytest.skip("gene 0 has a single candidate PE")
        edited = genome.with_gene(index, replacement)
        assert edited.dirty_modes == frozenset({dirty_name})

        before = cache.hits
        evaluate_mapping(problem, edited, config, cache=cache)
        clean_modes = len(problem.omsm.mode_names) - 1
        # Every clean mode hits at least its prep entry; the dirty mode
        # must not (its gene slice changed).
        assert cache.hits - before >= clean_modes

    def test_identical_genome_is_all_hits(self):
        problem = make_two_mode_problem()
        config = SynthesisConfig()
        cache = ModeResultCache(64)
        rng = random.Random(3)
        genome = MappingString.random(problem, rng)
        first = evaluate_mapping(problem, genome, config, cache=cache)
        misses_after_first = cache.misses
        second = evaluate_mapping(
            problem, MappingString(problem, genome.genes), config, cache=cache
        )
        assert cache.misses == misses_after_first
        if first is not None:
            assert second is not None
            assert second.metrics.fitness == first.metrics.fitness
