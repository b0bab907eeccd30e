"""Tests for the area/power design-space exploration.

Also home of the fitness tie-breaking contract: equal-fitness
candidates keep a deterministic rank order — stable population order,
identical between serial and pooled evaluation, and unperturbed by the
per-mode result cache (which may change *when* a fitness is computed,
never *what* it is or how ties resolve).
"""

import contextlib
import random

import pytest

from repro.mapping.encoding import MappingString
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.cosynthesis import synthesize
from repro.synthesis.ga import rank_population
from repro.synthesis.pareto import (
    TradeoffPoint,
    area_power_tradeoff,
    format_tradeoff,
    pareto_front,
    scale_hardware_area,
)

from tests.conftest import make_two_mode_problem
from tests.oracles.evaluator import substituted

TINY = SynthesisConfig(
    population_size=10, max_generations=10, convergence_generations=4
)


class TestScaleHardwareArea:
    def test_scales_hw_only(self):
        problem = make_two_mode_problem(asic_area=600.0)
        scaled = scale_hardware_area(problem, 2.0)
        assert scaled.architecture.pe("PE1").area == pytest.approx(
            1200.0
        )
        assert scaled.architecture.pe("PE0").area == 0.0

    def test_original_untouched(self):
        problem = make_two_mode_problem(asic_area=600.0)
        scale_hardware_area(problem, 0.5)
        assert problem.architecture.pe("PE1").area == 600.0

    def test_invalid_scale(self):
        problem = make_two_mode_problem()
        with pytest.raises(ValueError):
            scale_hardware_area(problem, 0.0)


class TestTradeoff:
    def test_sweep_produces_point_per_scale(self):
        problem = make_two_mode_problem()
        points = area_power_tradeoff(
            problem, scales=(0.5, 1.0), config=TINY, runs=1
        )
        assert [p.area_scale for p in points] == [0.5, 1.0]
        for point in points:
            assert point.average_power > 0
            assert point.runs == 1

    def test_more_area_never_hurts_much(self):
        # With more hardware area the optimum can only improve (up to
        # GA noise) since every smaller-area solution remains valid.
        problem = make_two_mode_problem()
        points = area_power_tradeoff(
            problem,
            scales=(0.4, 2.0),
            config=SynthesisConfig(
                population_size=16,
                max_generations=25,
                convergence_generations=8,
            ),
            runs=1,
            base_seed=3,
        )
        small, large = points
        assert large.average_power <= small.average_power * 1.15


class TestParetoFront:
    def make_points(self):
        return [
            TradeoffPoint(0.5, 300.0, 10e-3, 1, 1),
            TradeoffPoint(1.0, 600.0, 6e-3, 1, 1),
            TradeoffPoint(1.5, 900.0, 7e-3, 1, 1),  # dominated
            TradeoffPoint(2.0, 1200.0, 5e-3, 1, 1),
        ]

    def test_dominated_points_removed(self):
        front = pareto_front(self.make_points())
        scales = [p.area_scale for p in front]
        assert 1.5 not in scales
        assert scales == [0.5, 1.0, 2.0]

    def test_front_sorted_by_area(self):
        front = pareto_front(self.make_points())
        areas = [p.total_hw_area for p in front]
        assert areas == sorted(areas)

    def test_duplicate_points_both_survive(self):
        # Two coincident points dominate neither (domination needs a
        # strict improvement in at least one objective).
        twin = TradeoffPoint(1.0, 600.0, 6e-3, 1, 1)
        other = TradeoffPoint(1.0, 600.0, 6e-3, 1, 1)
        front = pareto_front([twin, other])
        assert len(front) == 2

    def test_single_point_is_its_own_front(self):
        point = TradeoffPoint(1.0, 600.0, 6e-3, 1, 1)
        assert pareto_front([point]) == [point]

    def test_empty_input(self):
        assert pareto_front([]) == []

    def test_all_feasible_property(self):
        assert TradeoffPoint(1.0, 600.0, 6e-3, 2, 2).all_feasible
        assert not TradeoffPoint(1.0, 600.0, 6e-3, 1, 2).all_feasible


class TestTieBreakDeterminism:
    """Equal-fitness candidates rank deterministically, cache or not."""

    def test_rank_population_is_stable_on_ties(self):
        problem = make_two_mode_problem()
        rng = random.Random(4)
        genomes = [MappingString.random(problem, rng) for _ in range(6)]
        # Three tie groups; within each, insertion order must survive.
        population = [
            (genomes[0], 2.0),
            (genomes[1], 1.0),
            (genomes[2], 2.0),
            (genomes[3], 1.0),
            (genomes[4], 3.0),
            (genomes[5], 2.0),
        ]
        ranked = rank_population(population, selection_pressure=1.8)
        ordered = [entry.genome for entry in ranked]
        assert ordered == [
            genomes[1],
            genomes[3],
            genomes[0],
            genomes[2],
            genomes[5],
            genomes[4],
        ]
        # Equal fitness still means distinct linear-ranking weights —
        # position, not fitness, carries the weight.
        assert ranked[0].weight == pytest.approx(1.8)
        assert ranked[-1].weight == pytest.approx(0.2)

    @pytest.mark.parametrize("mode_cache", [True, False])
    def test_jobs_and_cache_leave_ordering_unchanged(self, mode_cache):
        # A full run is a pure function of (problem, config-minus-jobs,
        # seed): the best genome and whole fitness history must match
        # between serial and pooled evaluation, through the cached
        # production evaluator or the uncached seed oracle.  Tie-breaks
        # inside rank_population resolve by stable population order,
        # which dispatch must not perturb.
        config = SynthesisConfig(
            population_size=12,
            max_generations=6,
            convergence_generations=10,
            seed=13,
        )
        evaluator = (
            contextlib.nullcontext() if mode_cache else substituted()
        )
        with evaluator:
            serial = synthesize(
                make_two_mode_problem(), config.with_updates(jobs=1)
            )
            pooled = synthesize(
                make_two_mode_problem(), config.with_updates(jobs=4)
            )
        assert serial.history == pooled.history
        assert serial.best.mapping.genes == pooled.best.mapping.genes
        assert (
            serial.best.metrics.fitness == pooled.best.metrics.fitness
        )

    def test_cache_on_off_identical_histories(self):
        config = SynthesisConfig(
            population_size=12,
            max_generations=6,
            convergence_generations=10,
            seed=13,
        )
        on = synthesize(make_two_mode_problem(), config)
        with substituted():
            off = synthesize(make_two_mode_problem(), config)
        assert on.history == off.history
        assert on.best.mapping.genes == off.best.mapping.genes


class TestFormatting:
    def test_table_contains_markers(self):
        text = format_tradeoff(
            [
                TradeoffPoint(0.5, 300.0, 10e-3, 1, 1),
                TradeoffPoint(1.0, 600.0, 6e-3, 1, 1),
            ]
        )
        assert "pareto" in text
        assert "*" in text
        assert "10.000" in text
