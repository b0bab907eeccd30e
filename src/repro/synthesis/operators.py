"""Pure GA stage operators of the generation pipeline.

The generation loop in :mod:`repro.synthesis.driver` is a sequence of
explicit stages — evaluate → rank → select → breed → improve →
(restart) — and this module holds the breeding stages as *pure
functions*: every output is fully determined by the inputs, including
the :class:`random.Random` instance, and no global state is touched
beyond the metrics registry meters inside :mod:`repro.synthesis.ga`.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.engine.records import EvalRecord
from repro.mapping.encoding import MappingString
from repro.problem import Problem
from repro.synthesis import ga
from repro.synthesis import mutations
from repro.synthesis.config import SynthesisConfig


def initial_population(
    problem: Problem, config: SynthesisConfig, rng: random.Random
) -> List[MappingString]:
    """The seed population: half uniform, half software-biased.

    On large problems uniform genomes map ~half of all tasks into
    hardware and violate every area constraint, leaving the GA without
    a feasible foothold — the software-biased half provides one.
    """
    population: List[MappingString] = []
    for index in range(config.population_size):
        if index % 2 == 0:
            population.append(MappingString.random(problem, rng))
        else:
            population.append(
                MappingString.random_software_biased(
                    problem, rng, bias=rng.uniform(0.6, 0.98)
                )
            )
    return population


def maybe_group_move(
    genome: MappingString, rng: random.Random, group_mutation_rate: float
) -> MappingString:
    """With probability ``group_mutation_rate``, apply a type group move."""
    if rng.random() >= group_mutation_rate:
        return genome
    moved = mutations.type_group_move(genome, rng)
    return moved if moved is not None else genome


def breed_next(
    config: SynthesisConfig,
    mutation_rate: float,
    population: Sequence[MappingString],
    records: Sequence[EvalRecord],
    rng: random.Random,
) -> List[MappingString]:
    """Rank, select, cross over and insert: one breeding pipeline pass.

    Consumes the exact RNG draw sequence the monolithic loop used —
    ranking, tournament selection, crossover/mutation, then the
    optional per-offspring group move — so replaying it on a cloned
    generator reproduces the next population bit-identically.
    """
    ranked = ga.rank_population(
        list(zip(population, (r.fitness for r in records))),
        config.selection_pressure,
    )
    parents = ga.select_mating_pool(
        ranked,
        rng,
        config.tournament_size,
        config.population_size - config.elite_count,
    )
    offspring = ga.breed(
        parents, rng, config.crossover_rate, mutation_rate
    )
    if config.group_mutation_rate > 0:
        offspring = [
            maybe_group_move(child, rng, config.group_mutation_rate)
            for child in offspring
        ]
    return ga.insert_offspring(
        ranked,
        offspring,
        config.elite_count,
        config.population_size,
    )
